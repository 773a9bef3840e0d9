"""Regenerate ``cli_soak.json``: the ``--json`` output of the three soak spellings.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_cli_soak_golden.py

The committed file was generated at the commit *before* ``serve-soak``,
``city-soak`` and ``mesh`` became argument spellings over registry
experiments, while each still had its own build and run body in
``repro.cli``.  ``tests/test_cli_soak_golden.py`` replays every command
through today's CLI and asserts the same JSON; running this script must
leave the file byte-unchanged.

The commands are every ``--json`` invocation the CI smoke job and
``tests/test_cli_and_asciiplot.py`` make, plus a two-replica city.  The
wall-clock fields (``elapsed_s``, ``symbols_per_second`` and the city's
``users_per_second``) are dropped: everything left is deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from repro import cli

GOLDEN_PATH = Path(__file__).parent / "cli_soak.json"

#: The commands, by the name each is stored under.
COMMANDS = {
    "serve-soak-smoke": ["serve-soak", "--smoke"],
    "serve-soak-16": ["serve-soak", "--sessions", "16", "--in-flight", "4"],
    "serve-soak-8": ["serve-soak", "--sessions", "8", "--in-flight", "4"],
    "serve-soak-8-no-batching": [
        "serve-soak", "--sessions", "8", "--in-flight", "4", "--no-batching",
    ],
    "serve-soak-noiseless": ["serve-soak", "--snr", "inf", "--smoke"],
    "city-soak-exact": [
        "city-soak", "--cells", "2", "--users", "4", "--packets-per-user", "1",
        "--tier", "exact", "--max-symbols", "256",
    ],
    "city-soak-exact-2-replicas": [
        "city-soak", "--cells", "2", "--users", "4", "--packets-per-user", "1",
        "--tier", "exact", "--max-symbols", "256", "--replicas", "2",
    ],
    "city-soak-flow": [
        "city-soak", "--cells", "4", "--users", "16", "--packets-per-user", "2",
        "--tier", "flow", "--max-symbols", "256",
    ],
    "city-soak-flow-pf": [
        "city-soak", "--cells", "4", "--users", "16", "--packets-per-user", "2",
        "--tier", "flow", "--max-symbols", "256", "--scheduler", "proportional-fair",
    ],
    "mesh-two-way": ["mesh", "--smoke"],
    "mesh-two-way-af": ["mesh", "--smoke", "--with-af"],
    "mesh-butterfly": ["mesh", "--topology", "butterfly", "--smoke", "--rounds", "1"],
    "mesh-tree": [
        "mesh", "--topology", "tree", "--family", "spinal", "--smoke", "--rounds", "1",
    ],
}

#: Keys that hold wall-clock readings, at the top level or in ``aggregate``.
WALL_CLOCK_KEYS = ("elapsed_s", "symbols_per_second", "users_per_second")


def _drop_wall_clock(summary: dict) -> dict:
    for block in (summary, summary.get("aggregate", {})):
        for key in WALL_CLOCK_KEYS:
            block.pop(key, None)
    return summary


def run_command(name: str) -> dict:
    """Run one command with ``--json``; its printed summary, minus wall clock."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main([*COMMANDS[name], "--json"])
    return _drop_wall_clock(json.loads(stdout.getvalue()))


def main() -> None:
    # One command per line keeps the file diffable.
    rows = ",\n".join(
        f"{json.dumps(name)}: {json.dumps(run_command(name), sort_keys=True)}"
        for name in COMMANDS
    )
    GOLDEN_PATH.write_text(f"{{\n{rows}\n}}\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
