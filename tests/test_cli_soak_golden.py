"""Golden differential for the ``serve-soak``, ``city-soak`` and ``mesh`` spellings.

``tests/golden/cli_soak.json`` holds the ``--json`` summaries of every
soak command CI and the CLI tests run, recorded while each command still
had its own build and run body (see ``tests/golden/make_cli_soak_golden.py``,
which also lists the commands).  Replaying them through today's registry
spellings must print every deterministic field unchanged.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "make_cli_soak_golden", _GOLDEN_DIR / "make_cli_soak_golden.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

GOLDEN = json.loads((_GOLDEN_DIR / "cli_soak.json").read_text())


def test_golden_covers_every_command():
    assert list(GOLDEN) == list(generator.COMMANDS)
    assert {argv[0] for argv in generator.COMMANDS.values()} == {
        "serve-soak",
        "city-soak",
        "mesh",
    }


@pytest.mark.parametrize("name", list(generator.COMMANDS))
def test_command_matches_the_golden(name):
    assert generator.run_command(name) == GOLDEN[name]
