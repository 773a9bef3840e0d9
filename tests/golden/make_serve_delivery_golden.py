"""Regenerate ``serve_delivery.json``: seeded serve-soak delivery logs.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_serve_delivery_golden.py

The committed file was generated at the commit *before*
:meth:`~repro.core.decoder_vectorized.BatchDecoder.decode_subset` became a
lock-step decode over 2-D beam arrays per observed-position pattern, so it
captures the per-session batch decoder's results.
``tests/test_serve_delivery_golden.py`` replays the same scenarios and
asserts identical results; running this script must leave the file
byte-unchanged.

The scenarios cross three axes of the serve reactor's batched decode:

- SNR 2 dB and 8 dB (long and short transmissions);
- ``arrival_spacing`` 0 (every session in lock-step) and 3 (sessions at
  different puncturing stages share a flush, so one decode batch holds
  several observed-position patterns);
- the default ``max_stack_elements`` and a tiny one (every stacked kernel
  call degenerate).

A scenario pins the run's deterministic summary plus a digest of its
delivery log (``work`` included).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.serve import SoakConfig, run_soak

GOLDEN_PATH = Path(__file__).parent / "serve_delivery.json"
SEED = 4242
TINY_STACK = 16
SCENARIOS = tuple(
    (snr_db, arrival_spacing, max_stack_elements)
    for snr_db in (2.0, 8.0)
    for arrival_spacing in (0, 3)
    for max_stack_elements in (None, TINY_STACK)
)


def soak_config(snr_db: float, arrival_spacing: int, max_stack_elements) -> SoakConfig:
    return SoakConfig(
        n_sessions=32,
        max_in_flight=8,
        arrival_spacing=arrival_spacing,
        snr_db=snr_db,
        seed=SEED,
        payload_bits=24,
        k=4,
        c=6,
        beam_width=8,
        max_symbols=512,
        max_stack_elements=max_stack_elements,
    )


def run_scenario(snr_db: float, arrival_spacing: int, max_stack_elements) -> dict:
    """Serve one soak to completion; return its summary and log digest."""
    result = run_soak(soak_config(snr_db, arrival_spacing, max_stack_elements))
    return {
        "snr_db": snr_db,
        "arrival_spacing": arrival_spacing,
        "max_stack_elements": max_stack_elements,
        "summary": result.summary(),
        "work": sum(d.work for d in result.deliveries),
        "log_sha256": hashlib.sha256(result.delivery_log_json().encode()).hexdigest(),
    }


def main() -> None:
    # One scenario per line keeps the file diffable.
    rows = ",\n".join(json.dumps(run_scenario(*scenario)) for scenario in SCENARIOS)
    GOLDEN_PATH.write_text(f'{{"seed": {SEED}, "scenarios": [\n{rows}\n]}}\n')
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
