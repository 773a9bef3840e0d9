"""Golden identity pin for seeded city runs.

``tests/golden/city_summary.json`` holds the summaries and packet-outcome
digests of four small walking, interfering cities (round-robin and max-SNR
on the flow and exact tiers) plus a digest of a mobility model's walks,
recorded while every city stream was still derived one
:func:`~repro.utils.rng.spawn_rng` call at a time (see
``tests/golden/make_city_summary_golden.py``, which also defines the
scenarios).  Today's batched derivation must reproduce them exactly.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "make_city_summary_golden", _GOLDEN_DIR / "make_city_summary_golden.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

GOLDEN = json.loads((_GOLDEN_DIR / "city_summary.json").read_text())


def test_golden_covers_the_scenarios():
    assert GOLDEN["seed"] == generator.SEED
    assert [(s["scheduler"], s["tier"]) for s in GOLDEN["scenarios"]] == list(
        generator.SCENARIOS
    )
    for scenario in GOLDEN["scenarios"]:
        assert scenario["summary"]["n_handoffs"] > 0


def test_walks_match_the_golden():
    assert generator.walks_digest() == GOLDEN["walks"]


@pytest.mark.parametrize("number", range(len(generator.SCENARIOS)))
def test_city_matches_the_golden(number):
    assert generator.run_scenario(*generator.SCENARIOS[number]) == GOLDEN["scenarios"][number]
