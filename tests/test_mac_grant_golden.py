"""Golden differential for the MAC grant path.

``tests/golden/mac_grant.json`` holds the packet outcomes of 54 seeded
two-cell scenarios, recorded while ``MacCell`` still rescanned every queued
user at every grant (see ``tests/golden/make_mac_grant_golden.py``, which
also defines the scenarios).  Replaying them through today's event-driven
grant path must reproduce every outcome: each head opens, aborts, expires
and completes at the same tick, under all three schedulers, with and
without deadlines, staggered arrivals, time-varying channels and handoffs
between the two cells.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "make_mac_grant_golden", _GOLDEN_DIR / "make_mac_grant_golden.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

GOLDEN = json.loads((_GOLDEN_DIR / "mac_grant.json").read_text())


def test_golden_covers_every_axis():
    scenarios = GOLDEN["scenarios"]
    assert GOLDEN["seed"] == generator.SEED
    assert len(scenarios) == generator.N_SCENARIOS
    assert sum(len(s["handoffs"]) for s in scenarios) > 0
    outcomes = [packet for s in scenarios for packet in s["packets"]]
    assert any(p[4] for p in outcomes) and any(not p[4] for p in outcomes)
    assert any(not p[4] and p[5] == 0 for p in outcomes)  # dropped before the air
    assert any(not p[4] and p[5] > 0 for p in outcomes)  # dropped mid-packet


@pytest.mark.parametrize("number", range(generator.N_SCENARIOS))
def test_scenario_matches_the_golden(number):
    assert generator.run_scenario(number) == GOLDEN["scenarios"][number]
