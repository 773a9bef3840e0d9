"""Golden identity pin for seeded serve-soak delivery logs.

``tests/golden/serve_delivery.json`` holds the summaries and delivery-log
digests of eight small soaks (SNR 2 and 8 dB, lock-step and staggered
arrivals, default and tiny ``max_stack_elements``), recorded with the
per-session batch decoder that the lock-step one replaced (see
``tests/golden/make_serve_delivery_golden.py``, which also defines the
scenarios).  The serve determinism tests in ``tests/test_serve.py`` compare
two runs of the same code; this file compares against a fixed record.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.decoder_vectorized import BatchDecoder
from repro.serve import run_soak

_GOLDEN_DIR = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "make_serve_delivery_golden", _GOLDEN_DIR / "make_serve_delivery_golden.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

GOLDEN = json.loads((_GOLDEN_DIR / "serve_delivery.json").read_text())


def test_golden_covers_the_scenarios():
    assert GOLDEN["seed"] == generator.SEED
    assert [
        (s["snr_db"], s["arrival_spacing"], s["max_stack_elements"])
        for s in GOLDEN["scenarios"]
    ] == list(generator.SCENARIOS)
    for scenario in GOLDEN["scenarios"]:
        assert scenario["summary"]["max_batch_sessions"] > 1


@pytest.mark.parametrize("snr_db", [2.0, 8.0])
def test_staggered_arrivals_mix_observed_position_patterns(snr_db, monkeypatch):
    """With spaced arrivals, some decode batch holds sessions whose stores
    have observations at different sets of positions."""
    patterns_per_batch = []
    decode_subset = BatchDecoder.decode_subset

    def spy(self, n_message_bits, observations_list, sessions):
        patterns_per_batch.append(
            len(
                {
                    tuple(store.count_at(p) > 0 for p in range(store.n_segments))
                    for store in observations_list
                }
            )
        )
        return decode_subset(self, n_message_bits, observations_list, sessions)

    monkeypatch.setattr(BatchDecoder, "decode_subset", spy)
    run_soak(generator.soak_config(snr_db, 3, None))
    assert max(patterns_per_batch) > 1


@pytest.mark.parametrize("number", range(len(generator.SCENARIOS)))
def test_soak_matches_the_golden(number):
    assert generator.run_scenario(*generator.SCENARIOS[number]) == GOLDEN["scenarios"][number]
