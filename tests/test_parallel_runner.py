"""Determinism tests for the registry engine's worker fan-out.

``n_workers`` is purely a wall-clock knob: per-trial generators are spawned
from ``(seed, "trial", label, trial)`` irrespective of worker assignment,
and outcomes are re-assembled in trial order, so any worker count must
reproduce the serial measurement exactly (which also exercises
``spawn_rng`` stability across process boundaries).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder_bubble import BubbleDecoder
from repro.experiments import SpinalRunConfig, get, run_experiment
from repro.utils.rng import derive_seed, spawn_rng

_FAST_AWGN = {
    "payload_bits": 16,
    "k": 4,
    "c": 6,
    "beam_width": 8,
    "search": "sequential",
}


def _rate_trials(snr_db: float, n_trials: int, n_workers: int = 1) -> list:
    outcome = run_experiment(
        get("rate"),
        overrides={**_FAST_AWGN, "snr_db": (snr_db,)},
        n_trials=n_trials,
        n_workers=n_workers,
    )
    ((_key, _params, cell),) = outcome.successful_cells()
    return cell["trials"]


class TestParallelDeterminism:
    def test_awgn_four_workers_match_serial(self):
        assert _rate_trials(8.0, 8, n_workers=4) == _rate_trials(8.0, 8)

    def test_worker_count_does_not_matter(self):
        reference = _rate_trials(10.0, 5)
        for n_workers in (2, 3, 5, 8):
            assert _rate_trials(10.0, 5, n_workers=n_workers) == reference

    def test_bsc_parallel_matches_serial(self):
        def trials(n_workers: int) -> list:
            outcome = run_experiment(
                get("bsc"),
                overrides={"payload_bits": 12, "k": 3, "beam_width": 8, "p": (0.05,)},
                n_trials=6,
                n_workers=n_workers,
            )
            return outcome.record["cells"]

        assert trials(4) == trials(1)

    def test_measurements_match_the_from_scratch_decoder(self, monkeypatch):
        """The stateful engine measures exactly what a fresh decoder does."""
        vectorized = _rate_trials(8.0, 4)
        monkeypatch.setattr(
            SpinalRunConfig,
            "decoder_factory",
            lambda config: lambda enc: BubbleDecoder(enc, beam_width=config.beam_width),
        )
        bubble = _rate_trials(8.0, 4)
        assert [t["rate"] for t in bubble] == [t["rate"] for t in vectorized]
        assert [t["symbols"] for t in bubble] == [t["symbols"] for t in vectorized]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="search"):
            SpinalRunConfig(search="turbo")


class TestSpawnRngStability:
    def test_derive_seed_is_stable(self):
        # Pinned: the derivation must never change silently, or parallel and
        # historical results stop being reproducible.
        assert derive_seed(20111114, "trial", 8.0, 0) == derive_seed(
            20111114, "trial", 8.0, 0
        )
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)

    def test_spawn_rng_streams_are_reproducible(self):
        first = spawn_rng(7, "x", 1).integers(0, 2**32, size=4)
        second = spawn_rng(7, "x", 1).integers(0, 2**32, size=4)
        assert np.array_equal(first, second)
