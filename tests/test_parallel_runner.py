"""Determinism tests for the process-parallel Monte-Carlo runner.

The runner's contract is that ``n_workers`` is purely a wall-clock knob:
per-trial generators are spawned from ``(seed, "trial", label, trial)``
irrespective of worker assignment, and outcomes are re-assembled in trial
order, so any worker count must reproduce the serial measurement exactly
(which also exercises ``spawn_rng`` stability across process boundaries).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder_bubble import BubbleDecoder
from repro.core.params import SpinalParams
from repro.experiments.runner import (
    SpinalRunConfig,
    run_spinal_bsc_point,
    run_spinal_point,
)
from repro.utils.rng import derive_seed, spawn_rng

_FAST_AWGN = SpinalRunConfig(
    payload_bits=16,
    params=SpinalParams(k=4, c=6, seed=31),
    beam_width=8,
    n_trials=8,
    search="sequential",
)


class TestParallelDeterminism:
    def test_awgn_four_workers_match_serial(self):
        serial = run_spinal_point(_FAST_AWGN, 8.0)
        parallel = run_spinal_point(_FAST_AWGN.with_(n_workers=4), 8.0)
        assert parallel.rates == serial.rates
        assert parallel.symbols_sent == serial.symbols_sent
        assert parallel.decoded_ok == serial.decoded_ok

    def test_worker_count_does_not_matter(self):
        reference = run_spinal_point(_FAST_AWGN.with_(n_trials=5), 10.0)
        for n_workers in (2, 3, 5, 8):
            point = run_spinal_point(
                _FAST_AWGN.with_(n_trials=5, n_workers=n_workers), 10.0
            )
            assert point.rates == reference.rates
            assert point.symbols_sent == reference.symbols_sent

    def test_bsc_parallel_matches_serial(self):
        config = SpinalRunConfig(
            payload_bits=12,
            params=SpinalParams(k=3, seed=13, bit_mode=True),
            beam_width=8,
            n_trials=6,
        )
        serial = run_spinal_bsc_point(config, 0.05)
        parallel = run_spinal_bsc_point(config.with_(n_workers=4), 0.05)
        assert parallel.rates == serial.rates
        assert parallel.symbols_sent == serial.symbols_sent
        assert parallel.decoded_ok == serial.decoded_ok

    def test_measurements_match_the_from_scratch_decoder(self, monkeypatch):
        """The stateful engine measures exactly what a fresh decoder does."""
        vectorized = run_spinal_point(_FAST_AWGN.with_(n_trials=4), 8.0)
        monkeypatch.setattr(
            SpinalRunConfig,
            "decoder_factory",
            lambda config: lambda enc: BubbleDecoder(enc, beam_width=config.beam_width),
        )
        bubble = run_spinal_point(_FAST_AWGN.with_(n_trials=4), 8.0)
        assert bubble.rates == vectorized.rates
        assert bubble.symbols_sent == vectorized.symbols_sent

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            SpinalRunConfig(n_workers=0)
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
