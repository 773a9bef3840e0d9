"""Tests of the experiment harness (runner, metrics, figure/ablation experiments).

Every experiment runs through the registry (``run_experiment``) with
drastically reduced trial counts and small codes — the goal is to verify
that every experiment assembles, runs end to end, and produces numbers with
the qualitative shape the paper reports, not to regenerate the full figures
(that is what ``repro run <name>`` does).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import SpinalParams
from repro.experiments import SpinalRunConfig, get, make_puncturing, run_experiment
from repro.experiments.figure2 import DEFAULT_SNR_GRID_DB
from repro.experiments.metrics import bit_error_rate, crossover_snr, fraction_of_capacity
from repro.theory.capacity import awgn_capacity_db
from repro.theory.finite_blocklength import ppv_fixed_block_bound_db

# A tiny spinal configuration reused across the fast experiment tests.
FAST = {"payload_bits": 16, "k": 4, "c": 6, "beam_width": 8, "adc_bits": 14}
FAST_BSC = {"payload_bits": 16, "k": 4, "beam_width": 8, "adc_bits": 14}
FAST_TRIALS = 5


def _run(name: str, overrides: dict, n_trials: int | None = FAST_TRIALS) -> list:
    """Run one registered experiment; ``(params, aggregate, trials)`` per cell."""
    outcome = run_experiment(get(name), overrides=overrides, n_trials=n_trials)
    return [
        (params, cell["aggregate"], cell["trials"])
        for _key, params, cell in outcome.successful_cells()
    ]


class TestRunner:
    def test_make_puncturing_names(self):
        for name in ("none", "symbol", "strided", "tail-first"):
            assert make_puncturing(name) is not None
        with pytest.raises(ValueError):
            make_puncturing("adaptive")

    def test_rate_cell_basic(self):
        ((_params, aggregate, trials),) = _run("rate", {**FAST, "snr_db": (10.0,)})
        assert len(trials) == FAST_TRIALS
        assert all(trial["ok"] for trial in trials)
        assert 0.0 < aggregate["rate"] <= 2 * awgn_capacity_db(10.0)

    def test_bsc_cell(self):
        ((_params, aggregate, trials),) = _run("bsc", {**FAST_BSC, "p": (0.05,)})
        assert all(trial["ok"] for trial in trials)
        assert 0.0 < aggregate["rate"] <= 1.0

    def test_rate_curve(self):
        cells = _run("rate", {**FAST, "snr_db": (0.0, 10.0)})
        assert [params["snr_db"] for params, _, _ in cells] == [0.0, 10.0]
        # Higher SNR must give a higher rate.
        assert cells[1][1]["rate"] > cells[0][1]["rate"]

    def test_results_reproducible_for_same_seed(self):
        first = _run("rate", {**FAST, "snr_db": (5.0,)})
        second = _run("rate", {**FAST, "snr_db": (5.0,)})
        assert first[0][2] == second[0][2]

    def test_symbol_budget_adaptive(self):
        config = SpinalRunConfig(payload_bits=16, params=SpinalParams(k=4, c=6))
        assert config.symbol_budget(ideal_rate=1.0) >= 16
        assert config.symbol_budget(ideal_rate=0.0) > 1000
        explicit = config.with_(max_symbols=99)
        assert explicit.symbol_budget(ideal_rate=1.0) == 99


class TestMetrics:
    def test_bit_error_rate(self):
        assert bit_error_rate([0, 1, 1, 0], [0, 1, 0, 0]) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            bit_error_rate([0], [0, 1])
        with pytest.raises(ValueError):
            bit_error_rate([], [])

    def test_fraction_of_capacity(self):
        assert fraction_of_capacity(2.0, 4.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            fraction_of_capacity(1.0, 0.0)

    def test_crossover_detection(self):
        snrs = np.array([0.0, 10.0, 20.0, 30.0])
        a = np.array([1.0, 2.0, 3.0, 3.5])
        b = np.array([0.5, 1.0, 2.5, 4.0])
        crossover = crossover_snr(snrs, a, b)
        assert 20.0 < crossover < 30.0

    def test_crossover_none_when_always_above(self):
        snrs = np.array([0.0, 10.0])
        assert crossover_snr(snrs, np.array([2.0, 3.0]), np.array([1.0, 1.0])) is None

    def test_crossover_first_point_when_always_below(self):
        snrs = np.array([0.0, 10.0])
        assert crossover_snr(snrs, np.array([0.5, 0.5]), np.array([1.0, 1.0])) == 0.0


class TestFigure2:
    def test_bound_curves_cover_grid(self):
        assert all(
            awgn_capacity_db(snr_db) >= ppv_fixed_block_bound_db(snr_db)
            for snr_db in DEFAULT_SNR_GRID_DB
        )

    def test_figure2_spinal_only_small_grid(self):
        cells = _run("figure2", {**FAST, "snr_db": (0.0, 10.0)})
        assert len(cells) == 2
        assert all(aggregate["fraction_of_capacity"] > 0.5 for _, aggregate, _ in cells)

    def test_ldpc_curves_structure(self):
        below, above = _run(
            "ldpc-rate",
            {
                "snr_db": (-5.0, 8.0),
                "rate": "1/2",
                "modulation": "BPSK",
                "frames": 5,
                "iterations": 15,
            },
            n_trials=None,
        )
        # Below the waterfall the rate is ~0, above it ~nominal.
        assert below[1]["achieved_rate"] < 0.1
        assert above[1]["achieved_rate"] > 0.4


class TestExperimentModules:
    def test_theorem1(self):
        cells = _run("theorem1-gap", {**FAST, "snr_db": (5.0, 15.0)})
        assert len(cells) == 2
        assert all(aggregate["capacity"] > aggregate["theorem_rate"] for _, aggregate, _ in cells)

    def test_theorem2(self):
        ((_params, aggregate, _trials),) = _run("theorem2-bsc", {**FAST_BSC, "p": (0.05,)})
        assert aggregate["fraction_of_capacity"] > 0.5

    def test_scale_down(self):
        cells = _run("scale-down", {**FAST, "snr_db": (10.0,), "beam_width": (1, 4, 16)})
        assert [params["beam_width"] for params, _, _ in cells] == [1, 4, 16]
        # Wider beams should not be dramatically worse: no step in B may
        # lose more than half the rate.
        rates = np.array([aggregate["rate"] for _, aggregate, _ in cells])
        assert not np.any(rates[:-1] - rates[1:] > 0.5 * np.maximum(rates[:-1], 1e-9))

    def test_puncturing(self):
        cells = _run(
            "puncturing", {**FAST, "snr_db": (25.0,), "schedule": ("none", "tail-first")}
        )
        by_schedule = {params["schedule"]: aggregate["rate"] for params, aggregate, _ in cells}
        assert by_schedule["tail-first"] >= by_schedule["none"] - 0.5

    def test_distance(self):
        ((_params, aggregate, _trials),) = _run(
            "distance", {"n_samples": 40, "n_message_bits": 16, "k": 4, "c": 6}, n_trials=None
        )
        assert 0.8 < aggregate["distance_ratio"] < 1.2
        assert aggregate["min_one_bit_distance"] > 0.0

    def test_blocklength(self):
        cells = _run("blocklength", {**FAST, "payload_bits": (16, 32), "snr_db": (10.0,)})
        assert len(cells) == 2

    def test_quantization(self):
        cells = _run("quantization", {**FAST, "adc_bits": (6, 14, None), "snr_db": (10.0,)})
        by_depth = {params["adc_bits"]: aggregate["rate"] for params, aggregate, _ in cells}
        assert len(by_depth) == 3
        # 14-bit ADC should be essentially as good as no quantiser.
        assert by_depth[14] >= 0.8 * by_depth[None]

    def test_constellations(self):
        cells = _run(
            "constellation-maps",
            {**FAST, "constellation": ("linear", "offset-linear"), "snr_db": (10.0,)},
        )
        assert len(cells) == 2

    def test_fixed_vs_rateless(self):
        ((_params, aggregate, _trials),) = _run(
            "fixed-vs-rateless",
            {**FAST, "snr_db": (12.0,), "pass_choices": (1, 2, 4), "n_fixed_frames": 5},
        )
        assert aggregate["best_fixed_passes"] in (1, 2, 4)
        assert aggregate["rate"] > 0 and aggregate["best_fixed_rate"] > 0

    def test_feedback(self):
        cells = _run("feedback", {**FAST, "snr_db": (10.0,)})
        efficiency = {aggregate["model_label"]: aggregate["efficiency"] for _, aggregate, _ in cells}
        assert efficiency.pop("PerfectFeedback") == pytest.approx(1.0)
        assert efficiency
        assert all(value <= 1.0 + 1e-9 for value in efficiency.values())
