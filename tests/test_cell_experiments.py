"""Tests for the two cell-level registry experiments (E16/E17).

The acceptance claims pinned here:

* cell sweeps are byte-identical across worker counts (the registry
  determinism contract holds for the new kernels);
* a 1-user cell cell-scaling point reproduces the bare rateless session's
  symbol accounting (the experiment is wired to the same streams the
  equivalence suite pins at the simulator level);
* the paper's network-level claim in falsifiable form: rateless aggregate
  goodput is at least the rate-adaptation baseline's at **every** SNR
  spread point (smoke scale).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.cell_scaling import build_cell_channel
from repro.experiments.registry import run_experiment
from repro.utils.store import RunStore


class TestCatalog:
    def test_both_experiments_are_registered_and_listed(self):
        names = registry.names()
        assert "cell-scaling" in names
        assert "cell-rateless-vs-adaptive" in names
        output = main(["list"])
        assert "cell-scaling" in output and "cell-rateless-vs-adaptive" in output


class TestBuildCellChannel:
    def test_awgn_sine_and_fading(self):
        from repro.channels.awgn import AWGNChannel, TimeVaryingAWGNChannel
        from repro.channels.fading import RayleighBlockFadingChannel

        assert isinstance(build_cell_channel("awgn", 10.0, 14, 0, 4), AWGNChannel)
        sine = build_cell_channel("sine:64:6.0", 10.0, 14, 1, 4)
        assert isinstance(sine, TimeVaryingAWGNChannel)
        assert sine.snr_trace_db.size == 64
        fading = build_cell_channel("fading:8", 10.0, None, 0, 4)
        assert isinstance(fading, RayleighBlockFadingChannel)
        assert fading.coherence_symbols == 8

    def test_sine_phases_are_staggered_per_user(self):
        a = build_cell_channel("sine:64:6.0", 10.0, None, 0, 4)
        b = build_cell_channel("sine:64:6.0", 10.0, None, 1, 4)
        assert a.snr_trace_db[0] != b.snr_trace_db[0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            build_cell_channel("microwave", 10.0, None, 0, 1)


class TestCellScalingExperiment:
    def test_worker_count_does_not_change_persisted_bytes(self, tmp_path):
        experiment = registry.get("cell-scaling")
        serial = run_experiment(
            experiment, smoke=True, n_workers=1, store=RunStore(tmp_path / "w1")
        )
        parallel = run_experiment(
            experiment, smoke=True, n_workers=4, store=RunStore(tmp_path / "w4")
        )
        assert serial.path.read_bytes() == parallel.path.read_bytes()

    def test_single_user_cell_matches_the_bare_session(self, tmp_path):
        """The registry wiring preserves the simulator-level equivalence."""
        from repro.channels.awgn import AWGNChannel
        from repro.experiments.runner import spinal_config_from_params
        from repro.link.transport import packet_rng
        from repro.utils.bitops import random_message_bits
        from repro.utils.rng import spawn_rng

        experiment = registry.get("cell-scaling")
        outcome = run_experiment(
            experiment,
            overrides={"n_users": (1,), "scheduler": ("round-robin",)},
            smoke=True,
            store=RunStore(tmp_path),
        )
        (cell,) = [c for _k, _p, c in outcome.successful_cells()]
        params = {
            **experiment.spec.with_values(dict(experiment.smoke)).fixed,
            "seed": outcome.record["seed"],
        }
        config = spinal_config_from_params(params)
        session = config.build_session(
            AWGNChannel(12.0, adc_bits=config.adc_bits),  # 1 user: center SNR
            max_symbols=int(params["max_symbols"]),
        )
        seed = int(outcome.record["seed"])
        total = 0
        for index in range(int(params["packets_per_user"])):
            payload = random_message_bits(
                config.payload_bits, spawn_rng(seed, "cell-payload", 0, index)
            )
            total += session.run(payload, packet_rng(seed, 0, index)).symbols_sent
        assert cell["aggregate"]["makespan"] == total
        assert cell["aggregate"]["total_symbols"] == total

    def test_smoke_goodput_is_scheduler_invariant_on_static_channels(self, tmp_path):
        outcome = run_experiment(
            registry.get("cell-scaling"), smoke=True, store=RunStore(tmp_path)
        )
        by_users: dict[int, set] = {}
        for _key, params, cell in outcome.successful_cells():
            by_users.setdefault(int(params["n_users"]), set()).add(
                round(cell["aggregate"]["goodput"], 12)
            )
        for n_users, goodputs in by_users.items():
            assert len(goodputs) == 1, (n_users, goodputs)


class TestRatelessVsAdaptiveExperiment:
    def test_rateless_goodput_dominates_at_every_spread(self, tmp_path):
        outcome = run_experiment(
            registry.get("cell-rateless-vs-adaptive"),
            smoke=True,
            store=RunStore(tmp_path),
        )
        by_mode: dict[str, dict[float, float]] = {"rateless": {}, "adaptive": {}}
        for _key, params, cell in outcome.successful_cells():
            by_mode[str(params["mode"])][float(params["snr_spread_db"])] = cell[
                "aggregate"
            ]["goodput"]
        assert by_mode["rateless"].keys() == by_mode["adaptive"].keys()
        for spread, rateless_goodput in by_mode["rateless"].items():
            assert rateless_goodput >= by_mode["adaptive"][spread], (
                spread,
                by_mode,
            )

    def test_worker_count_does_not_change_persisted_bytes(self, tmp_path):
        experiment = registry.get("cell-rateless-vs-adaptive")
        serial = run_experiment(
            experiment, smoke=True, n_workers=1, store=RunStore(tmp_path / "w1")
        )
        parallel = run_experiment(
            experiment, smoke=True, n_workers=3, store=RunStore(tmp_path / "w3")
        )
        assert serial.path.read_bytes() == parallel.path.read_bytes()

    def test_unknown_mode_becomes_a_structured_error_cell(self, tmp_path):
        outcome = run_experiment(
            registry.get("cell-rateless-vs-adaptive"),
            overrides={"mode": ("rateless", "bogus"), "snr_spread_db": (0.0,)},
            smoke=True,
            store=RunStore(tmp_path),
        )
        cells = outcome.record["cells"]
        assert "error" not in cells["mode=rateless,snr_spread_db=0.0"]["aggregate"]
        assert (
            "unknown mode"
            in cells["mode=bogus,snr_spread_db=0.0"]["aggregate"]["error"]
        )
