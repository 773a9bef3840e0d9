"""Tests for the city-scale network layer (:mod:`repro.net`).

Four contracts anchor the suite:

* **degeneration** — a one-cell, no-mobility, interference-free network is
  bit-identical to a standalone :class:`~repro.mac.cell.MacCell` built from
  the same seed labels (frozen-dataclass equality of the full result);
* **handoff soundness** — equidistant users stay put, hysteresis filters
  marginal moves, a user whose block is on the air hands off only at the
  block boundary, and a mid-packet migration neither loses nor double-counts
  symbols;
* **calibration fidelity** — the flow tier's aggregate goodput stays within
  a pinned relative-error bound of the bit-exact tier on identical configs;
* **worker invariance** — the ``city-soak`` replicas, one registry cell
  each, persist byte-identical stores for any worker count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from repro.channels.awgn import AWGNChannel
from repro.channels.traces import random_walk_trace
from repro.cli import run
from repro.mac.cell import CellUser, MacCell, RatelessLink
from repro.mac.schedulers import make_scheduler
from repro.net import fastpath
from repro.net import network as network_module
from repro.net import (
    CellNetwork,
    CityGeometry,
    FlowLink,
    FlowTransmission,
    MobilityModel,
    NetworkConfig,
    SinrBitChannel,
    SinrChannel,
    SymbolCountModel,
    calibrate_symbol_model,
    default_symbol_model,
    network_code,
    network_payloads,
    simulate_network,
)
from repro.phy.families import (
    CODE_FAMILY_NAMES,
    bpsk_crossover_probability,
    make_codec_session,
)
from repro.phy.session import CodecSession
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng, spawn_rngs
from repro.utils.units import db_to_linear, linear_to_db


def _grid(n_cells: int = 2, radius: float = 400.0) -> CityGeometry:
    return CityGeometry.grid(
        n_cells,
        cell_radius=radius,
        reference_snr_db=16.0,
        path_loss_exponent=3.0,
        reference_distance=50.0,
        min_distance=1.0,
    )


def _model(
    samples=((48,), (48,), (48,)),
    block_symbols: int = 16,
    max_symbols: int = 256,
) -> SymbolCountModel:
    """A hand-built flow model: no calibration cost, fully pinned behavior."""
    return SymbolCountModel(
        family="spinal",
        payload_bits=32,
        max_symbols=max_symbols,
        block_symbols=block_symbols,
        snr_grid_db=(-5.0, 5.0, 15.0),
        samples=samples,
    )


def _pinned_mobility(xs_by_epoch, epoch_symbols: int) -> MobilityModel:
    """One user moving along explicit x positions (y = 0 throughout)."""
    xs = np.asarray([xs_by_epoch], dtype=np.float64)
    return MobilityModel(
        xs=xs, ys=np.zeros_like(xs), epoch_symbols=epoch_symbols
    )


def _eager_walks(n_users, n_epochs, step, x_range, y_range, seed):
    """Reference trajectories: every walk drawn over the whole horizon at once."""
    xs = np.empty((n_users, n_epochs + 1))
    ys = np.empty((n_users, n_epochs + 1))
    for user in range(n_users):
        placement = spawn_rng(seed, "net-place", user)
        xs[user, 0] = float(placement.uniform(*x_range))
        ys[user, 0] = float(placement.uniform(*y_range))
        for axis, out, (low, high) in (("x", xs, x_range), ("y", ys, y_range)):
            out[user, 1:] = random_walk_trace(
                out[user, 0],
                n_epochs,
                step,
                spawn_rng(seed, "net-walk", user, axis),
                min_snr_db=low,
                max_snr_db=high,
            )
    return xs, ys


class TestCityGeometry:
    def test_grid_layout_and_bounds(self):
        geometry = _grid(n_cells=4, radius=100.0)
        assert geometry.cell_x == (0.0, 200.0, 0.0, 200.0)
        assert geometry.cell_y == (0.0, 0.0, 200.0, 200.0)
        assert geometry.n_cells == 4
        assert geometry.bounds() == ((-100.0, 300.0), (-100.0, 300.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            _grid(n_cells=0)
        with pytest.raises(ValueError):
            CityGeometry(
                cell_x=(0.0,),
                cell_y=(0.0, 1.0),
                cell_radius=100.0,
                reference_snr_db=16.0,
                path_loss_exponent=3.0,
                reference_distance=50.0,
                min_distance=1.0,
            )
        with pytest.raises(ValueError):
            _grid(radius=-1.0)
        for name in (
            "cell_radius",
            "reference_snr_db",
            "path_loss_exponent",
            "reference_distance",
            "min_distance",
        ):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    dataclasses.replace(_grid(), **{name: value})

    def test_path_loss_law(self):
        geometry = _grid(n_cells=1)
        # At the reference distance the SNR is the reference SNR.
        assert geometry.snr_db(50.0, 0.0, 0) == pytest.approx(16.0)
        # Distances clamp at min_distance: closer is not stronger.
        assert geometry.snr_db(0.5, 0.0, 0) == geometry.snr_db(1.0, 0.0, 0)
        # Each path-loss-exponent decade costs 10 * alpha dB.
        drop = geometry.snr_db(50.0, 0.0, 0) - geometry.snr_db(500.0, 0.0, 0)
        assert drop == pytest.approx(30.0)

    def test_scalar_vector_and_batch_paths_agree_bitwise(self):
        geometry = _grid(n_cells=3, radius=150.0)
        xs = np.array([10.0, 333.3, -42.0])
        ys = np.array([5.0, -17.2, 260.0])
        matrix = geometry.snrs_db_many(xs, ys)
        assert matrix.shape == (3, 3)
        for row, (x, y) in enumerate(zip(xs, ys)):
            per_user = geometry.snrs_db(float(x), float(y))
            assert np.array_equal(matrix[row], per_user)
            for cell in range(3):
                assert geometry.snr_db(float(x), float(y), cell) == per_user[cell]

    def test_equidistant_tie_resolves_to_lowest_index(self):
        geometry = _grid(n_cells=2, radius=400.0)  # cells at x=0 and x=800
        assert geometry.strongest_cell(400.0, 0.0) == 0
        assert geometry.strongest_cell(401.0, 0.0) == 1

    def test_sinr_composition(self):
        # No interferers: the signal passes through *unchanged*.
        assert CityGeometry.sinr_db(7.25, []) == 7.25
        # With interferers: S / (1 + sum I) in linear units of noise.
        got = CityGeometry.sinr_db(10.0, [3.0, 0.0])
        expected = linear_to_db(
            db_to_linear(10.0) / (1.0 + db_to_linear(3.0) + db_to_linear(0.0))
        )
        assert got == pytest.approx(expected)
        assert got < 10.0


class TestMobilityModel:
    def test_static_pins_users(self):
        model = MobilityModel.static([(1.0, 2.0), (3.0, 4.0)])
        assert model.n_users == 2
        assert model.n_epochs == 0
        assert model.epoch_symbols == 0
        assert model.position(1, 0) == (3.0, 4.0)
        assert model.position(1, 99) == (3.0, 4.0)  # parked forever

    def test_walks_deterministic_and_per_user_streams(self):
        kwargs = dict(
            n_epochs=16,
            epoch_symbols=64,
            step=30.0,
            x_range=(-100.0, 100.0),
            y_range=(-50.0, 50.0),
            seed=7,
        )
        a = MobilityModel.walks(n_users=3, **kwargs)
        b = MobilityModel.walks(n_users=3, **kwargs)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        # Streams derive from (seed, user): adding users changes nothing
        # about existing users' trajectories.
        wider = MobilityModel.walks(n_users=5, **kwargs)
        assert np.array_equal(wider.xs[:3], a.xs)
        assert np.array_equal(wider.ys[:3], a.ys)
        # Reflected walks stay inside the city box.
        assert np.all(a.xs >= -100.0) and np.all(a.xs <= 100.0)
        assert np.all(a.ys >= -50.0) and np.all(a.ys <= 50.0)

    def test_positions_matches_scalar_accessor_and_parks(self):
        model = MobilityModel.walks(
            n_users=4,
            n_epochs=5,
            epoch_symbols=32,
            step=10.0,
            x_range=(0.0, 100.0),
            y_range=(0.0, 100.0),
            seed=3,
        )
        for epoch in (0, 3, 5, 17):  # 17 > n_epochs: the parked regime
            xs, ys = model.positions(epoch)
            for user in range(4):
                assert (float(xs[user]), float(ys[user])) == model.position(
                    user, epoch
                )
        assert model.position(0, 5) == model.position(0, 500)

    # Steps as large as the box: most epochs reflect, some twice.
    REFLECTING = dict(
        n_users=5, n_epochs=150, step=40.0, x_range=(-30.0, 30.0), y_range=(0.0, 50.0)
    )

    @pytest.mark.parametrize("seed", [0, 1, 7, 20111114])
    @pytest.mark.parametrize("order", ["increasing", "shuffled"])
    def test_lazy_reads_equal_the_eager_walks(self, seed, order):
        shape = self.REFLECTING
        ref_x, ref_y = _eager_walks(**shape, seed=seed)
        model = MobilityModel.walks(**shape, epoch_symbols=16, seed=seed)
        horizon = shape["n_epochs"]
        epochs = list(range(horizon + 20))  # the last 19 read parked columns
        if order == "shuffled":
            random.Random(seed).shuffle(epochs)
        for epoch in epochs:
            column = min(epoch, horizon)
            xs, ys = model.positions(epoch)
            assert np.array_equal(xs, ref_x[:, column])
            assert np.array_equal(ys, ref_y[:, column])
            user = epoch % shape["n_users"]
            assert model.position(user, epoch) == (
                float(ref_x[user, column]),
                float(ref_y[user, column]),
            )

    @pytest.mark.parametrize("seed", [0, 3, 20111114])
    @pytest.mark.parametrize("first_read", [None, 1, 40])
    def test_xs_ys_equal_the_eager_walks(self, seed, first_read):
        shape = self.REFLECTING
        ref_x, ref_y = _eager_walks(**shape, seed=seed)
        model = MobilityModel.walks(**shape, epoch_symbols=16, seed=seed)
        if first_read is not None:
            model.positions(first_read)  # a partial fill first
        assert model.n_epochs == shape["n_epochs"]
        assert np.array_equal(model.xs, ref_x) and np.array_equal(model.ys, ref_y)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("n1, n2", [(1, 2), (17, 32), (32, 1024)])
    def test_walk_prefix_is_the_shorter_walk(self, seed, n1, n2):
        kwargs = dict(min_snr_db=-30.0, max_snr_db=30.0)
        longer = random_walk_trace(
            3.0, n2, 25.0, spawn_rng(seed, "net-walk", 0, "x"), **kwargs
        )
        shorter = random_walk_trace(
            3.0, n1, 25.0, spawn_rng(seed, "net-walk", 0, "x"), **kwargs
        )
        assert np.array_equal(longer[:n1], shorter)

    def test_city_run_fills_only_the_epochs_it_reaches(self, monkeypatch):
        import repro.net.mobility as mobility

        drawn = []

        class CountingStream:
            def __init__(self, stream):
                self._stream = stream

            def normal(self, loc, scale, size):
                drawn.append(size)
                return self._stream.normal(loc, scale, size=size)

            def __getattr__(self, name):
                return getattr(self._stream, name)

        def counting_spawn(seed, label_rows):
            label_rows = list(label_rows)
            streams = spawn_rngs(seed, label_rows)
            return (
                CountingStream(stream) if labels[0] == "net-walk" else stream
                for labels, stream in zip(label_rows, streams)
            )

        monkeypatch.setattr(mobility, "spawn_rngs", counting_spawn)
        config = NetworkConfig(
            n_cells=9,
            n_users=60,
            packets_per_user=2,
            tier="flow",
            seed=5,
            cell_radius=150.0,
            epoch_symbols=16,
            mobility_step=60.0,
        )
        network = CellNetwork(config, model=_model())
        network.run()
        reached = network.epoch
        # The shape must end early for the pin to mean anything.
        assert 16 <= reached < network.mobility.n_epochs // 4
        assert max(drawn) <= 2 * reached
        # Doubling replays: each walk (one per user and axis) draws at most
        # twice its final horizon in all.
        walks = 2 * config.n_users
        assert sum(drawn) <= walks * 2 * max(drawn)

    def test_validation(self):
        with pytest.raises(ValueError):
            MobilityModel(xs=np.zeros((2, 3)), ys=np.zeros((3, 2)), epoch_symbols=1)
        with pytest.raises(ValueError):
            MobilityModel(xs=np.zeros((2, 3)), ys=np.zeros((2, 3)), epoch_symbols=-1)
        kwargs = dict(
            n_epochs=2,
            epoch_symbols=8,
            x_range=(0.0, 1.0),
            y_range=(0.0, 1.0),
            seed=0,
        )
        with pytest.raises(ValueError):
            MobilityModel.walks(n_users=2, step=-1.0, **kwargs)
        with pytest.raises(ValueError):
            MobilityModel.walks(
                n_users=2, step=1.0, initial_positions=[(0.0, 0.0)], **kwargs
            )
        with pytest.raises(ValueError):
            MobilityModel.walks(n_users=2, step=1.0, **{**kwargs, "y_range": (1.0, 1.0)})


class TestSinrChannels:
    def test_fixed_sinr_matches_plain_awgn_bitwise(self):
        symbols = (np.arange(32) - 16).astype(np.complex128) / 4.0
        tracked = SinrChannel(lambda: 9.5)
        plain = AWGNChannel(snr_db=9.5)
        got = tracked.transmit(symbols, np.random.default_rng(11))
        expected = plain.transmit(symbols, np.random.default_rng(11))
        assert np.array_equal(got, expected)

    def test_set_time_tracks_the_callback(self):
        levels = iter([12.0, 3.0])
        channel = SinrChannel(lambda: next(levels), signal_power=2.0)
        assert channel.snr_db == 12.0
        channel.set_time(5)
        assert channel.snr_db == 3.0
        assert channel.noise_energy == pytest.approx(2.0 / db_to_linear(3.0))
        assert "SINR-AWGN" in channel.describe()

    def test_bit_channel_tracks_crossover(self):
        levels = iter([8.0, -2.0])
        channel = SinrBitChannel(lambda: next(levels))
        assert channel.crossover_probability == pytest.approx(
            bpsk_crossover_probability(8.0)
        )
        channel.set_time(1)
        assert channel.crossover_probability == pytest.approx(
            bpsk_crossover_probability(-2.0)
        )
        assert "SINR-BSC" in channel.describe()


class TestSymbolCountModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            _model(samples=((48,), (48,)))  # one row per grid point
        with pytest.raises(ValueError):
            _model(samples=((48,), (), (48,)))  # empty row
        with pytest.raises(ValueError):
            SymbolCountModel(
                family="spinal",
                payload_bits=32,
                max_symbols=256,
                block_symbols=16,
                snr_grid_db=(5.0, 5.0, 15.0),  # not strictly increasing
                samples=((48,), (48,), (48,)),
            )
        with pytest.raises(ValueError):
            _model(block_symbols=0)

    def test_sample_requirement_consumes_exactly_two_draws(self):
        model = _model(samples=((40,), (60,), (80,)))
        for snr in (-20.0, -5.0, 1.0, 9.9, 15.0, 40.0, math.inf, -math.inf):
            rng = np.random.default_rng(5)
            shadow = np.random.default_rng(5)
            model.sample_requirement(snr, rng)
            shadow.random()
            shadow.integers(1)
            # Both generators are now in the same state.
            assert rng.random() == shadow.random()

    def test_requirement_interpolates_between_neighbors(self):
        model = _model(samples=((40,), (60,), (80,)))
        rng = np.random.default_rng(0)
        draws = {model.sample_requirement(0.0, rng) for _ in range(64)}
        assert draws == {40, 60}  # midway: both neighbors appear
        assert model.sample_requirement(-30.0, rng) == 40  # clamped low
        assert model.sample_requirement(30.0, rng) == 80  # clamped high

    @pytest.mark.parametrize(
        "grid, snrs",
        [
            (
                (-5.0, 5.0, 15.0),
                # Grid points, midpoints, off-grid values, beyond both ends.
                (-5.0, 5.0, 15.0, 0.0, 10.0, -4.999, 14.25, -30.0, 30.0,
                 math.inf, -math.inf),
            ),
            ((7.5,), (7.5, 0.0, 20.0, math.inf, -math.inf)),  # one-point grid
        ],
    )
    def test_bisect_lookup_matches_the_searchsorted_spelling(self, grid, snrs):
        samples = tuple((40 + 10 * g, 41 + 10 * g) for g in range(len(grid)))
        model = dataclasses.replace(_model(), snr_grid_db=grid, samples=samples)

        def searchsorted_requirement(snr_db, rng):
            array = np.asarray(model.snr_grid_db)
            right = int(np.searchsorted(array, float(snr_db)))
            left = max(0, right - 1)
            right = min(right, len(array) - 1)
            if right == left:
                weight = 0.0
            else:
                weight = (float(snr_db) - array[left]) / (array[right] - array[left])
            chosen = right if rng.random() < weight else left
            row = model.samples[chosen]
            drawn = row[int(rng.integers(len(row)))]
            return drawn if drawn > 0 else 2 * model.max_symbols

        for snr in snrs:
            for seed in range(16):
                got = model.sample_requirement(snr, np.random.default_rng(seed))
                want = searchsorted_requirement(snr, np.random.default_rng(seed))
                assert got == want, (snr, seed)

    def test_nan_snr_is_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            _model().sample_requirement(math.nan, np.random.default_rng(0))

    def test_failure_sample_maps_to_unreachable_requirement(self):
        model = _model(samples=((-1,), (-1,), (-1,)))
        rng = np.random.default_rng(0)
        assert model.sample_requirement(5.0, rng) == 2 * model.max_symbols
        assert model.success_probability(5.0) == 0.0
        mixed = _model(samples=((48, -1), (48, -1), (48, -1)))
        assert mixed.success_probability(5.0) == 0.5


class TestFlowTransmission:
    def test_whole_packet_is_one_quantized_grant(self):
        link = FlowLink(model=_model(samples=((40,), (40,), (40,))))
        tx = link.open(np.zeros(32), np.random.default_rng(0), lambda: 5.0)
        assert isinstance(tx, FlowTransmission)
        assert tx.required_symbols == 40
        block, received = tx.send_next_block()
        # 40 symbols quantized up to the 16-symbol block grid -> 48.
        assert block.n_symbols == 48 and received is None
        assert tx.deliver(block, received) is True
        assert tx.decoded and tx.symbols_delivered == 48

    def test_budget_caps_the_grant_and_aborts_failures(self):
        link = FlowLink(model=_model(samples=((-1,), (-1,), (-1,))))
        tx = link.open(np.zeros(32), np.random.default_rng(0), lambda: 5.0)
        assert tx.required_symbols == 2 * 256
        block, _ = tx.send_next_block()
        assert block.n_symbols == 256  # capped at max_symbols
        assert not tx.deliver(block, None)
        assert tx.exhausted and not tx.decoded

    def test_inert_channel_hooks(self):
        link = FlowLink(model=_model())
        assert link.channel.reset() is None
        assert link.channel.describe() == "Flow()"
        assert link.payload_bits == 32 and link.max_symbols == 256


def _sequential_calibration(
    family, grid, samples_per_point, seed, max_symbols, adc_bits
):
    """Oracle: one ``session.run`` per sample, then the dead-point rule."""
    rows = []
    for gi, snr_db in enumerate(grid):
        session = make_codec_session(
            family, snr_db=snr_db, seed=0, smoke=True, max_symbols=max_symbols,
            termination="genie", adc_bits=adc_bits,
        )
        row = []
        for sample in range(samples_per_point):
            rng = spawn_rng(seed, "fastpath-cal", family, gi, sample)
            outcome = session.run(random_message_bits(session.payload_bits, rng), rng)
            row.append(outcome.symbols_sent if outcome.success else -1)
            if len(row) >= 8 and all(value < 0 for value in row):
                row.extend([-1] * (samples_per_point - len(row)))
                break
        rows.append(tuple(row))
    return tuple(rows)


class TestCalibration:
    # -15 dB is a dead point for every family at this budget (the first 8
    # runs exhaust; repetition may fluke one decode, which keeps it live).
    GRID = (-15.0, 4.0, 14.0)

    @pytest.mark.parametrize("samples_per_point", [5, 8, 9])
    @pytest.mark.parametrize("adc_bits", [None, 3])
    @pytest.mark.parametrize("family", CODE_FAMILY_NAMES)
    def test_lock_step_calibration_equals_the_sequential_oracle(
        self, family, adc_bits, samples_per_point
    ):
        model = calibrate_symbol_model(
            family, self.GRID, samples_per_point, seed=5, smoke=True,
            max_symbols=96, adc_bits=adc_bits,
        )
        assert model.samples == _sequential_calibration(
            family, self.GRID, samples_per_point, 5, 96, adc_bits
        )

    def test_dead_point_skips_the_remaining_samples(self, monkeypatch):
        """A dead point runs only its first 8 samples; a live one runs all."""
        batches = []
        run_many = CodecSession.run_many

        def counting(session, payloads, rngs):
            batches.append(len(payloads))
            return run_many(session, payloads, rngs)

        monkeypatch.setattr(CodecSession, "run_many", counting)
        model = calibrate_symbol_model(
            "spinal", (-15.0, 14.0), 20, seed=5, smoke=True, max_symbols=96
        )
        assert model.samples[0] == (-1,) * 20
        assert all(value > 0 for value in model.samples[1])
        assert batches == [8, 8, 12]

    def test_calibration_is_a_pure_function_of_its_arguments(self):
        kwargs = dict(
            snr_grid_db=(2.0, 8.0),
            samples_per_point=3,
            seed=99,
            smoke=True,
            max_symbols=128,
        )
        first = calibrate_symbol_model("spinal", **kwargs)
        second = calibrate_symbol_model("spinal", **kwargs)
        assert first == second  # frozen dataclass equality, field for field
        assert first.payload_bits > 0 and first.block_symbols >= 1
        assert len(first.samples) == 2

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            calibrate_symbol_model("spinal", (), 4, seed=0)
        with pytest.raises(ValueError):
            calibrate_symbol_model("spinal", (5.0,), 0, seed=0)

    def test_flow_tier_tracks_bit_exact_within_pinned_bound(self):
        """The calibrated-error contract on small cities, across seeds.

        The city-scale benchmark pins the same bound at 1000 users; here
        the configs are small enough for the bit-exact tier to be cheap,
        so the bound is wider (fewer packets, noisier ratio).
        """
        base = NetworkConfig(
            n_cells=4,
            n_users=6,
            packets_per_user=3,
            scheduler="round-robin",
            code="spinal",
            seed=20111114,
            max_symbols=512,
            cell_radius=150.0,
            reference_snr_db=18.0,
            epoch_symbols=128,
            mobility_step=60.0,
            calibration_samples=16,
            calibration_grid_points=5,
        )
        errors = []
        for seed in (20111114, 7, 123):
            exact = simulate_network(
                dataclasses.replace(base, seed=seed, tier="exact")
            )
            flow_config = dataclasses.replace(base, seed=seed, tier="flow")
            flow = simulate_network(
                flow_config, model=default_symbol_model(flow_config)
            )
            assert exact.aggregate_goodput > 0
            errors.append(
                abs(flow.aggregate_goodput - exact.aggregate_goodput)
                / exact.aggregate_goodput
            )
        assert max(errors) <= 0.25, f"per-seed relative errors {errors}"
        assert sum(errors) / len(errors) <= 0.15, f"mean of {errors}"


def _edit_artifact(text: str, section: str, value) -> str:
    """The artifact ``text`` with ``section`` replaced (or, for a dict, updated)."""
    body = json.loads(text)
    if isinstance(value, dict):
        body[section].update(value)
    else:
        body[section] = value
    return json.dumps(body, sort_keys=True)


class TestCalibrationArtifact:
    """``cached_symbol_model``'s on-disk layer under the per-process memo."""

    ARGS = dict(
        family="spinal",
        snr_grid_db=(2.0, 8.0),
        samples_per_point=3,
        seed=99,
        smoke=True,
        max_symbols=128,
    )

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        return tmp_path / "repro" / "calibration"

    def _fresh_process_model(self, monkeypatch) -> SymbolCountModel:
        """What a new interpreter gets: the memo is empty, the disk is not."""
        monkeypatch.setattr(fastpath, "_MODEL_CACHE", {})
        return fastpath.cached_symbol_model(**self.ARGS)

    @staticmethod
    def _forbid_calibration(monkeypatch) -> None:
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated although a valid artifact was on disk")

        monkeypatch.setattr(fastpath, "calibrate_symbol_model", calibrate)

    def test_cold_then_warm_loads_the_same_model_without_calibrating(
        self, cache_dir, monkeypatch, capsys
    ):
        cold = self._fresh_process_model(monkeypatch)
        assert cold == calibrate_symbol_model(**self.ARGS)
        (artifact,) = cache_dir.iterdir()
        written = artifact.read_bytes()
        self._forbid_calibration(monkeypatch)
        warm = self._fresh_process_model(monkeypatch)
        assert warm == cold
        assert pickle.dumps(warm) == pickle.dumps(cold)
        assert json.dumps(dataclasses.asdict(warm), sort_keys=True) == json.dumps(
            dataclasses.asdict(cold), sort_keys=True
        )
        assert artifact.read_bytes() == written  # loading never rewrites
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda text: text[: len(text) // 2], "does not parse"),
            (
                lambda text: _edit_artifact(text, "key", {"seed": 100}),
                "another calibration key",
            ),
            (
                lambda text: _edit_artifact(text, "source", "0" * 32),
                "calibrated by other repro source",
            ),
            (
                lambda text: _edit_artifact(text, "model", {"block_symbols": 0}),
                "block_symbols must be at least 1",
            ),
        ],
        ids=["truncated", "wrong-key", "stale-source", "invalid-model"],
    )
    def test_a_bad_artifact_is_recalibrated_with_one_line(
        self, damage, reason, cache_dir, monkeypatch, capsys
    ):
        good = self._fresh_process_model(monkeypatch)
        (artifact,) = cache_dir.iterdir()
        written = artifact.read_bytes()
        artifact.write_text(damage(written.decode()))
        capsys.readouterr()
        again = self._fresh_process_model(monkeypatch)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("repro: recalibrating flow model: ")
        assert reason in err[0]
        assert again == good
        assert artifact.read_bytes() == written  # overwritten by the recalibration
        self._forbid_calibration(monkeypatch)
        assert self._fresh_process_model(monkeypatch) == good
        assert capsys.readouterr().err == ""

    def test_an_unwritable_cache_directory_still_returns_the_model(
        self, tmp_path, monkeypatch, capsys
    ):
        # A file where the cache directory should be: creating it fails
        # (with a clear OSError, for any user, root included).
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        model = self._fresh_process_model(monkeypatch)
        assert model == calibrate_symbol_model(**self.ARGS)
        assert blocker.read_text() == ""
        assert capsys.readouterr().err == ""

    def test_cache_directory_follows_xdg_then_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert fastpath._calibration_dir() == tmp_path / "xdg" / "repro" / "calibration"
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        for unset in ("", "relative/path"):  # the XDG spec ignores both
            monkeypatch.setenv("XDG_CACHE_HOME", unset)
            assert fastpath._calibration_dir() == (
                tmp_path / "home" / ".cache" / "repro" / "calibration"
            )

    def test_racing_cold_workers_leave_one_valid_artifact(self, cache_dir):
        """More workers than cores calibrate one cold key at once."""
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=4, mp_context=context) as pool:
            futures = [
                pool.submit(fastpath.cached_symbol_model, **self.ARGS) for _ in range(4)
            ]
            models = [future.result(timeout=120) for future in futures]
        expected = calibrate_symbol_model(**self.ARGS)
        assert models == [expected] * 4
        (artifact,) = cache_dir.iterdir()  # no temp file left behind
        body = json.loads(artifact.read_bytes())
        assert fastpath._model_from_json(body["model"]) == expected


class TestDegeneration:
    @pytest.mark.parametrize("scheduler", ["round-robin", "max-snr"])
    def test_single_cell_static_network_is_a_plain_mac_cell(self, scheduler):
        """One cell, no mobility, no interference == standalone MacCell.

        Equality is frozen-dataclass equality of the *entire* result —
        every packet's symbol counts and completion times, bit for bit.
        """
        config = NetworkConfig(
            n_cells=1,
            n_users=3,
            packets_per_user=2,
            scheduler=scheduler,
            code="spinal",
            tier="exact",
            seed=20111114,
            max_symbols=256,
            cell_radius=400.0,
            reference_snr_db=16.0,
            epoch_symbols=0,
        )
        network = CellNetwork(config)
        geometry = config.geometry()
        users = []
        for user in range(config.n_users):
            x, y = network.mobility.position(user, 0)
            snr_db = geometry.snr_db(x, y, 0)
            code = network_code(config, user, snr_db)
            channel = AWGNChannel(
                snr_db=snr_db, signal_power=code.info.signal_power
            )
            users.append(
                CellUser(
                    link=RatelessLink(
                        CodecSession(
                            code,
                            channel,
                            termination="genie",
                            max_symbols=config.max_symbols,
                        )
                    ),
                    payloads=network_payloads(
                        config, {user: code.info.payload_bits}
                    )[user],
                )
            )
        reference = MacCell(users, make_scheduler(scheduler), seed=config.seed).run()
        result = network.run()
        assert result.as_cell_result() == reference
        assert result.n_handoffs == 0 and result.final_serving == (0, 0, 0)

    def test_single_cell_with_mobility_never_hands_off(self):
        config = NetworkConfig(
            n_cells=1,
            n_users=2,
            packets_per_user=1,
            code="spinal",
            tier="flow",
            max_symbols=256,
            epoch_symbols=32,
            mobility_step=100.0,
        )
        result = simulate_network(config, model=_model())
        assert result.n_handoffs == 0 and result.n_deferred_handoffs == 0
        assert result.final_serving == (0, 0)

    def test_zero_user_network_completes_empty(self):
        config = NetworkConfig(
            n_cells=2,
            n_users=0,
            tier="flow",
            epoch_symbols=64,
        )
        result = simulate_network(config, model=_model())
        assert result.packets == ()
        assert result.makespan == 0
        assert result.delivery_rate == 0.0
        assert result.handoffs_per_user == 0.0
        assert result.handoff_rate_per_kilosymbol == 0.0
        summary = result.summary()
        assert summary["n_packets"] == 0 and summary["n_users"] == 0

    def test_zero_user_flow_city_calibrates_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an empty city calibrated a flow model")

        monkeypatch.setattr(network_module, "cached_symbol_model", refuse)
        config = NetworkConfig(n_cells=4, n_users=0, tier="flow")
        assert simulate_network(config).packets == ()
        with pytest.raises(AssertionError, match="calibrated"):
            simulate_network(dataclasses.replace(config, n_users=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(tier="approximate")
        with pytest.raises(ValueError):
            NetworkConfig(n_cells=0)
        with pytest.raises(ValueError):
            NetworkConfig(n_users=-1)
        with pytest.raises(ValueError):
            NetworkConfig(packets_per_user=0)
        with pytest.raises(ValueError):
            NetworkConfig(epoch_symbols=-1)
        with pytest.raises(ValueError):
            NetworkConfig(n_users=2, user_positions=((0.0, 0.0),))
        # Fields otherwise first checked inside the simulation; a NaN margin
        # would silently stop every handoff.
        for field, value in (
            ("mobility_step", -1.0),
            ("mobility_step", math.nan),
            ("mobility_step", math.inf),
            ("handoff_hysteresis_db", math.nan),
            ("handoff_hysteresis_db", -math.inf),
            ("calibration_samples", 0),
            ("cell_radius", 0.0),
            ("cell_radius", math.nan),
            ("reference_snr_db", math.inf),
            ("path_loss_exponent", 0.0),
            ("min_distance", -1.0),
        ):
            with pytest.raises(ValueError, match=field):
                NetworkConfig(**{field: value})
        NetworkConfig(mobility_step=0.0, handoff_hysteresis_db=-1.0)  # still legal
        with pytest.raises(ValueError, match="unknown scheduler 'bogus'"):
            NetworkConfig(scheduler="bogus")
        with pytest.raises(KeyError, match="unknown code family 'bogus'"):
            NetworkConfig(code="bogus")
        with pytest.raises(ValueError):
            CellNetwork(
                NetworkConfig(n_users=1, tier="flow"),
                mobility=MobilityModel.static([(0.0, 0.0), (1.0, 1.0)]),
                model=_model(),
            )


class TestHandoff:
    """Two cells at x=0 and x=800 (radius-400 grid) throughout."""

    def _config(self, **overrides) -> NetworkConfig:
        settings = dict(
            n_cells=2,
            n_users=1,
            packets_per_user=2,
            scheduler="round-robin",
            code="spinal",
            tier="flow",
            seed=20111114,
            max_symbols=256,
            cell_radius=400.0,
            reference_snr_db=16.0,
        )
        settings.update(overrides)
        return NetworkConfig(**settings)

    def test_equidistant_user_stays_with_lowest_index_cell(self):
        epoch_symbols = 20
        config = self._config(epoch_symbols=epoch_symbols)
        result = CellNetwork(
            config,
            mobility=_pinned_mobility([400.0] * 8, epoch_symbols),
            model=_model(),
        ).run()
        assert result.final_serving == (0,)
        assert result.n_handoffs == 0 and result.n_deferred_handoffs == 0

    def test_hysteresis_filters_marginal_moves(self):
        # x=405 favors cell 1 by ~0.33 dB — inside the 1 dB hysteresis.
        epoch_symbols = 20
        config = self._config(epoch_symbols=epoch_symbols)
        result = CellNetwork(
            config,
            mobility=_pinned_mobility([390.0] + [405.0] * 7, epoch_symbols),
            model=_model(),
        ).run()
        assert result.final_serving == (0,)
        assert result.n_handoffs == 0

    def test_on_air_handoff_defers_to_the_block_boundary(self):
        # The flow tier grants the whole 48-symbol packet at once; the
        # first epoch tick (t=20) lands mid-grant, so the handoff must
        # defer, then complete once the block lands.
        epoch_symbols = 20
        config = self._config(epoch_symbols=epoch_symbols)
        result = CellNetwork(
            config,
            mobility=_pinned_mobility([100.0] + [700.0] * 10, epoch_symbols),
            model=_model(),
        ).run()
        assert result.n_deferred_handoffs >= 1
        assert result.n_handoffs == 1
        assert result.handoffs_by_user == (1,)
        assert result.final_serving == (1,)
        assert all(packet.delivered for packet in result.packets)
        # The deferral did not distort the flow accounting: both packets
        # took exactly their quantized 48-symbol grant.
        assert [p.symbols_sent for p in result.packets] == [48, 48]

    def test_mid_packet_migration_preserves_symbol_accounting(self):
        # Bit-exact tier, 1-symbol blocks: the epoch tick at t=2 migrates
        # the user while packet 0 is partially transmitted.  The packet
        # finishes in the *new* cell with no symbol lost or re-sent.
        epoch_symbols = 2
        config = self._config(tier="exact", max_symbols=512,
                              epoch_symbols=epoch_symbols)
        result = CellNetwork(
            config,
            mobility=_pinned_mobility([100.0] + [700.0] * 10, epoch_symbols),
        ).run()
        assert result.n_handoffs == 1
        assert result.final_serving == (1,)
        assert all(packet.delivered for packet in result.packets)
        head = result.packets[0]
        # The handoff (t=2) happened strictly inside packet 0's lifetime.
        assert head.completed > epoch_symbols
        # Genie termination: delivered packets sent exactly what decoding
        # needed — a lost or double-counted symbol would break this.
        for packet in result.packets:
            assert packet.symbols_sent == packet.symbols_needed > 0

    def test_detach_refuses_mid_air_and_unknown_users(self):
        link = FlowLink(model=_model())
        cell = MacCell(
            [CellUser(link=link, payloads=[np.zeros(32)], csi=lambda now: 5.0)],
            make_scheduler("round-robin"),
        )
        cell.run_until(1)  # the 48-symbol grant is now on the air
        assert cell.on_air_user == 0
        with pytest.raises(RuntimeError):
            cell.detach_user(0)
        with pytest.raises(ValueError):
            cell.detach_user(7)
        cell.run()
        assert cell.on_air_user is None  # medium free after completion


def _reference_sinr_db(network: CellNetwork, user: int) -> float:
    """User ``user``'s SINR from scratch: no memo, no per-epoch cache.

    The geometry's SNR row at the current-epoch position, then one
    ``db_to_linear`` per on-air transmitter of every other cell, summed in
    cell-index order.
    """

    def snrs(u: int) -> np.ndarray:
        return network.geometry.snrs_db(*network.mobility.position(u, network.epoch))

    serving = network.serving[user]
    signal_db = float(snrs(user)[serving])
    total = 0.0
    for index, cell in enumerate(network.cells):
        transmitter = cell.on_air_user
        if index != serving and transmitter is not None:
            total += db_to_linear(float(snrs(transmitter)[serving]))
    if total == 0.0:
        return signal_db
    return linear_to_db(db_to_linear(signal_db) / (1.0 + total))


class TestAssociation:
    """The build-time association is ``strongest_cell`` of each user."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_placements_join_their_strongest_cell(self, seed):
        config = NetworkConfig(
            n_cells=9, n_users=60, tier="flow", seed=seed, cell_radius=150.0
        )
        network = CellNetwork(config, model=_model())
        geometry = network.geometry
        assert network.serving == [
            geometry.strongest_cell(*network.mobility.position(user, 0))
            for user in range(config.n_users)
        ]

    def test_equidistant_users_join_the_lowest_index_cell(self):
        # Cells at (0, 0), (800, 0), (0, 800) and (800, 800).
        positions = ((400.0, 0.0), (400.0, 400.0), (800.0, 400.0), (400.0, 800.0))
        config = NetworkConfig(
            n_cells=4,
            n_users=len(positions),
            tier="flow",
            user_positions=positions,
            epoch_symbols=0,
        )
        network = CellNetwork(config, model=_model())
        assert network.serving == [
            network.geometry.strongest_cell(x, y) for x, y in positions
        ]
        assert network.serving == [0, 0, 1, 2]


class TestInterference:
    """The live SINR every grant reads, against a from-scratch reference."""

    @pytest.mark.parametrize("scheduler", ["round-robin", "max-snr"])
    @pytest.mark.parametrize("tier", ["flow", "exact"])
    def test_every_user_reads_the_reference_sinr_after_every_grant(
        self, monkeypatch, tier, scheduler
    ):
        config = NetworkConfig(
            n_cells=9,
            n_users=18,
            packets_per_user=2,
            scheduler=scheduler,
            code="spinal",
            tier=tier,
            seed=20111114,
            max_symbols=256,
            cell_radius=100.0,
            reference_snr_db=16.0,
            epoch_symbols=32,
            mobility_step=120.0,
        )
        counts = {"checks": 0, "interfered": 0}
        original = MacCell._on_grant

        def checked_grant(cell):
            original(cell)
            for user in range(config.n_users):
                want = _reference_sinr_db(network, user)
                assert network.sinr_db(user) == want
                counts["checks"] += 1
                serving = network.serving[user]
                signal_db = float(network._snrs[user, serving])
                counts["interfered"] += want != signal_db

        # Patch before construction: cells schedule their first grant then.
        monkeypatch.setattr(MacCell, "_on_grant", checked_grant)
        network = CellNetwork(config, model=_model() if tier == "flow" else None)
        result = network.run()
        assert all(packet.delivered for packet in result.packets)
        assert counts["interfered"] > 0 and counts["checks"] > counts["interfered"]
        assert network.epoch >= 2  # the per-epoch caches were cleared mid-run
        assert result.n_handoffs >= 1

    def test_flow_packets_draw_no_payload_streams(self, monkeypatch):
        import repro.net.network as network_module

        drawn = []
        real_spawn_rngs = network_module.spawn_rngs

        def counting_spawn_rngs(seed, label_rows):
            label_rows = list(label_rows)
            drawn.extend(labels[0] for labels in label_rows)
            return real_spawn_rngs(seed, label_rows)

        monkeypatch.setattr(network_module, "spawn_rngs", counting_spawn_rngs)
        config = NetworkConfig(n_cells=4, n_users=5, packets_per_user=3)
        CellNetwork(dataclasses.replace(config, tier="exact"))
        assert drawn.count("net-payload") == config.n_users * config.packets_per_user
        drawn.clear()
        network = CellNetwork(dataclasses.replace(config, tier="flow"), model=_model())
        assert drawn.count("net-payload") == 0
        payloads = [packet.payload for cell in network.cells for packet in cell.packets]
        assert len(payloads) == config.n_users * config.packets_per_user
        assert all(p.size == 0 and not p.flags.writeable for p in payloads)

    def test_flow_city_derives_every_stream_in_bulk(self, monkeypatch):
        # spawn_rng hands np.random.default_rng an integer seed, which numpy
        # hashes itself; the batched streams hand it finished seed sequences.
        scalar = []
        real_default_rng = np.random.default_rng

        def counting_default_rng(seed=None):
            if not isinstance(seed, ISeedSequence):
                scalar.append(seed)
            return real_default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        config = NetworkConfig(
            n_cells=4,
            n_users=12,
            packets_per_user=2,
            tier="flow",
            epoch_symbols=16,
            mobility_step=60.0,
        )
        network = CellNetwork(config, model=_model())
        result = network.run()
        assert network.epoch >= 2 and len(result.packets) == 24
        assert scalar == []


class TestSharding:
    def test_replicas_are_worker_invariant_and_seed_distinct(self, tmp_path):
        """``repro run city-soak`` stores one replica per cell, for any worker count."""
        argv = ["run", "city-soak", "--set", "replica=0,1,2,3,4"]
        for name, value in (
            ("n_cells", 3),
            ("n_users", 6),
            ("max_symbols", 256),
            ("epoch_symbols", 64),
            ("mobility_step", 60.0),
            ("calibration_samples", 8),
        ):
            argv += ["--set", f"{name}={value}"]
        for workers in (1, 3):
            run([*argv, "--workers", str(workers), "--out", str(tmp_path / f"w{workers}")])
        (serial,) = (tmp_path / "w1").glob("city-soak-*.json")
        (fanned,) = (tmp_path / "w3").glob("city-soak-*.json")
        assert serial.read_bytes() == fanned.read_bytes()
        # Replicas carry independent derived seeds: all five differ.
        cells = json.loads(serial.read_text())["cells"]
        replicas = {json.dumps(cell["trials"][0], sort_keys=True) for cell in cells.values()}
        assert len(cells) == len(replicas) == 5


class TestNetworkResult:
    def test_summary_surface(self):
        config = NetworkConfig(
            n_cells=2,
            n_users=3,
            packets_per_user=2,
            tier="flow",
            epoch_symbols=64,
            mobility_step=80.0,
            cell_radius=150.0,
            reference_snr_db=18.0,
        )
        result = simulate_network(config, model=_model())
        summary = result.summary()
        for key in (
            "scheduler",
            "tier",
            "n_users",
            "n_cells",
            "n_packets",
            "n_delivered",
            "delivery_rate",
            "aggregate_goodput",
            "jain_fairness",
            "mean_latency",
            "makespan",
            "n_handoffs",
            "n_deferred_handoffs",
            "handoffs_per_user",
            "handoff_rate_per_kilosymbol",
        ):
            assert key in summary
        json.dumps(summary)  # JSON-native by contract
        assert summary["n_packets"] == 6
        assert result.handoffs_per_user == result.n_handoffs / 3
        if result.makespan:
            assert result.handoff_rate_per_kilosymbol == pytest.approx(
                1000.0 * result.n_handoffs / result.makespan
            )
        assert sum(result.handoffs_by_user) == result.n_handoffs
        assert math.isfinite(result.jain_fairness)
