"""The network-coding subsystem's claims, measured at smoke scale.

The headline acceptance criterion from the paper's "rateless codes
compose" pitch: at a symmetric operating point, XOR two-way relaying
saves **at least 25%** of the total medium uses of two one-way relay
exchanges (three equal-cost phases instead of four), for the spinal *and*
LT families — measured per phase, not assumed.  Around it:

* asymmetry shrinks (never inverts) the gain, because the broadcast
  phase is paced by the weaker endpoint;
* amplify-and-forward composes with any symbol-domain rateless code as a
  plain (worse) AWGN channel, with the closed-form effective SNR, and is
  rejected for bit-domain families;
* multicast over a tree charges the medium ``max`` instead of ``sum``;
* telemetry is bit-transparent for every netcode entry point;
* the ``network-coding-gain`` registry experiment's smoke grid meets the
  acceptance threshold on its symmetric cells.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netcode import (
    AmplifyForwardChannel,
    MulticastTreeConfig,
    TwoWayAmplifyChannel,
    TwoWayConfig,
    broadcast_transmission,
    run_multicast_tree,
    run_two_way_af_exchange,
    run_two_way_exchange,
)
from repro.obs import Telemetry, set_current
from repro.phy.families import CODE_FAMILY_NAMES, channel_for_code, make_code
from repro.phy.session import CodecSession
from repro.utils.rng import spawn_rng
from repro.utils.units import db_to_linear, linear_to_db

SEED = 20111114

SYMMETRIC = TwoWayConfig(
    family="spinal", snr_a_db=33.0, snr_b_db=33.0, rounds=4, seed=SEED, smoke=True
)


def _with_telemetry(fn):
    """Run ``fn`` with a live sink installed; return (result, telemetry)."""
    tel = Telemetry()
    previous = set_current(tel)
    try:
        return fn(), tel
    finally:
        set_current(previous)


@pytest.fixture(autouse=True)
def _restore_sink():
    yield
    set_current(None)


# -- two-way XOR relaying ------------------------------------------------------


class TestTwoWayExchange:
    @pytest.mark.parametrize(
        "family,xor_uses,baseline_uses",
        [("spinal", 30, 40), ("lt", 864, 1152)],
    )
    def test_symmetric_saving_meets_the_25_percent_claim(
        self, family, xor_uses, baseline_uses
    ):
        """The acceptance pin: >= 25% total-medium-use saving, both families."""
        result = run_two_way_exchange(SYMMETRIC.with_(family=family))
        assert result.xor_delivery_rate == 1.0
        assert result.baseline_delivery_rate == 1.0
        assert result.xor_total_uses == xor_uses
        assert result.baseline_total_uses == baseline_uses
        assert result.medium_use_saving >= 0.25
        # The broadcast phase replaces two equal unicast downlinks.
        assert result.downlink_saving == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "family,xor_uses,baseline_uses",
        [("spinal", 38, 52), ("lt", 1008, 1344)],
    )
    def test_full_codes_saving_at_30_db(self, family, xor_uses, baseline_uses):
        """The same pin with the full (non-smoke) codes at 30 dB."""
        result = run_two_way_exchange(
            SYMMETRIC.with_(family=family, snr_a_db=30.0, snr_b_db=30.0, smoke=False)
        )
        assert result.xor_delivery_rate == 1.0
        assert result.baseline_delivery_rate == 1.0
        assert result.xor_total_uses == xor_uses
        assert result.baseline_total_uses == baseline_uses
        assert result.medium_use_saving >= 0.25

    def test_asymmetry_shrinks_but_never_inverts_the_gain(self):
        symmetric = run_two_way_exchange(SYMMETRIC)
        asymmetric = run_two_way_exchange(SYMMETRIC.with_(snr_b_db=21.0))
        assert asymmetric.xor_delivery_rate == 1.0
        assert asymmetric.medium_use_saving < symmetric.medium_use_saving
        assert asymmetric.medium_use_saving > 0.0
        # The broadcast is paced by the weaker endpoint: it can never beat
        # the baseline's weaker downlink, only absorb the stronger one.
        assert asymmetric.broadcast.sum() >= asymmetric.downlink_b.sum()

    def test_per_round_accounting_shapes(self):
        result = run_two_way_exchange(SYMMETRIC.with_(rounds=2))
        assert result.n_rounds == 2
        for arr in (
            result.uplink_a,
            result.uplink_b,
            result.broadcast,
            result.downlink_a,
            result.downlink_b,
        ):
            assert arr.shape == (2,)
            assert (arr > 0).all()
        # Both schemes share the uplink phases by construction.
        assert result.xor_total_uses - int(result.broadcast.sum()) == (
            result.baseline_total_uses
            - int(result.downlink_a.sum())
            - int(result.downlink_b.sum())
        )

    def test_exchange_is_deterministic(self):
        first = run_two_way_exchange(SYMMETRIC.with_(rounds=2))
        second = run_two_way_exchange(SYMMETRIC.with_(rounds=2))
        assert np.array_equal(first.uplink_a, second.uplink_a)
        assert np.array_equal(first.broadcast, second.broadcast)
        assert np.array_equal(first.downlink_a, second.downlink_a)
        assert first.xor_total_uses == second.xor_total_uses


# -- amplify-and-forward -------------------------------------------------------


class TestAmplifyForward:
    def test_one_way_effective_snr_formula(self):
        channel = AmplifyForwardChannel(10.0, 14.0)
        p = 1.0
        n1 = p / db_to_linear(10.0)
        n2 = p / db_to_linear(14.0)
        expected = linear_to_db(p / (n1 + n2 * (p + n1) / p))
        assert channel.effective_snr_db == pytest.approx(expected)
        assert channel.effective_snr_db < 10.0  # strictly below the worse hop
        assert channel.uses_per_symbol == 2

    def test_two_way_gain_accounts_for_the_superposition(self):
        channel = TwoWayAmplifyChannel(12.0, 12.0)
        p = 1.0
        nr = p / db_to_linear(12.0)
        assert channel.gain_squared == pytest.approx(p / (2 * p + nr))
        # The superposed uplink costs gain, so the two-way composition is
        # strictly worse than the one-way relay at the same hop SNRs.
        assert (
            channel.effective_snr_db < AmplifyForwardChannel(12.0, 12.0).effective_snr_db
        )

    def test_transmit_is_nearly_transparent_at_high_snr(self):
        channel = AmplifyForwardChannel(80.0, 80.0)
        values = np.ones(64, dtype=np.complex128)
        received = channel.transmit(values, np.random.default_rng(0))
        assert np.allclose(received, values, atol=1e-2)

    def test_signal_power_validation(self):
        with pytest.raises(ValueError, match="signal_power"):
            AmplifyForwardChannel(10.0, 10.0, signal_power=0.0)
        with pytest.raises(ValueError, match="signal_power"):
            TwoWayAmplifyChannel(10.0, 10.0, signal_power=-1.0)

    def test_bit_domain_families_are_rejected(self):
        with pytest.raises(ValueError, match="symbol"):
            run_two_way_af_exchange(SYMMETRIC.with_(family="lt"))

    def test_af_exchange_delivers_and_reports_the_composed_snr(self):
        result = run_two_way_af_exchange(SYMMETRIC.with_(rounds=2))
        assert result.delivery_rate == 1.0
        assert result.total_uses == int(
            (2 * np.maximum(result.symbols_a, result.symbols_b)).sum()
        )
        expected = TwoWayAmplifyChannel(33.0, 33.0).effective_snr_db
        assert result.effective_snr_a_db == pytest.approx(expected)
        assert result.effective_snr_b_db == pytest.approx(expected)


# -- multicast -----------------------------------------------------------------


class TestMulticast:
    def _broadcast(self, n_receivers: int = 3, label: str = "mc"):
        code = make_code("spinal", seed=SEED, snr_db=33.0, smoke=True)
        payload = (
            spawn_rng(SEED, label, "payload")
            .integers(0, 2, size=code.info.payload_bits)
            .astype(np.uint8)
        )
        channels = [channel_for_code(code, 33.0) for _ in range(n_receivers)]
        rngs = [spawn_rng(SEED, label, "rx", i) for i in range(n_receivers)]
        return code, payload, channels, rngs

    def test_medium_is_charged_once_per_block(self):
        code, payload, channels, rngs = self._broadcast()
        outcome = broadcast_transmission(code, payload, channels, rngs)
        assert outcome.all_decoded
        assert (outcome.symbols_to_decode <= outcome.symbols_sent).all()
        # max-vs-sum: reaching three receivers costs one stream, so the
        # unicast equivalent can only be more expensive.
        assert outcome.unicast_equivalent_symbols >= outcome.symbols_sent
        for got in outcome.payloads:
            assert np.array_equal(np.asarray(got, dtype=np.uint8), payload)

    def test_broadcast_is_deterministic(self):
        first = broadcast_transmission(*self._broadcast())
        second = broadcast_transmission(*self._broadcast())
        assert first.symbols_sent == second.symbols_sent
        assert np.array_equal(first.symbols_to_decode, second.symbols_to_decode)

    def test_broadcast_validation(self):
        code, payload, channels, rngs = self._broadcast()
        with pytest.raises(ValueError, match="per receiver"):
            broadcast_transmission(code, payload, channels, rngs[:-1])
        with pytest.raises(ValueError, match="per receiver"):
            broadcast_transmission(code, payload, [], [])
        with pytest.raises(ValueError, match="termination"):
            broadcast_transmission(code, payload, channels, rngs, termination="oracle")
        with pytest.raises(ValueError, match="payload"):
            broadcast_transmission(code, payload[:-1], channels, rngs)

    @pytest.mark.parametrize("family", CODE_FAMILY_NAMES)
    @pytest.mark.parametrize("snr_db,seed", [(0.0, 0), (8.0, 5)])
    def test_receivers_are_their_solo_runs(self, family, snr_db, seed):
        """Receiver ``i`` of a broadcast is its solo ``CodecSession.run``.

        Includes fixed-rate spinal at 0 dB, where the receiver declines
        mid-frame blocks: those are not decode attempts.
        """
        code = make_code(family, seed=seed, snr_db=snr_db, smoke=True)
        payload = (
            spawn_rng(seed, "solo", "payload")
            .integers(0, 2, size=code.info.payload_bits)
            .astype(np.uint8)
        )
        snrs = (snr_db, snr_db + 4.0, snr_db + 10.0)
        budget = 64 * code.info.payload_bits

        def receivers():
            return (
                [channel_for_code(code, snr) for snr in snrs],
                [spawn_rng(seed, "solo", "rx", i) for i in range(len(snrs))],
            )

        outcome = broadcast_transmission(code, payload, *receivers(), max_symbols=budget)
        solos = [
            CodecSession(code, channel, max_symbols=budget).run(payload, rng)
            for channel, rng in zip(*receivers())
        ]
        assert outcome.symbols_sent == max(solo.symbols_sent for solo in solos)
        assert outcome.decoded.tolist() == [solo.success for solo in solos]
        assert outcome.symbols_to_decode.tolist() == [
            solo.symbols_sent if solo.success else -1 for solo in solos
        ]
        assert outcome.decode_attempts.tolist() == [
            solo.decode_attempts for solo in solos
        ]
        for got, solo in zip(outcome.payloads, solos):
            if solo.decoded_payload is None:
                assert got is None
            else:
                assert np.array_equal(got, solo.decoded_payload)

    def test_tree_broadcast_beats_per_child_unicast(self):
        result = run_multicast_tree(
            MulticastTreeConfig(
                family="spinal",
                depth=2,
                branching=2,
                snr_db=33.0,
                rounds=2,
                seed=SEED,
                smoke=True,
            )
        )
        assert result.n_leaves == 4
        assert result.delivery_rate == 1.0
        assert result.broadcast_total < result.unicast_total
        # Every interior node serves two children from one stream.
        assert result.medium_use_saving >= 0.25


# -- telemetry bit-transparency ------------------------------------------------


class TestNetcodeTelemetry:
    def test_two_way_exchange_is_bit_transparent(self):
        config = SYMMETRIC.with_(rounds=2)
        off = run_two_way_exchange(config)
        on, tel = _with_telemetry(lambda: run_two_way_exchange(config))
        for name in ("uplink_a", "uplink_b", "broadcast", "downlink_a", "downlink_b"):
            assert np.array_equal(getattr(off, name), getattr(on, name))
        assert off.xor_total_uses == on.xor_total_uses
        assert off.medium_use_saving == on.medium_use_saving
        # ... and the run really was observed, phase by phase.
        assert tel.counter_value("netcode.phase_uses", phase="uplink-a") == int(
            on.uplink_a.sum()
        )
        assert tel.counter_value("netcode.phase_uses", phase="broadcast") == int(
            on.broadcast.sum()
        )
        assert tel.counter_value("netcode.xor_combines") == config.rounds
        assert tel.counter_value("netcode.exchanges") == config.rounds
        # Every downlink stream (XOR broadcast + both baseline unicasts)
        # flows through broadcast_transmission's symbol counter.
        assert tel.counter_value("netcode.broadcast_symbols") == int(
            on.broadcast.sum() + on.downlink_a.sum() + on.downlink_b.sum()
        )

    def test_dag_xor_transport_is_bit_transparent(self):
        from repro.link.topology import build_dag_sessions, butterfly, simulate_dag_transport
        from repro.link.transport import TransportConfig

        topo = butterfly(snr_db=12.0)
        payloads = {
            src: [
                spawn_rng(SEED, "obs-bfly", src, 0)
                .integers(0, 2, size=16)
                .astype(np.uint8)
            ]
            for src in ("src-a", "src-b")
        }

        def run():
            return simulate_dag_transport(
                topo,
                build_dag_sessions("spinal", topo, seed=SEED, smoke=True),
                payloads,
                TransportConfig(seed=7),
                xor_nodes=("relay",),
            )

        off = run()
        on, tel = _with_telemetry(run)
        assert off.total_symbols_sent == on.total_symbols_sent
        assert off.makespan == on.makespan
        for node in topo.nodes:
            for da, db in zip(off.deliveries[node], on.deliveries[node]):
                assert (da.round, da.sources, da.time) == (db.round, db.sources, db.time)
                assert np.array_equal(da.payload, db.payload)
        assert tel.counter_value("link.xor_combines", node="relay") == 1

    def test_af_exchange_is_bit_transparent(self):
        config = SYMMETRIC.with_(rounds=2)
        off = run_two_way_af_exchange(config)
        on, tel = _with_telemetry(lambda: run_two_way_af_exchange(config))
        assert np.array_equal(off.symbols_a, on.symbols_a)
        assert np.array_equal(off.symbols_b, on.symbols_b)
        assert tel.counter_value("netcode.phase_uses", phase="af-slots") == on.total_uses


# -- the registry experiment ---------------------------------------------------


class TestNetworkCodingGainExperiment:
    def test_smoke_grid_meets_the_acceptance_threshold(self, tmp_path):
        from repro.experiments import registry
        from repro.experiments.registry import run_experiment
        from repro.utils.store import RunStore

        registry.load_all()
        experiment = registry.get("network-coding-gain")
        outcome = run_experiment(
            experiment, store=RunStore(tmp_path), smoke=True
        )
        cells = outcome.successful_cells()
        assert len(cells) == 8  # 2 offsets x 2 families x 2 topologies
        for _key, params, cell in cells:
            aggregate = cell["aggregate"]
            assert aggregate["delivered_coded"] == 1.0
            assert aggregate["saving"] > 0.0
            if params["snr_offset_db"] == 0.0 and params["topology"] == "two-way":
                # The acceptance criterion, for spinal AND lt.
                assert aggregate["saving"] >= 0.25
            if params["topology"] == "butterfly":
                # XOR halves the bottleneck edge (up to per-round wobble).
                assert aggregate["shared_link_saving"] >= 0.4
