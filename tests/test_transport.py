"""Property tests for the event-driven sliding-window link transport.

The transport's contract, exercised over randomized loss/delay schedules:

* every delivered packet is delivered exactly once, in order, with the
  correct payload;
* the sender never holds more than ``window`` packets in flight;
* the sender never spends fewer symbols than the receiver needed;
* a fixed seed is bit-deterministic — rerunning a simulation, or fanning
  the E15 sweep over any number of worker processes, reproduces identical
  results (the same contract every registry experiment honours);
* the E15 sweep keeps its anchors: full delivery, ``PerfectFeedback``
  accounting at zero ACK delay, and windowing recovering goodput under
  delay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.erasure import PacketErasureChannel
from repro.core.params import SpinalParams
from repro.experiments import get, run_experiment
from repro.experiments.runner import SpinalRunConfig
from repro.experiments.transport_sweep import TransportSweepConfig
from repro.link.events import (
    PRIORITY_ACK,
    PRIORITY_BLOCK,
    PRIORITY_SEND,
    EventScheduler,
)
from repro.link.topology import build_relay_sessions, simulate_relay_transport
from repro.link.transport import TransportConfig
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

_RUN_CONFIG = SpinalRunConfig(
    payload_bits=16,
    params=SpinalParams(k=4, c=6, seed=31),
    beam_width=8,
    search="sequential",
    max_symbols=512,
)


def _payloads(n, seed=501):
    return [random_message_bits(16, spawn_rng(seed, "payload", i)) for i in range(n)]


def _session(snr_db=10.0):
    return build_relay_sessions(_RUN_CONFIG, [snr_db])[0]


def _direct_link(session, payloads, config):
    """The direct link: the only hop of a 1-hop relay."""
    return simulate_relay_transport([session], payloads, config).hops[0]


class TestEventScheduler:
    def test_priority_order_within_a_tick(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(3, PRIORITY_SEND, lambda: order.append("send"))
        scheduler.schedule(3, PRIORITY_BLOCK, lambda: order.append("block"))
        scheduler.schedule(3, PRIORITY_ACK, lambda: order.append("ack"))
        scheduler.schedule(1, PRIORITY_SEND, lambda: order.append("early"))
        scheduler.run()
        assert order == ["early", "block", "ack", "send"]

    def test_fifo_within_priority(self):
        scheduler = EventScheduler()
        order = []
        for tag in ("a", "b", "c"):
            scheduler.schedule(2, PRIORITY_BLOCK, lambda tag=tag: order.append(tag))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_rejects_past_events(self):
        scheduler = EventScheduler()
        scheduler.schedule(5, PRIORITY_SEND, lambda: None)
        scheduler.run()
        assert scheduler.now == 5
        with pytest.raises(ValueError):
            scheduler.schedule(4, PRIORITY_SEND, lambda: None)

    def test_event_budget_guards_liveness(self):
        scheduler = EventScheduler()

        def respawn():
            scheduler.schedule(scheduler.now + 1, PRIORITY_SEND, respawn)

        scheduler.schedule(0, PRIORITY_SEND, respawn)
        with pytest.raises(RuntimeError, match="event budget"):
            scheduler.run(max_events=100)


class TestPacketErasureChannel:
    def test_extremes_consume_no_randomness(self):
        rng = spawn_rng(1, "erasure")
        before = rng.bit_generator.state
        assert PacketErasureChannel(0.0).survives(rng)
        assert not PacketErasureChannel(1.0).survives(rng)
        assert rng.bit_generator.state == before

    def test_loss_rate_is_roughly_respected(self):
        rng = spawn_rng(2, "erasure")
        channel = PacketErasureChannel(0.25)
        survived = sum(channel.survives(rng) for _ in range(2000))
        assert 0.70 < survived / 2000 < 0.80

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketErasureChannel(-0.1)
        with pytest.raises(ValueError):
            PacketErasureChannel(1.5)


class TestTransportConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="protocol"):
            TransportConfig(protocol="stop-and-wait")
        with pytest.raises(ValueError, match="window"):
            TransportConfig(window=0)
        with pytest.raises(ValueError, match="ack_delay"):
            TransportConfig(ack_delay=-1)
        with pytest.raises(ValueError, match="ack_loss"):
            TransportConfig(ack_loss=1.5)


class TestSlidingWindowInvariants:
    """Randomized loss/delay schedules against the protocol's core promises."""

    SCHEDULES = [
        ("go-back-n", 1, 0, 0.0),
        ("go-back-n", 3, 7, 0.3),
        ("go-back-n", 2, 19, 0.5),
        ("selective-repeat", 1, 5, 0.2),
        ("selective-repeat", 3, 0, 0.0),
        ("selective-repeat", 3, 13, 0.4),
        ("selective-repeat", 5, 23, 0.6),
    ]

    @pytest.mark.parametrize("protocol,window,ack_delay,ack_loss", SCHEDULES)
    def test_in_order_exactly_once_delivery(self, protocol, window, ack_delay, ack_loss):
        payloads = _payloads(6)
        deliveries = []
        config = TransportConfig(
            protocol=protocol,
            window=window,
            ack_delay=ack_delay,
            ack_loss=ack_loss,
            seed=777,
        )
        result = _direct_link(_session(), payloads, config)

        # Generous budget at 10 dB: everything must get through.
        assert result.delivered.all()
        # The delivery order recorded by the hop is the sequence order, and
        # delivery times are non-decreasing in that order (in-order).
        times = result.delivery_times
        assert (times >= 0).all()
        assert (np.diff(times) >= 0).all()
        # Exactly-once with the right bits.
        for seq, payload in enumerate(payloads):
            assert np.array_equal(result.decoded_payloads[seq], payload)

    @pytest.mark.parametrize("protocol,window,ack_delay,ack_loss", SCHEDULES)
    def test_window_never_exceeded(self, protocol, window, ack_delay, ack_loss):
        config = TransportConfig(
            protocol=protocol,
            window=window,
            ack_delay=ack_delay,
            ack_loss=ack_loss,
            seed=778,
        )
        result = _direct_link(_session(), _payloads(6), config)
        assert 1 <= result.max_outstanding <= window

    @pytest.mark.parametrize("protocol,window,ack_delay,ack_loss", SCHEDULES)
    def test_sender_never_spends_less_than_needed(
        self, protocol, window, ack_delay, ack_loss
    ):
        config = TransportConfig(
            protocol=protocol,
            window=window,
            ack_delay=ack_delay,
            ack_loss=ack_loss,
            seed=779,
        )
        result = _direct_link(_session(), _payloads(5), config)
        assert (result.symbols_spent >= result.symbols_needed).all()
        assert result.makespan >= int(result.symbols_needed.max())

    def test_empty_packet_sequence(self):
        result = _direct_link(_session(), [], TransportConfig())
        assert result.n_packets == 0
        assert result.makespan == 0
        assert result.goodput_bits_per_symbol_time == 0.0
        assert result.link_session_result().throughput_bits_per_symbol == 0.0

    def test_budget_exhaustion_aborts_but_terminates(self):
        # 16 payload bits over a 0 dB channel with a 12-symbol budget: some
        # packets cannot decode; the simulation must still drain, mark them
        # undelivered, and deliver the rest in order.
        config = _RUN_CONFIG.with_(max_symbols=12)
        session = build_relay_sessions(config, [0.0])[0]
        result = _direct_link(
            session,
            _payloads(6),
            TransportConfig(protocol="go-back-n", window=2, ack_delay=4, seed=11),
        )
        assert not result.delivered.all()
        assert (result.symbols_spent[~result.delivered] >= 12).all()
        delivered_times = result.delivery_times[result.delivered]
        assert (np.diff(delivered_times) >= 0).all()

    @pytest.mark.parametrize("seed", [1, 2, 9, 15, 16])
    def test_sr_abort_flushes_buffered_packets(self, seed):
        # Regression: a packet decoded and buffered behind an undecoded
        # head-of-line packet used to be stranded (never delivered) when the
        # head packet exhausted its budget and aborted — the in-order flush
        # only ran on decode, not on abort.
        config = _RUN_CONFIG.with_(max_symbols=12)
        session = build_relay_sessions(config, [0.0])[0]
        result = _direct_link(
            session,
            _payloads(6, seed=seed),
            TransportConfig(protocol="selective-repeat", window=3, ack_delay=0, seed=seed),
        )
        for i in range(result.n_packets):
            if result.decoded_payloads[i] is not None:
                assert result.delivered[i], i

    @pytest.mark.parametrize("protocol", ["go-back-n", "selective-repeat"])
    def test_decoded_but_never_acked_packet_cannot_wedge_the_window(self, protocol):
        # Regression: a packet that decoded at the receiver but lost every
        # ACK before its budget ran out used to block the sender window
        # permanently (it was neither abortable nor ACKed), leaving later
        # packets untransmitted.
        config = _RUN_CONFIG.with_(max_symbols=24)
        session = build_relay_sessions(config, [15.0])[0]
        result = _direct_link(
            session,
            _payloads(8, seed=0),
            TransportConfig(
                protocol=protocol, window=2, ack_delay=3, ack_loss=0.9, seed=0
            ),
        )
        # Every packet must at least have been transmitted; at 15 dB with
        # this budget every one of them also decodes and must be delivered.
        assert (result.symbols_spent > 0).all()
        assert result.delivered.all()

    def test_gbn_discards_cost_symbols_sr_does_not(self):
        # With instant feedback, selective-repeat wastes nothing at any
        # window; go-back-N pays for every out-of-order block it discards.
        payloads = _payloads(5)
        sr = _direct_link(
            _session(),
            payloads,
            TransportConfig(protocol="selective-repeat", window=3, ack_delay=0),
        )
        gbn = _direct_link(
            _session(),
            payloads,
            TransportConfig(protocol="go-back-n", window=3, ack_delay=0),
        )
        assert sr.symbol_efficiency == 1.0
        assert gbn.symbol_efficiency < 1.0
        assert gbn.total_symbols_sent > sr.total_symbols_sent


@pytest.fixture(scope="module")
def anchor_rows() -> list:
    """One registry ``transport`` run over the E15 anchor grid, a row per cell."""
    outcome = run_experiment(
        get("transport"),
        overrides={
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
            "snr_db": 10.0,
            "n_packets": 4,
            "window": (1, 2),
            "ack_delay": (0, 16),
            "hops": (1, 2),
            "max_symbols": 512,
        },
    )
    return [cell["trials"][0] for _key, _params, cell in outcome.successful_cells()]


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        config = TransportConfig(
            protocol="selective-repeat", window=3, ack_delay=9, ack_loss=0.35, seed=321
        )
        first = _direct_link(_session(), _payloads(5), config)
        second = _direct_link(_session(), _payloads(5), config)
        assert np.array_equal(first.symbols_spent, second.symbols_spent)
        assert np.array_equal(first.symbols_needed, second.symbols_needed)
        assert np.array_equal(first.delivery_times, second.delivery_times)
        assert first.acks_sent == second.acks_sent
        assert first.acks_lost == second.acks_lost
        assert first.makespan == second.makespan

    def test_relay_rerun_is_bit_identical(self):
        config = TransportConfig(window=2, ack_delay=6, ack_loss=0.2, seed=5)
        results = [
            simulate_relay_transport(
                build_relay_sessions(_RUN_CONFIG, [10.0, 8.0]), _payloads(4), config
            )
            for _ in range(2)
        ]
        assert np.array_equal(results[0].delivered, results[1].delivered)
        assert np.array_equal(results[0].delivery_times, results[1].delivery_times)
        for hop_a, hop_b in zip(results[0].hops, results[1].hops):
            assert np.array_equal(hop_a.symbols_spent, hop_b.symbols_spent)
            assert hop_a.acks_lost == hop_b.acks_lost

    def test_sweep_identical_for_any_worker_count(self):
        overrides = {
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
            "snr_db": 10.0,
            "n_packets": 3,
            "window": (1, 2),
            "ack_delay": (0, 6),
            "hops": (1, 2),
            "ack_loss": 0.25,
            "max_symbols": 512,
        }
        reference = run_experiment(get("transport"), overrides=overrides).record
        for n_workers in (2, 3):
            outcome = run_experiment(get("transport"), overrides=overrides, n_workers=n_workers)
            assert outcome.record == reference

    def test_sweep_delivers_every_packet(self, anchor_rows):
        assert len(anchor_rows) == 16
        for row in anchor_rows:
            assert row["n_delivered"] == row["n_packets"] == 4, row

    def test_zero_ack_delay_is_the_perfect_feedback_anchor(self, anchor_rows):
        anchors = [
            row
            for row in anchor_rows
            if row["ack_delay"] == 0
            and (row["protocol"] == "selective-repeat" or row["window"] == 1)
        ]
        assert anchors
        for row in anchors:
            # Nothing spent beyond what the decoders needed.
            assert row["symbol_efficiency"] == 1.0, row

    def test_widest_window_recovers_goodput_under_delay(self, anchor_rows):
        largest_delay = max(row["ack_delay"] for row in anchor_rows)
        widest = max(row["window"] for row in anchor_rows)
        for hops in (1, 2):
            selective_repeat = {
                row["window"]: row["goodput"]
                for row in anchor_rows
                if row["hops"] == hops
                and row["protocol"] == "selective-repeat"
                and row["ack_delay"] == largest_delay
            }
            assert selective_repeat[widest] > selective_repeat[1], (hops, selective_repeat)

    def test_sweep_config_validation(self):
        with pytest.raises(ValueError, match="hop counts"):
            TransportSweepConfig(hop_counts=(0,))
        with pytest.raises(ValueError, match="window sizes"):
            TransportSweepConfig(windows=(1, 0))
        with pytest.raises(ValueError, match="ack delays"):
            TransportSweepConfig(ack_delays=(0, -1))
        with pytest.raises(ValueError, match="n_packets"):
            TransportSweepConfig(n_packets=0)
        with pytest.raises(ValueError, match="max_symbols"):
            TransportSweepConfig(max_symbols=0)
