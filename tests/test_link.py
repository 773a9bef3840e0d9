"""Unit tests for feedback models and link-session accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.awgn import AWGNChannel
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.decoder_incremental import IncrementalBubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.link import (
    BlockFeedback,
    DelayedFeedback,
    PerfectFeedback,
    deliver_packets,
    simulate_link_session,
)
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng


class TestPerfectFeedback:
    def test_identity(self):
        assert PerfectFeedback().symbols_spent(17) == 17.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PerfectFeedback().symbols_spent(-1)


class TestDelayedFeedback:
    def test_adds_delay(self):
        assert DelayedFeedback(delay_symbols=5).symbols_spent(10) == 15.0

    def test_zero_delay_is_perfect(self):
        assert DelayedFeedback(delay_symbols=0).symbols_spent(7) == 7.0

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            DelayedFeedback(delay_symbols=-1)

    def test_describe(self):
        assert "4" in DelayedFeedback(delay_symbols=4).describe()


class TestBlockFeedback:
    def test_rounds_up_to_block(self):
        model = BlockFeedback(block_symbols=8)
        assert model.symbols_spent(1) == 8.0
        assert model.symbols_spent(8) == 8.0
        assert model.symbols_spent(9) == 16.0

    def test_overhead_per_block(self):
        model = BlockFeedback(block_symbols=10, overhead_symbols=2)
        assert model.symbols_spent(25) == 3 * 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockFeedback(block_symbols=0)
        with pytest.raises(ValueError):
            BlockFeedback(block_symbols=4, overhead_symbols=-1.0)
        with pytest.raises(ValueError):
            BlockFeedback(block_symbols=4).symbols_spent(-2)


class TestLinkSession:
    def test_perfect_feedback_efficiency_is_one(self):
        result = simulate_link_session([10, 20, 30], 24, PerfectFeedback())
        assert result.feedback_efficiency == pytest.approx(1.0)
        assert result.throughput_bits_per_symbol == pytest.approx(72 / 60)

    def test_delayed_feedback_reduces_throughput(self):
        perfect = simulate_link_session([10, 20], 24, PerfectFeedback())
        delayed = simulate_link_session([10, 20], 24, DelayedFeedback(delay_symbols=10))
        assert delayed.throughput_bits_per_symbol < perfect.throughput_bits_per_symbol
        assert delayed.feedback_efficiency < 1.0

    def test_block_feedback_latency_proxy(self):
        result = simulate_link_session([5, 6], 24, BlockFeedback(block_symbols=8, overhead_symbols=1))
        assert result.mean_packet_symbols == pytest.approx(9.0)

    def test_total_payload(self):
        result = simulate_link_session([4, 4, 4], 16, PerfectFeedback())
        assert result.total_payload_bits == 48
        assert result.n_packets == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_link_session([0], 24, PerfectFeedback())
        with pytest.raises(ValueError):
            simulate_link_session([4], 0, PerfectFeedback())

    def test_empty_sequence_is_well_defined(self):
        # Regression: this used to raise "no symbols spent; throughput
        # undefined" from throughput_bits_per_symbol.  An idle link is a
        # valid zero-throughput result.
        result = simulate_link_session([], 24, PerfectFeedback())
        assert result.n_packets == 0
        assert result.total_payload_bits == 0
        assert result.throughput_bits_per_symbol == 0.0
        assert result.ideal_throughput_bits_per_symbol == 0.0
        assert result.feedback_efficiency == 1.0
        assert result.mean_packet_symbols == 0.0


class TestDeliverPackets:
    def _session(self, decoder_cls):
        params = SpinalParams(k=4, c=6, seed=45)
        code = SpinalCode(
            SpinalEncoder(params),
            lambda enc: decoder_cls(enc, beam_width=8),
            Framer(payload_bits=16, k=params.k),
        )
        return CodecSession(code, AWGNChannel(snr_db=12.0, adc_bits=14), max_symbols=256)

    def test_delivers_and_accounts(self):
        session = self._session(IncrementalBubbleDecoder)
        rng = spawn_rng(3, "link-deliver")
        payloads = [random_message_bits(16, rng) for _ in range(4)]
        link_result, trials = deliver_packets(session, payloads, rng, PerfectFeedback())
        assert link_result.n_packets == 4
        assert len(trials) == 4
        assert all(trial.payload_correct for trial in trials)
        assert link_result.symbols_needed.tolist() == [t.symbols_sent for t in trials]
        assert link_result.feedback_efficiency == pytest.approx(1.0)

    def test_engine_choice_is_invisible_at_link_level(self):
        outcomes = {}
        for name, cls in [("fresh", BubbleDecoder), ("incremental", IncrementalBubbleDecoder)]:
            session = self._session(cls)
            rng = spawn_rng(4, "link-engines")
            payloads = [random_message_bits(16, rng) for _ in range(3)]
            link_result, trials = deliver_packets(
                session, payloads, rng, DelayedFeedback(delay_symbols=4)
            )
            outcomes[name] = (
                link_result.symbols_needed.tolist(),
                link_result.throughput_bits_per_symbol,
                sum(t.work for t in trials),
            )
        assert outcomes["fresh"][0] == outcomes["incremental"][0]
        assert outcomes["fresh"][1] == outcomes["incremental"][1]
        assert outcomes["incremental"][2] < outcomes["fresh"][2]

    def test_empty_payload_sequence(self):
        session = self._session(IncrementalBubbleDecoder)
        link_result, trials = deliver_packets(
            session, [], spawn_rng(5, "empty"), PerfectFeedback()
        )
        assert trials == []
        assert link_result.n_packets == 0
        assert link_result.throughput_bits_per_symbol == 0.0
