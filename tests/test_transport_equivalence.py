"""Equivalence tests pinning the simulated transport to the existing stack.

Three anchors keep the event-driven protocol honest:

* **PerfectFeedback** — with a zero-delay lossless reverse channel the
  transport must spend *exactly* the per-packet symbol counts that
  :meth:`CodecSession.run` measures with the same noise streams, and its
  link-session view must match :func:`simulate_link_session` under
  :class:`PerfectFeedback` bit-for-bit;
* **DelayedFeedback** — at window 1 the closed-form model brackets the
  measured overhead (the simulation can only overshoot by the in-flight
  feedback plus block granularity);
* **Relay chains** — a decode-and-forward chain delivers every payload
  end to end, hop by hop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import SpinalParams
from repro.experiments.runner import SpinalRunConfig
from repro.link.feedback import DelayedFeedback, PerfectFeedback
from repro.link.session import simulate_link_session
from repro.link.topology import (
    build_relay_sessions,
    relay_hop_params,
    simulate_relay_transport,
)
from repro.link.transport import TransportConfig, packet_rng
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

_RUN_CONFIG = SpinalRunConfig(
    payload_bits=16,
    params=SpinalParams(k=4, c=6, seed=31),
    beam_width=8,
    search="sequential",
    max_symbols=512,
)


def _payloads(n, seed=901):
    return [random_message_bits(16, spawn_rng(seed, "payload", i)) for i in range(n)]


def _direct_link(session, payloads, config):
    """The direct link: the only hop of a 1-hop relay."""
    return simulate_relay_transport([session], payloads, config).hops[0]


def _serial_symbol_counts(payloads, transport_seed, snr_db=10.0):
    """Per-packet symbols from the plain rateless session, transport streams."""
    session = build_relay_sessions(_RUN_CONFIG, [snr_db])[0]
    return [
        session.run(payload, packet_rng(transport_seed, 0, index)).symbols_sent
        for index, payload in enumerate(payloads)
    ]


class TestPerfectFeedbackEquivalence:
    """Zero-delay lossless ACKs must reproduce PerfectFeedback exactly."""

    @pytest.mark.parametrize(
        "protocol,window",
        [
            ("selective-repeat", 1),
            ("selective-repeat", 3),
            ("go-back-n", 1),
        ],
    )
    def test_symbol_counts_match_rateless_session_exactly(self, protocol, window):
        payloads = _payloads(5)
        config = TransportConfig(
            protocol=protocol, window=window, ack_delay=0, ack_loss=0.0, seed=41
        )
        result = _direct_link(
            build_relay_sessions(_RUN_CONFIG, [10.0])[0], payloads, config
        )
        serial = _serial_symbol_counts(payloads, transport_seed=41)

        assert result.delivered.all()
        assert result.symbols_needed.tolist() == serial
        assert result.symbols_spent.tolist() == serial  # zero measured overhead

    def test_link_session_view_matches_perfect_feedback(self):
        payloads = _payloads(4)
        config = TransportConfig(
            protocol="selective-repeat", window=2, ack_delay=0, ack_loss=0.0, seed=42
        )
        result = _direct_link(
            build_relay_sessions(_RUN_CONFIG, [10.0])[0], payloads, config
        )
        reference = simulate_link_session(
            _serial_symbol_counts(payloads, transport_seed=42),
            payload_bits_per_packet=16,
            feedback=PerfectFeedback(),
        )
        measured = result.link_session_result()

        assert measured.n_packets == reference.n_packets
        assert np.array_equal(measured.symbols_needed, reference.symbols_needed)
        assert np.array_equal(measured.symbols_spent, reference.symbols_spent)
        assert (
            measured.throughput_bits_per_symbol == reference.throughput_bits_per_symbol
        )
        assert measured.feedback_efficiency == 1.0


class TestDelayedFeedbackBracket:
    def test_window_one_overhead_is_bracketed_by_the_closed_form(self):
        # At window 1 the sender overshoots each packet by at most the ACK
        # delay plus the blocks straddling it; the closed-form model charges
        # exactly the delay.  Measured overhead must sit in that bracket.
        delay = 11
        payloads = _payloads(5)
        session = build_relay_sessions(_RUN_CONFIG, [10.0])[0]
        config = TransportConfig(
            protocol="selective-repeat", window=1, ack_delay=delay, ack_loss=0.0, seed=43
        )
        result = _direct_link(session, payloads, config)
        closed_form = DelayedFeedback(delay_symbols=delay)
        block_slack = 2 * session.code.framer.n_segments

        assert result.delivered.all()
        for needed, spent in zip(result.symbols_needed, result.symbols_spent):
            # The channel stays busy on the lone in-flight packet while the
            # ACK travels, so the closed form (needed + delay) is a lower
            # bound; block granularity bounds the extra overshoot above it.
            assert closed_form.symbols_spent(int(needed)) <= spent
            assert spent <= needed + delay + block_slack


class TestRelayEquivalence:
    def test_two_hop_relay_delivers_correct_payloads_end_to_end(self):
        payloads = _payloads(5)
        config = TransportConfig(window=2, ack_delay=4, ack_loss=0.1, seed=45)
        relay = simulate_relay_transport(
            build_relay_sessions(_RUN_CONFIG, [10.0, 7.0]), payloads, config
        )

        assert relay.delivered.all()
        final = relay.hops[-1]
        for i in range(final.n_packets):
            orig = int(final.orig_indices[i])
            assert np.array_equal(final.decoded_payloads[i], payloads[orig])
        # The pipeline clock: end-to-end completion is no earlier than the
        # busier hop, and strictly later than hop 0 alone.
        assert relay.makespan >= max(hop.makespan for hop in relay.hops[:-1])

    def test_hops_use_fresh_hash_seeds(self):
        assert relay_hop_params(_RUN_CONFIG, 0) == _RUN_CONFIG.params
        seeds = {relay_hop_params(_RUN_CONFIG, hop).seed for hop in range(4)}
        assert len(seeds) == 4  # hop 0 original + three distinct derived seeds

    def test_relay_requires_consistent_framing(self):
        sessions = build_relay_sessions(_RUN_CONFIG, [10.0]) + build_relay_sessions(
            _RUN_CONFIG.with_(payload_bits=12), [10.0]
        )
        with pytest.raises(ValueError, match="framing"):
            simulate_relay_transport(sessions, _payloads(2), TransportConfig())

    def test_relay_requires_at_least_one_hop(self):
        with pytest.raises(ValueError, match="hop"):
            simulate_relay_transport([], _payloads(1), TransportConfig())
        with pytest.raises(ValueError, match="hop"):
            build_relay_sessions(_RUN_CONFIG, [])
