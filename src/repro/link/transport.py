"""Event-driven sliding-window ARQ over rateless spinal sessions.

The paper's evaluation assumes the sender learns of a decode instantly and
for free; :mod:`repro.link.feedback` priced that assumption with closed-form
models.  This module replaces the formulas with a *simulated* protocol: a
discrete-event sender/receiver pair exchanging subpass blocks on the forward
channel and ACK frames on a lossy, delayed reverse channel, so feedback
overhead is measured from protocol dynamics rather than assumed.

Protocol model
--------------
Time advances in symbol-times (one tick per forward channel use; see
:mod:`repro.link.events`).  The sender holds a window of up to ``window``
packets in flight and services them round-robin, one subpass block per turn.
"Retransmission" in a rateless code never repeats symbols — servicing a
packet again simply sends *fresh* coded symbols — so classical timers are
subsumed: an unacknowledged packet stays in the rotation, keeps eliciting
receiver feedback, and the protocol is live without a timeout state machine.

Two receiver policies are implemented:

* ``"go-back-n"`` — the receiver keeps decoder state only for the next
  in-order packet; blocks for later packets are *discarded* (their symbols
  are pure waste, the classical GBN penalty) and acknowledged cumulatively.
* ``"selective-repeat"`` — the receiver keeps per-packet decoder state,
  acknowledges each packet individually as it decodes, and delivers
  buffered packets in order.

ACKs travel on a frame-level :class:`~repro.channels.erasure.PacketErasureChannel`
with a fixed ``ack_delay`` (the feedback RTT in symbol-times).  A receiver
re-ACKs whenever it sees symbols for an already-completed packet, so lost
ACKs are recovered by the sender's continued transmission.

With a zero-delay lossless reverse channel the sender stops each packet at
exactly the symbols its decoder needed, so the transport reproduces
:class:`~repro.link.feedback.PerfectFeedback` accounting bit-exactly
(``selective-repeat`` at any window; ``go-back-n`` at window 1) — the
equivalence the test suite pins against :mod:`repro.link.session`.

A packet that exhausts the session's ``max_symbols`` budget without
decoding is aborted: both endpoints drop it and advance (modelling an
out-of-band management abort; the abort itself is not charged any channel
time).  Aborts are recorded as undelivered packets in the result.

:class:`HopTransport` is one hop's state machine; the event clock that
drives it lives in :mod:`repro.link.topology`.  A direct link is the 1-hop
relay: ``simulate_relay_transport([session], payloads, config).hops[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.channels.erasure import PacketErasureChannel
from repro.phy.session import CodecSession, CodecTransmission
from repro.link.events import (
    PRIORITY_ACK,
    PRIORITY_BLOCK,
    PRIORITY_SEND,
    EventScheduler,
)
from repro.link.session import LinkSessionResult
from repro.obs.telemetry import current as current_telemetry
from repro.utils.rng import spawn_rng

__all__ = [
    "TransportConfig",
    "TransportResult",
    "HopTransport",
    "packet_rng",
    "ack_rng",
]

_PROTOCOLS = ("go-back-n", "selective-repeat")


def packet_rng(seed: int, hop: int, index: int) -> np.random.Generator:
    """Canonical per-(hop, packet) generator for forward-channel noise.

    Factored out so tests and the relay topology derive the *same* streams
    as the transport: per-packet independence is what makes a packet's
    symbol requirement identical whether its blocks are interleaved with
    other packets or sent back-to-back by :meth:`CodecSession.run
    <repro.phy.session.CodecSession.run>`.
    """
    return spawn_rng(seed, "transport", "hop", hop, "packet", index)


def ack_rng(seed: int, hop: int) -> np.random.Generator:
    """Canonical per-hop generator for reverse-channel erasure draws."""
    return spawn_rng(seed, "transport", "hop", hop, "ack")


@dataclass(frozen=True)
class TransportConfig:
    """Sliding-window protocol parameters shared by every hop.

    Parameters
    ----------
    protocol:
        ``"go-back-n"`` or ``"selective-repeat"``.
    window:
        Maximum packets the sender may have in flight (started, unACKed).
    ack_delay:
        Symbol-times from the receiver emitting an ACK to the sender
        processing it (the feedback RTT).
    ack_loss:
        Per-frame erasure probability on the reverse channel.
    seed:
        Base seed for the transport's random streams (forward noise per
        packet, reverse erasures per hop).
    max_events:
        Optional override of the scheduler's liveness bound; the default is
        derived from the per-packet symbol budgets and is generous.
    """

    protocol: str = "selective-repeat"
    window: int = 4
    ack_delay: int = 0
    ack_loss: float = 0.0
    seed: int = 20111114
    max_events: int | None = None

    def __post_init__(self) -> None:
        if self.protocol not in _PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of {_PROTOCOLS}"
            )
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if self.ack_delay < 0:
            raise ValueError(f"ack_delay must be non-negative, got {self.ack_delay}")
        if not 0.0 <= self.ack_loss <= 1.0:
            raise ValueError(f"ack_loss must be in [0, 1], got {self.ack_loss}")

    def with_(self, **changes) -> "TransportConfig":
        """Copy with fields replaced (sweep convenience)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class TransportResult:
    """Measured outcome of one hop's sliding-window transport.

    ``symbols_needed`` counts the channel uses the receiver had *accepted*
    when each packet decoded (0 for aborted packets); ``symbols_spent``
    counts everything the sender transmitted for the packet, including
    blocks the receiver discarded and overshoot while feedback was in
    flight.  The gap between the two is the measured cost of the protocol.
    """

    protocol: str
    window: int
    n_packets: int
    payload_bits_per_packet: int
    orig_indices: np.ndarray
    delivered: np.ndarray
    symbols_needed: np.ndarray
    symbols_spent: np.ndarray
    delivery_times: np.ndarray
    decoded_payloads: tuple
    makespan: int
    acks_sent: int
    acks_lost: int
    max_outstanding: int

    @property
    def n_delivered(self) -> int:
        return int(self.delivered.sum())

    @property
    def total_symbols_sent(self) -> int:
        return int(self.symbols_spent.sum())

    @property
    def goodput_bits_per_symbol_time(self) -> float:
        """Delivered payload bits per elapsed symbol-time (includes idling)."""
        if self.makespan == 0:
            return 0.0
        return self.n_delivered * self.payload_bits_per_packet / self.makespan

    @property
    def symbol_efficiency(self) -> float:
        """Needed-over-spent symbol ratio (1.0 = perfect-feedback ideal)."""
        spent = float(self.symbols_spent.sum())
        if spent == 0:
            return 1.0
        return float(self.symbols_needed.sum()) / spent

    def link_session_result(self) -> LinkSessionResult:
        """The delivered packets expressed in :mod:`repro.link.session` terms.

        This is the bridge that pins the simulated transport to the
        existing closed-form accounting: the returned object's throughput
        and efficiency properties are computed exactly as for the
        :class:`~repro.link.feedback.FeedbackModel` pipeline, but from
        *measured* per-packet symbol counts.
        """
        mask = self.delivered
        return LinkSessionResult(
            n_packets=int(mask.sum()),
            payload_bits_per_packet=self.payload_bits_per_packet,
            symbols_needed=self.symbols_needed[mask],
            symbols_spent=self.symbols_spent[mask].astype(np.float64),
        )


@dataclass
class _PacketState:
    """Bookkeeping for one packet at one hop (sender + receiver sides)."""

    orig_index: int
    payload: np.ndarray
    transmission: CodecTransmission | None = None
    acked: bool = False
    failed: bool = False
    delivered: bool = False
    symbols_needed: int = 0
    delivery_time: int = -1
    decoded_payload: np.ndarray | None = None


class HopTransport:
    """The sender/receiver state machine for one hop of a rateless link.

    One instance simulates both endpoints of a hop (they share the process,
    so "the receiver knows X" is enforced by only touching receiver fields
    from receiver-side handlers).  Packets enter through :meth:`enqueue`
    (all upfront for a direct link; as upstream hops deliver, for a relay)
    and leave through the ``on_deliver`` callback, which fires in order,
    exactly once per delivered packet.

    ``session`` is *code-agnostic*: anything exposing the PHY-session
    surface — ``open_transmission(payload, rng)``, ``payload_bits``,
    ``max_symbols``, ``channel`` — works, i.e. a
    :class:`~repro.phy.session.CodecSession` over any registered code
    family.  The transport only ever drives the pausable transmission
    interface (``send_next_block`` / ``deliver`` / ``decoded`` /
    ``exhausted``), so ARQ behaviour is identical across families.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        session: CodecSession,
        config: TransportConfig,
        hop_index: int = 0,
        on_deliver: Callable[[int, np.ndarray, int], None] | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.session = session
        self.config = config
        self.hop_index = hop_index
        self.on_deliver = on_deliver
        self.ack_channel = PacketErasureChannel(config.ack_loss)
        self.ack_rng = ack_rng(config.seed, hop_index)
        self.packets: list[_PacketState] = []
        # -- sender state --
        self.base = 0  # lowest sequence number not yet ACKed (sender view)
        self.rr_cursor = -1
        self.busy_until = 0
        self.send_pending = False
        # -- receiver state --
        self.expected = 0  # go-back-N: next in-order sequence number
        self.rcv_base = 0  # selective-repeat: lowest undelivered sequence
        # -- statistics --
        self.acks_sent = 0
        self.acks_lost = 0
        #: Packets currently in flight (transmission started, not yet
        #: ACKed/aborted); maintained incrementally, peak recorded below.
        self.outstanding = 0
        self.max_outstanding = 0
        self.closed_at = 0
        self._tel = current_telemetry()

    # -- packet intake -------------------------------------------------------
    def enqueue(self, payload: np.ndarray, orig_index: int) -> None:
        """Make one payload available to this hop's sender (at current time)."""
        self.packets.append(_PacketState(orig_index=orig_index, payload=payload))
        self._kick_send(self.scheduler.now)

    # -- sender side ---------------------------------------------------------
    def _transmission(self, seq: int) -> CodecTransmission:
        state = self.packets[seq]
        if state.transmission is None:
            state.transmission = self.session.open_transmission(
                state.payload,
                packet_rng(self.config.seed, self.hop_index, state.orig_index),
            )
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)
        return state.transmission

    def _mark_acked(self, seq: int) -> None:
        state = self.packets[seq]
        if not state.acked:
            state.acked = True
            if state.transmission is not None and not state.failed:
                self.outstanding -= 1

    def _sendable(self, seq: int) -> bool:
        state = self.packets[seq]
        if state.acked or state.failed:
            return False
        if state.transmission is not None and state.transmission.exhausted:
            return False  # final block in flight; abort resolves at arrival
        return True

    def _next_seq_to_service(self) -> int | None:
        """Round-robin over the in-flight window, starting after the cursor."""
        window_end = min(self.base + self.config.window, len(self.packets))
        candidates = [
            seq for seq in range(self.base, window_end) if self._sendable(seq)
        ]
        if not candidates:
            return None
        for seq in candidates:
            if seq > self.rr_cursor:
                return seq
        return candidates[0]

    def _kick_send(self, time: int) -> None:
        if self.send_pending:
            return
        self.send_pending = True
        self.scheduler.schedule(max(time, self.busy_until), PRIORITY_SEND, self._on_send)

    def _on_send(self) -> None:
        self.send_pending = False
        now = self.scheduler.now
        if now < self.busy_until:  # pragma: no cover - defensive; kicks respect busy_until
            self._kick_send(self.busy_until)
            return
        seq = self._next_seq_to_service()
        if seq is None:
            return  # idle; a future ACK/enqueue/abort will kick us again
        self.rr_cursor = seq
        transmission = self._transmission(seq)
        block, received = transmission.send_next_block()
        if self._tel.enabled:
            self._tel.counter("link.blocks_sent", hop=self.hop_index)
            self._tel.observe(
                "link.window_occupancy", self.outstanding, hop=self.hop_index
            )
        arrival = now + block.n_symbols
        self.busy_until = arrival
        self.scheduler.schedule(
            arrival,
            PRIORITY_BLOCK,
            lambda: self._on_block_arrival(seq, block, received),
        )
        self._kick_send(arrival)

    def _advance_base(self) -> None:
        while self.base < len(self.packets) and (
            self.packets[self.base].acked or self.packets[self.base].failed
        ):
            self.base += 1

    def _on_ack(self, value: int) -> None:
        """Process one ACK frame at the sender."""
        progressed = False
        if self.config.protocol == "go-back-n":
            # Cumulative: every sequence number below ``value`` is delivered.
            for seq in range(self.base, min(value, len(self.packets))):
                if not self.packets[seq].acked:
                    self._mark_acked(seq)
                    progressed = True
        else:
            if not self.packets[value].acked:
                self._mark_acked(value)
                progressed = True
        if progressed:
            self._advance_base()
            self._kick_send(self.scheduler.now)

    # -- receiver side -------------------------------------------------------
    def _send_ack(self, value: int) -> None:
        self.acks_sent += 1
        if self._tel.enabled:
            self._tel.counter("link.acks_sent", hop=self.hop_index)
        if not self.ack_channel.survives(self.ack_rng):
            self.acks_lost += 1
            if self._tel.enabled:
                self._tel.counter("link.acks_lost", hop=self.hop_index)
            return
        self.scheduler.schedule(
            self.scheduler.now + self.config.ack_delay,
            PRIORITY_ACK,
            lambda: self._on_ack(value),
        )

    def _deliver(self, seq: int) -> None:
        state = self.packets[seq]
        state.delivered = True
        state.delivery_time = self.scheduler.now
        self.closed_at = max(self.closed_at, self.scheduler.now)
        if self._tel.enabled:
            self._tel.counter("link.packets_delivered", hop=self.hop_index)
        if self.on_deliver is not None:
            self.on_deliver(state.orig_index, state.decoded_payload, self.scheduler.now)

    def _on_block_arrival(self, seq: int, block, received) -> None:
        if self.config.protocol == "go-back-n":
            self._gbn_arrival(seq, block, received)
        else:
            self._sr_arrival(seq, block, received)
        state = self.packets[seq]
        if state.transmission.exhausted and not state.acked and not state.failed:
            if state.transmission.decoded:
                # The receiver completed this packet but every ACK was lost
                # before the budget ran out; with no more blocks to elicit
                # re-ACKs the window would wedge on it forever.  Resolve it
                # out-of-band like an abort (the packet *was* delivered).
                self._mark_acked(seq)
                self._advance_base()
                self._kick_send(self.scheduler.now)
            else:
                self._abort(seq)

    def _gbn_arrival(self, seq: int, block, received) -> None:
        if seq < self.expected or self.packets[seq].failed:
            # Already complete (or aborted): the ACK must have been lost or
            # is still in flight; re-ACK cumulatively.
            self._send_ack(self.expected)
            return
        if seq > self.expected:
            # Out-of-order: discarded silently (the GBN penalty).  The
            # discarded symbols are the protocol's retransmission waste.
            if self._tel.enabled:
                self._tel.counter("link.blocks_discarded", hop=self.hop_index)
                self._tel.counter(
                    "link.symbols_discarded", block.n_symbols, hop=self.hop_index
                )
            return
        transmission = self.packets[seq].transmission
        if transmission.deliver(block, received):
            self._complete(seq)
            self.expected = seq + 1
            while (
                self.expected < len(self.packets) and self.packets[self.expected].failed
            ):
                self.expected += 1
            self._deliver(seq)
            self._send_ack(self.expected)

    def _sr_arrival(self, seq: int, block, received) -> None:
        state = self.packets[seq]
        if state.failed:
            return
        transmission = state.transmission
        if transmission.decoded:
            # Completed earlier but the sender evidently has not heard yet.
            self._send_ack(seq)
            return
        if transmission.deliver(block, received):
            self._complete(seq)
            self._send_ack(seq)
            self._sr_flush_in_order()

    def _sr_flush_in_order(self) -> None:
        """Deliver the in-order prefix of decoded packets (skipping aborts)."""
        while self.rcv_base < len(self.packets):
            head = self.packets[self.rcv_base]
            if head.failed:
                self.rcv_base += 1
                continue
            if head.transmission is None or not head.transmission.decoded:
                break
            if not head.delivered:
                self._deliver(self.rcv_base)
            self.rcv_base += 1

    def _complete(self, seq: int) -> None:
        """Record receiver-side decode bookkeeping for one packet."""
        state = self.packets[seq]
        state.symbols_needed = state.transmission.symbols_delivered
        state.decoded_payload = state.transmission.decoded_payload()

    def _abort(self, seq: int) -> None:
        """Give up on a budget-exhausted packet (out-of-band, zero-cost)."""
        state = self.packets[seq]
        state.failed = True
        self.outstanding -= 1
        if self._tel.enabled:
            self._tel.counter("link.aborts", hop=self.hop_index)
        if self.config.protocol == "go-back-n":
            if seq == self.expected:
                self.expected += 1
                while (
                    self.expected < len(self.packets)
                    and self.packets[self.expected].failed
                ):
                    self.expected += 1
        else:
            # Packets already decoded and buffered behind the aborted one
            # must not be stranded: flush the newly unblocked prefix.
            self._sr_flush_in_order()
        self._advance_base()
        self.closed_at = max(self.closed_at, self.scheduler.now)
        self._kick_send(self.scheduler.now)

    # -- results -------------------------------------------------------------
    def result(self) -> TransportResult:
        n = len(self.packets)
        spent = np.zeros(n, dtype=np.int64)
        for seq, state in enumerate(self.packets):
            if state.transmission is not None:
                spent[seq] = state.transmission.symbols_sent
        return TransportResult(
            protocol=self.config.protocol,
            window=self.config.window,
            n_packets=n,
            payload_bits_per_packet=self.session.payload_bits,
            orig_indices=np.array([s.orig_index for s in self.packets], dtype=np.int64),
            delivered=np.array([s.delivered for s in self.packets], dtype=bool),
            symbols_needed=np.array([s.symbols_needed for s in self.packets], dtype=np.int64),
            symbols_spent=spent,
            delivery_times=np.array([s.delivery_time for s in self.packets], dtype=np.int64),
            decoded_payloads=tuple(s.decoded_payload for s in self.packets),
            makespan=self.closed_at,
            acks_sent=self.acks_sent,
            acks_lost=self.acks_lost,
            max_outstanding=self.max_outstanding,
        )
