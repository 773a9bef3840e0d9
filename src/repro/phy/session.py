"""The code-agnostic rateless session loop: one implementation, any code.

:class:`CodecSession` owns a :class:`~repro.phy.protocol.RatelessCode`, a
channel, a termination rule and a per-packet symbol budget, and runs the
paper's protocol — stream blocks, attempt decodes, stop on the first
success — for *any* code family, one packet at a time (:meth:`~CodecSession.run`)
or many in lock-step with batched decodes (:meth:`~CodecSession.run_many`).

:class:`CodecTransmission` is the per-packet state: a pausable, resumable
transmission that the link transport, the relay topology and the MAC cell
advance one block at a time in any global interleaving.  Sending and
delivering stay separate steps (a transport may discard a block at the
receiver), noise comes from the packet's private generator, and the PR-1
decode gate (``code.min_symbols_to_attempt()``) keeps hopeless early decode
attempts — and above-capacity flukes — suppressed uniformly across families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.channels.base import Channel
from repro.obs.telemetry import current as current_telemetry
from repro.phy.protocol import DecodeStatus, RatelessCode

__all__ = [
    "CodecSession",
    "CodecTransmission",
    "CodecResult",
    "TERMINATIONS",
    "terminates",
]

#: Recognised termination rules: the paper's genie, or the code's own check.
TERMINATIONS = ("genie", "self")


def terminates(
    termination: str, status: DecodeStatus, reference: np.ndarray | None
) -> bool:
    """Whether one decode attempt ends the transmission under ``termination``.

    ``"genie"`` stops when the estimate equals ``reference`` (the code's
    :meth:`~repro.phy.protocol.RatelessCode.reference` of the payload);
    ``"self"`` stops when the code's own check passed (``verified``).
    """
    if termination == "genie":
        return status.estimate is not None and bool(
            np.array_equal(status.estimate, reference)
        )
    return bool(status.verified)


@dataclass(frozen=True)
class CodecResult:
    """Outcome of transmitting one payload ratelessly through any code.

    ``decoded_payload`` may be ``None`` for families whose best-effort
    decode can be structurally incomplete (an LT decoder missing blocks),
    and decoder ``work`` is reported in the family's own unit (tree nodes
    for spinal).
    """

    success: bool
    payload_correct: bool
    symbols_sent: int
    credited_bits: int
    decode_attempts: int
    work: int
    decoded_payload: np.ndarray | None

    @property
    def rate(self) -> float:
        """Achieved rate in credited bits per channel use."""
        if self.symbols_sent == 0:
            raise ValueError("no symbols were sent; rate is undefined")
        return self.credited_bits / self.symbols_sent

    @property
    def delivered_rate(self) -> float:
        """:attr:`rate` if the payload decoded, else 0.0: a failed run delivers nothing.

        ``rate`` credits the bits of a failed run too (stores and goldens
        read it that way); use this where the question is goodput.
        """
        return self.rate if self.success else 0.0


class CodecTransmission:
    """A pausable, resumable transmission of one payload over one code.

    ``send_next_block`` / ``deliver`` / ``decoded`` / ``exhausted`` /
    ``symbols_sent`` / ``symbols_delivered`` / ``decoded_payload()`` is the
    interface the link transport and the MAC cell multiplex on.
    """

    def __init__(
        self,
        session: "CodecSession",
        payload: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self.session = session
        self.payload = np.asarray(payload, dtype=np.uint8)
        if self.payload.size != session.code.info.payload_bits:
            raise ValueError(
                f"expected a payload of {session.code.info.payload_bits} bits, "
                f"got {self.payload.size}"
            )
        self.rng = rng
        self.source = session.code.new_encoder(self.payload)
        self.decoder = session.code.new_decoder()
        self.reference = (
            session.code.reference(self.payload)
            if session.termination == "genie"
            else None
        )
        self._min_attempt = session.code.min_symbols_to_attempt()
        #: Channel uses spent by the sender on this packet (including any
        #: blocks the receiver discarded).
        self.symbols_sent = 0
        #: Channel uses actually delivered to this packet's decoder.
        self.symbols_delivered = 0
        self.decoded = False
        self.decode_attempts = 0
        self.work = 0
        self.last_status: DecodeStatus | None = None
        self._tel = current_telemetry()
        # Subpass blocks absorbed since the last decode attempt (telemetry
        # only; stays 0 when the sink is disabled).
        self._blocks_since_attempt = 0

    @property
    def exhausted(self) -> bool:
        """Whether the sender's per-packet symbol budget is spent."""
        return self.symbols_sent >= self.session.max_symbols

    # ------------------------------------------------------------------
    def send_next_block(self):
        """Transmit the next block through the session's channel.

        Returns the transmitted block and the received values.  Noise draws
        come from this packet's private generator, so per-packet results
        are independent of how transmissions are interleaved (over
        memoryless channels).
        """
        block = self.source.next_block()
        received = self.session.channel.transmit(block.values, self.rng)
        self.symbols_sent += block.n_symbols
        return block, received

    @property
    def attempt_ready(self) -> bool:
        """Whether the PR-1 decode gate is open (enough symbols delivered)."""
        return self.symbols_delivered >= self._min_attempt

    def deliver(
        self, block, received_values: np.ndarray, attempt: bool | None = None
    ) -> bool:
        """Feed one received block to the decoder; return True once decoded.

        ``attempt=None`` (the default) applies the decode gate: attempt once
        the delivered symbols reach ``min_symbols_to_attempt()``, but never
        for an *empty* block — a block carrying zero symbols adds nothing to
        the observation set, so attempting on it would double-count decode
        attempts (and decoder work) against unchanged observations.
        ``attempt=False`` absorbs the block without decoding — the
        non-blocking step used by the serve engine, which batches the decode
        across many sessions and feeds the result back through
        :meth:`record_status`.  ``attempt=True`` forces a decode.
        """
        if self.decoded:
            return True
        if attempt is None:
            attempt = (
                block.n_symbols > 0
                and self.symbols_delivered + block.n_symbols >= self._min_attempt
            )
        status = self.decoder.absorb(block, received_values, attempt=attempt)
        self.symbols_delivered += block.n_symbols
        if self._tel.enabled:
            self._tel.counter("phy.blocks_delivered")
            self._tel.counter("phy.symbols_delivered", block.n_symbols)
            self._blocks_since_attempt += 1
        self._record(status)
        return self.decoded

    def record_status(self, status: DecodeStatus) -> bool:
        """Account one externally computed decode attempt; True once decoded.

        The serve engine's batched decode stage computes one
        :class:`~repro.phy.protocol.DecodeStatus` per session outside the
        transmission (via :class:`~repro.core.decoder_vectorized.BatchDecoder`
        over the sessions' observation stores) and feeds it back here, so
        attempt/work accounting and termination go through exactly the same
        bookkeeping as a decode made by :meth:`deliver`.
        """
        if not self.decoded:
            self._record(status)
        return self.decoded

    def best_effort_decode(self) -> None:
        """Force one decode so a failed packet still reports a best guess.

        Idempotent: once *any* decode attempt has been recorded (including a
        previous best-effort), this is a no-op — calling it again after
        budget exhaustion never double-counts attempts or decoder work.
        """
        if self.last_status is None:
            self._record(self.decoder.decode_now())

    def decoded_payload(self) -> np.ndarray | None:
        """The payload estimate of the last decode attempt.

        ``None`` when the decoder's best effort is structurally incomplete;
        raises if no decode attempt has been made at all (callers are
        expected to have driven the session to a decode or a best-effort).
        """
        if self.last_status is None:
            raise ValueError("no decode attempt has been made yet")
        return self.last_status.payload

    # ------------------------------------------------------------------
    def _record(self, status: DecodeStatus) -> None:
        if not status.attempted:
            return
        self.decode_attempts += 1
        self.work += status.work
        self.last_status = status
        if terminates(self.session.termination, status, self.reference):
            self.decoded = True
            # Nothing reads the decoder again (deliver returns early and
            # best_effort_decode is a no-op once a status exists), and the
            # transport keeps terminated transmissions until the hop ends:
            # release the decoder's caches now.
            self.decoder = None
        tel = self._tel
        if tel.enabled:
            tel.counter("phy.decode_attempts")
            tel.observe("phy.blocks_per_attempt", self._blocks_since_attempt)
            self._blocks_since_attempt = 0
            if self.decoded:
                # The paper's core statistic: channel uses needed to decode.
                tel.observe("phy.symbols_to_decode", self.symbols_delivered)


class CodecSession:
    """Complete rateless transmissions of payloads over any code family.

    Parameters
    ----------
    code:
        Any :class:`~repro.phy.protocol.RatelessCode` implementation.
    channel:
        The channel model; its ``domain`` must match ``code.info.domain``.
    termination:
        ``"genie"`` (the paper's methodology: the receiver is told when its
        estimate is exactly right) or ``"self"`` (the code's own check —
        CRC, parity, completion — with whatever false-positive risk that
        carries).
    max_symbols:
        Sender give-up budget in channel uses per packet.
    credited_bits:
        Bits credited per delivered packet when computing rates; defaults
        to the code's ``payload_bits``.  Spinal experiments pass the framed
        length here to keep the paper's Figure-2 rate convention.
    """

    def __init__(
        self,
        code: RatelessCode,
        channel: Channel,
        termination: str = "genie",
        max_symbols: int = 4096,
        credited_bits: int | None = None,
    ) -> None:
        if termination not in TERMINATIONS:
            raise ValueError(
                f"unknown termination rule {termination!r}; expected one of {TERMINATIONS}"
            )
        if max_symbols <= 0:
            raise ValueError(f"max_symbols must be positive, got {max_symbols}")
        if channel.domain != code.info.domain:
            raise ValueError(
                f"channel domain {channel.domain!r} does not match the code's "
                f"({code.info.domain!r})"
            )
        self.code = code
        self.channel = channel
        self.termination = termination
        self.max_symbols = max_symbols
        self.credited_bits = (
            code.info.payload_bits if credited_bits is None else int(credited_bits)
        )

    @property
    def payload_bits(self) -> int:
        """Message bits per packet (the link/MAC layers' goodput numerator)."""
        return self.code.info.payload_bits

    # ------------------------------------------------------------------
    def open_transmission(
        self, payload: np.ndarray, rng: np.random.Generator
    ) -> CodecTransmission:
        """Start a pausable per-packet transmission (used by the transport).

        Does *not* reset the channel: the caller owns the channel lifecycle
        because many transmissions may share one channel concurrently.
        """
        return CodecTransmission(self, payload, rng)

    def run(self, payload: np.ndarray, rng: np.random.Generator) -> CodecResult:
        """Transmit one payload until decoded or the symbol budget is spent."""
        self.channel.reset()
        transmission = self.open_transmission(payload, rng)
        while True:
            block, received = transmission.send_next_block()
            if transmission.deliver(block, received):
                return self._result(transmission, success=True)
            if transmission.exhausted:
                transmission.best_effort_decode()
                return self._result(transmission, success=False)

    def run_many(
        self,
        payloads: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> list[CodecResult]:
        """Transmit several payloads in lock-step; one result per payload.

        The channel is reset once and every transmission opened up front.
        Each step, every live transmission sends one block.  When the code
        has a ``decode_batch`` hook, each block is absorbed without decoding
        and the transmissions whose decode gate is open (the gate
        :meth:`CodecTransmission.deliver` applies) are decoded together in
        one hook call, each status fed back through
        :meth:`CodecTransmission.record_status`.  A code without the hook
        delivers each block with the gate, exactly as :meth:`run` does: only
        its own receiver knows when to decline an attempt the gate allows
        (a fixed-rate frame decodes only at its boundary).  Decoded
        transmissions then finish as successes, and exhausted ones take
        :meth:`run`'s terminal step — one best-effort decode, then failure.

        Outcome contract: over a memoryless channel (noise drawn only from
        each transmission's private ``rng``), result ``i`` equals
        ``run(payloads[i], rngs[i])`` in ``success``, ``payload_correct``,
        ``symbols_sent``, ``decode_attempts`` and ``decoded_payload``.  A
        channel with state (a block-fading gain, a trace cursor) is shared
        by the interleaved transmissions instead.  Decoder ``work`` counts
        in the code's batch units when the code has a ``decode_batch`` hook
        (the spinal family's :class:`~repro.core.decoder_vectorized.BatchDecoder`
        candidates, as in the serve engine); codes without one report
        :meth:`run`'s work.
        """
        if len(payloads) != len(rngs):
            raise ValueError(
                f"got {len(payloads)} payloads but {len(rngs)} generators"
            )
        self.channel.reset()
        transmissions = [
            self.open_transmission(payload, rng)
            for payload, rng in zip(payloads, rngs)
        ]
        decode_batch = getattr(self.code, "decode_batch", None)
        results: list[CodecResult | None] = [None] * len(transmissions)
        live = list(range(len(transmissions)))
        while live:
            attempting = []
            for index in live:
                transmission = transmissions[index]
                block, received = transmission.send_next_block()
                if decode_batch is None:
                    transmission.deliver(block, received)
                    continue
                transmission.deliver(block, received, attempt=False)
                if block.n_symbols > 0 and transmission.attempt_ready:
                    attempting.append(transmission)
            if attempting:
                statuses = decode_batch([t.decoder for t in attempting])
                for transmission, status in zip(attempting, statuses):
                    transmission.record_status(status)
            still_live = []
            for index in live:
                transmission = transmissions[index]
                if transmission.decoded:
                    results[index] = self._result(transmission, success=True)
                elif transmission.exhausted:
                    transmission.best_effort_decode()
                    results[index] = self._result(transmission, success=False)
                else:
                    still_live.append(index)
            live = still_live
        return results

    # ------------------------------------------------------------------
    def _result(self, transmission: CodecTransmission, success: bool) -> CodecResult:
        decoded = (
            transmission.decoded_payload()
            if transmission.last_status is not None
            else None
        )
        correct = decoded is not None and bool(
            np.array_equal(decoded, transmission.payload)
        )
        return CodecResult(
            success=success,
            payload_correct=correct,
            symbols_sent=transmission.symbols_sent,
            credited_bits=self.credited_bits,
            decode_attempts=transmission.decode_attempts,
            work=transmission.work,
            decoded_payload=decoded,
        )
