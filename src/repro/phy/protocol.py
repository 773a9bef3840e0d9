"""The code-agnostic PHY session protocol: ``RatelessCode`` and friends.

The paper's architectural claim — a rateless PHY emits symbols until an ACK
makes rate adaptation unnecessary — is not specific to spinal codes, and the
interesting comparisons are *across code families* (spinal vs. fountain vs.
incremental-redundancy LDPC vs. fixed-rate).  This module defines the small
protocol every code family implements so that one session loop
(:mod:`repro.phy.session`), one link transport, one relay topology and one
MAC cell can drive any of them:

``RatelessCode``
    A *code family instance*: knows its message size and channel alphabet
    (:class:`CodeInfo`), mints per-packet encoder streams
    (:meth:`~RatelessCode.new_encoder`) and incremental decoders
    (:meth:`~RatelessCode.new_decoder`), and declares the earliest point a
    decode attempt can possibly succeed
    (:meth:`~RatelessCode.min_symbols_to_attempt` — the PR-1
    "cannot-reliably-succeed-yet" gate, generalised per code).  A code may
    also offer an optional ``decode_batch(decoders) -> list[DecodeStatus]``
    hook that decodes several of its receivers at once (spinal codes do,
    through one batched kernel call); :meth:`CodecSession.run_many
    <repro.phy.session.CodecSession.run_many>` uses it when present.

``SymbolSource``
    An endless per-packet stream of :class:`CodeBlock`-shaped blocks.
    Encoders emit *whole* blocks per call (a spinal subpass, an LT symbol, an
    LDPC redundancy chunk, a fixed-rate pass), which is what keeps the
    session loop's per-symbol overhead amortised — the batching the PR-1
    throughput pin relies on.

``IncrementalDecoder``
    Absorbs received blocks one at a time, in any order the link happens to
    deliver them, and reports a :class:`DecodeStatus` per absorb.  The
    session tells the decoder when an attempt is worth running (the
    ``attempt`` flag); the decoder may still decline (``attempted=False``)
    when an attempt is structurally meaningless (e.g. mid-frame for a
    fixed-rate code).

Any object *structurally* matching these protocols works; none of the
implementations subclass anything from this module.  In particular a
"block" is anything with ``values`` (what goes on the air) and
``n_symbols`` (channel uses) — the spinal family streams its existing
:class:`~repro.core.encoder.SubpassBlock` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "CodeBlock",
    "CodeInfo",
    "DecodeStatus",
    "IncrementalDecoder",
    "RatelessCode",
    "SymbolSource",
    "NOT_ATTEMPTED",
]


@dataclass(frozen=True)
class CodeInfo:
    """Static metadata of one code family instance.

    Attributes
    ----------
    family:
        Registry name of the code family (``"spinal"``, ``"lt"``, ...).
    payload_bits:
        Message bits carried per packet (the ``k`` of the code as a system;
        internal framing/CRC/padding is the code's own business).
    domain:
        Channel alphabet: ``"symbol"`` (complex I/Q values) or ``"bit"``
        (0/1 hard bits) — must match the session channel's ``domain``.
    signal_power:
        Average transmitted power per channel use in symbol mode (used to
        build SNR-calibrated channels).
    rate_menu:
        For codes that are fixed-rate at heart (fixed-rate spinal, the
        adaptive baseline's menu entries): the nominal rates available, in
        bits per channel use.  ``None`` for genuinely rateless families.
    symbols_per_frame:
        For fixed-rate codes, the channel uses of one frame attempt (the
        quantum an ARQ wrapper retransmits).  ``None`` for rateless codes.
    order_invariant:
        Whether the decoder's outcome is invariant to the order in which
        sent blocks are absorbed (all five built-in families are; a code
        with genuinely sequential state may declare ``False`` to opt out of
        the conformance suite's reordering battery).
    """

    family: str
    payload_bits: int
    domain: str = "symbol"
    signal_power: float = 1.0
    rate_menu: tuple[float, ...] | None = None
    symbols_per_frame: int | None = None
    order_invariant: bool = True

    def __post_init__(self) -> None:
        if self.payload_bits <= 0:
            raise ValueError(f"payload_bits must be positive, got {self.payload_bits}")
        if self.domain not in ("symbol", "bit"):
            raise ValueError(f"domain must be 'symbol' or 'bit', got {self.domain!r}")
        if self.signal_power <= 0:
            raise ValueError(f"signal_power must be positive, got {self.signal_power}")


@dataclass(frozen=True)
class CodeBlock:
    """Default concrete block type for codes without a richer one.

    Only ``values`` and ``n_symbols`` are protocol; ``index`` and ``meta``
    carry whatever the family's decoder needs to place the block (an LT
    symbol seed, an (attempt, pass) pair, a chunk's bit positions).
    """

    index: int
    values: np.ndarray
    meta: object = None

    @property
    def n_symbols(self) -> int:
        return int(np.asarray(self.values).size)


@dataclass(frozen=True)
class DecodeStatus:
    """What one decoder absorb (or forced attempt) reported.

    Attributes
    ----------
    attempted:
        Whether a decode actually ran (skipped/gated absorbs report False
        and are not counted as attempts by the session).
    estimate:
        The decoder's current message estimate in the code's *termination*
        space (for spinal: the framed bits, so genie termination compares
        the whole frame).  ``None`` when the
        decoder has no estimate yet (e.g. an incomplete fountain decode).
    payload:
        The payload-bits view of ``estimate`` (``None`` iff ``estimate`` is).
    verified:
        The code's *self-contained* success check (CRC, parity, completion);
        drives ``termination="self"`` sessions.  Families with no internal
        check report False and support genie termination only.
    work:
        Decoder work spent by this attempt, in the family's natural unit
        (spinal: tree nodes evaluated; LDPC: BP iterations; LT: peeling
        operations).  Comparable within a family, not across families.
    detail:
        Optional family-specific result object (spinal attaches the raw
        :class:`~repro.core.decoder_bubble.DecodeResult` so path costs stay
        observable through the new API).
    """

    attempted: bool
    estimate: np.ndarray | None = None
    payload: np.ndarray | None = None
    verified: bool = False
    work: int = 0
    detail: object = field(default=None, compare=False)


#: Shared "absorbed but did not attempt" status.
NOT_ATTEMPTED = DecodeStatus(attempted=False)


@runtime_checkable
class SymbolSource(Protocol):
    """Endless per-packet encoder stream; one whole block per call."""

    def next_block(self):  # pragma: no cover - protocol stub
        """Return the next block to transmit (``values`` + ``n_symbols``)."""
        ...


@runtime_checkable
class IncrementalDecoder(Protocol):
    """Receiver state for one packet: absorb blocks, report status."""

    def absorb(self, block, received: np.ndarray, attempt: bool = True) -> DecodeStatus:
        """Record one received block; decode if asked (and meaningful).

        ``attempt=False`` means the session's symbol gate has not opened
        yet: record the observation and return a non-attempted status.
        """
        ...  # pragma: no cover - protocol stub

    def decode_now(self) -> DecodeStatus:
        """Force a best-effort decode from whatever has been absorbed."""
        ...  # pragma: no cover - protocol stub


@runtime_checkable
class RatelessCode(Protocol):
    """One code family instance, ready to mint per-packet codecs."""

    @property
    def info(self) -> CodeInfo:  # pragma: no cover - protocol stub
        ...

    def new_encoder(self, payload: np.ndarray) -> SymbolSource:
        """Start the (conceptually endless) symbol stream for one payload."""
        ...  # pragma: no cover - protocol stub

    def new_decoder(self) -> IncrementalDecoder:
        """Fresh receiver state for one packet."""
        ...  # pragma: no cover - protocol stub

    def min_symbols_to_attempt(self) -> int:
        """Channel uses below which a reliable decode is impossible.

        The session skips decode attempts until this many symbols have been
        delivered — the PR-1 gate that both avoids hopeless decoder work and
        suppresses above-capacity flukes, generalised per code family.
        """
        ...  # pragma: no cover - protocol stub

    def reference(self, payload: np.ndarray) -> np.ndarray:
        """Genie-termination truth in the code's termination space.

        For spinal this is the *framed* message (payload + CRC + padding +
        tail): a genie session terminates once the whole frame is right.
        """
        ...  # pragma: no cover - protocol stub
