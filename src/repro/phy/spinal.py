"""Spinal codes behind the :class:`~repro.phy.protocol.RatelessCode` protocol.

This adapter is deliberately *thin*: the encoder stream yields the blocks
of :meth:`~repro.core.encoder.SpinalEncoder.symbol_stream` (the same
:class:`~repro.core.encoder.SubpassBlock` values — whole subpasses per call,
equal to ``encode_passes`` as ``tests/test_encoder.py`` pins —
pre-encoded a window of subpasses per hash dispatch), the observation store is
:class:`~repro.core.encoder.ReceivedObservations`, and decode attempts go
through whatever decoder the factory builds (the registered ``spinal``
family builds :class:`~repro.core.decoder_vectorized.VectorizedBubbleDecoder`,
whose ``work`` is the tree nodes its attempt history needs; the
from-scratch :class:`~repro.core.decoder_bubble.BubbleDecoder` gives the
same decoded bits and counts every node of every attempt).  Session
outcomes are pinned bit-for-bit by ``tests/test_api_migration.py`` and the
transport/cell equivalence suites.

:meth:`SpinalCode.decode_batch` is the optional batch hook of
:meth:`~repro.phy.session.CodecSession.run_many`: it decodes many packets'
observation stores in one :class:`~repro.core.decoder_vectorized.BatchDecoder`
call, with the same decoded bits as per-packet decodes and ``work`` in the
batch decoder's from-scratch units.

The termination (estimate) space of the family is the *framed* message —
payload plus CRC, padding and tail — so genie sessions compare the whole
frame, and ``verified`` is the framer's self-check (CRC plus known-bits):
the ``"self"`` termination rule of a spinal session.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.core.decoder_bubble import BubbleDecoder, DecodeResult
from repro.core.decoder_vectorized import DECODER_ENGINES, BatchDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder, SubpassBlock
from repro.core.framing import Framer
from repro.phy.protocol import CodeInfo, DecodeStatus, NOT_ATTEMPTED

__all__ = ["SpinalCode", "spinal_status"]


def spinal_status(framer: Framer, result: DecodeResult) -> DecodeStatus:
    """One spinal decode result as the session protocol's status."""
    return DecodeStatus(
        attempted=True,
        estimate=result.message_bits,
        payload=framer.extract_payload(result.message_bits),
        verified=framer.check(result.message_bits),
        work=result.candidates_explored,
        detail=result,
    )


#: Subpasses pre-encoded per vectorized hash dispatch.  Sized to cover a
#: typical smoke-shape transmission in one or two refills without encoding
#: far past the decode point.
_ENCODE_WINDOW = 8


class _SpinalSource:
    """Per-packet encoder stream that pre-encodes subpasses in windows.

    Emits exactly the blocks of
    :meth:`~repro.core.encoder.SpinalEncoder.symbol_stream` — whole
    subpasses, byte for byte — but evaluates ``_ENCODE_WINDOW`` subpasses'
    worth of ``(spine value, pass index)`` pairs in one concatenated
    :meth:`~repro.core.encoder.SpinalEncoder.values_from_spines` call.  The
    keyed symbol hash is elementwise in those pairs (the property the
    stateful decoder's caches rely on), so the values are identical,
    while the fixed numpy dispatch cost — which dominates a subpass of a
    handful of symbols — is paid once per window.  The per-subpass
    bookkeeping (which positions, how often each was sent) is a few Python
    ints, so it costs no numpy dispatch at all; each block's arrays are
    slices of the window's.

    Pre-encoding past the block actually consumed is safe: transmitted
    values are a pure function of the payload, and channel noise is drawn
    per block, in send order, from the transmission's private rng — never
    here.
    """

    __slots__ = (
        "_encoder", "_spine", "_n_segments", "_times_sent", "_subpass",
        "_queue",
    )

    def __init__(self, encoder: SpinalEncoder, framed: np.ndarray) -> None:
        self._encoder = encoder
        self._spine = encoder.spine(framed)
        self._n_segments = int(self._spine.size)
        self._times_sent = [0] * self._n_segments
        self._subpass = 0
        self._queue: deque[SubpassBlock] = deque()

    def next_block(self) -> SubpassBlock:
        if not self._queue:
            self._refill()
        return self._queue.popleft()

    def _refill(self) -> None:
        subpass_positions = self._encoder.puncturing.subpass_positions
        times_sent = self._times_sent
        spans: list[tuple[int, int]] = []
        positions: list[int] = []
        pass_indices: list[int] = []
        subpass = self._subpass
        while len(spans) < _ENCODE_WINDOW:
            chosen = subpass_positions(subpass, self._n_segments).tolist()
            if chosen:
                sent = [times_sent[position] for position in chosen]
                for position, count in zip(chosen, sent):
                    times_sent[position] = count + 1
                spans.append((subpass, len(chosen)))
                positions += chosen
                pass_indices += sent
            subpass += 1
        self._subpass = subpass
        positions = np.array(positions, dtype=np.int64)
        pass_indices = np.array(pass_indices, dtype=np.int64)
        values = self._encoder.values_from_spines(self._spine[positions], pass_indices)
        offset = 0
        for subpass_index, n in spans:
            end = offset + n
            self._queue.append(
                SubpassBlock(
                    subpass_index=subpass_index,
                    positions=positions[offset:end],
                    pass_indices=pass_indices[offset:end],
                    values=values[offset:end],
                )
            )
            offset = end


class _SpinalDecoder:
    """Per-packet receiver: observation store plus one decoder instance."""

    def __init__(self, code: "SpinalCode") -> None:
        self.code = code
        self.decoder = code.decoder_factory(code.encoder)
        self.observations = ReceivedObservations(code.framer.n_segments)

    def absorb(
        self, block: SubpassBlock, received: np.ndarray, attempt: bool = True
    ) -> DecodeStatus:
        self.observations.add_block(block, received)
        if not attempt:
            return NOT_ATTEMPTED
        return self.decode_now()

    def decode_now(self) -> DecodeStatus:
        framer = self.code.framer
        return spinal_status(
            framer, self.decoder.decode(framer.framed_bits, self.observations)
        )


class SpinalCode:
    """The paper's code, packaged as a :class:`~repro.phy.protocol.RatelessCode`.

    ``decoder_factory`` builds a fresh decoder bound to the encoder for each
    packet, e.g. ``lambda enc: VectorizedBubbleDecoder(enc, beam_width=16)``::

        session = CodecSession(SpinalCode(encoder, decoder_factory, framer), channel)
    """

    def __init__(
        self,
        encoder: SpinalEncoder,
        decoder_factory: Callable[[SpinalEncoder], BubbleDecoder],
        framer: Framer,
    ) -> None:
        if framer.k != encoder.params.k:
            raise ValueError("framer and encoder disagree on the segment size k")
        self.encoder = encoder
        self.decoder_factory = decoder_factory
        self.framer = framer
        self.info = CodeInfo(
            family="spinal",
            payload_bits=framer.payload_bits,
            domain="bit" if encoder.params.bit_mode else "symbol",
            signal_power=encoder.params.average_power,
        )
        self._batch: BatchDecoder | None = None

    def new_encoder(self, payload: np.ndarray) -> _SpinalSource:
        return _SpinalSource(self.encoder, self.framer.frame(payload))

    def new_decoder(self) -> _SpinalDecoder:
        return _SpinalDecoder(self)

    def min_symbols_to_attempt(self) -> int:
        """Channel uses carrying fewer coded bits than the unknown bits.

        Below this threshold a *reliable* decode is information-theoretically impossible, so attempting one
        only burns tree expansions (and could terminate on an
        above-capacity fluke).
        """
        bits_per_symbol = self.encoder.params.coded_bits_per_symbol
        unknown_bits = self.framer.payload_bits + self.framer.crc_bits
        return -(-unknown_bits // bits_per_symbol)

    def reference(self, payload: np.ndarray) -> np.ndarray:
        return self.framer.frame(payload)

    def decode_batch(self, decoders: list[_SpinalDecoder]) -> list[DecodeStatus]:
        """Decode several packets' receivers at once (the session batch hook).

        One :meth:`BatchDecoder.decode_subset` call over a batch decoder
        that holds this code's encoder once per member, sized to the widest
        call so far and built with the factory decoder's beam parameters.
        The decoded bits equal each receiver's own :meth:`decode_now`
        (every registered engine decodes identically); ``work`` counts the
        batch decoder's from-scratch candidates.  A factory decoder outside
        the registered engines has no batch equivalent, so its receivers
        decode one by one.
        """
        engine = decoders[0].decoder
        if type(engine) not in DECODER_ENGINES.values():
            return [decoder.decode_now() for decoder in decoders]
        batch = self._batch
        if batch is None or batch.n_sessions < len(decoders):
            batch = self._batch = BatchDecoder(
                [self.encoder] * len(decoders),
                beam_width=engine.beam_width,
                max_unpruned_width=engine.max_unpruned_width,
            )
        framer = self.framer
        results = batch.decode_subset(
            framer.framed_bits,
            [decoder.observations for decoder in decoders],
            range(len(decoders)),
        )
        return [spinal_status(framer, result) for result in results]
