"""Spinal codes behind the :class:`~repro.phy.protocol.RatelessCode` protocol.

This adapter is deliberately *thin*: the encoder stream is the existing
:meth:`~repro.core.encoder.SpinalEncoder.symbol_stream` (blocks are the very
same :class:`~repro.core.encoder.SubpassBlock` objects — whole subpasses per
call, the batching the PR-1 throughput pin measures), the observation store
is :class:`~repro.core.encoder.ReceivedObservations`, and decode attempts go
through whatever decoder the factory builds (the registered ``spinal``
family builds :class:`~repro.core.decoder_vectorized.VectorizedBubbleDecoder`;
every engine gives the same decoded bits, so only decoder ``work`` depends on
the choice).  As a result a :class:`~repro.phy.session.CodecSession` over a
:class:`SpinalCode` consumes randomness, counts symbols, gates decode
attempts and produces decoded bits **bit-identically** to the historical
:class:`~repro.core.rateless.RatelessSession` — which is what lets the old
session remain a shim over the new API (pinned by
``tests/test_api_migration.py`` and the transport/cell equivalence suites).

The termination (estimate) space of the family is the *framed* message —
payload plus CRC, padding and tail — so genie sessions compare exactly what
the historical receiver compared, and ``verified`` is the framer's
self-check (CRC plus known-bits), i.e. the historical ``"crc"`` rule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.decoder_bubble import BubbleDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder, SubpassBlock
from repro.core.framing import Framer
from repro.phy.protocol import CodeInfo, DecodeStatus, NOT_ATTEMPTED

__all__ = ["SpinalCode"]


class _SpinalSource:
    """Per-packet encoder stream: whole subpasses, straight off the encoder."""

    def __init__(self, encoder: SpinalEncoder, framed: np.ndarray) -> None:
        self._stream = encoder.symbol_stream(framed)

    def next_block(self) -> SubpassBlock:
        return next(self._stream)


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
        result = self.decoder.decode(framer.framed_bits, self.observations)
        return DecodeStatus(
            attempted=True,
            estimate=result.message_bits,
            payload=framer.extract_payload(result.message_bits),
            verified=framer.check(result.message_bits),
            work=result.candidates_explored,
            detail=result,
        )


class SpinalCode:
    """The paper's code, packaged as a :class:`~repro.phy.protocol.RatelessCode`.

    Parameters mirror the pieces a :class:`~repro.core.rateless.RatelessSession`
    is assembled from, so the old session can wrap its own parts::

        code = SpinalCode(encoder, decoder_factory, framer)
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

    def new_encoder(self, payload: np.ndarray) -> _SpinalSource:
        return _SpinalSource(self.encoder, self.framer.frame(payload))

    def new_decoder(self) -> _SpinalDecoder:
        return _SpinalDecoder(self)

    def min_symbols_to_attempt(self) -> int:
        """Channel uses carrying fewer coded bits than the unknown bits.

        The historical receiver's threshold, verbatim: below it a *reliable*
        decode is information-theoretically impossible, so attempting one
        only burns tree expansions (and could terminate on an
        above-capacity fluke).
        """
        bits_per_symbol = self.encoder.params.coded_bits_per_symbol
        unknown_bits = self.framer.payload_bits + self.framer.crc_bits
        return -(-unknown_bits // bits_per_symbol)

    def reference(self, payload: np.ndarray) -> np.ndarray:
        return self.framer.frame(payload)
