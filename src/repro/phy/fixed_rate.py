"""Fixed-rate spinal frames under ARQ, behind the :class:`~repro.phy.protocol.RatelessCode` protocol.

Section 3 of the paper notes spinal codes can run at fixed rates; this
family is that instantiation made *session-compatible*: every frame attempt
transmits exactly ``n_passes`` passes, the receiver decodes once per frame,
and a failed frame is simply retransmitted with fresh noise (no combining
across attempts — the classical whole-frame ARQ the multi-user adaptive
baseline uses, so the two stay comparable).  The per-block quantum is one
whole pass, which keeps the cell/transport scheduling granularity identical
to the rateless families.

Because each attempt uses its own observation store keyed by the block's
``(attempt, pass)`` metadata, the decoder is order-invariant within the
blocks actually delivered, and the family slots into every scenario the
protocol reaches — including the :class:`~repro.mac.adaptive` rate menu,
whose entries are instances of this class at different ``n_passes``.

:func:`measure_error_rates` is the family's fixed-rate figure of merit: the
Monte-Carlo frame and bit error rates of one frame per session run, which
the hindsight fixed-rate search and the adaptive menu's calibration share.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.params import SpinalParams
from repro.phy.protocol import CodeBlock, CodeInfo, DecodeStatus, NOT_ATTEMPTED
from repro.phy.session import CodecSession
from repro.utils.bitops import random_message_bits

__all__ = ["FixedRateSpinalCode", "measure_error_rates"]


class _FrameSource:
    """Cycle the frame's passes; attempt ``a`` re-sends the same symbols."""

    def __init__(self, code: "FixedRateSpinalCode", payload: np.ndarray) -> None:
        self.code = code
        self.passes = code.encoder.encode_passes(payload, code.n_passes)
        self.next_index = 0

    def next_block(self) -> CodeBlock:
        attempt, pass_index = divmod(self.next_index, self.code.n_passes)
        block = CodeBlock(
            index=self.next_index,
            values=self.passes[pass_index],
            meta=(attempt, pass_index),
        )
        self.next_index += 1
        return block


class _FrameReceiver:
    """Per-attempt observation stores; one decode per completed frame."""

    def __init__(self, code: "FixedRateSpinalCode") -> None:
        self.code = code
        self.decoder = code.decoder_factory(code.encoder)
        self._observations: dict[int, ReceivedObservations] = {}
        self._passes_seen: dict[int, set[int]] = {}

    def _store(self, attempt: int) -> ReceivedObservations:
        if attempt not in self._observations:
            self._observations[attempt] = ReceivedObservations(self.code.n_segments)
            self._passes_seen[attempt] = set()
        return self._observations[attempt]

    def absorb(
        self, block: CodeBlock, received: np.ndarray, attempt: bool = True
    ) -> DecodeStatus:
        frame_attempt, pass_index = block.meta
        observations = self._store(frame_attempt)
        for position in range(self.code.n_segments):
            observations.add(position, pass_index, received[position])
        seen = self._passes_seen[frame_attempt]
        seen.add(pass_index)
        if not attempt or len(seen) < self.code.n_passes:
            # Mid-frame: a fixed-rate receiver decodes only at the frame
            # boundary, whatever the session's symbol gate says.
            return NOT_ATTEMPTED
        return self._decode(observations)

    def decode_now(self) -> DecodeStatus:
        """Best effort: decode the attempt with the most observations."""
        if not self._observations:
            return self._decode(ReceivedObservations(self.code.n_segments))
        fullest = max(
            self._observations, key=lambda a: self._observations[a].total_symbols
        )
        return self._decode(self._observations[fullest])

    def _decode(self, observations: ReceivedObservations) -> DecodeStatus:
        result = self.decoder.decode(self.code.info.payload_bits, observations)
        return DecodeStatus(
            attempted=True,
            estimate=result.message_bits,
            payload=result.message_bits,
            verified=False,  # no self-contained check: genie termination only
            work=result.candidates_explored,
            detail=result,
        )


class FixedRateSpinalCode:
    """Spinal code at a fixed ``k / n_passes`` bits-per-symbol rate, under ARQ."""

    def __init__(
        self,
        payload_bits: int,
        n_passes: int,
        params: SpinalParams | None = None,
        beam_width: int = 16,
        decoder_factory: Callable[[SpinalEncoder], BubbleDecoder] | None = None,
    ) -> None:
        if n_passes < 1:
            raise ValueError(f"n_passes must be at least 1, got {n_passes}")
        self.params = params if params is not None else SpinalParams(k=8, c=10)
        self.n_segments = self.params.n_segments(payload_bits)  # validates divisibility
        self.n_passes = int(n_passes)
        self.encoder = SpinalEncoder(self.params)
        beam = int(beam_width)
        if decoder_factory is None:
            # A fixed-rate frame is decoded once per ARQ attempt, so the
            # from-scratch engine has no cache to miss.
            decoder_factory = partial(BubbleDecoder, beam_width=beam)
        self.decoder_factory = decoder_factory
        symbols_per_frame = self.n_passes * self.n_segments
        self.info = CodeInfo(
            family="fixed-spinal",
            payload_bits=int(payload_bits),
            domain="bit" if self.params.bit_mode else "symbol",
            signal_power=self.params.average_power,
            rate_menu=(payload_bits / symbols_per_frame,),
            symbols_per_frame=symbols_per_frame,
        )

    @property
    def nominal_rate(self) -> float:
        return self.info.rate_menu[0]

    def new_encoder(self, payload: np.ndarray) -> _FrameSource:
        return _FrameSource(self, np.asarray(payload, dtype=np.uint8))

    def new_decoder(self) -> _FrameReceiver:
        return _FrameReceiver(self)

    def min_symbols_to_attempt(self) -> int:
        """The first possible decode is at the first frame boundary."""
        return self.info.symbols_per_frame

    def reference(self, payload: np.ndarray) -> np.ndarray:
        return np.asarray(payload, dtype=np.uint8)


def measure_error_rates(
    code: FixedRateSpinalCode,
    snr_db: float,
    n_frames: int,
    rng: np.random.Generator,
    adc_bits: int | None = 14,
) -> tuple[float, float]:
    """Monte-Carlo ``(frame_error_rate, bit_error_rate)`` of ``code`` at one SNR.

    Each frame draws a random payload and runs it through a genie-terminated
    :class:`~repro.phy.session.CodecSession` whose budget is exactly one
    frame, so the receiver decodes once and nothing is retransmitted.
    """
    if n_frames <= 0:
        raise ValueError(f"n_frames must be positive, got {n_frames}")
    channel = AWGNChannel(
        snr_db=snr_db, signal_power=code.params.average_power, adc_bits=adc_bits
    )
    session = CodecSession(
        code, channel, termination="genie", max_symbols=code.info.symbols_per_frame
    )
    payload_bits = code.info.payload_bits
    frame_errors = 0
    bit_errors = 0
    for _ in range(n_frames):
        message = random_message_bits(payload_bits, rng)
        result = session.run(message, rng)
        wrong_bits = int(np.count_nonzero(result.decoded_payload != message))
        frame_errors += wrong_bits > 0
        bit_errors += wrong_bits
    return frame_errors / n_frames, bit_errors / (n_frames * payload_bits)
