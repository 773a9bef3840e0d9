"""Fixed-rate operation of spinal codes.

Section 3 of the paper: "It is straightforward to adapt the code to run at
various fixed rates, though we expect the rateless instantiations to be more
useful."  This module provides that fixed-rate instantiation — the sender
always transmits exactly ``n_passes`` passes and the receiver decodes once —
so spinal codes can be compared head-to-head with the fixed-rate LDPC
baselines on their own terms (frame error rate at a fixed spectral
efficiency), and so the rateless gain itself can be quantified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.core.params import SpinalParams
from repro.phy.fixed_rate import FixedRateSpinalCode
from repro.phy.session import CodecSession
from repro.utils.bitops import random_message_bits

__all__ = ["FixedRateSpinalSystem", "FixedRateSpinalResult"]


@dataclass(frozen=True)
class FixedRateSpinalResult:
    """Monte-Carlo outcome of a fixed-rate spinal configuration at one SNR."""

    snr_db: float
    nominal_rate: float
    frame_error_rate: float
    bit_error_rate: float

    @property
    def achieved_rate(self) -> float:
        """Nominal rate times frame success probability (Figure 2 convention)."""
        return self.nominal_rate * (1.0 - self.frame_error_rate)


class FixedRateSpinalSystem:
    """Spinal code transmitted with a fixed number of passes (no feedback).

    Parameters
    ----------
    message_bits:
        Frame payload size in bits (must be a multiple of ``params.k``).
    n_passes:
        Number of passes always transmitted; the nominal rate is
        ``message_bits / (n_passes * message_bits / k) = k / n_passes``
        bits per symbol.
    params:
        Spinal code parameters (defaults to the paper's k=8, c=10).
    beam_width:
        Bubble-decoder beam width.
    adc_bits:
        Receiver ADC resolution (None disables quantisation).
    """

    def __init__(
        self,
        message_bits: int = 24,
        n_passes: int = 2,
        params: SpinalParams | None = None,
        beam_width: int = 16,
        adc_bits: int | None = 14,
    ) -> None:
        if n_passes < 1:
            raise ValueError(f"n_passes must be at least 1, got {n_passes}")
        self.params = params if params is not None else SpinalParams(k=8, c=10)
        self.params.n_segments(message_bits)  # validates divisibility
        self.message_bits = message_bits
        self.n_passes = n_passes
        self.beam_width = beam_width
        self.adc_bits = adc_bits
        self._code = FixedRateSpinalCode(
            message_bits,
            n_passes=n_passes,
            params=self.params,
            beam_width=beam_width,
        )

    @property
    def n_segments(self) -> int:
        return self.params.n_segments(self.message_bits)

    @property
    def symbols_per_frame(self) -> int:
        return self.n_passes * self.n_segments

    @property
    def nominal_rate(self) -> float:
        """Spectral efficiency when the frame decodes, in bits/symbol."""
        return self.message_bits / self.symbols_per_frame

    # ------------------------------------------------------------------
    def transmit_frame(
        self, snr_db: float, rng: np.random.Generator
    ) -> tuple[bool, int]:
        """Send one frame; return (frame correct, number of wrong bits).

        The frame is a :class:`~repro.phy.fixed_rate.FixedRateSpinalCode`
        run through a :class:`~repro.phy.session.CodecSession` whose budget
        is exactly one frame.
        """
        channel = AWGNChannel(
            snr_db=snr_db, signal_power=self.params.average_power, adc_bits=self.adc_bits
        )
        session = CodecSession(
            self._code,
            channel,
            termination="genie",
            max_symbols=self.symbols_per_frame,
        )
        message = random_message_bits(self.message_bits, rng)
        result = session.run(message, rng)
        wrong_bits = int(np.count_nonzero(result.decoded_payload != message))
        return wrong_bits == 0, wrong_bits

    def measure(
        self, snr_db: float, n_frames: int, rng: np.random.Generator
    ) -> FixedRateSpinalResult:
        """Monte-Carlo FER/BER of this fixed-rate configuration at one SNR."""
        if n_frames <= 0:
            raise ValueError(f"n_frames must be positive, got {n_frames}")
        frame_errors = 0
        bit_errors = 0
        for _ in range(n_frames):
            ok, wrong_bits = self.transmit_frame(snr_db, rng)
            frame_errors += int(not ok)
            bit_errors += wrong_bits
        return FixedRateSpinalResult(
            snr_db=snr_db,
            nominal_rate=self.nominal_rate,
            frame_error_rate=frame_errors / n_frames,
            bit_error_rate=bit_errors / (n_frames * self.message_bits),
        )

    def describe(self) -> str:
        return (
            f"FixedRateSpinal(m={self.message_bits}, k={self.params.k}, "
            f"passes={self.n_passes}, {self.nominal_rate:.2f} b/sym, B={self.beam_width})"
        )
