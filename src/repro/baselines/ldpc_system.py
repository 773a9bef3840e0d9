"""Fixed-rate LDPC + modulation systems: the explicit baseline of Figure 2.

Each configuration pairs one of the 648-bit wifi-like LDPC codes with a
modulation, exactly like the eight curves of Figure 2:

    rate 1/2 + BPSK,  rate 1/2 + QAM-4,  rate 3/4 + QAM-4,
    rate 1/2 + QAM-16, rate 3/4 + QAM-16,
    rate 2/3 + QAM-64, rate 3/4 + QAM-64, rate 5/6 + QAM-64.

The figure plots, for each configuration, the *achieved rate* as a function
of SNR.  A fixed-rate system that fails to decode delivers nothing, so the
achieved rate is the nominal spectral efficiency multiplied by the frame
success probability:

    rate(SNR) = (code rate) * (bits per symbol) * (1 - FER(SNR)).

This is measured by Monte-Carlo simulation of full encode/modulate/AWGN/
demap/BP-decode chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.ldpc.construction import make_wifi_like_code
from repro.ldpc.decoder import BeliefPropagationDecoder
from repro.modulation import make_modulation
from repro.utils.units import db_to_linear

__all__ = ["LdpcConfig", "FixedRateLdpcSystem", "FIGURE2_LDPC_CONFIGS"]


@dataclass(frozen=True)
class LdpcConfig:
    """One fixed-rate PHY configuration (code rate + modulation)."""

    code_rate: Fraction
    modulation: str

    @property
    def label(self) -> str:
        return f"LDPC rate {self.code_rate} {self.modulation}"

    @property
    def nominal_rate(self) -> float:
        """Spectral efficiency when decoding succeeds, bits per symbol."""
        bits = {"BPSK": 1, "QPSK": 2, "QAM-4": 2, "QAM-16": 4, "QAM-64": 6}[self.modulation]
        return float(self.code_rate) * bits


#: The eight configurations shown in Figure 2 of the paper.
FIGURE2_LDPC_CONFIGS: tuple[LdpcConfig, ...] = (
    LdpcConfig(Fraction(1, 2), "BPSK"),
    LdpcConfig(Fraction(1, 2), "QAM-4"),
    LdpcConfig(Fraction(3, 4), "QAM-4"),
    LdpcConfig(Fraction(1, 2), "QAM-16"),
    LdpcConfig(Fraction(3, 4), "QAM-16"),
    LdpcConfig(Fraction(2, 3), "QAM-64"),
    LdpcConfig(Fraction(3, 4), "QAM-64"),
    LdpcConfig(Fraction(5, 6), "QAM-64"),
)


class FixedRateLdpcSystem:
    """End-to-end fixed-rate link: LDPC encoder, modulation, AWGN, BP decoder."""

    def __init__(
        self,
        config: LdpcConfig,
        codeword_bits: int = 648,
        max_iterations: int = 40,
        algorithm: str = "sum-product",
    ) -> None:
        self.config = config
        self.code = make_wifi_like_code(config.code_rate, codeword_bits=codeword_bits)
        self.modulation = make_modulation(config.modulation)
        self.decoder = BeliefPropagationDecoder(
            self.code, max_iterations=max_iterations, algorithm=algorithm
        )

    # ------------------------------------------------------------------
    @property
    def nominal_rate(self) -> float:
        """Bits per symbol delivered when a frame decodes correctly."""
        return self.code.rate * self.modulation.bits_per_symbol

    @property
    def symbols_per_frame(self) -> int:
        return self.code.n // self.modulation.bits_per_symbol

    # ------------------------------------------------------------------
    def transmit_frames(
        self, snr_db: float, n_frames: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Simulate ``n_frames`` independent frames; return per-frame success flags."""
        if n_frames <= 0:
            raise ValueError(f"n_frames must be positive, got {n_frames}")
        noise_energy = 1.0 / db_to_linear(snr_db)
        messages = rng.integers(0, 2, size=(n_frames, self.code.k), dtype=np.uint8)
        codewords = self.code.encode_batch(messages)

        llrs = np.empty((n_frames, self.code.n), dtype=np.float64)
        for frame in range(n_frames):
            symbols = self.modulation.modulate(codewords[frame])
            noise = np.sqrt(noise_energy / 2.0) * (
                rng.standard_normal(symbols.size) + 1j * rng.standard_normal(symbols.size)
            )
            llrs[frame] = self.modulation.demodulate_llr(symbols + noise, noise_energy)

        decoded, _ = self.decoder.decode(llrs)
        return np.array(
            [
                np.array_equal(decoded[frame, : self.code.k], messages[frame])
                for frame in range(n_frames)
            ]
        )

    def frame_error_rate(
        self, snr_db: float, n_frames: int, rng: np.random.Generator
    ) -> float:
        """Monte-Carlo frame error rate at one SNR."""
        successes = self.transmit_frames(snr_db, n_frames, rng)
        return float(1.0 - successes.mean())

    def achieved_rate(
        self, snr_db: float, n_frames: int, rng: np.random.Generator
    ) -> float:
        """The Figure 2 quantity: nominal rate times frame success probability."""
        fer = self.frame_error_rate(snr_db, n_frames, rng)
        return self.nominal_rate * (1.0 - fer)

    def describe(self) -> str:
        return (
            f"{self.config.label} (n={self.code.n}, nominal "
            f"{self.nominal_rate:.2f} b/sym, {self.decoder.max_iterations} BP iters)"
        )
