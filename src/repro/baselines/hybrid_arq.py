"""Hybrid ARQ with Chase combining on top of the fixed-rate LDPC codes.

The paper's related-work section cites several attempts to make fixed-rate
codes behave ratelessly via incremental redundancy / hybrid ARQ
([9, 11, 14, 16]).  This module implements the simplest such scheme — full
retransmission with LLR (Chase) combining — as a baseline the examples can
contrast with the spinal code:

* each retransmission repeats the whole codeword;
* the receiver adds the new LLRs to the stored ones and re-runs BP;
* the achieved rate of a trial is ``k / (attempts * symbols_per_frame)``.

It adapts to SNR only in the coarse sense that bad channels trigger more
retransmissions; within one transmission it cannot exceed its nominal rate,
which is exactly the gap the spinal code closes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.ldpc_system import FixedRateLdpcSystem, LdpcConfig
from repro.channels.awgn import AWGNChannel
from repro.phy.ldpc_ir import LdpcIrCode
from repro.phy.session import CodecSession

__all__ = ["HybridArqLdpcSystem", "ArqTrialResult"]


@dataclass(frozen=True)
class ArqTrialResult:
    """Outcome of delivering (or failing to deliver) one frame over ARQ."""

    success: bool
    attempts: int
    symbols_sent: int
    message_bits: int

    @property
    def rate(self) -> float:
        """Delivered rate in bits per channel use (0 for a failed frame)."""
        if self.symbols_sent == 0:
            raise ValueError("no symbols were sent; rate is undefined")
        return self.message_bits / self.symbols_sent if self.success else 0.0


class HybridArqLdpcSystem:
    """Fixed-rate LDPC link with retransmission and Chase combining."""

    def __init__(
        self,
        config: LdpcConfig,
        max_attempts: int = 8,
        codeword_bits: int = 648,
        max_iterations: int = 40,
        algorithm: str = "sum-product",
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
        self.system = FixedRateLdpcSystem(
            config,
            codeword_bits=codeword_bits,
            max_iterations=max_iterations,
            algorithm=algorithm,
        )
        self.max_attempts = max_attempts

    def run_trial(self, snr_db: float, rng: np.random.Generator) -> ArqTrialResult:
        """Deliver one frame, retransmitting until decoded or out of attempts.

        Chase combining is :class:`~repro.phy.ldpc_ir.LdpcIrCode` with
        ``chunk_bits = n`` (whole-codeword repeats) run through a
        :class:`~repro.phy.session.CodecSession`.
        """
        code = self.system.code
        ir_code = LdpcIrCode(
            snr_db=snr_db,
            code=code,
            modulation=self.system.modulation,
            decoder=self.system.decoder,
        )
        symbols_per_frame = code.n // self.system.modulation.bits_per_symbol
        session = CodecSession(
            ir_code,
            AWGNChannel(snr_db=snr_db),
            termination="genie",
            max_symbols=self.max_attempts * symbols_per_frame,
        )
        message = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        result = session.run(message, rng)
        return ArqTrialResult(
            success=result.success,
            attempts=result.decode_attempts,
            symbols_sent=result.symbols_sent,
            message_bits=code.k,
        )

    def mean_rate(self, snr_db: float, n_trials: int, rng: np.random.Generator) -> float:
        """Average delivered rate over independent frames at one SNR."""
        if n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {n_trials}")
        rates = [self.run_trial(snr_db, rng).rate for _ in range(n_trials)]
        return float(np.mean(rates))

    def describe(self) -> str:
        return f"HARQ({self.system.describe()}, max_attempts={self.max_attempts})"
