"""Incremental-redundancy LDPC behind the :class:`~repro.phy.protocol.RatelessCode` protocol.

The related-work section of the paper cites hybrid-ARQ / incremental
redundancy as the classical way to make a fixed-rate code behave ratelessly;
this family implements it as a genuine rateless *symbol stream*:

* the message is encoded once with a mother LDPC code (systematic, rate
  ``k/n``);
* the codeword is released in **chunks** following a puncturing schedule —
  systematic bits first, then successive parity chunks, so the effective
  code rate walks down from ``~1`` towards ``k/n`` as symbols flow;
* once the whole codeword is on the air, further chunks *repeat* it and the
  receiver Chase-combines (adds LLRs), so the stream is endless like any
  other rateless code;
* the receiver accumulates per-bit LLRs (unreceived bits contribute LLR 0,
  i.e. punctured) and runs belief propagation on each attempt; ``verified``
  is the parity check (BP convergence), giving the family a self-contained
  termination rule.

With ``chunk_bits = n`` (the default) the schedule degenerates to
whole-codeword retransmission with Chase combining — the classical hybrid
ARQ baseline.  A genie-terminated :class:`~repro.phy.session.CodecSession`
whose budget is ``m`` codeword frames runs it as ``m``-attempt hybrid ARQ;
the session's ``decode_attempts`` count the transmissions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.ldpc.construction import make_wifi_like_code
from repro.ldpc.decoder import BeliefPropagationDecoder
from repro.modulation import Modulation
from repro.modulation.qam import make_modulation
from repro.phy.protocol import CodeBlock, CodeInfo, DecodeStatus, NOT_ATTEMPTED
from repro.utils.units import db_to_linear

__all__ = ["LdpcIrCode"]


class _IrSource:
    """Per-packet stream: codeword chunks in schedule order, cycling forever."""

    def __init__(self, code: "LdpcIrCode", payload: np.ndarray) -> None:
        self.code = code
        self.codeword = code.code.encode(payload)
        self.next_chunk = 0

    def next_block(self) -> CodeBlock:
        start = (self.next_chunk % self.code.n_chunks) * self.code.chunk_bits
        stop = start + self.code.chunk_bits
        values = self.code.modulation.modulate(self.codeword[start:stop])
        block = CodeBlock(index=self.next_chunk, values=values, meta=(start, stop))
        self.next_chunk += 1
        return block


class _IrReceiver:
    """LLR accumulator plus one BP decode per attempt."""

    def __init__(self, code: "LdpcIrCode") -> None:
        self.code = code
        self.llrs = np.zeros(code.code.n, dtype=np.float64)

    def absorb(
        self, block: CodeBlock, received: np.ndarray, attempt: bool = True
    ) -> DecodeStatus:
        start, stop = block.meta
        self.llrs[start:stop] += self.code.modulation.demodulate_llr(
            received, self.code.noise_energy
        )
        if not attempt:
            return NOT_ATTEMPTED
        return self.decode_now()

    def decode_now(self) -> DecodeStatus:
        decoded, stats = self.code.decoder.decode(self.llrs)
        estimate = decoded[: self.code.code.k]
        return DecodeStatus(
            attempted=True,
            estimate=estimate,
            payload=estimate,
            verified=bool(stats.converged[0]),
            work=int(stats.iterations_used[0]),
            detail=stats,
        )


class LdpcIrCode:
    """Hybrid-ARQ incremental redundancy over a mother LDPC code.

    Parameters
    ----------
    snr_db:
        Operating SNR; sets the noise energy the soft demapper assumes (a
        real receiver estimates this — here it is part of the code's
        configuration, like the LDPC baselines).
    rate:
        Mother-code rate (one of the 802.11n rates).
    codeword_bits:
        Mother codeword length ``n`` (multiple of 24).
    modulation:
        Modulation name (``"BPSK"``, ``"QAM-4"``, ...); ``chunk_bits`` must
        be a multiple of its bits/symbol.
    chunk_bits:
        Coded bits released per block; defaults to ``n`` (whole-codeword
        retransmission, the classical Chase-combining HARQ).
    max_iterations, algorithm:
        Belief-propagation configuration.
    seed:
        Seed of the mother code's construction.
    """

    def __init__(
        self,
        snr_db: float,
        rate: Fraction | float = Fraction(1, 2),
        codeword_bits: int = 648,
        modulation: str | Modulation = "BPSK",
        chunk_bits: int | None = None,
        max_iterations: int = 40,
        algorithm: str = "sum-product",
        seed: int = 2011,
    ) -> None:
        self.code = make_wifi_like_code(rate, codeword_bits=codeword_bits, seed=seed)
        self.modulation = (
            modulation
            if isinstance(modulation, Modulation)
            else make_modulation(modulation)
        )
        self.decoder = BeliefPropagationDecoder(
            self.code, max_iterations=max_iterations, algorithm=algorithm
        )
        self.chunk_bits = self.code.n if chunk_bits is None else int(chunk_bits)
        if self.chunk_bits <= 0 or self.code.n % self.chunk_bits != 0:
            raise ValueError(
                f"chunk_bits={self.chunk_bits} must evenly divide n={self.code.n}"
            )
        if self.chunk_bits % self.modulation.bits_per_symbol != 0:
            raise ValueError(
                f"chunk_bits={self.chunk_bits} is not a multiple of the modulation's "
                f"{self.modulation.bits_per_symbol} bits/symbol"
            )
        self.n_chunks = self.code.n // self.chunk_bits
        self.snr_db = float(snr_db)
        self.noise_energy = 1.0 / db_to_linear(self.snr_db)
        self.info = CodeInfo(
            family="ldpc-ir",
            payload_bits=self.code.k,
            domain="symbol",
            signal_power=1.0,
            rate_menu=None,
        )

    def new_encoder(self, payload: np.ndarray) -> _IrSource:
        return _IrSource(self, np.asarray(payload, dtype=np.uint8))

    def new_decoder(self) -> _IrReceiver:
        return _IrReceiver(self)

    def min_symbols_to_attempt(self) -> int:
        """Fewer channel uses than ``k`` coded bits cannot determine ``k`` bits."""
        return -(-self.code.k // self.modulation.bits_per_symbol)

    def reference(self, payload: np.ndarray) -> np.ndarray:
        return np.asarray(payload, dtype=np.uint8)
