"""LDPC substrate: the fixed-rate baseline codes of Figure 2.

The paper compares spinal codes against "LDPC codes from the high-throughput
mode of 802.11n with 648-bit codewords, decoded with a powerful decoder
(40-iteration belief propagation decoder using soft information)".

This package provides everything needed to reproduce that baseline without
access to the 802.11n standard tables:

* :mod:`repro.ldpc.matrices` — quasi-cyclic parity-check matrices, GF(2)
  linear algebra, and cycle-avoidance checks;
* :mod:`repro.ldpc.construction` — an 802.11n-*like* QC-LDPC construction
  (same block length 648, lifting factor Z = 27, code rates 1/2, 2/3, 3/4 and
  5/6, dual-diagonal parity structure); the module docstring gives the
  rationale for this substitution (README, "Layout");
* :mod:`repro.ldpc.encoder` — systematic encoding;
* :mod:`repro.ldpc.decoder` — batch belief-propagation decoding (exact
  sum-product and normalised min-sum), 40 iterations by default.
"""

from repro.ldpc.construction import WIFI_LIKE_RATES, make_wifi_like_code
from repro.ldpc.decoder import BeliefPropagationDecoder, DecoderStats
from repro.ldpc.encoder import LDPCCode
from repro.ldpc.matrices import QCMatrix, gf2_inverse, gf2_matmul_vec, gf2_rank

__all__ = [
    "QCMatrix",
    "gf2_rank",
    "gf2_inverse",
    "gf2_matmul_vec",
    "make_wifi_like_code",
    "WIFI_LIKE_RATES",
    "LDPCCode",
    "BeliefPropagationDecoder",
    "DecoderStats",
]
