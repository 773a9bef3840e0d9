"""Spinal codes: the paper's primary contribution.

This package implements the full spinal-code pipeline of Perry, Balakrishnan
and Shah (HotNets 2011):

* :mod:`repro.core.hashing` — the random hash-function family ``h`` and the
  salted pseudo-random generator used to expand spine values into symbol bits.
* :mod:`repro.core.spine` — sequential spine generation ``s_t = h(s_{t-1}, M_t)``.
* :mod:`repro.core.constellation` — dense constellation mapping functions
  (the paper's linear map of Eq. (3), plus offset-linear and truncated
  Gaussian alternatives).
* :mod:`repro.core.encoder` — the rateless encoder producing symbols (AWGN
  mode) or coded bits (BSC mode), pass by pass.
* :mod:`repro.core.branch_kernel` — the one branch-cost kernel every decoder
  scores candidates with (replayed symbol hash, axis-table gather, distance).
* :mod:`repro.core.puncturing` — subpass schedules that raise the maximum
  rate above ``k`` bits/symbol.
* :mod:`repro.core.decoder_ml` / :mod:`repro.core.decoder_bubble` — the ideal
  maximum-likelihood decoder and the practical beam ("bubble") decoder with
  the graceful scale-down property.
* :mod:`repro.core.decoder_vectorized` — the stateful engine every rateless
  receiver runs: it reuses beam state across a session's decode attempts
  (bit-identical results, a fraction of the work, counted in tree nodes by
  a per-level ledger), plus the :class:`BatchDecoder` front for decoding
  many concurrent sessions as stacked kernels.
* :mod:`repro.core.crc` / :mod:`repro.core.framing` — termination checking.
"""

from repro.core.constellation import (
    LinearConstellation,
    OffsetLinearConstellation,
    TruncatedGaussianConstellation,
)
from repro.core.crc import Crc, CRC8, CRC16_CCITT, CRC32
from repro.core.decoder_bubble import BubbleDecoder, DecodeResult
from repro.core.decoder_ml import MLDecoder
from repro.core.decoder_vectorized import (
    BatchDecoder,
    DECODER_ENGINES,
    VectorizedBubbleDecoder,
)
from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.framing import Framer
from repro.core.hashing import SaltedHashFamily
from repro.core.params import SpinalParams
from repro.core.puncturing import NoPuncturing, StridedPuncturing
from repro.core.spine import SpineGenerator

__all__ = [
    "SaltedHashFamily",
    "SpineGenerator",
    "LinearConstellation",
    "OffsetLinearConstellation",
    "TruncatedGaussianConstellation",
    "SpinalParams",
    "SpinalEncoder",
    "ReceivedObservations",
    "NoPuncturing",
    "StridedPuncturing",
    "BubbleDecoder",
    "VectorizedBubbleDecoder",
    "BatchDecoder",
    "DECODER_ENGINES",
    "MLDecoder",
    "DecodeResult",
    "Crc",
    "CRC8",
    "CRC16_CCITT",
    "CRC32",
    "Framer",
]
