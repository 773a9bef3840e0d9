"""Registry of code families implementing the :class:`~repro.phy.protocol.RatelessCode` protocol.

One name → one builder.  The conformance suite
(``tests/test_codec_protocol.py``) runs every registered family through the
same battery, and the ``code-family-matrix`` experiment sweeps them across
scenarios; registering a new family here is all it takes to appear in both.

Builders take ``(seed, snr_db, smoke)``:

* ``seed`` derives any code-construction randomness (hash families, LT
  neighbourhoods) — relays pass per-hop seeds so hop codes are independent;
* ``snr_db`` parameterises families whose receivers need the operating
  point (soft demappers assume a noise energy);
* ``smoke`` selects a seconds-scale configuration for CI.

:func:`channel_for_code` builds the SNR-calibrated channel matching a code's
alphabet: complex AWGN for symbol-domain codes, and for bit-domain codes a
BSC whose crossover probability is the hard-decision error of BPSK at that
SNR — so "SNR" means the same physical channel across domains and the
matrix's x-axis is comparable between families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.channels.awgn import AWGNChannel
from repro.channels.base import Channel
from repro.channels.bsc import BSCChannel
from repro.core.decoder_vectorized import VectorizedBubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.core.puncturing import TailFirstPuncturing
from repro.phy.fixed_rate import FixedRateSpinalCode
from repro.phy.fountain import LTCode
from repro.phy.ldpc_ir import LdpcIrCode
from repro.phy.protocol import RatelessCode
from repro.phy.repetition import RepetitionCode
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.utils.rng import derive_seed
from repro.utils.units import db_to_linear

__all__ = [
    "CODE_FAMILY_NAMES",
    "CodeFamily",
    "bpsk_crossover_probability",
    "channel_for_code",
    "code_family",
    "make_code",
    "make_codec_session",
    "register_code_family",
]


@dataclass(frozen=True)
class CodeFamily:
    """One registered family: a name, a blurb, and a code builder."""

    name: str
    description: str
    build: Callable[[int, float, bool], RatelessCode]


_REGISTRY: dict[str, CodeFamily] = {}


def register_code_family(family: CodeFamily) -> CodeFamily:
    """Add a family to the registry (idempotent per identity)."""
    existing = _REGISTRY.get(family.name)
    if existing is not None and existing is not family:
        raise ValueError(f"code family {family.name!r} is already registered")
    _REGISTRY[family.name] = family
    return family


def code_family(name: str) -> CodeFamily:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown code family {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def make_code(name: str, seed: int = 0, snr_db: float = 10.0, smoke: bool = False):
    """Build one family's code instance for an operating point."""
    return code_family(name).build(int(seed), float(snr_db), bool(smoke))


def bpsk_crossover_probability(snr_db: float) -> float:
    """Hard-decision BPSK bit error probability at a given Es/N0."""
    return 0.5 * math.erfc(math.sqrt(db_to_linear(snr_db)))


def channel_for_code(
    code: RatelessCode, snr_db: float, adc_bits: int | None = None
) -> Channel:
    """The SNR-calibrated channel matching a code's alphabet (see module doc)."""
    if code.info.domain == "symbol":
        return AWGNChannel(
            snr_db=snr_db, signal_power=code.info.signal_power, adc_bits=adc_bits
        )
    return BSCChannel(bpsk_crossover_probability(snr_db))


def make_codec_session(
    name: str,
    snr_db: float,
    seed: int = 0,
    smoke: bool = False,
    max_symbols: int = 4096,
    termination: str = "genie",
    adc_bits: int | None = None,
) -> CodecSession:
    """One-call entry point: family name + SNR → ready-to-run session."""
    code = make_code(name, seed=seed, snr_db=snr_db, smoke=smoke)
    return CodecSession(
        code,
        channel_for_code(code, snr_db, adc_bits=adc_bits),
        termination=termination,
        max_symbols=max_symbols,
    )


# -- the five built-in families ----------------------------------------------


def _build_spinal(seed: int, snr_db: float, smoke: bool) -> SpinalCode:
    if smoke:
        payload_bits, params, beam_width = 16, SpinalParams(k=4, c=6), 8
    else:
        payload_bits, params, beam_width = 24, SpinalParams(k=8, c=10), 16
    params = params.with_(seed=derive_seed(seed, "phy", "spinal"))
    encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
    framer = Framer(payload_bits=payload_bits, k=params.k)
    decoder_factory = partial(VectorizedBubbleDecoder, beam_width=beam_width)
    return SpinalCode(encoder, decoder_factory, framer)


def _build_lt(seed: int, snr_db: float, smoke: bool) -> LTCode:
    payload_bits, block_bits = (16, 4) if smoke else (24, 6)
    return LTCode(
        payload_bits, block_bits=block_bits, seed=derive_seed(seed, "phy", "lt")
    )


def _build_ldpc_ir(seed: int, snr_db: float, smoke: bool) -> LdpcIrCode:
    if smoke:
        codeword_bits, chunk_bits, max_iterations = 120, 30, 12
    else:
        codeword_bits, chunk_bits, max_iterations = 648, 81, 40
    return LdpcIrCode(
        snr_db=snr_db,
        codeword_bits=codeword_bits,
        chunk_bits=chunk_bits,
        max_iterations=max_iterations,
        algorithm="min-sum",
        seed=derive_seed(seed, "phy", "ldpc-ir"),
    )


def _build_fixed_spinal(seed: int, snr_db: float, smoke: bool) -> FixedRateSpinalCode:
    if smoke:
        payload_bits, params, beam_width = 16, SpinalParams(k=4, c=6), 8
    else:
        payload_bits, params, beam_width = 24, SpinalParams(k=8, c=10), 16
    params = params.with_(seed=derive_seed(seed, "phy", "fixed-spinal"))
    return FixedRateSpinalCode(
        payload_bits, n_passes=3, params=params, beam_width=beam_width
    )


def _build_repetition(seed: int, snr_db: float, smoke: bool) -> RepetitionCode:
    return RepetitionCode(snr_db=snr_db, payload_bits=16 if smoke else 24)


register_code_family(
    CodeFamily(
        "spinal",
        "Rateless spinal code (tail-first puncturing, vectorized bubble decoder)",
        _build_spinal,
    )
)
register_code_family(
    CodeFamily(
        "lt",
        "LT fountain code with per-symbol CRC erasure detection over hard bits",
        _build_lt,
    )
)
register_code_family(
    CodeFamily(
        "ldpc-ir",
        "Incremental-redundancy LDPC (puncturing schedule + Chase combining)",
        _build_ldpc_ir,
    )
)
register_code_family(
    CodeFamily(
        "fixed-spinal",
        "Fixed-rate spinal frames under whole-frame ARQ (no combining)",
        _build_fixed_spinal,
    )
)
register_code_family(
    CodeFamily(
        "repetition",
        "BPSK repetition with soft combining (the floor any code should beat)",
        _build_repetition,
    )
)

#: Registered family names, in matrix display order.
CODE_FAMILY_NAMES: tuple[str, ...] = (
    "spinal",
    "lt",
    "ldpc-ir",
    "fixed-spinal",
    "repetition",
)
