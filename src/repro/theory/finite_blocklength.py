"""Finite-blocklength (normal approximation) bounds.

The dashed curve of Figure 2 ("fixed-block approx. bound, len=24,
err.prob=1e-4") is the fundamental limit on *fixed-rate* codes of block
length 24 derived by Polyanskiy, Poor and Verdú [12].  We use the standard
normal approximation

    R(n, eps)  ≈  C  -  sqrt(V / n) * Q^{-1}(eps)  +  log2(n) / (2n)

where ``C`` is the channel capacity and ``V`` its dispersion.  For the
complex AWGN channel with SNR ``s`` (per complex symbol), the capacity is
``log2(1 + s)`` and the dispersion is

    V(s) = (s * (s + 2)) / (s + 1)^2 * log2(e)^2     [bits^2 per symbol].

The approximation is clipped below at 0 (a negative rate just means "no code
of that block length achieves the target error probability at this SNR").
"""

from __future__ import annotations

import math

from repro.theory.capacity import awgn_capacity
from repro.utils.units import db_to_linear

__all__ = ["awgn_dispersion", "normal_approximation_rate", "ppv_fixed_block_bound_db"]

_LOG2_E = math.log2(math.e)


def awgn_dispersion(snr_linear: float) -> float:
    """Channel dispersion of the complex AWGN channel, in bits^2 per symbol."""
    if snr_linear < 0:
        raise ValueError(f"SNR must be non-negative, got {snr_linear}")
    s = snr_linear
    return (s * (s + 2.0)) / ((s + 1.0) ** 2) * _LOG2_E**2


def _q_inverse(probability: float) -> float:
    """Inverse of the Gaussian tail function Q(x)."""
    if not 0.0 < probability < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {probability}")
    # Imported here so that ``import repro`` loads no scipy module.
    from scipy import special

    return math.sqrt(2.0) * special.erfcinv(2.0 * probability)


def normal_approximation_rate(
    snr_linear: float, block_length: int, error_probability: float
) -> float:
    """Maximum rate (bits/symbol) of a fixed-rate code at finite block length.

    Parameters
    ----------
    snr_linear:
        SNR per complex symbol (linear).
    block_length:
        Codeword length in channel uses (the paper uses 24).
    error_probability:
        Target block error probability (the paper uses 1e-4).
    """
    if block_length <= 0:
        raise ValueError(f"block_length must be positive, got {block_length}")
    capacity = awgn_capacity(snr_linear)
    dispersion = awgn_dispersion(snr_linear)
    penalty = math.sqrt(dispersion / block_length) * _q_inverse(error_probability)
    correction = math.log2(block_length) / (2.0 * block_length)
    return max(0.0, capacity - penalty + correction)


def ppv_fixed_block_bound_db(
    snr_db: float, block_length: int = 24, error_probability: float = 1e-4
) -> float:
    """Figure 2's dashed "fixed-block approx. bound" at an SNR given in dB."""
    return normal_approximation_rate(db_to_linear(snr_db), block_length, error_probability)
