"""Soft demapping: per-bit log-likelihood ratios from noisy symbols.

The LDPC baselines of Figure 2 are decoded "using soft information", so the
demapper matters: a hard-decision demapper would cost the baselines a couple
of dB and unfairly flatter the spinal code.  The exact demapper marginalises
over the full constellation; the max-log variant replaces the log-sum-exp
with a max and is the usual hardware-friendly approximation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["awgn_bit_llrs", "hard_decisions_from_llrs"]


def awgn_bit_llrs(
    received: np.ndarray,
    points: np.ndarray,
    bit_labels: np.ndarray,
    noise_energy: float,
    max_log: bool = False,
) -> np.ndarray:
    """Compute per-bit LLRs for AWGN observations of a given constellation.

    Parameters
    ----------
    received:
        Received complex symbols, any shape (flattened internally).
    points:
        Constellation points, shape ``(M,)``.
    bit_labels:
        Bit labels of each point, shape ``(M, bits_per_symbol)``.
    noise_energy:
        Total complex noise energy per symbol (``N0``).
    max_log:
        Use the max-log approximation instead of exact marginalisation.

    Returns
    -------
    numpy.ndarray
        LLR array of shape ``(n_symbols * bits_per_symbol,)`` in transmission
        order, with the convention ``llr > 0`` favours bit 0.
    """
    if noise_energy <= 0:
        raise ValueError(f"noise_energy must be positive, got {noise_energy}")
    # Imported here so that ``import repro`` loads no scipy module.
    from scipy.special import logsumexp

    received = np.asarray(received, dtype=np.complex128).reshape(-1)
    points = np.asarray(points, dtype=np.complex128).reshape(-1)
    bit_labels = np.asarray(bit_labels, dtype=np.uint8)
    if bit_labels.shape[0] != points.size:
        raise ValueError("bit_labels and points disagree on the constellation size")
    bits_per_symbol = bit_labels.shape[1]

    # Log-likelihood of each constellation point for each received symbol.
    # Noise per dimension has variance N0/2, so |y - s|^2 is scaled by 1/N0.
    log_likelihood = -(np.abs(received[:, None] - points[None, :]) ** 2) / noise_energy

    llrs = np.empty((received.size, bits_per_symbol), dtype=np.float64)
    for bit_index in range(bits_per_symbol):
        mask0 = bit_labels[:, bit_index] == 0
        mask1 = ~mask0
        if max_log:
            term0 = log_likelihood[:, mask0].max(axis=1)
            term1 = log_likelihood[:, mask1].max(axis=1)
        else:
            term0 = logsumexp(log_likelihood[:, mask0], axis=1)
            term1 = logsumexp(log_likelihood[:, mask1], axis=1)
        llrs[:, bit_index] = term0 - term1
    return llrs.reshape(-1)


def hard_decisions_from_llrs(llrs: np.ndarray) -> np.ndarray:
    """Threshold LLRs into bits (``llr > 0`` means bit 0)."""
    llrs = np.asarray(llrs, dtype=np.float64)
    return (llrs < 0).astype(np.uint8)
