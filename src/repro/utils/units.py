"""Decibel and SNR unit conversions.

Conventions used throughout the library (matching the paper's Figure 2):

* SNR is the ratio of the *average transmitted symbol energy per complex
  (two-dimensional) symbol* to the *total noise energy per complex symbol*.
* The AWGN capacity quoted against that SNR is therefore the two-dimensional
  capacity ``log2(1 + SNR)`` bits per symbol (e.g. roughly 10 bits/symbol at
  30 dB, exactly as stated in Section 4 of the paper).
"""

from __future__ import annotations

import math

__all__ = ["db_to_linear", "linear_to_db", "check_snr_db", "snr_db_to_ebn0", "ebn0_to_snr_db"]


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to a linear power ratio."""
    return 10.0 ** (value_db / 10.0)


def check_snr_db(name: str, snr_db: float) -> None:
    """Reject an SNR no channel can be built from; ``name`` labels the message.

    NaN is rejected (it runs every session to its budget and delivers
    nothing), and so is a finite value too large for a linear power ratio.
    ``inf`` stays valid: it is the noiseless limit.
    """
    if math.isnan(snr_db):
        raise ValueError(f"{name} must be a number of dB, got nan")
    if math.isfinite(snr_db):
        try:
            db_to_linear(snr_db)
        except OverflowError:
            raise ValueError(
                f"{name} of {snr_db:g} dB overflows a power ratio; use inf "
                "for the noiseless limit"
            ) from None


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to decibels.

    Raises
    ------
    ValueError
        If ``value`` is not strictly positive.
    """
    if value <= 0:
        raise ValueError(f"cannot convert non-positive ratio {value!r} to dB")
    return 10.0 * math.log10(value)


def snr_db_to_ebn0(snr_db: float, bits_per_symbol: float) -> float:
    """Convert symbol SNR (dB) to Eb/N0 (dB) at a given spectral efficiency."""
    if bits_per_symbol <= 0:
        raise ValueError(f"bits_per_symbol must be positive, got {bits_per_symbol}")
    return snr_db - linear_to_db(bits_per_symbol)


def ebn0_to_snr_db(ebn0_db: float, bits_per_symbol: float) -> float:
    """Convert Eb/N0 (dB) to symbol SNR (dB) at a given spectral efficiency."""
    if bits_per_symbol <= 0:
        raise ValueError(f"bits_per_symbol must be positive, got {bits_per_symbol}")
    return ebn0_db + linear_to_db(bits_per_symbol)
