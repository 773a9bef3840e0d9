"""Constellation mapping functions for spinal codes.

The encoder takes ``2c`` pseudo-random bits per spine value per pass and maps
them to a point on the I/Q plane with a deterministic mapping function ``f``
(Section 3.1).  The paper uses a simple *linear* map, Eq. (3): the first
``c`` bits select the I coordinate and the last ``c`` bits the Q coordinate,
each interpreted sign/magnitude and scaled into ``[-P*, P*]``.  Section 6
mentions a truncated-Gaussian map as promising future work; both are
implemented here, together with an offset-linear (uniform PAM) variant.

All mappers expose the same interface:

* ``bits_per_symbol`` — the number of input bits consumed per symbol (2c);
* ``map_values(v)`` — vectorised map from the integer formed by those bits
  (I bits first, MSB first) to a complex constellation point;
* ``average_energy`` — the exact mean of ``|x|^2`` under uniform input bits,
  used to define SNR consistently across mappers;
* ``enumerate_points()`` — all constellation points (for tests/plots).

Mappers are constructed with unit average energy by default so that an AWGN
channel with noise energy ``N0`` per complex symbol realises ``SNR = 1/N0``
regardless of which mapper is in use.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Constellation",
    "LinearConstellation",
    "OffsetLinearConstellation",
    "TruncatedGaussianConstellation",
    "make_constellation",
]


class Constellation(ABC):
    """Abstract base class for 2c-bit-to-I/Q mapping functions."""

    def __init__(self, c: int) -> None:
        if not 1 <= c <= 16:
            raise ValueError(f"bits per dimension c must be in [1, 16], got {c}")
        self.c = c
        self._axis_table: np.ndarray | None = None

    # -- interface ---------------------------------------------------------
    @property
    def bits_per_symbol(self) -> int:
        """Number of pseudo-random bits consumed per transmitted symbol (2c)."""
        return 2 * self.c

    @abstractmethod
    def map_axis(self, values: np.ndarray) -> np.ndarray:
        """Map ``c``-bit unsigned integers to one real coordinate."""

    def map_values(self, values: np.ndarray | int) -> np.ndarray:
        """Map ``2c``-bit unsigned integers to complex constellation points.

        The first ``c`` bits (most significant) form the I coordinate and
        the last ``c`` bits the Q coordinate, as in the paper; each is a
        gather from the cached :meth:`axis_levels` table.
        """
        v = np.asarray(values, dtype=np.uint64)
        if v.size and int(v.max()) >= (1 << self.bits_per_symbol):
            raise ValueError(
                f"value {int(v.max())} does not fit in {self.bits_per_symbol} bits"
            )
        levels = self.axis_levels()
        # Both halves are below 2^c, so viewing them as int64 is exact.
        i_vals = (v >> np.uint64(self.c)).view(np.int64)
        q_vals = (v & np.uint64((1 << self.c) - 1)).view(np.int64)
        return levels.take(i_vals) + 1j * levels.take(q_vals)

    def enumerate_points(self) -> np.ndarray:
        """All ``2^(2c)`` constellation points (only sensible for small c)."""
        if self.bits_per_symbol > 20:
            raise ValueError(
                "refusing to enumerate more than 2^20 constellation points; "
                "use axis_levels() instead"
            )
        return self.map_values(np.arange(1 << self.bits_per_symbol, dtype=np.uint64))

    def axis_levels(self) -> np.ndarray:
        """The ``2^c`` real levels available on each axis (``map_axis(u)`` at ``u``).

        Computed on first use and cached read-only: the encoder and every
        decoder map through this one table.
        """
        if self._axis_table is None:
            table = np.ascontiguousarray(
                self.map_axis(np.arange(1 << self.c, dtype=np.int64)), dtype=np.float64
            )
            table.flags.writeable = False
            self._axis_table = table
        return self._axis_table

    @property
    def average_energy(self) -> float:
        """Mean of ``|x|^2`` under i.i.d. uniform input bits."""
        levels = self.axis_levels()
        per_axis = float(np.mean(levels.astype(np.float64) ** 2))
        return 2.0 * per_axis

    @property
    def peak_energy(self) -> float:
        """Maximum of ``|x|^2`` over the constellation."""
        levels = np.abs(self.axis_levels().astype(np.float64))
        return 2.0 * float(levels.max() ** 2)


class LinearConstellation(Constellation):
    """The paper's linear constellation map, Eq. (3).

    A ``c``-bit value ``b_1 b_2 ... b_c`` maps to
    ``(-1)^{b_1} * (b_2...b_c) / (2^{c-1} - 1) * P*`` — a sign bit followed by
    a linearly spaced magnitude.  ``P*`` (``peak_amplitude``) is chosen so the
    constellation has the requested average energy (1.0 by default).
    """

    def __init__(self, c: int, average_power: float = 1.0) -> None:
        super().__init__(c)
        if average_power <= 0:
            raise ValueError(f"average_power must be positive, got {average_power}")
        if c < 2:
            raise ValueError("the sign/magnitude linear map needs c >= 2")
        # Mean squared magnitude of u/(2^{c-1}-1) for u uniform on
        # {0, ..., 2^{c-1}-1}: E[u^2] = (M-1)(2M-1)/6 with M = 2^{c-1}.
        m_levels = 1 << (c - 1)
        mean_u_sq = (m_levels - 1) * (2 * m_levels - 1) / 6.0
        unit_axis_energy = mean_u_sq / float(m_levels - 1) ** 2
        self.peak_amplitude = math.sqrt(average_power / (2.0 * unit_axis_energy))

    def map_axis(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        sign_bit = values >> (self.c - 1)
        magnitude = values & ((1 << (self.c - 1)) - 1)
        scale = self.peak_amplitude / float((1 << (self.c - 1)) - 1)
        return np.where(sign_bit == 0, 1.0, -1.0) * magnitude.astype(np.float64) * scale


class OffsetLinearConstellation(Constellation):
    """Uniform PAM on each axis: ``u -> (u - (2^c - 1)/2) * delta``.

    This is the mapping used by the authors' later SIGCOMM implementation; it
    avoids the doubled zero level of the sign/magnitude map and therefore has
    marginally better high-SNR behaviour.  Included both as an alternative
    mapper and as an ablation target (experiment E11).
    """

    def __init__(self, c: int, average_power: float = 1.0) -> None:
        super().__init__(c)
        if average_power <= 0:
            raise ValueError(f"average_power must be positive, got {average_power}")
        n_levels = 1 << c
        # Variance of u - (n-1)/2 for u uniform on {0..n-1} is (n^2 - 1)/12.
        axis_var = (n_levels**2 - 1) / 12.0
        self.delta = math.sqrt(average_power / (2.0 * axis_var))

    def map_axis(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64).astype(np.float64)
        centre = ((1 << self.c) - 1) / 2.0
        return (values - centre) * self.delta


class TruncatedGaussianConstellation(Constellation):
    """Gaussian-shaped constellation (Section 6, future work).

    A ``c``-bit value ``u`` is mapped through the inverse CDF of a standard
    normal truncated at ``±beta`` standard deviations, evaluated at the mid-
    point ``(u + 0.5) / 2^c``.  This concentrates points near the origin,
    approximating the capacity-achieving Gaussian input distribution and
    recovering (in the limit of large ``c`` and ``beta``) the shaping gain the
    linear map gives up (about the ``½ log2(πe/6) ≈ 0.25`` bit of Theorem 1).
    """

    def __init__(self, c: int, average_power: float = 1.0, beta: float = 2.5) -> None:
        super().__init__(c)
        if average_power <= 0:
            raise ValueError(f"average_power must be positive, got {average_power}")
        if beta <= 0:
            raise ValueError(f"truncation beta must be positive, got {beta}")
        # Imported here so that ``import repro`` loads no scipy module.
        from scipy import special

        self.beta = beta
        n_levels = 1 << c
        u = (np.arange(n_levels, dtype=np.float64) + 0.5) / n_levels
        # Inverse CDF of a normal truncated to [-beta, beta].
        phi_lo = 0.5 * (1.0 + math.erf(-beta / math.sqrt(2.0)))
        phi_hi = 0.5 * (1.0 + math.erf(beta / math.sqrt(2.0)))
        probs = phi_lo + u * (phi_hi - phi_lo)
        raw_levels = math.sqrt(2.0) * special.erfinv(2.0 * probs - 1.0)
        axis_energy = float(np.mean(raw_levels**2))
        levels = raw_levels * math.sqrt(average_power / (2.0 * axis_energy))
        # The computed levels *are* the base class's cached axis table.
        levels.flags.writeable = False
        self._axis_table = levels

    def map_axis(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        levels = self.axis_levels()
        if values.size and (values.min() < 0 or values.max() >= levels.size):
            raise ValueError("axis value out of range for this constellation")
        return levels[values]


_CONSTELLATION_KINDS = {
    "linear": LinearConstellation,
    "offset-linear": OffsetLinearConstellation,
    "truncated-gaussian": TruncatedGaussianConstellation,
}


def make_constellation(kind: str, c: int, average_power: float = 1.0, **kwargs) -> Constellation:
    """Factory used by :class:`repro.core.params.SpinalParams`.

    ``kind`` is one of ``"linear"`` (the paper's Eq. (3) map),
    ``"offset-linear"`` or ``"truncated-gaussian"``.
    """
    try:
        cls = _CONSTELLATION_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown constellation kind {kind!r}; expected one of "
            f"{sorted(_CONSTELLATION_KINDS)}"
        ) from None
    return cls(c, average_power=average_power, **kwargs)
