"""SNR-threshold rate adaptation: the "status quo" the paper argues against.

Section 1 describes current wireless systems as offering a menu of fixed PHY
configurations plus a reactive policy that picks one from recent channel
observations (SNR from a preamble, loss rate, etc.).  This module implements
that policy in its cleanest form so the examples can compare it with the
rateless spinal session over the same time-varying channels:

* :func:`calibrate_thresholds` gives each configuration of a menu an SNR
  threshold (the lowest SNR at which its frame error rate is below a
  target);
* a :class:`RateAdaptationPolicy` selects, per packet, the fastest
  configuration whose threshold is below the *observed* SNR, where the
  observation can lag the true channel (staleness is the classic failure
  mode the paper points to).

Both are menu-agnostic: anything hashable with a ``nominal_rate`` attribute
(see :class:`RateOption`) can populate them, so the same loop and policy
drive the LDPC menu of the mobility example and the fixed-rate *spinal*
menu the multi-user cell baseline uses (:mod:`repro.mac.adaptive`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = ["RateOption", "RateAdaptationPolicy", "calibrate_thresholds"]


@runtime_checkable
class RateOption(Protocol):
    """One entry of a rate-adaptation menu: a hashable config with a rate."""

    @property
    def nominal_rate(self) -> float:  # pragma: no cover - protocol stub
        ...


@dataclass
class RateAdaptationPolicy:
    """Pure threshold policy: pick the fastest config believed to work.

    ``thresholds`` maps each configuration to the minimum SNR (dB) at which
    it is considered usable.  If no configuration qualifies the policy falls
    back to the most robust one (lowest threshold).
    """

    configs: tuple[RateOption, ...]
    thresholds: dict[RateOption, float]

    def __post_init__(self) -> None:
        missing = [c for c in self.configs if c not in self.thresholds]
        if missing:
            raise ValueError(f"missing thresholds for configs: {missing}")

    def select(self, observed_snr_db: float) -> RateOption:
        usable = [c for c in self.configs if observed_snr_db >= self.thresholds[c]]
        if not usable:
            return min(self.configs, key=lambda c: self.thresholds[c])
        return max(usable, key=lambda c: c.nominal_rate)


def calibrate_thresholds(
    options: Sequence[RateOption],
    fer: Callable[[RateOption, float], float],
    snr_grid_db: Sequence[float],
    target_frame_error_rate: float,
) -> RateAdaptationPolicy:
    """Derive per-option SNR thresholds from measured frame error rates.

    Options are measured in order, each over the grid in ascending order,
    by ``fer(option, snr_db)``.  An option's threshold is the lowest grid
    SNR at which its FER is at or below the target; options that never
    reach the target get an infinite threshold (selected only as the robust
    fallback).  A ``fer`` drawing from one seeded generator relies on this
    order, and on the stop at the first passing SNR, for its thresholds.
    """
    if not 0.0 < target_frame_error_rate < 1.0:
        raise ValueError(
            f"target FER must be in (0, 1), got {target_frame_error_rate}"
        )
    grid = np.asarray(snr_grid_db, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("snr_grid_db must be a non-empty 1-D array")
    options = tuple(options)
    thresholds: dict[RateOption, float] = {}
    for option in options:
        threshold = float("inf")
        for snr_db in np.sort(grid):
            if fer(option, float(snr_db)) <= target_frame_error_rate:
                threshold = float(snr_db)
                break
        thresholds[option] = threshold
    return RateAdaptationPolicy(configs=options, thresholds=thresholds)
