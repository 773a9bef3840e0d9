"""Baseline transmission systems the paper compares against (or motivates).

* :mod:`repro.baselines.ldpc_system` — fixed-rate LDPC + modulation
  combinations, the explicit baseline of Figure 2 (eight configurations of
  802.11n-style codes over BPSK/QAM-4/QAM-16/QAM-64).
* :mod:`repro.baselines.rate_adaptation` — 802.11-style SNR-threshold rate
  adaptation, the "status quo" the introduction argues against: the
  threshold policy and the one calibration loop every rate menu shares.

The other baselines are code families behind the session API:
Chase-combining hybrid ARQ is :class:`~repro.phy.ldpc_ir.LdpcIrCode` with
whole-codeword chunks, fixed-rate spinal frames are
:class:`~repro.phy.fixed_rate.FixedRateSpinalCode`, and repetition coding is
:class:`~repro.phy.repetition.RepetitionCode`, each run through a
:class:`~repro.phy.session.CodecSession`.
"""

from repro.baselines.ldpc_system import FIGURE2_LDPC_CONFIGS, FixedRateLdpcSystem, LdpcConfig
from repro.baselines.rate_adaptation import RateAdaptationPolicy, calibrate_thresholds

__all__ = [
    "FixedRateLdpcSystem",
    "LdpcConfig",
    "FIGURE2_LDPC_CONFIGS",
    "RateAdaptationPolicy",
    "calibrate_thresholds",
]
