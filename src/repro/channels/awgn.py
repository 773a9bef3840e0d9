"""Additive white Gaussian noise channels.

Conventions (see also :mod:`repro.utils.units`): the transmitted
constellation has unit average energy per complex symbol, noise is circular
complex Gaussian with total energy ``N0`` per complex symbol (variance
``N0/2`` per real dimension), and ``SNR = signal_power / N0``.  The Shannon
capacity quoted against this SNR is ``log2(1 + SNR)`` bits per symbol.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.channels.base import SymbolChannel
from repro.channels.quantize import AdcQuantizer
from repro.utils.units import db_to_linear

__all__ = ["AWGNChannel", "TimeVaryingAWGNChannel"]

#: Full-scale margin for the receiver ADC, in multiples of the RMS received
#: amplitude per dimension.  Four sigma keeps clipping negligible.
_ADC_MARGIN = 4.0


class AWGNChannel(SymbolChannel):
    """Memoryless complex AWGN channel with optional receiver ADC.

    Parameters
    ----------
    snr_db:
        Signal-to-noise ratio in dB (per complex symbol).
    signal_power:
        Average transmitted energy per symbol; must match the constellation
        in use (1.0 for the library's default unit-power constellations).
    adc_bits:
        If given, the received symbols are quantised to this many bits per
        dimension, mimicking the paper's 14-bit ADC.
    """

    def __init__(
        self,
        snr_db: float,
        signal_power: float = 1.0,
        adc_bits: int | None = None,
    ) -> None:
        if signal_power <= 0:
            raise ValueError(f"signal_power must be positive, got {signal_power}")
        self.snr_db = float(snr_db)
        self.signal_power = float(signal_power)
        self.noise_energy = self.signal_power / db_to_linear(snr_db)
        if adc_bits is None:
            self.quantizer = None
        else:
            rms_per_dim = math.sqrt((self.signal_power + self.noise_energy) / 2.0)
            self.quantizer = AdcQuantizer(
                bits=adc_bits, full_scale=_ADC_MARGIN * rms_per_dim
            )

    @property
    def snr_linear(self) -> float:
        return self.signal_power / self.noise_energy

    def transmit(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        # One draw of both dimensions: row 0 is what a first
        # standard_normal(shape) call returns and row 1 a second one.
        draws = rng.standard_normal((2,) + values.shape)
        sigma_per_dim = math.sqrt(self.noise_energy / 2.0)
        noise = sigma_per_dim * (draws[0] + 1j * draws[1])
        received = values + noise
        if self.quantizer is not None:
            received = self.quantizer.quantize(received)
        return received

    def describe(self) -> str:
        adc = f", adc={self.quantizer.bits}b" if self.quantizer is not None else ""
        return f"AWGN(snr={self.snr_db:.1f} dB{adc})"


class TimeVaryingAWGNChannel(SymbolChannel):
    """AWGN channel whose SNR follows a per-symbol trace.

    The introduction of the paper motivates rateless codes with channels
    whose conditions "vary with time, even at time-scales shorter than a
    single packet transmission"; this channel realises that setting.  The
    trace is indexed by the number of symbols transmitted so far within the
    current trial and repeats cyclically if the trial outlives it.
    """

    def __init__(
        self,
        snr_trace_db: Sequence[float],
        signal_power: float = 1.0,
        adc_bits: int | None = None,
    ) -> None:
        trace = np.asarray(list(snr_trace_db), dtype=np.float64)
        if trace.size == 0:
            raise ValueError("snr_trace_db must contain at least one value")
        if signal_power <= 0:
            raise ValueError(f"signal_power must be positive, got {signal_power}")
        self.snr_trace_db = trace
        self.signal_power = float(signal_power)
        self.adc_bits = adc_bits
        self._cursor = 0
        if adc_bits is None:
            self.quantizer = None
        else:
            worst_noise = self.signal_power / db_to_linear(float(trace.min()))
            rms_per_dim = math.sqrt((self.signal_power + worst_noise) / 2.0)
            self.quantizer = AdcQuantizer(
                bits=adc_bits, full_scale=_ADC_MARGIN * rms_per_dim
            )

    def reset(self) -> None:
        self._cursor = 0

    def set_time(self, time: int) -> None:
        """Pin the trace cursor to an external clock tick.

        By default the trace is indexed by the symbols *this channel* has
        carried (conditions vary over a single sender's transmission).  A
        multi-user simulator instead owns one shared wall clock and calls
        ``set_time(now)`` before each grant, so a user's channel keeps
        evolving while others transmit — the regime where opportunistic
        scheduling has something to exploit (see :mod:`repro.mac.cell`).
        """
        time = int(time)
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        self._cursor = time

    @property
    def mean_snr_db(self) -> float:
        return float(self.snr_trace_db.mean())

    def transmit(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        n = values.size
        indices = (self._cursor + np.arange(n)) % self.snr_trace_db.size
        self._cursor += n
        snr_linear = np.power(10.0, self.snr_trace_db[indices] / 10.0)
        noise_energy = self.signal_power / snr_linear
        sigma_per_dim = np.sqrt(noise_energy / 2.0).reshape(values.shape)
        noise = sigma_per_dim * (
            rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
        )
        received = values + noise
        if self.quantizer is not None:
            received = self.quantizer.quantize(received)
        return received

    def describe(self) -> str:
        return (
            f"TimeVaryingAWGN(mean={self.mean_snr_db:.1f} dB, "
            f"min={self.snr_trace_db.min():.1f}, max={self.snr_trace_db.max():.1f})"
        )
