"""Unit tests for fixed-rate spinal frames and their error-rate measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import SpinalParams
from repro.phy.fixed_rate import FixedRateSpinalCode, measure_error_rates
from repro.utils.rng import spawn_rng


@pytest.fixture
def small_code() -> FixedRateSpinalCode:
    return FixedRateSpinalCode(16, n_passes=2, params=SpinalParams(k=4, c=6, seed=31), beam_width=8)


class TestConfiguration:
    def test_nominal_rate(self, small_code):
        # 16 bits over 2 passes of 4 symbols = 2 bits/symbol (= k / passes).
        assert small_code.nominal_rate == pytest.approx(2.0)
        assert small_code.info.symbols_per_frame == 8

    def test_rate_equals_k_over_passes(self):
        code = FixedRateSpinalCode(24, n_passes=3, params=SpinalParams(k=8, c=10))
        assert code.nominal_rate == pytest.approx(8 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedRateSpinalCode(16, n_passes=0)
        with pytest.raises(ValueError):
            FixedRateSpinalCode(15, n_passes=2, params=SpinalParams(k=4, c=6))
        code = FixedRateSpinalCode(16, n_passes=2, params=SpinalParams(k=4, c=6))
        with pytest.raises(ValueError):
            measure_error_rates(code, 10.0, 0, np.random.default_rng(0))


class TestMeasurement:
    def test_high_snr_no_errors(self, small_code):
        rng = spawn_rng(1, "frs-high")
        fer, ber = measure_error_rates(small_code, 18.0, 10, rng)
        assert fer == 0.0
        assert ber == 0.0

    def test_low_snr_mostly_errors(self, small_code):
        rng = spawn_rng(2, "frs-low")
        fer, ber = measure_error_rates(small_code, -8.0, 10, rng)
        assert fer > 0.5
        assert 0.0 < ber <= 1.0

    def test_fer_monotone_between_extremes(self, small_code):
        rng = spawn_rng(3, "frs-mono")
        low, _ = measure_error_rates(small_code, -4.0, 12, rng)
        high, _ = measure_error_rates(small_code, 12.0, 12, rng)
        assert high <= low

    def test_more_passes_more_robust(self):
        """At a fixed SNR, adding passes (lowering the rate) reduces FER."""
        rng = spawn_rng(4, "frs-passes")
        params = SpinalParams(k=4, c=6, seed=33)
        one_pass = FixedRateSpinalCode(16, n_passes=1, params=params, beam_width=8)
        three_pass = FixedRateSpinalCode(16, n_passes=3, params=params, beam_width=8)
        fer_one, _ = measure_error_rates(one_pass, 4.0, 15, rng)
        fer_three, _ = measure_error_rates(three_pass, 4.0, 15, rng)
        assert fer_three <= fer_one
