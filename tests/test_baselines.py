"""Unit tests for the baseline transmission systems."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.baselines import (
    FIGURE2_LDPC_CONFIGS,
    FixedRateLdpcSystem,
    HybridArqLdpcSystem,
    LdpcConfig,
    RateAdaptationPolicy,
    RepetitionQpskSystem,
    ThresholdRateAdapter,
)
from repro.ldpc import make_wifi_like_code
from repro.modulation import make_modulation


@pytest.fixture(scope="module")
def bpsk_half_system() -> FixedRateLdpcSystem:
    """Rate-1/2 + BPSK system shared across tests (construction is cached)."""
    config = LdpcConfig(Fraction(1, 2), "BPSK")
    return FixedRateLdpcSystem(config, max_iterations=25, algorithm="min-sum")


class TestLdpcConfig:
    def test_figure2_configs_match_paper(self):
        labels = {config.label for config in FIGURE2_LDPC_CONFIGS}
        assert "LDPC rate 1/2 BPSK" in labels
        assert "LDPC rate 5/6 QAM-64" in labels
        assert len(FIGURE2_LDPC_CONFIGS) == 8

    def test_nominal_rates(self):
        assert LdpcConfig(Fraction(1, 2), "BPSK").nominal_rate == pytest.approx(0.5)
        assert LdpcConfig(Fraction(3, 4), "QAM-16").nominal_rate == pytest.approx(3.0)
        assert LdpcConfig(Fraction(5, 6), "QAM-64").nominal_rate == pytest.approx(5.0)


class TestFixedRateLdpcSystem:
    def test_symbols_per_frame(self, bpsk_half_system):
        assert bpsk_half_system.symbols_per_frame == 648

    def test_high_snr_rate_equals_nominal(self, bpsk_half_system, rng):
        rate = bpsk_half_system.achieved_rate(8.0, n_frames=10, rng=rng)
        assert rate == pytest.approx(bpsk_half_system.nominal_rate)

    def test_low_snr_rate_is_zero(self, bpsk_half_system, rng):
        rate = bpsk_half_system.achieved_rate(-8.0, n_frames=5, rng=rng)
        assert rate == pytest.approx(0.0)

    def test_fer_between_zero_and_one(self, bpsk_half_system, rng):
        fer = bpsk_half_system.frame_error_rate(0.0, n_frames=10, rng=rng)
        assert 0.0 <= fer <= 1.0

    def test_rejects_incompatible_modulation(self):
        # 648 is not a multiple of 5, so a hypothetical 5-bit modulation fails;
        # simulate by pairing a rate-1/2 code with a modulation of 5 bits/sym.
        class FiveBit:
            bits_per_symbol = 5

        config = LdpcConfig(Fraction(1, 2), "BPSK")
        code = make_wifi_like_code(Fraction(1, 2))
        with pytest.raises(ValueError):
            FixedRateLdpcSystem(config, code=code, modulation=FiveBit())  # type: ignore[arg-type]

    def test_rejects_bad_frame_count(self, bpsk_half_system, rng):
        with pytest.raises(ValueError):
            bpsk_half_system.transmit_frames(0.0, 0, rng)

    def test_describe_mentions_config(self, bpsk_half_system):
        assert "rate 1/2" in bpsk_half_system.describe()


class TestHybridArq:
    def test_good_snr_single_attempt(self, rng):
        system = HybridArqLdpcSystem(
            LdpcConfig(Fraction(1, 2), "BPSK"), max_attempts=4, max_iterations=25,
            algorithm="min-sum",
        )
        trial = system.run_trial(snr_db=6.0, rng=rng)
        assert trial.success and trial.attempts == 1
        assert trial.rate == pytest.approx(0.5)

    def test_moderate_snr_uses_retransmissions(self, rng):
        system = HybridArqLdpcSystem(
            LdpcConfig(Fraction(1, 2), "BPSK"), max_attempts=6, max_iterations=25,
            algorithm="min-sum",
        )
        # At -4 dB a single rate-1/2 BPSK frame fails, but chase combining of a
        # few repeats succeeds (combined SNR grows by 3 dB per doubling).
        trial = system.run_trial(snr_db=-4.0, rng=rng)
        assert trial.success
        assert trial.attempts > 1

    def test_failure_reports_zero_rate(self, rng):
        system = HybridArqLdpcSystem(
            LdpcConfig(Fraction(1, 2), "BPSK"), max_attempts=1, max_iterations=10,
            algorithm="min-sum",
        )
        trial = system.run_trial(snr_db=-15.0, rng=rng)
        assert not trial.success
        assert trial.rate == 0.0

    def test_mean_rate_monotone_in_snr(self, rng):
        system = HybridArqLdpcSystem(
            LdpcConfig(Fraction(1, 2), "BPSK"), max_attempts=4, max_iterations=20,
            algorithm="min-sum",
        )
        low = system.mean_rate(-6.0, n_trials=4, rng=rng)
        high = system.mean_rate(6.0, n_trials=4, rng=rng)
        assert high >= low

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridArqLdpcSystem(LdpcConfig(Fraction(1, 2), "BPSK"), max_attempts=0)


class TestRateAdaptation:
    def test_policy_selects_fastest_usable(self):
        configs = (
            LdpcConfig(Fraction(1, 2), "BPSK"),
            LdpcConfig(Fraction(3, 4), "QAM-16"),
            LdpcConfig(Fraction(5, 6), "QAM-64"),
        )
        thresholds = {configs[0]: 0.0, configs[1]: 12.0, configs[2]: 20.0}
        policy = RateAdaptationPolicy(configs=configs, thresholds=thresholds)
        assert policy.select(25.0) == configs[2]
        assert policy.select(15.0) == configs[1]
        assert policy.select(5.0) == configs[0]

    def test_policy_falls_back_to_most_robust(self):
        configs = (LdpcConfig(Fraction(1, 2), "BPSK"), LdpcConfig(Fraction(3, 4), "QAM-16"))
        thresholds = {configs[0]: 2.0, configs[1]: 12.0}
        policy = RateAdaptationPolicy(configs=configs, thresholds=thresholds)
        assert policy.select(-10.0) == configs[0]

    def test_policy_rejects_missing_thresholds(self):
        configs = (LdpcConfig(Fraction(1, 2), "BPSK"),)
        with pytest.raises(ValueError):
            RateAdaptationPolicy(configs=configs, thresholds={})

    def test_calibrate_orders_thresholds_sensibly(self, rng):
        configs = (
            LdpcConfig(Fraction(1, 2), "BPSK"),
            LdpcConfig(Fraction(3, 4), "QAM-16"),
        )
        adapter = ThresholdRateAdapter(
            configs=configs, max_iterations=15, algorithm="min-sum"
        )
        policy = adapter.calibrate(np.array([-2.0, 4.0, 10.0, 16.0]), n_frames=8, rng=rng)
        assert policy.thresholds[configs[0]] < policy.thresholds[configs[1]]

    def test_adaptive_transfer_outputs(self, rng):
        configs = (LdpcConfig(Fraction(1, 2), "BPSK"),)
        adapter = ThresholdRateAdapter(configs=configs, max_iterations=10, algorithm="min-sum")
        policy = RateAdaptationPolicy(configs=configs, thresholds={configs[0]: 0.0})
        outcome = adapter.simulate_adaptive_transfer(
            policy,
            true_snr_per_packet_db=np.array([5.0, 6.0, 7.0]),
            observation_lag_packets=1,
            n_frames_per_packet=3,
            rng=rng,
        )
        assert len(outcome["selected"]) == 3
        assert outcome["rates"].shape == (3,)
        assert outcome["mean_rate"] >= 0.0

    def test_adapter_validation(self):
        with pytest.raises(ValueError):
            ThresholdRateAdapter(target_frame_error_rate=0.0)


class TestRepetition:
    def test_nominal_rate(self):
        assert RepetitionQpskSystem(repetitions=4).nominal_rate == pytest.approx(0.5)

    def test_ber_improves_with_repetitions(self, rng):
        single = RepetitionQpskSystem(repetitions=1).bit_error_rate(-2.0, 4000, rng)
        repeated = RepetitionQpskSystem(repetitions=4).bit_error_rate(-2.0, 4000, rng)
        assert repeated < single

    def test_noiseless_transmission(self, rng):
        system = RepetitionQpskSystem(repetitions=1)
        bits = rng.integers(0, 2, size=200, dtype=np.uint8)
        assert np.array_equal(system.transmit_bits(bits, 40.0, rng), bits)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RepetitionQpskSystem(repetitions=0)
        with pytest.raises(ValueError):
            RepetitionQpskSystem().transmit_bits(np.ones(3, dtype=np.uint8), 10.0, rng)
