"""Unit tests for the baseline transmission systems."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.baselines import (
    FIGURE2_LDPC_CONFIGS,
    FixedRateLdpcSystem,
    LdpcConfig,
    RateAdaptationPolicy,
    calibrate_thresholds,
)
from repro.channels.awgn import AWGNChannel
from repro.phy.ldpc_ir import LdpcIrCode
from repro.phy.repetition import RepetitionCode
from repro.phy.session import CodecResult, CodecSession


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

    def test_rejects_bad_frame_count(self, bpsk_half_system, rng):
        with pytest.raises(ValueError):
            bpsk_half_system.transmit_frames(0.0, 0, rng)

    def test_describe_mentions_config(self, bpsk_half_system):
        assert "rate 1/2" in bpsk_half_system.describe()


def _harq_trial(
    snr_db: float,
    max_attempts: int,
    max_iterations: int,
    rng: np.random.Generator,
) -> CodecResult:
    """One rate-1/2 BPSK frame under Chase-combining hybrid ARQ.

    Whole-codeword chunks make :class:`LdpcIrCode` the classical HARQ: each
    block repeats the codeword, and the genie-terminated session's decode
    attempts are its transmissions.
    """
    code = LdpcIrCode(
        snr_db, Fraction(1, 2), 648, "BPSK", max_iterations=max_iterations,
        algorithm="min-sum",
    )
    session = CodecSession(
        code,
        AWGNChannel(snr_db=snr_db),
        termination="genie",
        max_symbols=max_attempts * (code.code.n // code.modulation.bits_per_symbol),
    )
    return session.run(rng.integers(0, 2, size=code.code.k, dtype=np.uint8), rng)


class TestHybridArq:
    def test_good_snr_single_attempt(self, rng):
        trial = _harq_trial(6.0, max_attempts=4, max_iterations=25, rng=rng)
        assert trial.success and trial.decode_attempts == 1
        assert trial.rate == pytest.approx(0.5)
        assert trial.delivered_rate == trial.rate

    def test_moderate_snr_uses_retransmissions(self, rng):
        # At -4 dB a single rate-1/2 BPSK frame fails, but chase combining of a
        # few repeats succeeds (combined SNR grows by 3 dB per doubling).
        trial = _harq_trial(-4.0, max_attempts=6, max_iterations=25, rng=rng)
        assert trial.success
        assert trial.decode_attempts > 1

    def test_failure_reports_zero_rate(self, rng):
        trial = _harq_trial(-15.0, max_attempts=1, max_iterations=10, rng=rng)
        assert not trial.success and not trial.payload_correct
        # The whole one-frame budget was spent and nothing was delivered.
        assert trial.symbols_sent == 648 and trial.decode_attempts == 1
        # ``rate`` credits the failed frame's bits; the delivered rate does not.
        assert trial.rate > 0 and trial.delivered_rate == 0.0

    def test_mean_rate_monotone_in_snr(self, rng):
        low = np.mean([_harq_trial(-6.0, 4, 20, rng).delivered_rate for _ in range(4)])
        high = np.mean([_harq_trial(6.0, 4, 20, rng).delivered_rate for _ in range(4)])
        assert high >= low


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
        systems = {
            config: FixedRateLdpcSystem(config, max_iterations=15, algorithm="min-sum")
            for config in configs
        }
        policy = calibrate_thresholds(
            configs,
            lambda config, snr_db: systems[config].frame_error_rate(snr_db, 8, rng),
            np.array([-2.0, 4.0, 10.0, 16.0]),
            target_frame_error_rate=0.1,
        )
        assert policy.configs == configs
        assert policy.thresholds[configs[0]] < policy.thresholds[configs[1]]

    def test_calibrate_takes_the_first_passing_snr_of_the_sorted_grid(self):
        configs = (LdpcConfig(Fraction(1, 2), "BPSK"), LdpcConfig(Fraction(5, 6), "QAM-64"))
        calls = []

        def fer(config, snr_db):
            calls.append((config, snr_db))
            # The first option passes from 5 dB up; the second never does.
            return 0.0 if config == configs[0] and snr_db >= 5.0 else 1.0

        policy = calibrate_thresholds(configs, fer, [12.0, 0.0, 6.0], 0.1)
        assert policy.thresholds == {configs[0]: 6.0, configs[1]: float("inf")}
        # Options in order, the grid ascending, stopping at the first pass.
        assert calls == [
            (configs[0], 0.0), (configs[0], 6.0),
            (configs[1], 0.0), (configs[1], 6.0), (configs[1], 12.0),
        ]

    @pytest.mark.parametrize(
        "grid, target, message",
        [
            ([0.0], 0.0, "target FER"),
            ([0.0], 1.0, "target FER"),
            ([], 0.1, "snr_grid_db"),
            ([[0.0, 1.0]], 0.1, "snr_grid_db"),
        ],
    )
    def test_calibrate_validation(self, grid, target, message):
        configs = (LdpcConfig(Fraction(1, 2), "BPSK"),)
        with pytest.raises(ValueError, match=message):
            calibrate_thresholds(configs, lambda config, snr_db: 0.0, grid, target)


def _repetition_trial(snr_db: float, n_bits: int, passes: int, rng: np.random.Generator):
    """QPSK repetition with soft combining, stopped after ``passes`` passes."""
    code = RepetitionCode(snr_db, n_bits, "QAM-4")
    session = CodecSession(
        code,
        AWGNChannel(snr_db=snr_db),
        termination="genie",
        max_symbols=passes * code.symbols_per_pass,
    )
    payload = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
    return payload, session.run(payload, rng)


class TestRepetition:
    def test_nominal_rate(self, rng):
        _, trial = _repetition_trial(-2.0, 4000, 4, rng)
        assert trial.symbols_sent == 4 * 2000
        assert trial.rate == pytest.approx(0.5)

    def test_ber_improves_with_repetitions(self, rng):
        payload, single = _repetition_trial(-2.0, 4000, 1, rng)
        single_ber = np.mean(single.decoded_payload != payload)
        payload, repeated = _repetition_trial(-2.0, 4000, 4, rng)
        assert np.mean(repeated.decoded_payload != payload) < single_ber

    def test_noiseless_transmission(self, rng):
        payload, trial = _repetition_trial(40.0, 200, 1, rng)
        assert trial.success and trial.decode_attempts == 1
        assert np.array_equal(trial.decoded_payload, payload)
        assert trial.rate == 2.0  # one QPSK pass: two bits per channel use

    def test_validation(self):
        with pytest.raises(ValueError):
            RepetitionCode(10.0, 3, "QAM-4")  # not a whole number of symbols
