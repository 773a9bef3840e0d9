"""Unit tests for the spinal rateless session (sender/channel/receiver loop).

Sessions are :class:`CodecSession` over a :class:`SpinalCode`; the
``"bisect"`` search cases drive the experiment runner's bisect search over
the same session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.core.crc import CRC16_CCITT
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.core.puncturing import TailFirstPuncturing
from repro.experiments.runner import SpinalRunConfig, _run_bisect
from repro.phy.session import CodecResult, CodecSession
from repro.phy.spinal import SpinalCode
from repro.utils.bitops import random_message_bits


def make_session(
    channel=None,
    params=None,
    puncturing=None,
    framer=None,
    max_symbols: int = 512,
) -> CodecSession:
    """A small AWGN spinal session used across this module."""
    params = params if params is not None else SpinalParams(k=4, c=6, seed=11)
    framer = framer if framer is not None else Framer(payload_bits=16, k=params.k)
    code = SpinalCode(
        SpinalEncoder(params, puncturing=puncturing),
        lambda enc: BubbleDecoder(enc, beam_width=8),
        framer,
    )
    channel = channel if channel is not None else AWGNChannel(snr_db=10.0, adc_bits=14)
    return CodecSession(
        code, channel, max_symbols=max_symbols, credited_bits=framer.framed_bits
    )


def run(session: CodecSession, search: str, payload, rng) -> CodecResult:
    """One trial under ``search``: the session loop or the runner's bisect."""
    if search == "bisect":
        return _run_bisect(session, payload, rng)
    return session.run(payload, rng)


class TestResult:
    def test_rate_computation(self):
        session = make_session()
        rng = np.random.default_rng(0)
        trial = session.run(random_message_bits(16, rng), rng)
        assert trial.rate == pytest.approx(trial.credited_bits / trial.symbols_sent)

    def test_high_snr_trial_succeeds(self):
        session = make_session(channel=AWGNChannel(snr_db=20.0))
        rng = np.random.default_rng(1)
        trial = session.run(random_message_bits(16, rng), rng)
        assert trial.success and trial.payload_correct
        assert trial.decode_attempts >= 1
        assert trial.work > 0

    def test_rate_undefined_without_symbols(self):
        trial = CodecResult(
            success=False,
            payload_correct=False,
            symbols_sent=0,
            credited_bits=16,
            decode_attempts=0,
            work=0,
            decoded_payload=np.zeros(16, dtype=np.uint8),
        )
        with pytest.raises(ValueError):
            trial.rate


class TestTermination:
    def test_genie_always_correct_when_successful(self):
        session = make_session()
        rng = np.random.default_rng(2)
        for _ in range(5):
            trial = session.run(random_message_bits(16, rng), rng)
            if trial.success:
                assert trial.payload_correct

    @staticmethod
    def _crc_session(count_overhead: bool) -> CodecSession:
        config = SpinalRunConfig(
            payload_bits=16,
            params=SpinalParams(k=4, c=6, seed=11),
            beam_width=8,
            puncturing="none",
            crc=CRC16_CCITT,
            termination="crc",
            count_overhead=count_overhead,
        )
        return config.build_session(AWGNChannel(snr_db=15.0), max_symbols=512)

    def test_crc_termination_with_overhead_accounting(self):
        session = self._crc_session(count_overhead=True)
        assert session.termination == "self"
        rng = np.random.default_rng(3)
        trial = session.run(random_message_bits(16, rng), rng)
        assert trial.success
        # Overhead counted: credited bits are only the 16 payload bits.
        assert trial.credited_bits == 16

    def test_without_overhead_accounting_credits_framed_bits(self):
        session = self._crc_session(count_overhead=False)
        rng = np.random.default_rng(4)
        trial = session.run(random_message_bits(16, rng), rng)
        assert trial.credited_bits == session.code.framer.framed_bits
        assert trial.credited_bits > 16

    def test_budget_exhaustion_reports_failure(self):
        # At -15 dB with only 2 passes worth of budget, decoding must fail.
        session = make_session(channel=AWGNChannel(snr_db=-15.0), max_symbols=8)
        rng = np.random.default_rng(5)
        trial = session.run(random_message_bits(16, rng), rng)
        assert not trial.success
        assert trial.symbols_sent >= 8


class TestSearchStrategies:
    @pytest.mark.parametrize("search", ["sequential", "bisect"])
    def test_both_strategies_decode(self, search):
        session = make_session(channel=AWGNChannel(snr_db=12.0))
        rng = np.random.default_rng(6)
        trial = run(session, search, random_message_bits(16, rng), rng)
        assert trial.success and trial.payload_correct

    def test_bisect_and_sequential_agree_on_identical_noise(self):
        """With the same RNG stream, both searches see identical channel output
        and must stop at the same subpass boundary."""
        for seed in range(4):
            results = {}
            for search in ("sequential", "bisect"):
                session = make_session(channel=AWGNChannel(snr_db=14.0))
                rng = np.random.default_rng(100 + seed)
                payload = random_message_bits(16, np.random.default_rng(seed))
                results[search] = run(session, search, payload, rng).symbols_sent
            assert results["sequential"] == results["bisect"]

    def test_bisect_uses_fewer_attempts_at_low_snr(self):
        payload = random_message_bits(16, np.random.default_rng(0))
        trials = {
            search: run(
                make_session(channel=AWGNChannel(snr_db=-5.0), max_symbols=2048),
                search,
                payload,
                np.random.default_rng(7),
            )
            for search in ("sequential", "bisect")
        }
        assert trials["bisect"].decode_attempts < trials["sequential"].decode_attempts


class TestPuncturedSessions:
    def test_tail_first_can_exceed_k(self):
        """At very high SNR, puncturing lifts the rate above k bits/symbol."""
        session = make_session(
            puncturing=TailFirstPuncturing(), channel=AWGNChannel(snr_db=35.0)
        )
        rng = np.random.default_rng(8)
        rates = [
            _run_bisect(session, random_message_bits(16, rng), rng).rate
            for _ in range(10)
        ]
        assert max(rates) > 4.0  # k = 4


class TestBscSessions:
    def test_bit_mode_over_bsc(self):
        params = SpinalParams(k=3, bit_mode=True, seed=21)
        session = make_session(
            channel=BSCChannel(0.05),
            params=params,
            framer=Framer(payload_bits=12, k=3),
            max_symbols=4096,
        )
        rng = np.random.default_rng(9)
        trial = session.run(random_message_bits(12, rng), rng)
        assert trial.success and trial.payload_correct


class TestValidation:
    def test_rejects_domain_mismatch(self):
        with pytest.raises(ValueError):
            make_session(channel=BSCChannel(0.1))

    def test_rejects_framer_k_mismatch(self):
        with pytest.raises(ValueError):
            make_session(framer=Framer(payload_bits=16, k=8))

    def test_rejects_bad_search_and_budget(self):
        with pytest.raises(ValueError, match="search"):
            SpinalRunConfig(search="ternary")
        with pytest.raises(ValueError):
            make_session(max_symbols=0)

    def test_rejects_bad_termination(self):
        with pytest.raises(ValueError, match="termination"):
            SpinalRunConfig(termination="oracle")
