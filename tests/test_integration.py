"""Integration tests: complete systems wired together across modules.

These exercise the same paths as the examples — spinal codes over
AWGN/BSC/fading channels with realistic framing and termination, compared
against theory and against the LDPC baseline — at reduced sizes so they
stay fast.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro import (
    AWGNChannel,
    BSCChannel,
    BubbleDecoder,
    CodecSession,
    CRC16_CCITT,
    Framer,
    MLDecoder,
    RayleighBlockFadingChannel,
    SpinalCode,
    SpinalEncoder,
    SpinalParams,
    TimeVaryingAWGNChannel,
)
from repro.baselines import FixedRateLdpcSystem, LdpcConfig
from repro.channels.traces import gilbert_elliott_trace
from repro.core.puncturing import TailFirstPuncturing
from repro.experiments.runner import _run_bisect
from repro.theory import awgn_capacity_db, bsc_capacity
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng


def spinal_session(encoder, channel, framer, max_symbols, **kwargs) -> CodecSession:
    """A beam-16 spinal session crediting the framed bits unless told otherwise."""
    code = SpinalCode(encoder, lambda enc: BubbleDecoder(enc, beam_width=16), framer)
    kwargs.setdefault("credited_bits", framer.framed_bits)
    return CodecSession(code, channel, max_symbols=max_symbols, **kwargs)


def run_trials(session, payload_bits, n_trials, seed, run=_run_bisect):
    """``n_trials`` trials, by default under the experiment runner's bisect search."""
    rng = spawn_rng(seed, "integration")
    results = []
    for _ in range(n_trials):
        payload = random_message_bits(payload_bits, rng)
        results.append(run(session, payload, rng))
    return results


class TestAwgnEndToEnd:
    def test_rate_tracks_capacity_across_snr(self):
        """The single spinal configuration adapts from 0 dB to 25 dB."""
        params = SpinalParams(k=4, c=8, seed=5)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        framer = Framer(payload_bits=16, k=4)
        rates = {}
        for snr_db in (0.0, 12.0, 25.0):
            session = spinal_session(
                encoder, AWGNChannel(snr_db=snr_db, adc_bits=14), framer, 1024
            )
            results = run_trials(session, 16, 10, seed=int(snr_db))
            assert all(r.payload_correct for r in results)
            rates[snr_db] = float(np.mean([r.rate for r in results]))
        assert rates[0.0] < rates[12.0] < rates[25.0]
        # Within a factor ~2 of capacity everywhere (usually much closer).
        for snr_db, rate in rates.items():
            assert rate > 0.4 * awgn_capacity_db(snr_db)

    def test_crc_framing_end_to_end(self):
        params = SpinalParams(k=4, c=8, seed=6)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        framer = Framer(payload_bits=24, k=4, crc=CRC16_CCITT, tail_segments=1)
        session = spinal_session(
            encoder,
            AWGNChannel(snr_db=12.0, adc_bits=14),
            framer,
            512,
            termination="self",
            credited_bits=framer.payload_bits,
        )
        results = run_trials(session, 24, 8, seed=42, run=CodecSession.run)
        assert all(r.success for r in results)
        assert all(r.payload_correct for r in results)
        # Rate counts only payload bits, so it is below the framed-bits rate.
        assert all(r.credited_bits == 24 for r in results)

    def test_ml_and_bubble_agree_end_to_end(self):
        """On easy channels the beam decoder reproduces the ML decision."""
        params = SpinalParams(k=4, c=8, seed=7)
        encoder = SpinalEncoder(params)
        rng = spawn_rng(3, "ml-vs-bubble")
        channel = AWGNChannel(snr_db=8.0)
        from repro.core.encoder import ReceivedObservations

        for _ in range(5):
            message = random_message_bits(12, rng)
            passes = encoder.encode_passes(message, 3)
            observations = ReceivedObservations(3)
            for pass_index in range(3):
                received = channel.transmit(passes[pass_index], rng)
                for position in range(3):
                    observations.add(position, pass_index, received[position])
            ml = MLDecoder(encoder).decode(12, observations)
            bubble = BubbleDecoder(encoder, beam_width=64).decode(12, observations)
            assert np.array_equal(ml.message_bits, bubble.message_bits)


class TestBscEndToEnd:
    def test_rate_close_to_bsc_capacity(self):
        params = SpinalParams(k=3, bit_mode=True, seed=8)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        framer = Framer(payload_bits=24, k=3)
        session = spinal_session(encoder, BSCChannel(0.1), framer, 4096)
        results = run_trials(session, 24, 10, seed=9)
        assert all(r.payload_correct for r in results)
        mean_rate = float(np.mean([r.rate for r in results]))
        assert mean_rate > 0.5 * bsc_capacity(0.1)
        assert mean_rate < 1.0


class TestTimeVaryingChannels:
    def test_fading_channel_delivery(self):
        params = SpinalParams(k=4, c=8, seed=10)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        framer = Framer(payload_bits=16, k=4)
        session = spinal_session(
            encoder,
            RayleighBlockFadingChannel(average_snr_db=15.0, coherence_symbols=8),
            framer,
            2048,
        )
        results = run_trials(session, 16, 8, seed=11)
        assert sum(r.payload_correct for r in results) >= 7

    def test_bursty_interference_trace(self):
        rng = spawn_rng(12, "trace")
        trace = gilbert_elliott_trace(22.0, -3.0, 512, rng)
        params = SpinalParams(k=4, c=8, seed=13)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        framer = Framer(payload_bits=16, k=4)
        session = spinal_session(
            encoder, TimeVaryingAWGNChannel(trace, adc_bits=14), framer, 512
        )
        results = run_trials(session, 16, 8, seed=14)
        assert sum(r.payload_correct for r in results) >= 6

    def test_rateless_beats_mismatched_fixed_rate(self):
        """A fixed-rate config picked for the good state collapses in the bad
        state; the rateless code keeps delivering (the paper's core argument)."""
        rng = spawn_rng(15, "mismatch")
        ldpc = FixedRateLdpcSystem(
            LdpcConfig(Fraction(3, 4), "QAM-16"), max_iterations=15, algorithm="min-sum"
        )
        bad_snr = 2.0
        ldpc_rate = ldpc.achieved_rate(bad_snr, n_frames=6, rng=rng)

        params = SpinalParams(k=4, c=8, seed=16)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        framer = Framer(payload_bits=16, k=4)
        session = spinal_session(
            encoder, AWGNChannel(snr_db=bad_snr, adc_bits=14), framer, 1024
        )
        results = run_trials(session, 16, 8, seed=17)
        spinal_rate = float(np.mean([r.rate for r in results]))
        assert spinal_rate > ldpc_rate
