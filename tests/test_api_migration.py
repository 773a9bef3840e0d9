"""Migration pins: the codec session API reproduces the pre-codec numbers.

``tests/golden/api_migration.json`` was generated at the commit *before*
the ``repro.phy`` codec API landed (see ``make_api_migration_golden.py``),
so these tests prove the redesign's core promise: a spinal
:class:`~repro.phy.session.CodecSession`, ``simulate_link_session``, a
whole-codeword :class:`~repro.phy.ldpc_ir.LdpcIrCode` session (Chase HARQ)
and :class:`~repro.phy.fixed_rate.FixedRateSpinalCode` sessions produce
exactly the bytes the pre-codec session, link accounting and baselines
produced.  The golden file keeps its original field names:
``payload_bits`` is the session's ``credited_bits`` and
``candidates_explored`` its decoder ``work``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.core.decoder_vectorized import VectorizedBubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.fountain.lt import LTDecoder, LTEncoder
from repro.link.feedback import DelayedFeedback, PerfectFeedback
from repro.link.session import simulate_link_session
from repro.phy.fixed_rate import FixedRateSpinalCode, measure_error_rates
from repro.phy.ldpc_ir import LdpcIrCode
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "api_migration.json").read_text()
)
SEED = GOLDEN["seed"]


def _spinal_session() -> CodecSession:
    framer = Framer(payload_bits=16, k=4)
    code = SpinalCode(
        SpinalEncoder(SpinalParams(k=4, c=6)),
        lambda enc: VectorizedBubbleDecoder(enc, beam_width=8),
        framer,
    )
    return CodecSession(
        code,
        AWGNChannel(snr_db=8.0, adc_bits=14),
        max_symbols=512,
        credited_bits=framer.framed_bits,
    )


class TestSpinalSession:
    def test_codec_session_matches_the_golden(self):
        session = _spinal_session()
        for trial, golden in enumerate(GOLDEN["rateless_session"]["trials"]):
            rng = spawn_rng(SEED, "api-golden", "rateless", trial)
            payload = random_message_bits(16, rng)
            result = session.run(payload, rng)
            assert result.success == golden["success"]
            assert result.payload_correct == golden["payload_correct"]
            assert result.symbols_sent == golden["symbols_sent"]
            assert result.credited_bits == golden["payload_bits"]
            assert result.decode_attempts == golden["decode_attempts"]
            assert result.work == golden["candidates_explored"]
            assert [int(b) for b in result.decoded_payload] == golden["decoded_payload"]
            assert result.rate == golden["rate"]


class TestLinkSession:
    def test_simulate_link_session_matches_golden(self):
        needed = [30, 41, 52, 28]
        for name, feedback in (
            ("perfect", PerfectFeedback()),
            ("delayed-8", DelayedFeedback(delay_symbols=8)),
        ):
            golden = GOLDEN["link_session"][name]
            result = simulate_link_session(needed, 16, feedback)
            assert result.throughput_bits_per_symbol == golden["throughput"]
            assert result.ideal_throughput_bits_per_symbol == golden["ideal"]
            assert result.feedback_efficiency == golden["efficiency"]
            assert result.mean_packet_symbols == golden["mean_packet_symbols"]


class TestBaselines:
    def test_hybrid_arq_matches_golden(self):
        code = LdpcIrCode(-2.0, Fraction(1, 2), 120, "BPSK", max_iterations=10)
        session = CodecSession(
            code, AWGNChannel(snr_db=-2.0), termination="genie", max_symbols=4 * code.code.n
        )
        for trial, golden in enumerate(GOLDEN["hybrid_arq"]["trials"]):
            rng = spawn_rng(SEED, "api-golden", "harq", trial)
            message = rng.integers(0, 2, size=code.code.k, dtype=np.uint8)
            result = session.run(message, rng)
            assert result.success == golden["success"]
            assert result.decode_attempts == golden["attempts"]
            assert result.symbols_sent == golden["symbols_sent"]
            assert code.code.k == golden["message_bits"]

    def test_fixed_rate_spinal_matches_golden(self):
        code = FixedRateSpinalCode(16, n_passes=2, params=SpinalParams(k=4, c=6), beam_width=8)
        session = CodecSession(
            code,
            AWGNChannel(snr_db=3.0, signal_power=code.params.average_power, adc_bits=14),
            termination="genie",
            max_symbols=code.info.symbols_per_frame,
        )
        rng = spawn_rng(SEED, "api-golden", "fixed-rate")
        for golden in GOLDEN["fixed_rate_spinal"]["frames"]:
            message = random_message_bits(16, rng)
            result = session.run(message, rng)
            wrong_bits = int(np.count_nonzero(result.decoded_payload != message))
            assert (wrong_bits == 0) == golden["ok"]
            assert wrong_bits == golden["wrong_bits"]
        measure_rng = spawn_rng(SEED, "api-golden", "fixed-rate-measure")
        fer, ber = measure_error_rates(code, 3.0, 4, measure_rng)
        assert fer == GOLDEN["fixed_rate_spinal"]["frame_error_rate"]
        assert ber == GOLDEN["fixed_rate_spinal"]["bit_error_rate"]
        assert code.nominal_rate == GOLDEN["fixed_rate_spinal"]["nominal_rate"]


class TestLtGolden:
    def test_pre_success_decode_path_unchanged(self):
        """The post-success no-op fix must not move the success point."""
        rng = spawn_rng(SEED, "api-golden", "lt")
        data = rng.integers(0, 2, size=24, dtype=np.uint8)
        encoder = LTEncoder(data, block_bits=6, seed=7)
        decoder = LTDecoder(n_blocks=encoder.n_blocks, block_bits=6)
        consumed = 0
        for symbol in encoder.stream():
            decoder.add_symbol(symbol)
            consumed += 1
            if decoder.is_complete:
                break
        golden = GOLDEN["lt"]
        assert consumed == golden["symbols_consumed_to_complete"]
        assert [int(b) for b in decoder.data_bits()] == golden["decoded"]
        assert [int(b) for b in data] == golden["data"]

