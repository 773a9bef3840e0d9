"""Regenerate ``api_migration.json``: reference outputs of the session API and baselines.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_api_migration_golden.py

The committed file was generated at the commit *before* the ``repro.phy``
codec API landed, so it captures the pre-codec behaviour of the spinal
session, ``simulate_link_session``, ``HybridArqLdpcSystem.run_trial`` and
``FixedRateSpinalSystem``.  The migration test
(``tests/test_api_migration.py``) pins today's spellings to these numbers,
and running this script must leave the file byte-unchanged.  The spinal
trials keep their original field names: ``payload_bits`` is the session's
``credited_bits`` and ``candidates_explored`` its decoder ``work``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.baselines.fixed_rate_spinal import FixedRateSpinalSystem
from repro.baselines.hybrid_arq import HybridArqLdpcSystem
from repro.baselines.ldpc_system import LdpcConfig
from repro.core.decoder_incremental import IncrementalBubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.channels.awgn import AWGNChannel
from repro.fountain.lt import LTDecoder, LTEncoder
from repro.link.feedback import DelayedFeedback, PerfectFeedback
from repro.link.session import simulate_link_session
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

from fractions import Fraction

GOLDEN_PATH = Path(__file__).parent / "api_migration.json"
SEED = 20111114


def rateless_session_golden() -> dict:
    framer = Framer(payload_bits=16, k=4)
    code = SpinalCode(
        SpinalEncoder(SpinalParams(k=4, c=6)),
        lambda enc: IncrementalBubbleDecoder(enc, beam_width=8),
        framer,
    )
    session = CodecSession(
        code,
        AWGNChannel(snr_db=8.0, adc_bits=14),
        max_symbols=512,
        credited_bits=framer.framed_bits,
    )
    trials = []
    for trial in range(4):
        rng = spawn_rng(SEED, "api-golden", "rateless", trial)
        payload = random_message_bits(16, rng)
        result = session.run(payload, rng)
        trials.append(
            {
                "success": bool(result.success),
                "payload_correct": bool(result.payload_correct),
                "symbols_sent": int(result.symbols_sent),
                "payload_bits": int(result.credited_bits),
                "decode_attempts": int(result.decode_attempts),
                "candidates_explored": int(result.work),
                "decoded_payload": [int(b) for b in result.decoded_payload],
                "rate": result.rate,
            }
        )
    return {"trials": trials}


def link_session_golden() -> dict:
    needed = [30, 41, 52, 28]
    out = {}
    for name, feedback in (
        ("perfect", PerfectFeedback()),
        ("delayed-8", DelayedFeedback(delay_symbols=8)),
    ):
        result = simulate_link_session(needed, 16, feedback)
        out[name] = {
            "throughput": result.throughput_bits_per_symbol,
            "ideal": result.ideal_throughput_bits_per_symbol,
            "efficiency": result.feedback_efficiency,
            "mean_packet_symbols": result.mean_packet_symbols,
        }
    return out


def hybrid_arq_golden() -> dict:
    system = HybridArqLdpcSystem(
        LdpcConfig(Fraction(1, 2), "BPSK"),
        max_attempts=4,
        codeword_bits=120,
        max_iterations=10,
    )
    trials = []
    for trial in range(3):
        rng = spawn_rng(SEED, "api-golden", "harq", trial)
        result = system.run_trial(-2.0, rng)
        trials.append(
            {
                "success": bool(result.success),
                "attempts": int(result.attempts),
                "symbols_sent": int(result.symbols_sent),
                "message_bits": int(result.message_bits),
            }
        )
    return {"trials": trials}


def fixed_rate_spinal_golden() -> dict:
    system = FixedRateSpinalSystem(
        message_bits=16, n_passes=2, params=SpinalParams(k=4, c=6), beam_width=8
    )
    rng = spawn_rng(SEED, "api-golden", "fixed-rate")
    frames = []
    for _ in range(4):
        ok, wrong_bits = system.transmit_frame(3.0, rng)
        frames.append({"ok": bool(ok), "wrong_bits": int(wrong_bits)})
    measure_rng = spawn_rng(SEED, "api-golden", "fixed-rate-measure")
    measured = system.measure(3.0, 4, measure_rng)
    return {
        "frames": frames,
        "frame_error_rate": measured.frame_error_rate,
        "bit_error_rate": measured.bit_error_rate,
        "nominal_rate": system.nominal_rate,
    }


def lt_golden() -> dict:
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
    return {
        "symbols_consumed_to_complete": consumed,
        "decoded": [int(b) for b in decoder.data_bits()],
        "data": [int(b) for b in data],
    }


def main() -> None:
    golden = {
        "seed": SEED,
        "rateless_session": rateless_session_golden(),
        "link_session": link_session_golden(),
        "hybrid_arq": hybrid_arq_golden(),
        "fixed_rate_spinal": fixed_rate_spinal_golden(),
        "lt": lt_golden(),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
