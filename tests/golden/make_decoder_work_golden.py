"""Regenerate ``decoder_work.json``: per-attempt decoder work of seeded sessions.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_decoder_work_golden.py

Registry spinal trials store the decoder's ``candidates_explored`` (the
"tree nodes" columns of the k-sweep and scale-down tables), so the count
must not depend on how the engine caches work between attempts.  The
committed file was generated at the parent of the engine unification with
the since-deleted ``IncrementalBubbleDecoder`` in place of
``VectorizedBubbleDecoder``; this script, run with the vectorized engine,
must leave the file byte-unchanged (``tests/test_decoder_vectorized.py``
replays it).

Each case is one seeded rateless session with the registry's stream
labels: the smoke k-sweep and scale-down shapes, a low-SNR point, under
both the sequential and the bisection search and with and without the
14-bit ADC, plus one BSC session.  It records every decode attempt's
``candidates_explored`` along with the session outcome.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.core.decoder_vectorized import VectorizedBubbleDecoder
from repro.experiments.runner import _run_bisect, spinal_config_from_params, spinal_fixed
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.theory.capacity import awgn_capacity_db, bsc_capacity
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

GOLDEN_PATH = Path(__file__).parent / "decoder_work.json"
SEED = 20111114
_SMOKE = {"payload_bits": 16, "c": 6}


def case_params() -> list[dict]:
    """The seeded sessions, as registry-style parameter mappings."""
    cases = []
    for search in ("sequential", "bisect"):
        for adc_bits in (None, 14):
            common = dict(_SMOKE, search=search, adc_bits=adc_bits)
            for k in (2, 4):  # k-sweep smoke: B=8 at 15 dB, ideal rate k
                cases += [
                    dict(common, shape="k-sweep", k=k, beam_width=8, snr_db=15.0, trial=t)
                    for t in range(2)
                ]
            for beam in (1, 4):  # scale-down smoke: k=4 at 10 dB
                cases += [
                    dict(common, shape="scale-down", k=4, beam_width=beam, snr_db=10.0, trial=t)
                    for t in range(2)
                ]
            cases += [  # a long, churning session
                dict(common, shape="low-snr", k=4, beam_width=8, snr_db=-5.0, trial=t)
                for t in range(2)
            ]
    cases.append(
        dict(_SMOKE, shape="bsc", search="bisect", adc_bits=None, k=4,
             beam_width=8, bit_mode=True, p=0.05, trial=0)
    )
    return cases


def run_case(case: dict) -> dict:
    """One session; every decode attempt's work, plus the outcome."""
    config = spinal_config_from_params(spinal_fixed(**case))
    if case["shape"] == "bsc":
        channel = BSCChannel(case["p"])
        label = ("trial", case["p"], case["trial"])
        budget = config.symbol_budget(bsc_capacity(case["p"]))
    else:
        channel = AWGNChannel(case["snr_db"], adc_bits=config.adc_bits)
        if case["shape"] == "k-sweep":
            label = ("k-sweep", case["k"], case["trial"])
            budget = config.symbol_budget(ideal_rate=float(case["k"]))
        else:
            label = ("trial", case["snr_db"], case["trial"])
            budget = config.symbol_budget(awgn_capacity_db(case["snr_db"]))
    work: list[int] = []

    def factory(encoder):
        decoder = VectorizedBubbleDecoder(encoder, beam_width=config.beam_width)
        decode = decoder.decode

        def recording_decode(n_message_bits, observations):
            result = decode(n_message_bits, observations)
            work.append(int(result.candidates_explored))
            return result

        decoder.decode = recording_decode
        return decoder

    session = CodecSession(
        SpinalCode(config.build_encoder(), factory, config.build_framer()),
        channel,
        max_symbols=budget,
    )
    rng = spawn_rng(SEED, *label)
    payload = random_message_bits(config.payload_bits, rng)
    run = _run_bisect if case["search"] == "bisect" else CodecSession.run
    result = run(session, payload, rng)
    return {
        "case": {key: case[key] for key in sorted(case)},
        "symbols_sent": int(result.symbols_sent),
        "success": bool(result.success),
        "work": int(result.work),
        "attempts": work,
    }


def main() -> None:
    sessions = [json.dumps(run_case(case), sort_keys=True) for case in case_params()]
    GOLDEN_PATH.write_text(
        f'{{"seed": {SEED}, "sessions": [\n' + ",\n".join(sessions) + "\n]}\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
