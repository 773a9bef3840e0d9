"""Codec-session benchmark: the cross-family session cost landscape.

The generic :class:`~repro.phy.session.CodecSession` loop stays cheap across
families: its per-block bookkeeping (gating, status recording) is amortised
by the whole-block batching the encoders provide.
"""

from __future__ import annotations

import time

from _bench_utils import bench_smoke

from repro.phy.families import CODE_FAMILY_NAMES, make_codec_session
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

_SEED = 20111114


def test_all_families_session_cost(benchmark, reporter):
    """One successful session per family: the cross-family cost landscape."""
    n_trials = 2 if bench_smoke() else 10
    rows = []

    def measure():
        rows.clear()
        for family in CODE_FAMILY_NAMES:
            session = make_codec_session(
                family, snr_db=10.0, seed=_SEED, smoke=True, max_symbols=4096
            )
            start = time.perf_counter()
            delivered = 0
            for trial in range(n_trials):
                rng = spawn_rng(_SEED, "bench-family", family, trial)
                payload = random_message_bits(session.payload_bits, rng)
                result = session.run(payload, rng)
                delivered += int(result.payload_correct)
            elapsed = (time.perf_counter() - start) / n_trials
            rows.append((family, elapsed, delivered, n_trials))
        return rows

    benchmark.pedantic(measure, rounds=1, iterations=1)
    for family, elapsed, delivered, total in rows:
        assert delivered == total, f"{family} failed at 10 dB in the benchmark"
    table = "\n".join(
        f"{family:13s} {elapsed * 1e3:8.2f} ms/trial ({delivered}/{total} correct)"
        for family, elapsed, delivered, total in rows
    )
    reporter.add("Codec session cost per family (smoke configs, 10 dB)", table)
