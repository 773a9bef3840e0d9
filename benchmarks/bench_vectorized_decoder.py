"""Vectorized decoder benchmarks: wall-clock speedup and batched decoding.

Two acceptance claims of the vectorized-engine PR are pinned here:

* at the paper's Figure-2 operating configuration (24-bit messages, k=8,
  c=10, B=16, tail-first puncturing, 14-bit ADC) the whole-beam array
  engine spends **>= 10x less decode wall-clock** per rateless session than
  the from-scratch :class:`BubbleDecoder`, with bit-identical trial
  outcomes.  The margin grows with session length (the from-scratch
  decoder's total work is quadratic in the number of decode attempts), so
  the pin is taken at a low SNR where sessions are long.
* :class:`BatchDecoder` shows **superlinear per-session gains**: decoding
  8 concurrent sessions through the stacked kernels costs measurably less
  wall-clock than decoding the same 8 sessions one at a time, again with
  bit-identical results per session.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks both experiments and asserts
correctness only — CI machines are too noisy for wall-clock ratio pins.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_utils import bench_smoke

from repro.channels.awgn import AWGNChannel
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.decoder_vectorized import BatchDecoder, VectorizedBubbleDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.params import SpinalParams
from repro.experiments.runner import SpinalRunConfig
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.theory.capacity import awgn_capacity_db
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

_SEED = 20111114
#: Full-mode acceptance: vectorized decode wall-clock at the Figure-2 point.
_MIN_SESSION_SPEEDUP = 10.0
#: Full-mode acceptance: 8-session batch vs the same sessions one at a time.
_MAX_BATCH_FRACTION = 0.75


class _TimedDecoder:
    """Forwarding wrapper accumulating wall-clock spent inside ``decode``."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0

    def decode(self, n_message_bits, observations):
        start = time.perf_counter()
        result = self.inner.decode(n_message_bits, observations)
        self.seconds += time.perf_counter() - start
        return result

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _run_session_trials(engine_cls, snr_db: float, n_trials: int):
    """Decode-time and outcomes of ``n_trials`` Figure-2 rateless sessions."""
    config = SpinalRunConfig()
    times, outcomes = [], []
    for trial in range(n_trials):
        timed: list[_TimedDecoder] = []

        def factory(encoder):
            timed.append(_TimedDecoder(engine_cls(encoder, beam_width=config.beam_width)))
            return timed[-1]

        session = CodecSession(
            SpinalCode(config.build_encoder(), factory, config.build_framer()),
            AWGNChannel(snr_db=snr_db, signal_power=1.0, adc_bits=config.adc_bits),
            max_symbols=config.symbol_budget(awgn_capacity_db(snr_db)),
        )
        rng = spawn_rng(config.seed, "trial", snr_db, trial)
        payload = random_message_bits(config.payload_bits, rng)
        result = session.run(payload, rng)
        times.append(sum(t.seconds for t in timed))
        outcomes.append(
            (result.symbols_sent, result.decode_attempts, result.payload_correct)
        )
    return times, outcomes


def test_vectorized_session_speedup_at_figure2_point(benchmark, reporter):
    """>= 10x less decode wall-clock than BubbleDecoder, same outcomes."""
    smoke = bench_smoke()
    snr_db = -5.0 if smoke else -15.0
    n_trials = 1 if smoke else 3

    def measure():
        bubble_times, bubble_outcomes = _run_session_trials(
            BubbleDecoder, snr_db, n_trials
        )
        vec_times, vec_outcomes = _run_session_trials(
            VectorizedBubbleDecoder, snr_db, n_trials
        )
        return bubble_times, bubble_outcomes, vec_times, vec_outcomes

    bubble_times, bubble_outcomes, vec_times, vec_outcomes = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    assert vec_outcomes == bubble_outcomes, (vec_outcomes, bubble_outcomes)
    ratio = sum(bubble_times) / sum(vec_times)
    rows = "\n".join(
        f"trial {i}: {symbols:5d} symbols  bubble {tb * 1e3:8.1f} ms  "
        f"vectorized {tv * 1e3:7.1f} ms  ratio {tb / tv:5.2f}x"
        for i, ((symbols, _a, _c), tb, tv) in enumerate(
            zip(bubble_outcomes, bubble_times, vec_times)
        )
    )
    reporter.add(
        f"Vectorized engine decode wall-clock — Figure-2 config at {snr_db:g} dB",
        f"{rows}\ntotal ratio {ratio:.2f}x"
        + ("" if smoke else f" (pin >= {_MIN_SESSION_SPEEDUP:.0f}x)"),
    )
    if not smoke:
        assert ratio >= _MIN_SESSION_SPEEDUP, (
            f"vectorized engine is only {ratio:.2f}x faster than BubbleDecoder "
            f"at {snr_db:g} dB (pin {_MIN_SESSION_SPEEDUP:.0f}x): "
            f"{sum(bubble_times):.3f}s vs {sum(vec_times):.3f}s over {n_trials} trials"
        )


def _batch_inputs(n_sessions: int, n_subpasses: int):
    """Independent same-shape sessions (distinct seeds) with observations."""
    params = SpinalParams(k=4, c=6)
    encoders = [
        SpinalEncoder(params.with_(seed=1000 + i)) for i in range(n_sessions)
    ]
    channel = AWGNChannel(snr_db=2.0, signal_power=1.0)
    rng = spawn_rng(_SEED, "batch-bench")
    stores = []
    for encoder in encoders:
        message = random_message_bits(16, rng)
        stream = encoder.symbol_stream(message)
        observations = ReceivedObservations(4)
        for _ in range(n_subpasses):
            block = next(stream)
            observations.add_block(block, channel.transmit(block.values, rng))
        stores.append(observations)
    return encoders, stores


def test_batch_decoder_superlinear_per_session_gain(benchmark, reporter):
    """8 sessions batched beat the same 8 decoded one at a time."""
    smoke = bench_smoke()
    n_sessions, n_subpasses = 8, 8
    repeats, rounds = (3, 2) if smoke else (20, 5)
    encoders, stores = _batch_inputs(n_sessions, n_subpasses)
    batch = BatchDecoder(encoders, beam_width=8)
    singles = [BatchDecoder([e], beam_width=8) for e in encoders]

    # Correctness first (and kernel warm-up): both paths must be bit-exact
    # with the from-scratch reference on every session.
    batched_results = batch.decode_all(16, stores)
    single_results = [
        d.decode_all(16, [s])[0] for d, s in zip(singles, stores)
    ]
    for encoder, observations, from_batch, from_single in zip(
        encoders, stores, batched_results, single_results
    ):
        reference = BubbleDecoder(encoder, beam_width=8).decode(16, observations)
        for result in (from_batch, from_single):
            assert np.array_equal(result.message_bits, reference.message_bits)
            assert result.path_cost == reference.path_cost
            assert result.beam_trace == reference.beam_trace

    def measure():
        batched, single = [], []
        for _ in range(rounds):  # interleave so load drift hits both alike
            start = time.perf_counter()
            for _ in range(repeats):
                batch.decode_all(16, stores)
            batched.append((time.perf_counter() - start) / repeats)
            start = time.perf_counter()
            for _ in range(repeats):
                for decoder, observations in zip(singles, stores):
                    decoder.decode_all(16, [observations])
            single.append((time.perf_counter() - start) / repeats)
        return float(np.median(batched)), float(np.median(single))

    batched_s, single_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    fraction = batched_s / single_s
    reporter.add(
        f"BatchDecoder — {n_sessions} sessions stacked vs one at a time (k=4)",
        f"batched  {batched_s * 1e3:7.2f} ms  ({batched_s / n_sessions * 1e3:6.3f} ms/session)\n"
        f"single   {single_s * 1e3:7.2f} ms  ({single_s / n_sessions * 1e3:6.3f} ms/session)\n"
        f"batched/single {fraction:.2f}"
        + ("" if smoke else f" (pin <= {_MAX_BATCH_FRACTION:.2f})"),
    )
    if not smoke:
        assert fraction <= _MAX_BATCH_FRACTION, (
            f"batched decode of {n_sessions} sessions costs {fraction:.2f}x the "
            f"one-at-a-time cost (pin {_MAX_BATCH_FRACTION:.2f}): "
            f"{batched_s * 1e3:.2f} ms vs {single_s * 1e3:.2f} ms"
        )
