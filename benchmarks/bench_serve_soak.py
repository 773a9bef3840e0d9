"""Serve-soak benchmarks: the async session service under sustained load.

Two claims of the serving-at-scale layer are checked here:

* serving **256 concurrent spinal sessions** through the batched decode
  engine yields a **byte-identical delivery log** to the one-session-at-a-
  time sequential driver (the same engine with ``batching=False``:
  identical event schedule, identical kernels, decode batches of one), and
  per-session outcomes equal to plain ``CodecSession.run`` of each packet
  alone.  The wall-clock ratio between the two drivers is reported, not
  pinned: the throughput record is the perfbench ``serve-soak`` workload;
* at smoke scale the engine sustains a deterministic symbol-time throughput
  floor and p99 delivery-latency ceiling, every session delivers, and the
  backpressure bound is never exceeded.  These metrics live on the event
  clock, so the pins hold even on noisy CI machines; the summary is written
  to ``serve_soak_summary.json`` at the repository root for the CI
  ``serve-soak-smoke`` job to archive.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the soak; the correctness
claims (byte-identical logs, baseline outcome equality) are asserted at
every scale.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import replace

from _bench_utils import bench_smoke

from repro.obs import NullTelemetry, Telemetry, set_current, write_all
from repro.serve import SoakConfig, SoakEngine, run_sequential_baseline

_SEED = 20111114
#: Guard on the cost of leaving instrumentation in the hot paths: with the
#: sink disabled, the seams may cost at most this fraction of a smoke soak.
_MAX_DISABLED_OVERHEAD = 0.02
#: Smoke-mode deterministic floor on sustained throughput (symbols per tick).
_MIN_SYMBOLS_PER_TICK = 4.0
#: Smoke-mode deterministic ceiling on p99 delivery latency (ticks).
_MAX_P99_LATENCY = 64.0
#: Conservative wall-clock sanity floor (symbols per second, any machine).
_MIN_SYMBOLS_PER_SECOND = 200.0

_SUMMARY_PATH = pathlib.Path(__file__).resolve().parent.parent / "serve_soak_summary.json"
_TELEMETRY_DIR = pathlib.Path(__file__).resolve().parent.parent / "serve_soak_telemetry"

#: The full soak workload: long sessions (low SNR, 24-bit payloads) keep the
#: decode stage the dominant cost, and a wide admission window keeps the
#: decode batches large.
_FULL_CONFIG = SoakConfig(
    n_sessions=256,
    max_in_flight=128,
    snr_db=2.0,
    seed=_SEED,
    payload_bits=24,
    k=4,
    c=6,
    beam_width=8,
    max_symbols=512,
)
_SMOKE_CONFIG = SoakConfig(
    n_sessions=32,
    max_in_flight=8,
    snr_db=8.0,
    seed=_SEED,
    payload_bits=16,
    k=4,
    c=6,
    beam_width=8,
    max_symbols=512,
)


def _outcomes_from_baseline(results) -> list[tuple[int, int, int, bool, bool]]:
    """Shape ``run_sequential_baseline`` results like ``SoakResult.outcomes``."""
    return [
        (r.symbols_sent, r.symbols_sent, r.decode_attempts, r.success, r.payload_correct)
        for r in results
    ]


def test_serve_soak_batched_vs_sequential_driver(benchmark, reporter):
    """Byte-identical log vs the one-at-a-time driver; wall-clock ratio reported."""
    smoke = bench_smoke()
    config = _SMOKE_CONFIG if smoke else _FULL_CONFIG
    batched_engine = SoakEngine(config)
    sequential_engine = SoakEngine(replace(config, batching=False))

    def measure():
        start = time.perf_counter()
        batched = batched_engine.run()
        batched_s = time.perf_counter() - start
        start = time.perf_counter()
        sequential = sequential_engine.run()
        sequential_s = time.perf_counter() - start
        return batched, batched_s, sequential, sequential_s

    batched, batched_s, sequential, sequential_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # Correctness is asserted at every scale: the two drivers must produce
    # the same bytes, and both must reproduce the plain per-session loop.
    assert batched.delivery_log_json() == sequential.delivery_log_json()
    baseline = _outcomes_from_baseline(run_sequential_baseline(config))
    assert batched.outcomes() == baseline

    ratio = sequential_s / batched_s
    reporter.add(
        f"Serve soak — {config.n_sessions} sessions, in-flight "
        f"{config.max_in_flight}, {config.snr_db:g} dB",
        f"batched driver    {batched_s * 1e3:8.1f} ms  "
        f"({batched.total_symbols / batched_s:,.0f} symbols/s, "
        f"mean decode batch {batched.mean_batch_sessions:.1f})\n"
        f"sequential driver {sequential_s * 1e3:8.1f} ms  "
        f"({sequential.total_symbols / sequential_s:,.0f} symbols/s)\n"
        f"speedup {ratio:.2f}x",
    )


def test_serve_soak_sustained_metrics(benchmark, reporter):
    """Deterministic throughput floor and p99 ceiling; JSON artifact."""
    smoke = bench_smoke()
    config = _SMOKE_CONFIG if smoke else _FULL_CONFIG
    engine = SoakEngine(config)

    def measure():
        start = time.perf_counter()
        result = engine.run()
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(measure, rounds=1, iterations=1)
    summary = result.summary(elapsed_s=elapsed)
    _SUMMARY_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    reporter.add(
        f"Serve soak sustained metrics — {config.n_sessions} sessions at "
        f"{config.snr_db:g} dB",
        "\n".join(f"{key:>20}: {value}" for key, value in summary.items()),
    )

    # Backpressure and delivery invariants hold at any scale.
    assert result.peak_in_flight <= config.max_in_flight
    assert result.delivered_fraction == 1.0, (
        f"only {result.n_delivered}/{config.n_sessions} sessions delivered"
    )
    # The symbol-time metrics are deterministic functions of the config, so
    # the floor/ceiling pins are meaningful even on noisy CI machines (the
    # margins absorb tie-break drift across numpy versions).
    if smoke:
        assert summary["symbols_per_tick"] >= _MIN_SYMBOLS_PER_TICK, summary
        assert summary["p99_latency"] <= _MAX_P99_LATENCY, summary
    assert summary["symbols_per_second"] >= _MIN_SYMBOLS_PER_SECOND, summary


class _CountingNull(NullTelemetry):
    """A disabled sink that counts every seam touch.

    Hot paths read ``enabled`` once per seam; cold seams call the no-op
    methods directly.  Both register here as one touch, so ``touches`` is
    an upper bound on the per-run work the disabled path adds.
    """

    __slots__ = ("touches",)

    def __init__(self) -> None:
        self.touches = 0

    @property
    def enabled(self) -> bool:
        self.touches += 1
        return False

    def counter(self, name, value=1, **labels):
        self.touches += 1

    def gauge(self, name, value, **labels):
        self.touches += 1

    def observe(self, name, value, **labels):
        self.touches += 1

    def span(self, name, **labels):
        self.touches += 1
        return super().span(name)

    def bind_clock(self, clock):
        self.touches += 1


def test_serve_soak_disabled_telemetry_overhead(reporter):
    """Disabled-sink seams cost <= 2% of a smoke soak's wall-clock.

    Timing an on/off pair directly would drown the signal in machine noise,
    so the guard is computed: count the seam touches one soak performs
    (counting sink), microbenchmark the per-touch cost of the disabled
    path, and pin ``touches * per_touch`` against the measured soak time.
    """
    config = _SMOKE_CONFIG
    reference = SoakEngine(config).run()
    soak_s = min(
        _timed(lambda: SoakEngine(config).run())[1] for _ in range(3)
    )

    counting = _CountingNull()
    previous = set_current(counting)
    try:
        counted = SoakEngine(config).run()
    finally:
        set_current(previous)
    # The counting sink is still a *disabled* sink: same bytes out.
    assert counted.delivery_log_json() == reference.delivery_log_json()

    null = NullTelemetry()
    n = 200_000
    start = time.perf_counter()
    for _ in range(n):
        if null.enabled:  # the hot-guard shape
            pass
        null.counter("x", 1, hop=0)  # the cold-seam shape
    per_touch = (time.perf_counter() - start) / (2 * n)

    overhead_s = counting.touches * per_touch
    fraction = overhead_s / soak_s
    reporter.add(
        f"Disabled-telemetry overhead — {config.n_sessions}-session smoke soak",
        f"seam touches       {counting.touches}\n"
        f"per-touch cost     {per_touch * 1e9:.0f} ns\n"
        f"estimated overhead {overhead_s * 1e6:.0f} us of {soak_s * 1e3:.1f} ms "
        f"({fraction * 100:.3f}%, pin <= {_MAX_DISABLED_OVERHEAD * 100:.0f}%)",
    )
    assert fraction <= _MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry costs {fraction * 100:.2f}% of the soak "
        f"({counting.touches} touches x {per_touch * 1e9:.0f} ns vs "
        f"{soak_s * 1e3:.1f} ms)"
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_serve_soak_telemetry_profile(reporter):
    """Telemetry-on soak: byte-identical log, exported stage profile."""
    smoke = bench_smoke()
    config = _SMOKE_CONFIG if smoke else _FULL_CONFIG
    off = SoakEngine(config).run()

    telemetry = Telemetry()
    previous = set_current(telemetry)
    try:
        on, on_s = _timed(lambda: SoakEngine(config).run())
    finally:
        set_current(previous)
    assert off.delivery_log_json() == on.delivery_log_json()

    paths = write_all(telemetry, _TELEMETRY_DIR)
    decode_us = sum(
        s["dur_us"] for s in telemetry.spans if s["name"] == "serve.decode_batch"
    )
    reporter.add(
        f"Serve soak stage profile — {config.n_sessions} sessions "
        f"(telemetry on, byte-identical log)",
        f"soak wall-clock   {on_s * 1e3:8.1f} ms\n"
        f"decode-batch span {decode_us / 1e3:8.1f} ms over "
        f"{len(telemetry.spans)} batches "
        f"({decode_us / 1e3 / (on_s * 1e3) * 100:.0f}% of wall-clock)\n"
        f"exported: {paths['jsonl']}",
    )
