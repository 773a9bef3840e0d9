"""Helpers shared by the benchmark modules (fidelity knobs via environment).

Environment variables control the fidelity/runtime trade-off:

* ``REPRO_BENCH_TRIALS`` — Monte-Carlo trials per grid cell of the
  registry-sweep benchmarks (each benchmark passes its own default).
* ``REPRO_BENCH_WORKERS`` — worker processes for the registry-sweep
  benchmarks (default 2; per-trial seeding keeps results identical for any
  count).
* ``REPRO_BENCH_SMOKE`` — set to ``1`` for a fast CI smoke run: every knob
  above collapses to its minimum useful value.
"""

from __future__ import annotations

import os

__all__ = ["bench_trials", "bench_workers", "bench_smoke"]


def bench_smoke() -> bool:
    """Whether the suite runs in CI smoke mode (minimum fidelity, fast)."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def bench_trials(default: int = 30) -> int:
    """Number of Monte-Carlo trials per grid cell."""
    if bench_smoke():
        default = min(default, 3)
    return int(os.environ.get("REPRO_BENCH_TRIALS", default))


def bench_workers(default: int = 2) -> int:
    """Worker processes for registry-sweep benchmarks."""
    if bench_smoke():
        default = min(default, 2)
    return int(os.environ.get("REPRO_BENCH_WORKERS", default))
