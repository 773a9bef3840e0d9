"""E16/E17: multi-user cell sweeps — scale, scheduling gain, rateless win.

Three pins on the new MAC layer:

* a 16-user round-robin cell sweep (the cell-scaling experiment at its
  largest user count) completes within the smoke budget — the cell
  simulator's cost grows with traffic, not with users², and CI notices if
  that regresses;
* on *static* spread SNRs every work-conserving scheduler drains the same
  backlog in the same airtime, so max-SNR aggregate goodput is >= (in fact
  ==) round-robin — the null result that validates the shared-medium
  accounting;
* on *wall-clock-varying* channels (anti-phase sinusoidal traces pinned to
  the cell clock) opportunism is strictly profitable: max-SNR full-buffer
  throughput beats round-robin.
"""

from __future__ import annotations

import numpy as np
from _bench_utils import bench_smoke, bench_workers

from repro.channels.awgn import TimeVaryingAWGNChannel
from repro.channels.traces import sinusoidal_trace
from repro.core.params import SpinalParams
from repro.experiments import registry
from repro.experiments.registry import render_run, run_experiment
from repro.experiments.runner import SpinalRunConfig
from repro.mac.cell import CellUser, MacCell, RatelessLink
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

#: Wall-clock ceiling for the 16-user smoke sweep (seconds); generous —
#: the measured time is ~1 s — but tight enough to catch superlinear
#: regressions in the grant loop.
_SMOKE_BUDGET_SECONDS = 120.0


def _scaling_overrides() -> dict:
    overrides = {
        "n_users": (16,),
        "scheduler": ("round-robin", "max-snr"),
        "snr_spread_db": 12.0,
    }
    if bench_smoke():
        overrides.update(
            {
                "packets_per_user": 2,
                "max_symbols": 512,
                "payload_bits": 16,
                "k": 4,
                "c": 6,
                "beam_width": 8,
            }
        )
    return overrides


def test_cell_16_users_round_robin_within_budget(benchmark, reporter):
    experiment = registry.get("cell-scaling")

    def _run():
        return run_experiment(
            experiment, overrides=_scaling_overrides(), n_workers=bench_workers()
        )

    outcome = benchmark.pedantic(_run, rounds=1, iterations=1)
    cells = {params["scheduler"]: cell["aggregate"] for _k, params, cell in outcome.successful_cells()}
    for aggregate in cells.values():
        assert aggregate["delivered"] == aggregate["n_packets"], aggregate
    # Static spread SNRs: opportunism can't lose airtime, only reorder it.
    assert cells["max-snr"]["goodput"] >= cells["round-robin"]["goodput"]
    if bench_smoke():
        assert benchmark.stats["mean"] < _SMOKE_BUDGET_SECONDS
    reporter.add(
        "Multi-user cell (E16) — 16-user sweep, round-robin vs max-SNR",
        render_run(experiment, outcome.record)
        + f"\n(workers={bench_workers()}; 16 users, SNR spread 12 dB; static "
        "channels make aggregate goodput scheduler-invariant by design)",
    )


def _time_varying_users(n_packets: int):
    config = SpinalRunConfig(
        payload_bits=16,
        params=SpinalParams(k=4, c=6, seed=31),
        beam_width=8,
        search="sequential",
        max_symbols=512,
    )
    users = []
    for u in range(4):
        trace = sinusoidal_trace(10.0, 9.0, 64, 64, phase=2 * np.pi * u / 4)
        channel = TimeVaryingAWGNChannel(trace, adc_bits=14)
        session = config.build_session(channel, 512)
        payloads = [
            random_message_bits(16, spawn_rng(9, "bench-tv", u, i))
            for i in range(n_packets)
        ]
        users.append(CellUser(RatelessLink(session), payloads))
    return users


def test_opportunistic_gain_on_time_varying_channels(benchmark, reporter):
    horizon = 400 if bench_smoke() else 1600
    n_packets = 60 if bench_smoke() else 240

    def _run():
        throughput = {}
        for name in ("round-robin", "max-snr", "proportional-fair"):
            cell = MacCell(_time_varying_users(n_packets), name, seed=11)
            result = cell.run_until(horizon)
            assert any(not p.finished for p in cell.packets)  # full buffer held
            throughput[name] = result.delivered_bits / horizon
        return throughput

    throughput = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert throughput["max-snr"] > throughput["round-robin"]
    assert throughput["proportional-fair"] > throughput["round-robin"]
    reporter.add(
        "Multi-user cell — opportunistic gain on wall-clock-varying channels",
        "\n".join(
            f"{name:<20} {value:.3f} b/symbol-time"
            for name, value in throughput.items()
        )
        + f"\n(4 users, anti-phase sinusoidal SNR traces, horizon {horizon})",
    )
