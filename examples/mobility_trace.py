#!/usr/bin/env python3
"""Rateless spinal codes versus SNR-threshold rate adaptation under mobility.

Section 1 of the paper argues that explicit bit-rate adaptation is reactive
and therefore fragile when the channel changes quickly.  This example makes
that concrete:

* a random-walk SNR trace models a walking user (the channel drifts several
  dB over a packet's timescale);
* the *rate adaptation* baseline calibrates SNR thresholds for the eight
  fixed-rate LDPC configurations and picks one per packet from a stale SNR
  observation;
* the *spinal* sender just transmits ratelessly; it needs no SNR estimate at
  all and implicitly rides every fade.

Run with:  python examples/mobility_trace.py          (a couple of minutes)
           python examples/mobility_trace.py --fast   (coarser, < 1 minute)
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import (
    CodecSession,
    Framer,
    SpinalCode,
    SpinalEncoder,
    SpinalParams,
    VectorizedBubbleDecoder,
)
from repro.baselines import FIGURE2_LDPC_CONFIGS, FixedRateLdpcSystem, calibrate_thresholds
from repro.channels import TimeVaryingAWGNChannel
from repro.channels.traces import random_walk_trace
from repro.core.puncturing import TailFirstPuncturing
from repro.theory import awgn_capacity_db
from repro.utils.rng import spawn_rng


def spinal_over_trace(packet_snrs_db, symbols_per_packet: int, rng) -> float:
    """Mean achieved rate of the rateless spinal code over the SNR trace."""
    params = SpinalParams(k=8, c=10)
    code = SpinalCode(
        SpinalEncoder(params, puncturing=TailFirstPuncturing()),
        lambda enc: VectorizedBubbleDecoder(enc, beam_width=16),
        Framer(payload_bits=24, k=params.k),
    )
    rates = []
    for snr_db in packet_snrs_db:
        # Within one packet the SNR still wiggles by +/- 1 dB symbol to symbol.
        within = snr_db + rng.normal(0.0, 1.0, size=symbols_per_packet)
        channel = TimeVaryingAWGNChannel(within, adc_bits=14)
        session = CodecSession(code, channel, max_symbols=symbols_per_packet)
        payload = rng.integers(0, 2, size=24, dtype=np.uint8)
        trial = session.run(payload, rng)
        rates.append(trial.delivered_rate)
    return float(np.mean(rates))


def adapted_over_trace(
    systems, policy, packet_snrs_db, observation_lag_packets: int, n_frames: int, rng
) -> float:
    """Mean achieved rate of threshold adaptation over the SNR trace.

    The policy sees the SNR ``observation_lag_packets`` packets ago (the
    first packets see the first value); the selected configuration's rate
    is measured at the packet's *true* SNR.
    """
    rates = []
    for index, true_snr in enumerate(packet_snrs_db):
        observed_snr = float(packet_snrs_db[max(0, index - observation_lag_packets)])
        system = systems[policy.select(observed_snr)]
        rates.append(system.achieved_rate(float(true_snr), n_frames, rng))
    return float(np.mean(rates))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="fewer packets and frames")
    args = parser.parse_args()

    n_packets = 10 if args.fast else 30
    calibration_frames = 20 if args.fast else 40
    frames_per_packet = 5 if args.fast else 10
    rng = spawn_rng(99, "mobility")

    # A pedestrian-speed random walk between 2 and 28 dB.
    packet_snrs_db = random_walk_trace(
        start_snr_db=15.0,
        length=n_packets,
        step_db=3.0,
        rng=rng,
        min_snr_db=2.0,
        max_snr_db=28.0,
    )
    mean_capacity = float(np.mean([awgn_capacity_db(s) for s in packet_snrs_db]))
    print(f"SNR trace over {n_packets} packets: "
          f"min {packet_snrs_db.min():.1f} dB, max {packet_snrs_db.max():.1f} dB, "
          f"mean capacity {mean_capacity:.2f} bits/symbol")

    print("\nCalibrating SNR thresholds for the LDPC rate-adaptation baseline ...")
    systems = {
        config: FixedRateLdpcSystem(config, algorithm="min-sum")
        for config in FIGURE2_LDPC_CONFIGS
    }
    policy = calibrate_thresholds(
        FIGURE2_LDPC_CONFIGS,
        lambda config, snr_db: systems[config].frame_error_rate(
            snr_db, calibration_frames, rng
        ),
        snr_grid_db=np.arange(-2.0, 30.0, 2.0),
        target_frame_error_rate=0.1,
    )
    for config in FIGURE2_LDPC_CONFIGS:
        print(f"  {config.label:28s} usable above {policy.thresholds[config]:5.1f} dB")

    print("\nRunning rate adaptation with a stale (2-packet-old) SNR estimate ...")
    adapted_rate = adapted_over_trace(
        systems, policy, packet_snrs_db, 2, frames_per_packet, rng
    )

    print("Running the rateless spinal sender (no SNR estimate at all) ...")
    spinal_rate = spinal_over_trace(packet_snrs_db, symbols_per_packet=2048, rng=rng)

    print("\n=== Results (payload bits per channel use) ===")
    print(f"  mean channel capacity        : {mean_capacity:.2f}")
    print(f"  LDPC + threshold adaptation  : {adapted_rate:.2f}")
    print(f"  rateless spinal code         : {spinal_rate:.2f}")
    print(
        "\nThe adaptation baseline loses throughput both when it under-shoots "
        "(picks too slow a rate)\nand when it over-shoots (stale estimate, frame "
        "lost); the rateless code pays neither cost."
    )


if __name__ == "__main__":
    main()
