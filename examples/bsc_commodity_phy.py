#!/usr/bin/env python3
"""Spinal codes over a commodity PHY: the binary-symmetric-channel mode.

Section 1 and 3 of the paper point out that when the physical layer cannot
be modified, spinal codes can still emit *coded bits* that ride on whatever
modulation the hardware provides; the end-to-end link then looks like a
binary symmetric channel.  This example:

* runs the bit-mode spinal code over BSCs of varying crossover probability
  and compares the achieved rate with the BSC capacity ``1 - H2(p)``
  (Theorem 2 says ML decoding achieves it; the bubble decoder gets close);
* shows the same code surviving a burst-error channel (a Gilbert–Elliott
  trace mapped onto per-bit flip probabilities) without any reconfiguration.

Run with:  python examples/bsc_commodity_phy.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BSCChannel,
    CodecSession,
    Framer,
    IncrementalBubbleDecoder,
    SpinalCode,
    SpinalEncoder,
    SpinalParams,
)
from repro.channels.base import BitChannel
from repro.core.puncturing import TailFirstPuncturing
from repro.theory import bsc_capacity
from repro.utils.results import render_table
from repro.utils.rng import spawn_rng


def bit_mode_code() -> SpinalCode:
    """The example's bit-mode spinal code: k=4, B=16, 32-bit messages."""
    params = SpinalParams(k=4, bit_mode=True)
    return SpinalCode(
        SpinalEncoder(params, puncturing=TailFirstPuncturing()),
        lambda enc: IncrementalBubbleDecoder(enc, beam_width=16),
        Framer(payload_bits=32, k=params.k),
    )


class BurstyBitChannel(BitChannel):
    """Two-state (Gilbert-Elliott) bit-flipping channel for the burst demo."""

    def __init__(self, p_good: float, p_bad: float, p_enter_bad: float, p_leave_bad: float):
        self.p_good = p_good
        self.p_bad = p_bad
        self.p_enter_bad = p_enter_bad
        self.p_leave_bad = p_leave_bad
        self._in_bad = False

    def reset(self) -> None:
        self._in_bad = False

    def transmit(self, values, rng):
        values = np.asarray(values, dtype=np.uint8)
        out = values.copy()
        for i in range(values.size):
            p = self.p_bad if self._in_bad else self.p_good
            if rng.random() < p:
                out[i] ^= 1
            if self._in_bad:
                if rng.random() < self.p_leave_bad:
                    self._in_bad = False
            elif rng.random() < self.p_enter_bad:
                self._in_bad = True
        return out


def run_bsc_sweep() -> None:
    rows = []
    for p in (0.01, 0.05, 0.1, 0.2, 0.3):
        session = CodecSession(bit_mode_code(), BSCChannel(p), max_symbols=16384)
        rng = spawn_rng(5, "bsc-example", p)
        rates = []
        for _ in range(15):
            payload = rng.integers(0, 2, size=32, dtype=np.uint8)
            trial = session.run(payload, rng)
            rates.append(trial.rate)
        rows.append((p, bsc_capacity(p), float(np.mean(rates))))
    print("=== Bit-mode spinal code over a BSC (k=4, B=16, 32-bit messages) ===")
    print(render_table(["crossover p", "BSC capacity", "achieved rate"], rows))


def run_burst_demo() -> None:
    channel = BurstyBitChannel(p_good=0.02, p_bad=0.35, p_enter_bad=0.02, p_leave_bad=0.1)
    session = CodecSession(bit_mode_code(), channel, max_symbols=16384)
    rng = spawn_rng(5, "burst-example")
    rates, successes = [], 0
    for _ in range(15):
        payload = rng.integers(0, 2, size=32, dtype=np.uint8)
        trial = session.run(payload, rng)
        successes += int(trial.payload_correct)
        rates.append(trial.rate)
    print("\n=== Same code over a bursty (Gilbert-Elliott) bit channel ===")
    print(f"  delivered {successes}/15 messages correctly, "
          f"mean rate {np.mean(rates):.3f} bits per channel bit")
    print("  (the sender never knew whether it was in the good or the bad state)")


def main() -> None:
    run_bsc_sweep()
    run_burst_demo()


if __name__ == "__main__":
    main()
