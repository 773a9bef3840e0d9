#!/usr/bin/env python3
"""Quickstart: encode, transmit, and decode one message with a spinal code.

This walks through the paper's Figure 1 step by step:

1. split the message into k-bit segments and hash them into the *spine*;
2. expand each spine value into symbols, pass by pass;
3. push symbols through an AWGN channel;
4. decode with the practical bubble decoder by replaying the encoder;
5. run the full rateless loop and report the achieved rate.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AWGNChannel,
    BubbleDecoder,
    CodecSession,
    Framer,
    SpinalCode,
    SpinalEncoder,
    SpinalParams,
)
from repro.core.encoder import ReceivedObservations
from repro.theory import awgn_capacity_db


def main() -> None:
    rng = np.random.default_rng(42)

    # The paper's Figure 2 parameters: 24-bit messages, k=8, c=10, B=16.
    params = SpinalParams(k=8, c=10)
    encoder = SpinalEncoder(params)
    message = rng.integers(0, 2, size=24, dtype=np.uint8)

    print("=== 1. Message and spine (Figure 1) ===")
    print("message bits :", "".join(map(str, message)))
    segments = encoder.spine_generator.segment_values(message)
    spine = encoder.spine(message)
    for t, (segment, value) in enumerate(zip(segments, spine), start=1):
        print(f"  segment M_{t} = {int(segment):3d} (0b{int(segment):08b})  ->  "
              f"spine s_{t} = 0x{int(value):016x}")

    print("\n=== 2. Symbols, pass by pass ===")
    symbols = encoder.encode_passes(message, n_passes=3)
    for pass_index, row in enumerate(symbols, start=1):
        rendered = ", ".join(f"{s.real:+.2f}{s.imag:+.2f}j" for s in row)
        print(f"  pass {pass_index}: {rendered}")

    print("\n=== 3. One noisy pass through an AWGN channel at 10 dB ===")
    channel = AWGNChannel(snr_db=10.0, adc_bits=14)
    received_pass = channel.transmit(symbols[0], rng)
    print("  received:", ", ".join(f"{s.real:+.2f}{s.imag:+.2f}j" for s in received_pass))

    print("\n=== 4. Decode by replaying the encoder over a pruned tree ===")
    observations = ReceivedObservations(n_segments=spine.size)
    for position, value in enumerate(received_pass):
        observations.add(position, pass_index=0, value=value)
    # Two more passes make the single-shot decode reliable at 10 dB
    # (3 passes = 9 symbols for 24 bits, i.e. 2.7 bits/symbol, comfortably
    # below the 3.46 bits/symbol capacity of the channel).
    for extra_pass in (1, 2):
        received_extra = channel.transmit(symbols[extra_pass], rng)
        for position, value in enumerate(received_extra):
            observations.add(position, pass_index=extra_pass, value=value)
    decoder = BubbleDecoder(encoder, beam_width=16)
    result = decoder.decode(n_message_bits=24, observations=observations)
    print("  decoded bits :", "".join(map(str, result.message_bits)))
    print("  correct      :", bool(np.array_equal(result.message_bits, message)))
    print("  path cost    :", f"{result.path_cost:.3f}")
    print("  tree nodes   :", result.candidates_explored)

    print("\n=== 5. The full rateless loop ===")
    code = SpinalCode(
        encoder,
        lambda enc: BubbleDecoder(enc, beam_width=16),
        Framer(payload_bits=24, k=params.k),
    )
    session = CodecSession(code, channel)  # the code-agnostic session API (repro.phy)
    rates = []
    for _ in range(20):
        payload = rng.integers(0, 2, size=24, dtype=np.uint8)
        trial = session.run(payload, rng)
        assert trial.payload_correct
        rates.append(trial.rate)
    print(f"  mean achieved rate over 20 messages: {np.mean(rates):.2f} bits/symbol")
    print(f"  Shannon capacity at 10 dB          : {awgn_capacity_db(10.0):.2f} bits/symbol")


if __name__ == "__main__":
    main()
