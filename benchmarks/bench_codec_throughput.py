"""E14: raw encoder/decoder throughput and its scaling.

Section 3 claims encoding is linear in the message size and the practical
decoder is linear in the message length and exponential only in k.  These
micro-benchmarks measure the hot kernels directly (and are the benchmarks
most useful for performance-regression tracking):

* spine generation + one pass of symbol generation for a 1024-bit message;
* one bubble-decoder invocation (B = 16, k = 8) on a 3-pass observation set;
* a full rateless trial with the from-scratch versus the stateful
  vectorized decoding engine (the engine must show a >= 3x reduction in
  tree-node evaluations at the Figure-2 low-SNR operating point);
* one LDPC belief-propagation decode (rate 1/2, 40 iterations).
"""

from __future__ import annotations

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.decoder_vectorized import VectorizedBubbleDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.params import SpinalParams
from repro.experiments.runner import SpinalRunConfig
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.ldpc import BeliefPropagationDecoder, make_wifi_like_code
from repro.modulation import BPSK
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng


def test_encoder_throughput_1024_bit_message(benchmark, reporter):
    params = SpinalParams(k=8, c=10)
    encoder = SpinalEncoder(params)
    rng = spawn_rng(1, "bench-encode")
    message = random_message_bits(1024, rng)

    def encode_one_pass():
        return encoder.encode_passes(message, n_passes=1)

    result = benchmark(encode_one_pass)
    assert result.shape == (1, 128)
    reporter.add(
        "Codec throughput (E14) — encoder",
        "encoded 1024-bit message, one pass of 128 symbols per call "
        "(see pytest-benchmark table for timing)",
    )


def test_bubble_decoder_throughput(benchmark, reporter):
    params = SpinalParams(k=8, c=10)
    encoder = SpinalEncoder(params)
    rng = spawn_rng(2, "bench-decode")
    message = random_message_bits(96, rng)
    channel = AWGNChannel(snr_db=10.0, adc_bits=14)
    passes = encoder.encode_passes(message, 3)
    observations = ReceivedObservations(passes.shape[1])
    for pass_index in range(3):
        received = channel.transmit(passes[pass_index], rng)
        for position in range(passes.shape[1]):
            observations.add(position, pass_index, received[position])
    decoder = BubbleDecoder(encoder, beam_width=16)

    def decode():
        return decoder.decode(96, observations)

    result = benchmark(decode)
    assert result.n_bits == 96
    reporter.add(
        "Codec throughput (E14) — bubble decoder",
        "decoded a 96-bit message (12 tree levels, B=16, k=8, 3 passes) per call",
    )


def _rateless_trial_work(decoder_cls) -> tuple[int, int]:
    """Total (candidates explored, attempts) of fixed Figure-2 trials at -5 dB."""
    from repro.theory.capacity import awgn_capacity_db

    config = SpinalRunConfig()
    snr_db = -5.0
    code = SpinalCode(
        config.build_encoder(),
        lambda enc: decoder_cls(enc, beam_width=config.beam_width),
        config.build_framer(),
    )
    session = CodecSession(
        code,
        AWGNChannel(snr_db=snr_db, signal_power=1.0, adc_bits=config.adc_bits),
        max_symbols=config.symbol_budget(awgn_capacity_db(snr_db)),
    )
    candidates = attempts = 0
    for trial in range(4):
        rng = spawn_rng(config.seed, "trial", snr_db, trial)
        payload = random_message_bits(config.payload_bits, rng)
        result = session.run(payload, rng)
        candidates += result.work
        attempts += result.decode_attempts
    return candidates, attempts


def test_stateful_engine_rateless_trial(benchmark, reporter):
    """>= 3x fewer tree-node evaluations per trial than from scratch."""
    fresh_candidates, attempts = _rateless_trial_work(BubbleDecoder)
    candidates, _ = benchmark(_rateless_trial_work, VectorizedBubbleDecoder)
    reduction = fresh_candidates / candidates
    assert reduction >= 3.0, (fresh_candidates, candidates)
    reporter.add(
        "Codec throughput (E14) — stateful decoding engine",
        f"Figure-2 config at -5 dB SNR, sequential receiver, {attempts} decode "
        f"attempts over 4 trials: {fresh_candidates} tree nodes from scratch vs "
        f"{candidates} with the vectorized engine ({reduction:.1f}x reduction)",
    )


def test_ldpc_bp_decoder_throughput(benchmark, reporter):
    code = make_wifi_like_code(0.5)
    decoder = BeliefPropagationDecoder(code, max_iterations=40)
    modulation = BPSK()
    rng = spawn_rng(3, "bench-ldpc")
    message = rng.integers(0, 2, size=code.k, dtype=np.uint8)
    codeword = code.encode(message)
    symbols = modulation.modulate(codeword)
    noise_energy = 10 ** (-2.0 / 10)
    noise = np.sqrt(noise_energy / 2) * (
        rng.standard_normal(symbols.size) + 1j * rng.standard_normal(symbols.size)
    )
    llrs = modulation.demodulate_llr(symbols + noise, noise_energy)

    def decode():
        return decoder.decode(llrs)

    decoded, _ = benchmark(decode)
    assert decoded.shape == (code.n,)
    reporter.add(
        "Codec throughput (E14) — LDPC BP decoder",
        "decoded one 648-bit rate-1/2 frame (sum-product, up to 40 iterations) per call",
    )
