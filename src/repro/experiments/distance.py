"""Experiment E8: nonlinearity and distance properties of the hashed code.

Section 4 argues that the hash-based construction gives spinal codes two
properties linear codes lack:

* "the moment two messages differ in 1 bit, their output coded sequences
  have a large difference" — measured here as the distribution of Euclidean
  distances between the coded sequences of messages at Hamming distance one,
  compared against the distance distribution of random message pairs;
* the code is nonlinear: the (symbol-wise) "sum" of two codewords is
  essentially never a codeword, measured by hashing closure violations.

These are analytical/statistical experiments (no channel), so they run fast
and double as strong correctness tests of the hash layer.

Registered as ``distance``, a single-cell experiment with no swept axes
(``repro run distance``).
"""

from __future__ import annotations

import numpy as np

from repro.core.encoder import SpinalEncoder
from repro.core.hashing import avalanche_score
from repro.core.params import SpinalParams
from repro.experiments.registry import Experiment, register
from repro.experiments.spec import Column, SweepSpec
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

__all__ = [
    "codeword_distance",
    "DISTANCE_EXPERIMENT",
]


def codeword_distance(
    encoder: SpinalEncoder, message_a: np.ndarray, message_b: np.ndarray, n_passes: int
) -> float:
    """Euclidean distance between the coded symbol sequences of two messages."""
    symbols_a = encoder.encode_passes(message_a, n_passes).reshape(-1)
    symbols_b = encoder.encode_passes(message_b, n_passes).reshape(-1)
    return float(np.sqrt(np.sum(np.abs(symbols_a - symbols_b) ** 2)))


def distance_point(params, rng) -> dict:
    """Registry kernel: the full distance/avalanche measurement, one shot.

    The sampling and avalanche streams are spawned from the base seed with
    the historical labels (``"distance"`` / ``"avalanche"``) so the numbers
    are bit-identical to the pre-registry experiment; the engine-provided
    ``rng`` is deliberately unused.
    """
    n_message_bits = int(params["n_message_bits"])
    k = int(params["k"])
    n_passes = int(params["n_passes"])
    n_samples = int(params["n_samples"])
    seed = int(params["seed"])
    spinal = SpinalParams(k=k, c=int(params["c"]))
    encoder = SpinalEncoder(spinal)
    sample_rng = spawn_rng(seed, "distance")
    flip_distances = np.empty(n_samples)
    random_distances = np.empty(n_samples)
    for i in range(n_samples):
        message = random_message_bits(n_message_bits, sample_rng)
        flipped = message.copy()
        # Flip in the first segment so the change propagates down the spine.
        flip_position = int(sample_rng.integers(0, k))
        flipped[flip_position] ^= 1
        other = random_message_bits(n_message_bits, sample_rng)
        flip_distances[i] = codeword_distance(encoder, message, flipped, n_passes)
        random_distances[i] = codeword_distance(encoder, message, other, n_passes)
    hash_family = spinal.make_hash_family()
    mean_flip = float(flip_distances.mean())
    mean_random = float(random_distances.mean())
    return {
        "mean_one_bit_distance": mean_flip,
        "min_one_bit_distance": float(flip_distances.min()),
        "mean_random_distance": mean_random,
        "distance_ratio": mean_flip / mean_random,
        "avalanche": avalanche_score(hash_family, 2000, spawn_rng(seed, "avalanche")),
        "one_bit_flip_distances": flip_distances,
        "random_pair_distances": random_distances,
    }


DISTANCE_EXPERIMENT = register(
    Experiment(
        name="distance",
        description="E8: codeword distance of 1-bit flips vs random pairs + hash avalanche",
        spec=SweepSpec(
            axes=(),
            fixed={
                "n_message_bits": 32,
                "k": 8,
                "c": 6,
                "n_passes": 2,
                "n_samples": 200,
            },
        ),
        run_point=distance_point,
        columns=(
            Column("messages (bits)", "n_message_bits"),
            Column("passes", "n_passes"),
            Column("mean distance, 1-bit flip", "mean_one_bit_distance"),
            Column("min distance, 1-bit flip", "min_one_bit_distance"),
            Column("mean distance, random pair", "mean_random_distance"),
            Column("flip/random distance ratio", "distance_ratio"),
            Column("hash avalanche (ideal 0.5)", "avalanche"),
        ),
        n_trials=1,
        max_trials=1,  # the kernel derives its streams from the base seed
        smoke={"n_samples": 20, "n_message_bits": 16, "k": 4},
    )
)
