"""Shared fixtures for the test suite.

Tests use deliberately small spinal-code configurations (small k, small c,
short messages) so the whole suite runs quickly; correctness does not depend
on the parameter sizes, and the benchmark harness exercises the paper's
full-size configuration separately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.params import SpinalParams


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG; tests that need independence derive their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_params() -> SpinalParams:
    """A small symbol-mode spinal code (k=4, c=6) used across the core tests."""
    return SpinalParams(k=4, c=6, seed=77)


@pytest.fixture
def small_encoder(small_params) -> SpinalEncoder:
    return SpinalEncoder(small_params)


@pytest.fixture
def bit_mode_params() -> SpinalParams:
    """A small bit-mode (BSC) spinal code."""
    return SpinalParams(k=3, bit_mode=True, seed=78)


@pytest.fixture
def bit_mode_encoder(bit_mode_params) -> SpinalEncoder:
    return SpinalEncoder(bit_mode_params)


def observations_from_passes(
    encoder: SpinalEncoder, message_bits: np.ndarray, n_passes: int, noise=None
) -> ReceivedObservations:
    """Build a ReceivedObservations holding ``n_passes`` clean (or noisy) passes."""
    values = encoder.encode_passes(message_bits, n_passes)
    n_segments = values.shape[1]
    observations = ReceivedObservations(n_segments)
    for pass_index in range(n_passes):
        for position in range(n_segments):
            value = values[pass_index, position]
            if noise is not None:
                value = value + noise[pass_index, position]
            observations.add(position, pass_index, value)
    return observations


@pytest.fixture
def make_observations():
    """Factory fixture exposing :func:`observations_from_passes` to tests."""
    return observations_from_passes
