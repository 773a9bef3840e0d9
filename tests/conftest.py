"""Shared fixtures for the test suite.

Tests use deliberately small spinal-code configurations (small k, small c,
short messages) so the whole suite runs quickly; correctness does not depend
on the parameter sizes, and the benchmark harness exercises the paper's
full-size configuration separately.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.params import SpinalParams

# When a property fails, hypothesis's pytest plugin drafts an ``@example``
# patch through ``hypothesis.extra._patching``, which imports libcst; libcst
# imports ``mypy_extensions.TypedDict``, whose DeprecationWarning pytest.ini
# turns into an error, so the run ends in INTERNALERROR.  The plugin skips
# the patch when that module cannot be imported, and the failure report
# (with its "Falsifying example") is printed as usual.
sys.modules.setdefault("hypothesis.extra._patching", None)


@pytest.fixture(scope="session", autouse=True)
def _private_calibration_cache(tmp_path_factory):
    """Keep the flow tier's calibration artifacts in a per-session directory.

    The suite never reads or writes the user's own cache; worker processes
    inherit the variable.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


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
