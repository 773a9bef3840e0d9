"""The one branch-cost kernel, bit for bit against the spelling it replaced.

Every decoder scores candidates through
:func:`repro.core.branch_kernel.branch_cost_kernel`: a gather from the
constellation's cached axis table and a squared distance in real arithmetic.
Before it, the decoders built complex points with
``map_axis(i) + 1j * map_axis(q)`` and took ``|point - received|^2`` in
complex arithmetic.  Decoded bits, path costs and beam traces stay
byte-identical only if the two agree to the last bit, so these tests compare
raw bytes — for every constellation kind and in bit mode, for one session and
for stacked sessions with a key each.  The batch decoder's candidates-last
layout sums observation planes with :func:`plane_sum`, which must equal
numpy's own contiguous row sum just as exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.branch_kernel import (
    branch_cost_kernel,
    plane_sum,
    replay_distance,
    replay_words,
)
from repro.core.constellation import make_constellation
from repro.core.hashing import SaltedHashFamily, symbol_word_keyed

KINDS = ["linear", "offset-linear", "truncated-gaussian", "bit-mode"]


def _reference(states, pass_indices, received, key2, constellation):
    """The complex-point spelling the decoders used before the kernel."""
    words = symbol_word_keyed(states, pass_indices, key2)
    if constellation is None:
        bits = words >> np.uint64(63)
        return np.ascontiguousarray(bits != received.astype(np.uint64), dtype=np.float64)
    c = constellation.c
    words = words >> np.uint64(64 - 2 * c)
    i_vals = (words >> np.uint64(c)).astype(np.int64)
    q_vals = (words & np.uint64((1 << c) - 1)).astype(np.int64)
    points = constellation.map_axis(i_vals) + 1j * constellation.map_axis(q_vals)
    diff = points - received.astype(np.complex128)
    return diff.real**2 + diff.imag**2


def _inputs(kind, c, lead, n, m, seed):
    """Candidates ``lead + (n, 1)``, pass indices and received ``lead + (1, m)``.

    Received symbols are exact constellation points (at small ``c`` many
    candidates replay them and hit zero distance on an axis), noisy points,
    and signed-zero components: the cases where the complex and the real
    spelling could part ways.
    """
    rng = np.random.default_rng(seed)
    constellation = None if kind == "bit-mode" else make_constellation(kind, c)
    states = rng.integers(0, 2**64 - 1, size=lead + (n, 1), dtype=np.uint64, endpoint=True)
    passes = rng.integers(0, 64, size=lead + (1, m))
    if constellation is None:
        return constellation, states, passes, rng.integers(0, 2, size=lead + (1, m)).astype(np.uint8)
    words = rng.integers(0, 1 << (2 * c), size=lead + (1, m), dtype=np.uint64)
    received = constellation.map_values(words)
    noise = rng.standard_normal(received.shape) + 1j * rng.standard_normal(received.shape)
    received = np.where(rng.random(received.shape) < 0.5, received, received + 0.2 * noise)
    received[..., 0] = complex(-0.0, 0.0)
    received[..., -1] = complex(0.0, -0.0)
    return constellation, states, passes, received


def _levels(constellation):
    return None if constellation is None else constellation.axis_levels()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("c", [2, 6, 10])
def test_one_session_is_the_reference_bit_for_bit(kind, c):
    constellation, states, passes, received = _inputs(kind, c, (), 96, 11, seed=c)
    key2 = SaltedHashFamily(seed=0x5EED + c, k=4)._key2
    got = branch_cost_kernel(states, passes, received, key2, _levels(constellation))
    want = _reference(states, passes, received, key2, constellation)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == want.shape == (96, 11)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_stored_words_score_again_bit_for_bit(kind):
    """The distance stage leaves its words as they are.

    A table of replayed words, read-only like the encoder's, is scored twice
    and gives the whole kernel's costs both times.
    """
    constellation, states, passes, received = _inputs(kind, 6, (), 64, 5, seed=3)
    key2 = SaltedHashFamily(seed=0x7AB1E, k=4)._key2
    levels = _levels(constellation)
    words = replay_words(states, passes, key2, levels)
    words.flags.writeable = False
    want = branch_cost_kernel(states, passes, received, key2, levels).tobytes()
    assert replay_distance(words, received, levels).tobytes() == want
    assert replay_distance(words, received, levels).tobytes() == want


@pytest.mark.parametrize("kind", KINDS)
def test_stacked_sessions_use_their_own_keys(kind):
    """A ``(sessions, candidates, observations)`` broadcast, one key per session."""
    n_sessions = 5
    constellation, states, passes, received = _inputs(kind, 6, (n_sessions,), 48, 9, seed=7)
    keys = np.array(
        [SaltedHashFamily(seed=s, k=4)._key2 for s in range(n_sessions)], dtype=np.uint64
    )
    levels = _levels(constellation)
    got = branch_cost_kernel(states, passes, received, keys[:, None, None], levels)
    assert got.shape == (n_sessions, 48, 9)
    for j in range(n_sessions):
        want = _reference(states[j], passes[j], received[j], keys[j], constellation)
        assert got[j].tobytes() == want.tobytes()
    # The broadcast really keys each session separately.
    other = branch_cost_kernel(states[0], passes[0], received[0], keys[1], levels)
    assert not np.array_equal(got[0], other)


@pytest.mark.parametrize("kind", KINDS[:3])
@pytest.mark.parametrize("c", [2, 5])
def test_map_values_gathers_the_reference_points(kind, c):
    constellation = make_constellation(kind, c)
    values = np.arange(1 << (2 * c), dtype=np.uint64)
    i_vals = (values >> np.uint64(c)).astype(np.int64)
    q_vals = (values & np.uint64((1 << c) - 1)).astype(np.int64)
    want = constellation.map_axis(i_vals) + 1j * constellation.map_axis(q_vals)
    assert constellation.map_values(values).tobytes() == want.tobytes()
    levels = constellation.axis_levels()
    assert levels is constellation.axis_levels()
    assert not levels.flags.writeable


@pytest.mark.parametrize("m", [*range(1, 10), 15, 16, 17, 127, 128, 129, 200])
def test_plane_sum_is_numpys_row_sum_bit_for_bit(m):
    """Below 8 terms the planes are added left to right, as numpy adds a
    short row; from 8 on, across numpy's eight-accumulator and pairwise
    regimes, the transposed copy is summed itself."""
    rng = np.random.default_rng(m)
    shape = (5, m, 33)
    costs = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    costs[0] = np.abs(costs[0])  # branch costs are never negative
    costs[1, :, 0] = -0.0  # and zero signs follow numpy's +0 start
    costs[1, ::2, 1] = 0.0
    costs[1, 1::2, 1] = -0.0
    want = np.ascontiguousarray(costs.transpose(0, 2, 1)).sum(axis=-1)
    got = plane_sum(costs)
    assert got.shape == want.shape == (5, 33)
    assert got.tobytes() == want.tobytes()
    assert costs.shape == shape  # the input is left alone
