"""The one branch-cost kernel, bit for bit against the spelling it replaced.

Every decoder scores candidates through
:func:`repro.core.branch_kernel.branch_cost_kernel`: a gather from the
constellation's cached axis table and a squared distance in real arithmetic.
Before it, the decoders built complex points with
``map_axis(i) + 1j * map_axis(q)`` and took ``|point - received|^2`` in
complex arithmetic.  Decoded bits, path costs and beam traces stay
byte-identical only if the two agree to the last bit, so these tests compare
raw bytes — for every constellation kind and in bit mode, for one session and
for stacked sessions with a key each.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.branch_kernel import branch_cost_kernel
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
