"""The branch-cost kernel every spinal decoder replays the encoder through.

Decoding spends its time scoring candidate spine values: for each candidate
and each observation received at its tree level, regenerate the symbol the
encoder would have sent (keyed symbol PRF, then the constellation map) and
measure how far the received value is from it — the paper's footnote 1,
"replaying the encoder".  :func:`branch_cost_kernel` is the one spelling of
that hash -> map -> distance pipeline: the from-scratch reference decoders
reach it through :meth:`repro.core.encoder.SpinalEncoder.branch_costs`, and
both engines of :mod:`repro.core.decoder_vectorized` call it directly — the
single-session engine with the session's key, the batch front with one key
per stacked session.

The kernel is two exact stages composed.  The replay stage,
:func:`replay_words`, hashes and keeps the symbol word's top ``2c`` bits
(its top bit in bit mode); those words depend only on the code, the
candidate and the pass.  The distance stage, :func:`replay_distance`, maps
them and measures the distance, leaving the words untouched.  So a table
of words replayed once — the encoder's
:meth:`~repro.core.encoder.SpinalEncoder.prefix_replay_words`, shared by
every packet a code decodes — is scored by the distance stage alone and
gives the floats the whole kernel would.

The constellation map is a gather from the constellation's cached ``2^c``
axis-level table (:meth:`~repro.core.constellation.Constellation.axis_levels`)
and the distance is taken in real arithmetic, one axis at a time.  Both are
exact rewrites of ``map_axis(i) + 1j * map_axis(q)`` followed by a complex
difference: the table holds the very floats ``map_axis`` computes, and the
real and imaginary parts of the complex spelling are the same subtractions
up to the sign of a zero, which squaring erases.  Costs are therefore
bit-identical to that reference spelling (``tests/test_branch_kernel.py``).

Both engines lay their costs out candidates-last, ``(rows, observations,
candidates)``, so every elementwise step runs along a long contiguous axis
rather than a two- or three-wide one, and both sum the observation planes
with :func:`plane_sum`.  The reference decoders sum each candidate's
contiguous row of ``(candidates, observations)`` costs with
``sum(axis=-1)``; :func:`plane_sum` adds the planes in exactly the order
numpy's contiguous row sum does, so both layouts give the same floats.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashing import symbol_word_keyed

__all__ = ["branch_cost_kernel", "plane_sum", "replay_distance", "replay_words"]

_TOP_BIT = np.uint64(63)


def branch_cost_kernel(
    states: np.ndarray,
    pass_indices: np.ndarray,
    received: np.ndarray,
    key2: np.ndarray | np.uint64,
    levels: np.ndarray | None,
) -> np.ndarray:
    """Cost of every candidate spine value against every observation.

    ``states``, ``pass_indices`` and ``key2`` broadcast against each other as
    in :func:`~repro.core.hashing.symbol_word_keyed` — ``(n, 1)``, ``(1, m)``
    and a scalar key for one session, or ``(S, n, 1)``, ``(S, 1, m)`` and
    ``(S, 1, 1)`` for ``S`` stacked sessions with a key each — and their
    broadcast shape is the result's.  ``received`` holds the observed values
    and must broadcast to that shape (``(1, m)`` or ``(S, 1, m)``).

    ``levels`` is the constellation's ``2^c``-entry axis-level table; the
    cost is then the squared Euclidean distance between the replayed point
    and the received complex value.  ``levels=None`` selects bit mode: the
    replayed coded bit is the word's top bit and the cost is the 0/1 Hamming
    mismatch against the received bit.  Returns a C-contiguous ``float64``
    array.  This is :func:`replay_distance` of :func:`replay_words`.
    """
    return replay_distance(
        replay_words(states, pass_indices, key2, levels), received, levels
    )


def replay_words(
    states: np.ndarray,
    pass_indices: np.ndarray,
    key2: np.ndarray | np.uint64,
    levels: np.ndarray | None,
) -> np.ndarray:
    """The replay stage: the symbol bits the encoder sends from each state.

    The keyed symbol PRF's top ``2c`` bits (``levels`` has ``2^c`` entries),
    or its top bit in bit mode (``levels=None``), as a new ``uint64`` array;
    the arguments broadcast as in :func:`branch_cost_kernel`.
    """
    word = symbol_word_keyed(states, pass_indices, key2)
    word >>= _TOP_BIT if levels is None else np.uint64(64 - 2 * _axis_bits(levels))
    return word


def replay_distance(
    words: np.ndarray, received: np.ndarray, levels: np.ndarray | None
) -> np.ndarray:
    """The distance stage: cost of replayed ``words`` against ``received``.

    ``words`` come from :func:`replay_words` with the same ``levels`` and are
    left as they are, so a stored table of them can be scored again; the
    result is a new C-contiguous ``float64`` array of the broadcast shape.
    """
    if levels is None:
        return (words != np.asarray(received).astype(np.uint64)).astype(np.float64)
    c = _axis_bits(levels)
    received = np.asarray(received, dtype=np.complex128)
    # The axis indices are below 2^c, so viewing them as int64 is exact and
    # spares each gather a cast of its index array.  The quadrature index's
    # buffer is reused for the in-phase one.
    index = words & np.uint64((1 << c) - 1)
    d_im = levels.take(index.view(np.int64))
    d_im -= received.imag
    np.square(d_im, out=d_im)
    np.right_shift(words, np.uint64(c), out=index)
    cost = levels.take(index.view(np.int64))
    cost -= received.real
    np.square(cost, out=cost)
    cost += d_im
    return cost


def _axis_bits(levels: np.ndarray) -> int:
    """``c`` of a ``2^c``-entry axis-level table."""
    return levels.size.bit_length() - 1


#: numpy's contiguous float sum adds fewer terms than this left to right.
_UNROLL = 8


def plane_sum(costs: np.ndarray) -> np.ndarray:
    """Sum a ``(rows, m, columns)`` array over its middle axis, bit for bit as
    ``costs.transpose(0, 2, 1).copy().sum(axis=-1)``.

    numpy reduces a contiguous row of fewer than eight floats as
    ``0 + x0 + x1 + ...``, left to right (checked on numpy 2.4.6 by
    ``tests/test_branch_kernel.py``).  Replaying that order one whole
    ``(rows, columns)`` plane at a time gives the same floats while every
    addition runs along the contiguous last axis.  Longer rows, which the
    decoders see far less often, take the transposed copy.
    """
    m = costs.shape[1]
    if m >= _UNROLL:
        return np.ascontiguousarray(costs.transpose(0, 2, 1)).sum(axis=-1)
    # 0 + x0 keeps the zero sign of numpy's identity-started sum.
    out = costs[:, 0] + 0.0
    for i in range(1, m):
        out += costs[:, i]
    return out
