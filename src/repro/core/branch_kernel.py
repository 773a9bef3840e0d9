"""The branch-cost kernel every spinal decoder replays the encoder through.

Decoding spends its time scoring candidate spine values: for each candidate
and each observation received at its tree level, regenerate the symbol the
encoder would have sent (keyed symbol PRF, then the constellation map) and
measure how far the received value is from it — the paper's footnote 1,
"replaying the encoder".  :func:`branch_cost_kernel` is the one spelling of
that hash -> map -> distance pipeline; the single-session engines reach it
through :meth:`repro.core.encoder.SpinalEncoder.branch_cost_columns` and
:class:`~repro.core.decoder_vectorized.BatchDecoder` calls it directly with
one key per stacked session.

The constellation map is a gather from the constellation's cached ``2^c``
axis-level table (:meth:`~repro.core.constellation.Constellation.axis_levels`)
and the distance is taken in real arithmetic, one axis at a time.  Both are
exact rewrites of ``map_axis(i) + 1j * map_axis(q)`` followed by a complex
difference: the table holds the very floats ``map_axis`` computes, and the
real and imaginary parts of the complex spelling are the same subtractions
up to the sign of a zero, which squaring erases.  Costs are therefore
bit-identical to that reference spelling (``tests/test_branch_kernel.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.hashing import symbol_word_keyed

__all__ = ["branch_cost_kernel"]

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
    array.
    """
    word = symbol_word_keyed(states, pass_indices, key2)
    if levels is None:
        word >>= _TOP_BIT
        return (word != np.asarray(received).astype(np.uint64)).astype(np.float64)
    c = levels.size.bit_length() - 1
    word >>= np.uint64(64 - 2 * c)
    q = word & np.uint64((1 << c) - 1)
    word >>= np.uint64(c)
    received = np.asarray(received, dtype=np.complex128)
    # The shifted words are below 2^c, so viewing them as int64 is exact and
    # spares the gather a cast of its index array.
    cost = levels.take(word.view(np.int64))
    cost -= received.real
    np.square(cost, out=cost)
    d_im = levels.take(q.view(np.int64))
    d_im -= received.imag
    np.square(d_im, out=d_im)
    cost += d_im
    return cost
