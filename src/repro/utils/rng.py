"""Deterministic random-number management.

Experiments in this library are Monte-Carlo simulations; reproducibility
requires that every trial be derivable from a single top-level seed.  The
helpers here derive child seeds and child generators from a parent seed plus
a string label, so independent subsystems (message source, channel noise,
code construction) never share a stream by accident.

:func:`spawn_rng` derives one generator through numpy's own seeding path.
:func:`spawn_seeds` and :func:`spawn_rngs` derive many at once, exactly the
streams :func:`spawn_rng` would: numpy spends about 20 µs per generator
hashing its seed through a fresh :class:`numpy.random.SeedSequence`, and a
city run derives thousands of streams, so the batch replays that hash for
every seed in one vectorized ``uint32`` pass and hands each ``PCG64`` its
finished state.  A generator weighs about 0.9 KB, so neither builds a
batch's generators up front: holding a city's few thousand at once raised
its peak memory by about 1 MB.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["derive_seed", "spawn_rng", "spawn_rngs", "spawn_seeds"]


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a 63-bit child seed from ``base_seed`` and a sequence of labels.

    The derivation hashes the textual representation of the labels so that
    e.g. ``derive_seed(s, "trial", 12)`` and ``derive_seed(s, "trial", 13)``
    are statistically independent, and insertion of new label positions does
    not shift existing streams.
    """
    payload = repr((int(base_seed), *map(str, labels))).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") & ((1 << 63) - 1)


def spawn_rng(base_seed: int, *labels: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` seeded via :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(base_seed, *labels))


def spawn_rngs(
    base_seed: int, label_rows: Iterable[Sequence[object]]
) -> Iterator[np.random.Generator]:
    """``spawn_rng(base_seed, *labels)`` for each of ``label_rows``, in bulk.

    Each generator has the same ``bit_generator.state`` and makes the same
    draws as its :func:`spawn_rng` twin; only the cost of deriving it
    differs (a few µs per stream plus :func:`derive_seed`).  Every row is
    hashed when this is called; each generator is built as the iterator
    reaches it, so a long batch holds only the generators its caller keeps.
    """
    return map(np.random.default_rng, spawn_seeds(base_seed, label_rows))


def spawn_seeds(
    base_seed: int, label_rows: Iterable[Sequence[object]]
) -> list[ISeedSequence]:
    """The seed sequences :func:`spawn_rngs` builds its generators from.

    ``np.random.default_rng(seed)`` of the seed for ``labels`` is
    ``spawn_rng(base_seed, *labels)``, state and draws.  A seed holds its
    stream's finished ``PCG64`` state, a fraction of a generator's memory,
    for callers that keep many streams until each is drawn from.
    """
    seeds = [derive_seed(base_seed, *labels) for labels in label_rows]
    if not seeds:
        return []
    states = _pcg64_states(seeds)
    return [_DerivedState(states, index) for index in range(len(seeds))]


class _DerivedState(ISeedSequence):
    """A seed sequence whose one request, ``PCG64``'s seeding, is precomputed.

    It answers with row ``index`` of its batch's state array, which every
    seed of the batch shares.
    """

    __slots__ = ("_states", "_index")

    def __init__(self, states: np.ndarray, index: int) -> None:
        self._states = states
        self._index = index

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived state only seeds PCG64 (4 uint64 words)")
        return self._states[self._index]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _hash_schedule(init: int, mult: int, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``(xor, multiply)`` constants of ``n_steps`` successive hash steps.

    The hash constant advances by one multiply per step whatever the data,
    so the whole schedule is fixed in advance.
    """
    xors, mults, const = [], [], init
    for _ in range(n_steps):
        xors.append(const)
        const = (const * mult) & _MASK32
        mults.append(const)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


# Entropy of at most four words fills the pool with one hashmix per word,
# then mixes every ordered pair of distinct pool words, source-major: the
# three steps of one source (ascending destinations) are one row here.
_MIX_XOR, _MIX_MULT = _hash_schedule(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_FILL_STEPS = (_MIX_XOR[:_POOL_SIZE], _MIX_MULT[:_POOL_SIZE])
_CROSS_STEPS = tuple(
    zip(
        _MIX_XOR[_POOL_SIZE:].reshape(_POOL_SIZE, _POOL_SIZE - 1),
        _MIX_MULT[_POOL_SIZE:].reshape(_POOL_SIZE, _POOL_SIZE - 1),
    )
)
# PCG64 asks for 4 uint64 words: 8 uint32 words, cycling over the pool.
_STATE_STEPS = _hash_schedule(_INIT_B, _MULT_B, 8)
_STATE_SOURCES = np.arange(8) % _POOL_SIZE


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _pcg64_states(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed.

    Rows of a ``(len(seeds), 4)`` ``uint64`` array.  Each seed is a
    non-negative integer below ``2**64``: its entropy is its little-endian
    ``uint32`` words, at most two, which hash exactly as if padded with
    zero words to the pool size.  One seed is one row of the ``uint32``
    pool; each hash step runs on a whole column, or on the three columns
    one source word mixes into.  Words are assembled arithmetically
    (``lo | hi << 32``), so the host's byte order plays no part.
    """
    words = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    pool = np.zeros((words.shape[0], _POOL_SIZE), dtype=np.uint32)
    pool[:, :1] = words & np.uint64(_MASK32)
    pool[:, 1:2] = words >> np.uint64(32)
    pool = _hash(pool, *_FILL_STEPS)
    for src, (xor, mult) in enumerate(_CROSS_STEPS):
        dst = [index for index in range(_POOL_SIZE) if index != src]
        hashed = _hash(pool[:, src : src + 1], xor, mult)
        mixed = _MIX_MULT_L * pool[:, dst] - _MIX_MULT_R * hashed
        pool[:, dst] = mixed ^ (mixed >> _XSHIFT)
    halves = _hash(pool[:, _STATE_SOURCES], *_STATE_STEPS).astype(np.uint64)
    # PCG64 reads a row's buffer as it stands, so rows must be contiguous;
    # the column gather above leaves the array in Fortran order.
    return np.ascontiguousarray(halves[:, 0::2] | (halves[:, 1::2] << np.uint64(32)))
