"""The random hash-function family at the heart of spinal codes.

Section 3.1 of the paper defines the code in terms of a hash function

    h : [0, 1) x {0, 1}^k  ->  [0, 1)

drawn from a family ``H`` indexed by a random seed shared by sender and
receiver, and assumed to behave like a uniform, pairwise-independent random
mapping.  The paper also notes that the conceptual "infinite precision"
output is realised in practice by *repeated hashing with different known
salts* whenever more output bits are needed (one batch of ``2c`` fresh bits
per pass).

This module provides exactly that machinery:

* spine values are 64-bit unsigned integers (the fixed-precision stand-in for
  a real number in [0, 1));
* :meth:`SaltedHashFamily.hash_spine` implements ``h(s, m)`` for whole numpy
  arrays of states and message segments at once (the decoder expands
  ``B * 2^k`` candidates per level, so vectorisation matters);
* :meth:`SaltedHashFamily.symbol_word` is the salted PRF that produces the
  64-bit word whose top bits feed the constellation mapper in pass ``l``.

The mixing function is a two-round splitmix64/xxhash-style finaliser keyed by
the family seed.  It is *not* cryptographic — the paper only requires good
statistical behaviour (uniformity and independence, equations (1)–(2)), which
the test-suite checks empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SaltedHashFamily",
    "splitmix64",
    "popcount64",
    "avalanche_score",
    "hash_spine_keyed",
    "symbol_word_keyed",
]

# splitmix64 constants (Steele, Lea & Flood; public domain reference values).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Additional odd constants used to key the spine / symbol / salt domains so
# the three uses of the mixer never collide on identical inputs.
_SPINE_DOMAIN = np.uint64(0xA24BAED4963EE407)
_SYMBOL_DOMAIN = np.uint64(0x9FB21C651E98DF25)
_PASS_STRIDE = np.uint64(0xD6E8FEB86659FD93)


def _mix(z: np.ndarray) -> np.ndarray:
    """One splitmix64 finalisation round (vectorised, wrap-around arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def splitmix64(value: np.ndarray | int) -> np.ndarray | int:
    """The splitmix64 state-to-output function, usable on scalars or arrays.

    Exposed primarily for tests and for deriving auxiliary constants; the
    encoder/decoder go through :class:`SaltedHashFamily`.
    """
    scalar = np.isscalar(value)
    z = np.asarray(value, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z + _GOLDEN
        z = _mix(z)
    return int(z) if scalar else z


def hash_spine_keyed(
    states: np.ndarray, segments: np.ndarray, key1: np.ndarray | np.uint64
) -> np.ndarray:
    """The raw ``h(s, m)`` kernel with an explicit family key.

    ``states``, ``segments`` and ``key1`` broadcast against each other, so a
    batch decoder can expand the stacked beams of *many* sessions — each
    with its own hash family — in a single call by passing a per-element (or
    per-row) key array.  :meth:`SaltedHashFamily.hash_spine` delegates here,
    which guarantees the batched and single-session spellings are the same
    arithmetic, element for element.
    """
    s = np.asarray(states, dtype=np.uint64)
    m = np.asarray(segments, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix(s ^ key1)
        z = _mix(z ^ (m * _GOLDEN) ^ _SPINE_DOMAIN)
        # A second absorption of the state guards against the (remote)
        # possibility of two (s, m) pairs colliding after one round.
        z = _mix(z ^ (s * _MIX1))
    return z


def symbol_word_keyed(
    states: np.ndarray, pass_index: np.ndarray, key2: np.ndarray | np.uint64
) -> np.ndarray:
    """The raw salted symbol PRF with an explicit family key.

    Broadcasting counterpart of :meth:`SaltedHashFamily.symbol_word` (which
    delegates here); see :func:`hash_spine_keyed` for why the key is a
    parameter.
    """
    s = np.asarray(states, dtype=np.uint64)
    p = np.asarray(pass_index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix(s ^ key2 ^ (p * _PASS_STRIDE))
        z = _mix(z ^ (s * _MIX2) ^ _SYMBOL_DOMAIN)
    return z


@dataclass(frozen=True)
class SaltedHashFamily:
    """A keyed hash family ``H`` shared by the encoder and decoder.

    Parameters
    ----------
    seed:
        The random index selecting ``h`` from the family.  Sender and
        receiver must use the same seed (in a deployment it would be derived
        from e.g. the packet header); everything else is deterministic.
    k:
        Message segment size in bits.  Stored so that segment values can be
        validated before they are hashed.
    """

    seed: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 32:
            raise ValueError(f"segment size k must be in [1, 32], got {self.k}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        # The spine and symbol keys, derived once: every hash call reads them.
        seed = np.uint64(self.seed)
        object.__setattr__(self, "_key1", np.uint64(splitmix64(seed ^ _SPINE_DOMAIN)))
        object.__setattr__(self, "_key2", np.uint64(splitmix64(seed ^ _SYMBOL_DOMAIN)))

    @property
    def initial_state(self) -> np.uint64:
        """The agreed-upon initial spine value ``s_0`` (Section 3.1)."""
        return np.uint64(0)

    # -- spine hash h(s, m) ------------------------------------------------
    def hash_spine(self, states: np.ndarray | int, segments: np.ndarray | int) -> np.ndarray:
        """Apply ``h(s, m)`` element-wise.

        ``states`` and ``segments`` broadcast against each other, so a
        decoder can expand every candidate state against every possible
        ``k``-bit segment in one call::

            children = family.hash_spine(states[:, None], all_segments[None, :])

        Returns a ``uint64`` array of new spine values.
        """
        m = np.asarray(segments, dtype=np.uint64)
        if m.size and int(m.max()) >= (1 << self.k):
            raise ValueError(
                f"segment value {int(m.max())} does not fit in k={self.k} bits"
            )
        return hash_spine_keyed(states, m, self._key1)

    def hash_spine_scalar(self, state: int, segment: int) -> int:
        """Scalar convenience wrapper around :meth:`hash_spine`."""
        return int(self.hash_spine(np.uint64(state), np.uint64(segment)))

    # -- salted symbol PRF -------------------------------------------------
    def symbol_word(self, states: np.ndarray | int, pass_index: int | np.ndarray) -> np.ndarray:
        """Return the 64-bit pseudo-random word for pass ``pass_index``.

        The paper treats each spine value as an infinite bit string and takes
        bits ``2c(l-1)+1 .. 2cl`` in pass ``l``.  With repeated salted
        hashing, pass ``l`` instead reads the top bits of
        ``PRF(s, l)`` — a fresh, independent word per pass, which is the
        practical realisation the paper describes.  ``pass_index`` is
        0-based here (pass ``l`` in the paper is ``pass_index = l - 1``).
        """
        if np.any(np.asarray(pass_index) < 0):
            raise ValueError("pass_index must be non-negative")
        return symbol_word_keyed(states, pass_index, self._key2)

    def symbol_value(
        self,
        states: np.ndarray | int,
        pass_index: int | np.ndarray,
        n_bits: int,
    ) -> np.ndarray:
        """Top ``n_bits`` bits of the pass word, as an unsigned integer array.

        This is the integer whose binary expansion is ``b'_1 ... b'_{n_bits}``
        in the paper's notation; the constellation mapper consumes it
        directly (``n_bits = 2c``), and the BSC encoder uses ``n_bits = 1``
        to obtain the single coded bit ``b'_1``.
        """
        if not 1 <= n_bits <= 64:
            raise ValueError(f"n_bits must be in [1, 64], got {n_bits}")
        word = self.symbol_word(states, pass_index)
        return word >> np.uint64(64 - n_bits)


def avalanche_score(family: SaltedHashFamily, n_samples: int, rng: np.random.Generator) -> float:
    """Measure the avalanche property of the spine hash.

    For ``n_samples`` random (state, segment) pairs, flip one random bit of
    the segment and count how many of the 64 output bits change.  A value
    close to 0.5 indicates the large codeword divergence the paper's Section
    4 ("the moment two messages differ in 1 bit, their output coded
    sequences have a large difference") relies on.

    Returns the mean fraction of output bits flipped.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    states = rng.integers(0, 2**63, size=n_samples, dtype=np.uint64)
    segments = rng.integers(0, 2**family.k, size=n_samples, dtype=np.uint64)
    flip_positions = rng.integers(0, family.k, size=n_samples)
    flipped = segments ^ (np.uint64(1) << flip_positions.astype(np.uint64))
    base = family.hash_spine(states, segments)
    perturbed = family.hash_spine(states, flipped)
    changed_bits = popcount64(base ^ perturbed)
    return float(changed_bits.mean() / 64.0)


def popcount64(values: np.ndarray) -> np.ndarray:
    """Per-element population count of a ``uint64`` array.

    Uses :func:`numpy.bitwise_count` where available (numpy >= 2.0) and an
    ``unpackbits``-over-bytes fallback otherwise; both are vectorised, unlike
    the per-element Python ``bin(x).count("1")`` loop they replace, which
    dominated the runtime of hash-quality sweeps over millions of samples.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values).astype(np.int64)
    as_bytes = values.view(np.uint8).reshape(values.size, 8)
    return np.unpackbits(as_bytes, axis=1).sum(axis=1).astype(np.int64).reshape(values.shape)
