"""Spine generation: the sequential hashed backbone of the code.

Section 3.1: the encoder divides the message into ``n/k`` segments
``M_1, ..., M_{n/k}`` and computes the *spine*

    s_0 = 0,   s_t = h(s_{t-1}, M_t).

Each spine value is subsequently expanded into symbols (one per pass); the
spine itself is computed once per message and is what makes encoding linear
in the message size.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashing import SaltedHashFamily, hash_spine_keyed
from repro.utils.bitops import pack_segments, unpack_segments

__all__ = ["SpineGenerator"]


class SpineGenerator:
    """Computes spines from messages and exposes incremental extension.

    The decoder re-uses :meth:`extend` to "replay the encoder" over candidate
    message segments, which is the central trick that makes the tree decoder
    possible without inverting the hash function.
    """

    def __init__(self, hash_family: SaltedHashFamily) -> None:
        self.hash_family = hash_family

    @property
    def k(self) -> int:
        return self.hash_family.k

    def segment_values(self, message_bits: np.ndarray) -> np.ndarray:
        """Split a message into its ``k``-bit segment integers ``M_t``."""
        return pack_segments(message_bits, self.k)

    def segments_to_bits(self, segments: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`segment_values` (used when backtracking a decode)."""
        return unpack_segments(segments, self.k)

    def generate(self, message_bits: np.ndarray) -> np.ndarray:
        """Return the spine ``(s_1, ..., s_{n/k})`` for a message.

        The returned array has one ``uint64`` entry per segment; ``s_0`` is
        not included (it is :attr:`SaltedHashFamily.initial_state`).
        """
        family = self.hash_family
        segments = self.segment_values(message_bits)
        # Validated once here rather than by every one-step hash below.
        if segments.size and int(segments.max()) >> self.k:
            raise ValueError(
                f"segment value {int(segments.max())} does not fit in k={self.k} bits"
            )
        spine = np.empty(segments.size, dtype=np.uint64)
        state = family.initial_state
        key1 = family._key1
        for t, segment in enumerate(segments):
            state = hash_spine_keyed(state, segment, key1)
            spine[t] = state
        return spine

    def extend(self, states: np.ndarray | int, segments: np.ndarray | int) -> np.ndarray:
        """Advance spine state(s) by one segment; broadcasts like ``h``.

        This is the one-step version used by the decoders: given candidate
        states at tree level ``t-1`` and candidate segments ``M_t``, it
        returns the candidate states at level ``t``.
        """
        return self.hash_family.hash_spine(states, segments)
