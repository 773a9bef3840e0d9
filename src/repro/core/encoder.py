"""The rateless spinal encoder and the receiver-side observation store.

The encoder (Section 3.1) works in two stages:

1. compute the spine ``s_1 .. s_{n/k}`` of the message (once);
2. in pass ``l``, expand each spine value into ``2c`` fresh pseudo-random
   bits (via the salted hash) and map them to a constellation point
   (``bit_mode`` instead emits a single coded bit per spine value per pass,
   the paper's binary-channel variant).

Passes may be *punctured* (see :mod:`repro.core.puncturing`): the symbol
stream is organised into subpasses, each transmitting a subset of the spine
positions.  The encoder exposes both a batch API (``encode_passes``) used by
tests and analysis, and a streaming API (``symbol_stream``) used by the
rateless session, which yields one :class:`SubpassBlock` at a time until the
receiver says "stop".

The decoders need the encoder's notion of "what would have been sent from
this spine value in that pass"; that logic lives in
:meth:`SpinalEncoder.branch_costs` (over
:func:`repro.core.branch_kernel.branch_cost_kernel`), which literally
replays the encoder over candidate spine values — the paper's footnote 1
("replaying the encoder allows inference of the hash input bits ...; an
inverse of the hash function is not required").  Where a replay depends on
the code alone — the level after an observation-free prefix of the tree —
the encoder keeps its words in one bounded table,
:meth:`SpinalEncoder.prefix_replay_words`, for every decoder of the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.branch_kernel import branch_cost_kernel, replay_words
from repro.core.hashing import hash_spine_keyed
from repro.core.params import SpinalParams
from repro.core.puncturing import NoPuncturing, PuncturingSchedule
from repro.core.spine import SpineGenerator

__all__ = ["SpinalEncoder", "SubpassBlock", "ReceivedObservations"]

#: Observations a position's buffers hold before they first double.
_FIRST_CAPACITY = 4
#: What an empty position reads as (``np.asarray`` of an empty list).
_NO_PASSES = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)
_NO_PASSES.flags.writeable = False
_NO_VALUES.flags.writeable = False


@dataclass(frozen=True)
class SubpassBlock:
    """One subpass worth of channel uses.

    Attributes
    ----------
    subpass_index:
        0-based index of the subpass in the transmission order.
    positions:
        Spine positions (0-based) of the values transmitted in this subpass.
    pass_indices:
        For each position, how many symbols of that position had been sent
        before (i.e. the 0-based pass number used to salt the hash).
    values:
        The transmitted values: complex constellation points in symbol mode,
        0/1 coded bits in bit mode.
    """

    subpass_index: int
    positions: np.ndarray
    pass_indices: np.ndarray
    values: np.ndarray

    @property
    def n_symbols(self) -> int:
        return int(self.values.size)


class ReceivedObservations:
    """Receiver-side store of everything received so far.

    Observations are grouped by spine position because the decoder walks the
    tree position by position and needs, at level ``t``, every received value
    that was generated from spine value ``s_t`` (across all passes received
    so far), together with the pass index that salted it.

    Each position keeps its pass indices and values in a pair of arrays
    that double in capacity as they fill, so an append is one element
    write and reading a position is a ``[:count]`` view.  The store is
    append-only: observations are never removed or reordered, which is what
    lets the stateful decoder treat "same store object, same per-position
    version" (see :meth:`version_at`) as proof that a position's columns are
    unchanged since the last decode attempt.
    """

    def __init__(self, n_segments: int) -> None:
        if n_segments <= 0:
            raise ValueError(f"n_segments must be positive, got {n_segments}")
        self.n_segments = n_segments
        #: Per position: observations held, which is also its version.
        self._counts: list[int] = [0] * n_segments
        self._pass_buffers: list[np.ndarray] = [_NO_PASSES] * n_segments
        self._value_buffers: list[np.ndarray] = [_NO_VALUES] * n_segments
        self._total = 0
        #: Each position's views as last built, or ``None`` once it grew.
        self._columns: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n_segments

    def add_block(self, block: SubpassBlock, received_values: np.ndarray) -> None:
        """Record the received counterparts of one transmitted subpass."""
        received_values = np.asarray(received_values)
        if received_values.shape != block.values.shape:
            raise ValueError(
                f"received {received_values.shape} values for a subpass of "
                f"{block.values.shape}"
            )
        positions = np.asarray(block.positions).tolist()
        pass_indices = np.asarray(block.pass_indices).tolist()
        for position, pass_index in zip(positions, pass_indices):
            self._check(position, pass_index)
        dtype = received_values.dtype
        for position, pass_index, value in zip(
            positions, pass_indices, received_values.tolist()
        ):
            self._append(position, pass_index, value, dtype)

    def add(self, position: int, pass_index: int, value: complex) -> None:
        """Record a single received value for (position, pass)."""
        self._check(position, pass_index)
        self._append(position, pass_index, value, np.asarray(value).dtype)

    def _check(self, position: int, pass_index: int) -> None:
        if not 0 <= position < self.n_segments:
            raise ValueError(f"position {position} out of range [0, {self.n_segments})")
        if pass_index < 0:
            raise ValueError("pass_index must be non-negative")

    def _append(self, position: int, pass_index: int, value, dtype: np.dtype) -> None:
        n = self._counts[position]
        passes = self._pass_buffers[position]
        values = self._value_buffers[position]
        if not n:
            passes = np.empty(_FIRST_CAPACITY, dtype=np.int64)
            values = np.empty(_FIRST_CAPACITY, dtype=dtype)
        else:
            # A value of a wider type widens the position's values, as
            # np.asarray of the mixed list would.
            wide = values.dtype if dtype == values.dtype else np.promote_types(values.dtype, dtype)
            if n == passes.size or wide != values.dtype:
                # A full buffer doubles into a new one; views of the old one
                # stay valid snapshots.
                size = 2 * n if n == passes.size else passes.size
                grown = np.empty(size, dtype=np.int64)
                grown[:n] = passes[:n]
                passes = grown
                grown = np.empty(size, dtype=wide)
                grown[:n] = values[:n]
                values = grown
        passes[n] = pass_index
        values[n] = value
        self._pass_buffers[position] = passes
        self._value_buffers[position] = values
        self._counts[position] = n + 1
        self._total += 1
        self._columns[position] = None

    def version_at(self, position: int) -> int:
        """Monotone per-position change counter (0 while nothing received).

        Because the store is append-only, a caller that remembers both this
        store object and ``version_at(position)`` can later conclude — in
        O(1), without comparing arrays — that the position's observation
        columns are exactly as it last saw them whenever both still match.
        """
        if not 0 <= position < self.n_segments:
            raise ValueError(f"position {position} out of range [0, {self.n_segments})")
        return self._counts[position]

    def for_position(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (pass indices, received values) available at a position.

        The returned arrays are read-only views of the position's first
        ``count_at(position)`` entries, shared between callers until the
        position grows.  They remain valid (unchanged) snapshots if the
        store grows afterwards: appends write past them, and a full buffer
        is copied into a new one rather than resized.
        """
        if not 0 <= position < self.n_segments:
            raise ValueError(f"position {position} out of range [0, {self.n_segments})")
        return self._column(position)

    def columns(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`for_position` for every position, in position order.

        The batch decoder reads a whole store per call; this spares it one
        checked method call per position.  The arrays are the same views
        :meth:`for_position` returns.
        """
        return [
            column or self._column(position)
            for position, column in enumerate(self._columns)
        ]

    def _column(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        column = self._columns[position]
        if column is None:
            n = self._counts[position]
            pass_indices = self._pass_buffers[position][:n]
            values = self._value_buffers[position][:n]
            pass_indices.flags.writeable = False
            values.flags.writeable = False
            column = self._columns[position] = (pass_indices, values)
        return column

    def count_at(self, position: int) -> int:
        return self._counts[position]

    @property
    def total_symbols(self) -> int:
        """Total number of channel uses observed so far."""
        return self._total

    def truncated(self, n_symbols: int, blocks: list[SubpassBlock], received: list[np.ndarray]) -> "ReceivedObservations":
        """Rebuild an observation store containing only the first ``n_symbols``.

        Used by the bisection termination-search strategy, which records the
        full transmission once and then asks "would the receiver have decoded
        after only the first N channel uses?".
        """
        out = ReceivedObservations(self.n_segments)
        remaining = n_symbols
        for block, recv in zip(blocks, received):
            if remaining <= 0:
                break
            take = min(remaining, block.n_symbols)
            for position, pass_idx, value in list(
                zip(block.positions, block.pass_indices, recv)
            )[:take]:
                out.add(int(position), int(pass_idx), value)
            remaining -= take
        return out


class SpinalEncoder:
    """Rateless spinal encoder for one :class:`SpinalParams` configuration."""

    def __init__(
        self,
        params: SpinalParams,
        puncturing: PuncturingSchedule | None = None,
    ) -> None:
        self.params = params
        self.puncturing = puncturing if puncturing is not None else NoPuncturing()
        self.hash_family = params.make_hash_family()
        self.spine_generator = SpineGenerator(self.hash_family)
        self.constellation = None if params.bit_mode else params.make_constellation()
        self._key2 = self.hash_family._key2
        #: The replay table (:meth:`prefix_replay_words`): its key and words.
        self._replay_key: tuple | None = None
        self._replay_words: np.ndarray | None = None

    # -- stage 1: the spine ---------------------------------------------------
    def spine(self, message_bits: np.ndarray) -> np.ndarray:
        """Compute the spine of a message (one ``uint64`` per segment)."""
        return self.spine_generator.generate(message_bits)

    # -- stage 2: symbols from spine values -----------------------------------
    def values_from_spines(
        self, spine_values: np.ndarray | int, pass_index: int | np.ndarray
    ) -> np.ndarray:
        """What the encoder sends from given spine value(s) in a given pass.

        Returns complex constellation points in symbol mode, or 0/1 coded
        bits (``uint8``) in bit mode.  This is used both by the encoder
        proper and by the decoders when replaying candidate spines.
        """
        if self.params.bit_mode:
            bits = self.hash_family.symbol_value(spine_values, pass_index, 1)
            return bits.astype(np.uint8)
        word = self.hash_family.symbol_value(
            spine_values, pass_index, self.constellation.bits_per_symbol
        )
        return self.constellation.map_values(word)

    def encode_passes(self, message_bits: np.ndarray, n_passes: int) -> np.ndarray:
        """Encode ``n_passes`` full (un-punctured) passes.

        Returns an array of shape ``(n_passes, n_segments)``: row ``l`` holds
        the symbols (or coded bits) of pass ``l`` in spine order.  This is
        the layout of Figure 1 in the paper and is convenient for analysis;
        the rateless session uses :meth:`symbol_stream` instead.
        """
        if n_passes <= 0:
            raise ValueError(f"n_passes must be positive, got {n_passes}")
        spine = self.spine(message_bits)
        dtype = np.uint8 if self.params.bit_mode else np.complex128
        out = np.empty((n_passes, spine.size), dtype=dtype)
        for pass_index in range(n_passes):
            out[pass_index] = self.values_from_spines(spine, pass_index)
        return out

    def symbol_stream(self, message_bits: np.ndarray) -> Iterator[SubpassBlock]:
        """Yield subpass blocks indefinitely, following the puncturing schedule.

        The stream is infinite (the code is rateless); the consumer stops
        iterating when the receiver has decoded or the sender gives up.
        """
        spine = self.spine(message_bits)
        n_segments = spine.size
        times_sent = np.zeros(n_segments, dtype=np.int64)
        subpass_index = 0
        while True:
            positions = self.puncturing.subpass_positions(subpass_index, n_segments)
            if positions.size:
                pass_indices = times_sent[positions].copy()
                values = self.values_from_spines(spine[positions], pass_indices)
                times_sent[positions] += 1
                yield SubpassBlock(
                    subpass_index=subpass_index,
                    positions=positions,
                    pass_indices=pass_indices,
                    values=values,
                )
            subpass_index += 1

    # -- decoder support --------------------------------------------------------
    def branch_costs(
        self,
        candidate_spines: np.ndarray,
        position: int,
        observations: ReceivedObservations,
    ) -> np.ndarray:
        """Replay the encoder over candidate spine values and score them.

        For every candidate spine value at tree level ``position`` this
        computes the summed per-pass cost against every observation received
        for that position: squared Euclidean distance in symbol mode
        (the ML metric for AWGN, Eq. (4)), Hamming distance in bit mode
        (the ML metric for the BSC).
        """
        candidate_spines = np.asarray(candidate_spines, dtype=np.uint64)
        pass_indices, received = observations.for_position(position)
        if pass_indices.size == 0:
            return np.zeros(candidate_spines.shape, dtype=np.float64)
        # One 2-D vectorised evaluation: rows are candidates, columns are the
        # observations (passes) available at this position.
        levels = None if self.params.bit_mode else self.constellation.axis_levels()
        matrix = branch_cost_kernel(
            candidate_spines.reshape(-1, 1),
            pass_indices[None, :],
            received[None, :],
            self._key2,
            levels,
        )
        return matrix.sum(axis=1).reshape(candidate_spines.shape)

    def prefix_replay_words(
        self,
        position: int,
        max_unpruned_width: int,
        pass_indices: np.ndarray,
        parents: np.ndarray,
    ) -> np.ndarray:
        """Replayed words of the level after an observation-free prefix.

        A beam decoder that sees no observation before tree level
        ``position`` reaches it with the same ``parents`` on every attempt:
        all costs are zero, so what it keeps depends only on this code,
        ``position`` and its ``max_unpruned_width``.  The replay stage's
        words (:func:`~repro.core.branch_kernel.replay_words`) for the
        parents' ``2^k`` children each at ``pass_indices`` — shaped
        ``(observations, parents x 2^k)``, candidates last in parent order —
        are then a function of the code, so one table serves the first
        decode attempt of every packet sent with it.

        ``parents`` must be that beam; the caller bounds its size.  The
        encoder holds one read-only table, keyed by ``(position,
        max_unpruned_width, pass indices)``, and a new key replaces it.
        """
        key = (position, max_unpruned_width, tuple(pass_indices.tolist()))
        if key != self._replay_key:
            segments = np.arange(1 << self.params.k, dtype=np.uint64)
            children = hash_spine_keyed(
                parents[:, None], segments[None, :], self.hash_family._key1
            )
            levels = None if self.params.bit_mode else self.constellation.axis_levels()
            words = replay_words(
                children.reshape(1, -1), pass_indices[:, None], self._key2, levels
            )
            words.flags.writeable = False
            self._replay_key, self._replay_words = key, words
        return self._replay_words

    def total_cost(
        self, message_bits: np.ndarray, observations: ReceivedObservations
    ) -> float:
        """Full path cost of a specific message against all observations.

        Equals the decoder's tree-path cost for that message; used in tests
        to verify that the decoders return true minimum-cost paths.
        """
        spine = self.spine(message_bits)
        total = 0.0
        for position in range(spine.size):
            total += float(
                self.branch_costs(spine[position : position + 1], position, observations)[0]
            )
        return total
