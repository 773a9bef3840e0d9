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
inverse of the hash function is not required").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.branch_kernel import branch_cost_kernel
from repro.core.params import SpinalParams
from repro.core.puncturing import NoPuncturing, PuncturingSchedule
from repro.core.spine import SpineGenerator

__all__ = ["SpinalEncoder", "SubpassBlock", "ReceivedObservations"]


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

    The store is append-only: observations are never removed or reordered,
    which is what lets the incremental decoders treat "same store object,
    same per-position version" (see :meth:`version_at`) as proof that a
    position's columns are unchanged since the last decode attempt.
    """

    def __init__(self, n_segments: int) -> None:
        if n_segments <= 0:
            raise ValueError(f"n_segments must be positive, got {n_segments}")
        self.n_segments = n_segments
        self._pass_indices: list[list[int]] = [[] for _ in range(n_segments)]
        self._values: list[list[complex]] = [[] for _ in range(n_segments)]
        self._total = 0
        self._versions: list[int] = [0] * n_segments
        self._array_cache: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}

    def add_block(self, block: SubpassBlock, received_values: np.ndarray) -> None:
        """Record the received counterparts of one transmitted subpass."""
        received_values = np.asarray(received_values)
        if received_values.shape != block.values.shape:
            raise ValueError(
                f"received {received_values.shape} values for a subpass of "
                f"{block.values.shape}"
            )
        for position, pass_idx, value in zip(
            block.positions, block.pass_indices, received_values
        ):
            self.add(int(position), int(pass_idx), value)

    def add(self, position: int, pass_index: int, value: complex) -> None:
        """Record a single received value for (position, pass)."""
        if not 0 <= position < self.n_segments:
            raise ValueError(f"position {position} out of range [0, {self.n_segments})")
        if pass_index < 0:
            raise ValueError("pass_index must be non-negative")
        self._pass_indices[position].append(pass_index)
        self._values[position].append(value)
        self._total += 1
        self._versions[position] += 1

    def version_at(self, position: int) -> int:
        """Monotone per-position change counter (0 while nothing received).

        Because the store is append-only, a caller that remembers both this
        store object and ``version_at(position)`` can later conclude — in
        O(1), without comparing arrays — that the position's observation
        columns are exactly as it last saw them whenever both still match.
        """
        if not 0 <= position < self.n_segments:
            raise ValueError(f"position {position} out of range [0, {self.n_segments})")
        return self._versions[position]

    def for_position(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (pass indices, received values) available at a position.

        The returned arrays are cached, immutable snapshots: they are marked
        read-only, are shared between callers, and remain valid (unchanged)
        if the store grows afterwards — later calls return fresh arrays
        instead of mutating old ones.  The decode hot path calls this once
        per tree level per attempt, so the list-to-array conversion must not
        be paid again while a position is unchanged.
        """
        if not 0 <= position < self.n_segments:
            raise ValueError(f"position {position} out of range [0, {self.n_segments})")
        version = self._versions[position]
        cached = self._array_cache.get(position)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        pass_indices = np.asarray(self._pass_indices[position], dtype=np.int64)
        values = np.asarray(self._values[position])
        pass_indices.flags.writeable = False
        values.flags.writeable = False
        self._array_cache[position] = (version, pass_indices, values)
        return pass_indices, values

    def count_at(self, position: int) -> int:
        return len(self._values[position])

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
    def branch_cost_columns(
        self,
        candidate_spines: np.ndarray,
        pass_indices: np.ndarray,
        received: np.ndarray,
    ) -> np.ndarray:
        """Per-observation cost matrix for candidate spine values.

        Returns a C-contiguous ``float64`` matrix of shape
        ``(n_candidates, n_observations)``: entry ``(i, j)`` is the cost of
        candidate ``i`` against the ``j``-th observation (a received value
        salted with ``pass_indices[j]``) — squared Euclidean distance in
        symbol mode, 0/1 Hamming mismatch in bit mode.

        Each entry depends only on ``(spine value, pass index, received
        value)``, never on the shape of the call, so the matrix can be
        assembled column-by-column (or row-by-row) across decode attempts and
        still be bit-identical to a single batched evaluation — the property
        the incremental decoder's caching relies on.
        """
        spines = np.asarray(candidate_spines, dtype=np.uint64).reshape(-1)
        pass_indices = np.asarray(pass_indices, dtype=np.int64)
        levels = None if self.params.bit_mode else self.constellation.axis_levels()
        return branch_cost_kernel(
            spines[:, None],
            pass_indices[None, :],
            np.asarray(received)[None, :],
            self._key2,
            levels,
        )

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
        matrix = self.branch_cost_columns(
            candidate_spines.reshape(-1), pass_indices, received
        )
        return matrix.sum(axis=1).reshape(candidate_spines.shape)

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
