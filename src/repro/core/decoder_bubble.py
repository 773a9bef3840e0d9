"""The practical "bubble" (beam / M-algorithm) decoder with graceful scale-down.

Section 3.2 of the paper: the ideal ML decoder explores a tree with ``2^k``
children per node and ``2^n`` leaves.  The practical decoder keeps, at every
level, only the ``B`` nodes with the smallest cumulative path cost:

    "When it receives the next symbol, it temporarily expands each node to
     B * 2^k possible nodes, calculates the cumulative path cost to each of
     these temporary nodes, and then maintains only the B lowest-cost ones."

Its complexity is linear in the message length and exponential only in ``k``
(a small constant), and the achieved rate approaches capacity as ``B`` grows
— the *graceful scale-down* property examined in experiment E5.

Implementation notes
--------------------
* The whole expansion at one level is a single vectorised numpy operation
  over ``B * 2^k`` candidates (hash, constellation map, distance).
* When a level has no observations yet (possible under aggressive
  puncturing), there is no signal to prune on; pruning to ``B`` would drop
  the true path almost surely.  In that situation the decoder keeps *all*
  children of the surviving nodes, up to ``max_unpruned_width`` (default
  ``B * 2^k``), deferring pruning to the next level that has symbols.
* Ties are broken arbitrarily (by candidate order), as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoder import ReceivedObservations, SpinalEncoder

__all__ = ["BubbleDecoder", "DecodeResult"]


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decode attempt.

    Attributes
    ----------
    message_bits:
        The decoder's best estimate of the framed message bits.
    path_cost:
        Cumulative cost of the winning tree path (sum of squared Euclidean
        distances for AWGN, Hamming distance for BSC).
    candidates_explored:
        Decoder work of this attempt in tree nodes, the unit defined in
        :mod:`repro.core.decoder_vectorized` (used by experiments
        E5/E6/E14).  A from-scratch decode pays one per node it scores.
    beam_trace:
        Number of nodes retained after pruning at each level.
    """

    message_bits: np.ndarray
    path_cost: float
    candidates_explored: int
    beam_trace: tuple[int, ...]

    @property
    def n_bits(self) -> int:
        return int(self.message_bits.size)


class BubbleDecoder:
    """Beam-search decoder replaying the spinal encoder over a pruned tree."""

    def __init__(
        self,
        encoder: SpinalEncoder,
        beam_width: int = 16,
        max_unpruned_width: int | None = None,
    ) -> None:
        if beam_width < 1:
            raise ValueError(f"beam_width must be at least 1, got {beam_width}")
        self.encoder = encoder
        self.beam_width = beam_width
        k = encoder.params.k
        default_cap = beam_width * (1 << k)
        self.max_unpruned_width = (
            default_cap if max_unpruned_width is None else max_unpruned_width
        )
        if self.max_unpruned_width < beam_width:
            raise ValueError("max_unpruned_width must be at least beam_width")

    # ----------------------------------------------------------------------
    def decode(
        self, n_message_bits: int, observations: ReceivedObservations
    ) -> DecodeResult:
        """Decode a message of ``n_message_bits`` bits from the observations.

        ``n_message_bits`` must be a multiple of the code's ``k`` and match
        ``observations.n_segments``; the rateless session guarantees both.
        """
        params = self.encoder.params
        k = params.k
        n_segments = params.n_segments(n_message_bits)
        if observations.n_segments != n_segments:
            raise ValueError(
                f"observations were sized for {observations.n_segments} segments "
                f"but the message has {n_segments}"
            )

        hash_family = self.encoder.hash_family
        all_segments = np.arange(1 << k, dtype=np.uint64)

        # Current beam.
        states = np.array([hash_family.initial_state], dtype=np.uint64)
        costs = np.zeros(1, dtype=np.float64)

        # Backtracking info per level.
        parent_history: list[np.ndarray] = []
        segment_history: list[np.ndarray] = []
        beam_trace: list[int] = []
        candidates_explored = 0

        for position in range(n_segments):
            # Expand every surviving node by every possible k-bit segment.
            child_states = hash_family.hash_spine(states[:, None], all_segments[None, :])
            child_costs = costs[:, None] + self.encoder.branch_costs(
                child_states.reshape(-1), position, observations
            ).reshape(child_states.shape)

            flat_states = child_states.reshape(-1)
            flat_costs = child_costs.reshape(-1)
            candidates_explored += flat_costs.size

            has_observations = observations.count_at(position) > 0
            if has_observations:
                keep = min(self.beam_width, flat_costs.size)
            else:
                keep = min(self.max_unpruned_width, flat_costs.size)

            if keep < flat_costs.size:
                kept_idx = np.argpartition(flat_costs, keep - 1)[:keep]
            else:
                kept_idx = np.arange(flat_costs.size)

            states = flat_states[kept_idx]
            costs = flat_costs[kept_idx]
            parent_history.append(kept_idx // (1 << k))
            segment_history.append((kept_idx % (1 << k)).astype(np.uint64))
            beam_trace.append(int(kept_idx.size))

        # Backtrack from the best leaf.
        best = int(np.argmin(costs))
        segments = np.empty(n_segments, dtype=np.uint64)
        node = best
        for position in range(n_segments - 1, -1, -1):
            segments[position] = segment_history[position][node]
            node = int(parent_history[position][node])

        message_bits = self.encoder.spine_generator.segments_to_bits(segments)
        return DecodeResult(
            message_bits=message_bits,
            path_cost=float(costs[best]),
            candidates_explored=candidates_explored,
            beam_trace=tuple(beam_trace),
        )
