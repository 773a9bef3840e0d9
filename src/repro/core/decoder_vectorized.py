"""Vectorized batch decoding engine: whole-beam array ops, batched sessions.

This module is the third generation of the practical decoder:

* :class:`~repro.core.decoder_bubble.BubbleDecoder` — the from-scratch
  reference (one vectorised expansion per level, restarts every attempt);
* :class:`~repro.core.decoder_incremental.IncrementalBubbleDecoder` — PR 1's
  stateful engine (resumes from cached beams, caches cost-matrix entries);
* :class:`VectorizedBubbleDecoder` (here) — same caching contract, but the
  per-attempt bookkeeping is restructured so an attempt touches only arrays
  that actually changed:

  - **grow-in-place cost buffers**: each level owns one C-contiguous
    ``(n_children, capacity)`` matrix; a new observation appends a column
    instead of reallocating and copying the whole matrix (the incremental
    engine pays a full copy per level per attempt);
  - **cached row sums**: a level whose expansion and observation set are
    unchanged reuses its summed branch costs, collapsing the level to one
    broadcast add plus one ``argpartition`` — O(beam) instead of
    O(beam x observations);
  - **O(1) change detection**: :meth:`ReceivedObservations.version_at`
    replaces per-attempt column comparisons for the common append-only case;
  - **lazy sort orders**: the sorted-state index used to re-match rows after
    beam drift is built only when a drift actually happens;
  - **vectorized backtracking**: the winning path is recovered with
    whole-beam gathers per level rather than a scalar parent walk.

The results contract is unchanged and exact: for any sequence of observation
sets, ``decode`` returns the same ``message_bits`` and ``path_cost`` (to the
last ulp, same tie-breaks) as a fresh :class:`BubbleDecoder`, which the
randomized differential suite in ``tests/test_decoder_vectorized.py`` locks
down.  ``candidates_explored`` keeps the incremental engine's semantics: the
cost work actually performed in this attempt, in units of one full tree-node
evaluation.

:class:`BatchDecoder` is the batch front: it decodes *many* concurrent
sessions (all users of a MAC cell, all hops of a relay chain, a worker's
whole trial batch) per call, stacking every session's beam into single hash
/ constellation / distance kernels so the per-session numpy dispatch
overhead is amortised across the batch.  Per-session results are bit-exact
with :class:`BubbleDecoder` run one session at a time.

Every engine scores candidates through the one table-driven kernel,
:func:`~repro.core.branch_kernel.branch_cost_kernel`: the single-session
engine via :meth:`SpinalEncoder.branch_cost_columns`, the batch front with
one hash key per stacked session.

An optional numba ``@njit`` tier (enable with ``use_njit=True`` or
``REPRO_NJIT=1``) compiles the beam-expansion hash; it is used only when
numba imports, falls back to the pure-numpy path silently otherwise, and is
bit-exact where active (integer hashing is exact arithmetic).
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.branch_kernel import branch_cost_kernel
from repro.core.decoder_bubble import BubbleDecoder, DecodeResult
from repro.core.decoder_incremental import IncrementalBubbleDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.hashing import hash_spine_keyed
from repro.obs.telemetry import current as current_telemetry

__all__ = [
    "VectorizedBubbleDecoder",
    "BatchDecoder",
    "DECODER_ENGINES",
    "make_decoder_factory",
    "njit_available",
]

NJIT_ENV = "REPRO_NJIT"


def njit_available() -> bool:
    """Whether the optional numba tier can be used in this interpreter."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def _njit_requested(use_njit: bool | None) -> bool:
    if use_njit is not None:
        return bool(use_njit)
    return os.environ.get(NJIT_ENV, "").lower() in ("1", "true", "yes")


# ---------------------------------------------------------------------------
# Optional numba kernels.  Built lazily (and at most once per process); the
# pure-numpy path below is the default and the only path exercised when numba
# is not installed.
_NJIT_KERNELS: dict | None = None


def _build_njit_kernels() -> dict | None:
    global _NJIT_KERNELS
    if _NJIT_KERNELS is not None:
        return _NJIT_KERNELS or None
    if not njit_available():
        _NJIT_KERNELS = {}
        return None
    import numba

    from repro.core import hashing as _h

    GOLDEN = _h._GOLDEN
    MIX1 = _h._MIX1
    MIX2 = _h._MIX2
    SPINE_DOMAIN = _h._SPINE_DOMAIN
    u64 = np.uint64

    @numba.njit(inline="always")
    def _mix(z):
        z = (z ^ (z >> u64(30))) * MIX1
        z = (z ^ (z >> u64(27))) * MIX2
        return z ^ (z >> u64(31))

    @numba.njit
    def expand(states, width, key1):
        """hash_spine of every state against every k-bit segment, flat."""
        n = states.size
        out = np.empty(n * width, dtype=np.uint64)
        for i in range(n):
            s = states[i]
            a = _mix(s ^ key1)
            tail = s * MIX1
            for m in range(width):
                z = _mix(a ^ (u64(m) * GOLDEN) ^ SPINE_DOMAIN)
                out[i * width + m] = _mix(z ^ tail)
        return out

    _NJIT_KERNELS = {"expand": expand}
    return _NJIT_KERNELS


# ---------------------------------------------------------------------------
class _LevelCache:
    """Persistent parent-keyed cost cache for one tree level.

    Instead of caching only the last attempt's expansion, the level keeps
    every parent block it has recently evaluated: block ``b`` holds the
    ``2^k`` children of ``parent_keys[b]`` as rows
    ``[b * width, (b + 1) * width)`` of the grow-in-place arrays.  An
    attempt then reduces to a parent *lookup* — hits reuse their block's
    child states, cost entries, and cached row sums in place, with no
    per-attempt copying no matter how the beam drifted; only genuinely new
    parents and genuinely new observation columns are ever computed.

    ``costs`` grows in both directions (rows when blocks append, columns
    when observations arrive).  Column growth copies every retained row, so
    :meth:`compact_grow` doubles as the eviction point: blocks whose
    ``last_used`` stamp is cold get dropped there, keeping both the copy and
    the resident matrix bounded no matter how long the transmission runs.
    ``sums`` caches the pairwise row sums of ``costs[:, :n_obs]``; a row's
    sum depends only on that row, so block reuse transfers sums for free.
    The last attempt's pruning outputs (``kept_idx`` .. ``segments``) are
    kept for resume and backtracking.
    """

    __slots__ = (
        "width", "n_blocks", "parent_keys", "col_filled", "last_used",
        "states", "costs",
        "sums", "n_obs", "obs_pass_indices", "obs_values", "obs_version",
        "_sorted_keys", "_sort_order",
        "kept_idx", "beam_states", "beam_costs", "parents", "segments",
    )

    #: Compaction keeps at most this many blocks (the hottest ones).
    KEEP_BLOCKS = 128
    #: Blocks idle for more than this many attempts are dropped on compaction.
    KEEP_ATTEMPTS = 8

    def __init__(self, width: int) -> None:
        self.width = width
        self.n_blocks = 0
        self.parent_keys = np.empty(0, dtype=np.uint64)
        self.col_filled = np.empty(0, dtype=np.int64)
        self.last_used = np.empty(0, dtype=np.int64)
        self.states = np.empty(0, dtype=np.uint64)
        self.costs = np.empty((0, 0), dtype=np.float64)
        self.sums = np.empty(0, dtype=np.float64)
        self.n_obs = 0
        self.obs_pass_indices = np.empty(0, dtype=np.int64)
        self.obs_values = np.empty(0, dtype=np.float64)
        self.obs_version = -1
        self._sorted_keys: np.ndarray | None = None
        self._sort_order: np.ndarray | None = None
        self.kept_idx: np.ndarray | None = None
        self.beam_states: np.ndarray | None = None
        self.beam_costs: np.ndarray | None = None
        self.parents: np.ndarray | None = None
        self.segments: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.n_blocks * self.width

    def set_obs(
        self, pass_indices: np.ndarray, values: np.ndarray, version: int
    ) -> None:
        self.obs_pass_indices = pass_indices
        self.obs_values = values
        self.n_obs = pass_indices.size
        self.obs_version = version

    def lookup(self, parents: np.ndarray) -> np.ndarray:
        """Block index per parent state, ``-1`` where the parent is unknown."""
        if self.n_blocks == 0:
            # A cache with no blocks has nothing to probe; returning early
            # also guards the np.minimum clamp below, which would wrap to
            # index -1 on an empty sorted array.
            return np.full(parents.size, -1, dtype=np.int64)
        if self._sorted_keys is None:
            self._sort_order = np.argsort(self.parent_keys, kind="stable")
            self._sorted_keys = self.parent_keys[self._sort_order]
        idx = np.searchsorted(self._sorted_keys, parents)
        idx = np.minimum(idx, self._sorted_keys.size - 1)
        hit = self._sorted_keys[idx] == parents
        return np.where(hit, self._sort_order[idx], np.int64(-1))

    def needs_compaction(self, n_cols: int) -> bool:
        """True when column capacity must grow or the block set got cold-heavy."""
        return (
            n_cols > self.costs.shape[1] or self.n_blocks > 3 * self.KEEP_BLOCKS
        )

    def compact_grow(self, n_cols: int, now: int) -> None:
        """Grow column capacity, evicting cold blocks in the same copy.

        Reallocation copies every retained row, so it doubles as the
        eviction point: blocks that were not hit within the last
        ``KEEP_ATTEMPTS`` attempts are dropped (their parents simply
        recompute on the next miss), and at most ``KEEP_BLOCKS`` survive.
        That bounds the copy and the resident matrix no matter how long the
        transmission runs.  Cache contents never influence decode outputs —
        only how much work the next attempt reuses — so eviction choices are
        a pure performance policy.
        """
        n = self.n_blocks
        keep = np.nonzero(self.last_used[:n] >= now - self.KEEP_ATTEMPTS)[0]
        if keep.size > self.KEEP_BLOCKS:
            hottest = np.argsort(self.last_used[keep], kind="stable")
            keep = keep[np.sort(hottest[-self.KEEP_BLOCKS :])]
        width = self.width
        new_cap = max(n_cols, 2 * self.costs.shape[1], 16)
        n_copy = min(self.n_obs, self.costs.shape[1])
        rows = (
            keep[:, None] * width + np.arange(width, dtype=np.int64)
        ).reshape(-1)
        # Allocate with row headroom so the appends that follow a compaction
        # don't immediately trigger a full-copy regrowth.
        row_cap = max(2 * rows.size, 8 * width)
        states = np.empty(row_cap, dtype=np.uint64)
        states[: rows.size] = self.states[rows]
        self.states = states
        costs = np.empty((row_cap, new_cap), dtype=np.float64)
        costs[: rows.size, :n_copy] = self.costs[rows, :n_copy]
        self.costs = costs
        sums = np.empty(row_cap, dtype=np.float64)
        sums[: rows.size] = self.sums[rows]
        self.sums = sums
        self.parent_keys = np.ascontiguousarray(self.parent_keys[keep])
        self.col_filled = np.ascontiguousarray(self.col_filled[keep])
        self.last_used = np.ascontiguousarray(self.last_used[keep])
        self.n_blocks = keep.size
        self._sorted_keys = None
        self._sort_order = None

    def append_blocks(self, keys: np.ndarray, children: np.ndarray) -> int:
        """Append one block per key; return the first new block index."""
        b0 = self.n_blocks
        r0 = b0 * self.width
        r1 = r0 + children.size
        if r1 > self.states.size:
            new_cap = max(r1, 2 * self.states.size, 4 * self.width)
            states = np.empty(new_cap, dtype=np.uint64)
            states[:r0] = self.states[:r0]
            self.states = states
            costs = np.empty((new_cap, self.costs.shape[1]), dtype=np.float64)
            costs[:r0, : self.n_obs] = self.costs[:r0, : self.n_obs]
            self.costs = costs
            sums = np.empty(new_cap, dtype=np.float64)
            sums[:r0] = self.sums[:r0]
            self.sums = sums
        self.states[r0:r1] = children
        self.parent_keys = np.concatenate([self.parent_keys, keys])
        self.col_filled = np.concatenate(
            [self.col_filled, np.zeros(keys.size, dtype=np.int64)]
        )
        self.last_used = np.concatenate(
            [self.last_used, np.zeros(keys.size, dtype=np.int64)]
        )
        self.n_blocks = b0 + keys.size
        self._sorted_keys = None
        self._sort_order = None
        return b0


class VectorizedBubbleDecoder:
    """Whole-beam array-op decoder; stateful drop-in for :class:`BubbleDecoder`.

    Constructor signature and the :meth:`decode` contract match
    :class:`BubbleDecoder` exactly (plus ``use_njit`` for the optional numba
    tier); like :class:`IncrementalBubbleDecoder`, consecutive calls share
    per-level caches, so one instance serves one transmission — call
    :meth:`reset` (or decode a different message length) to start over.
    """

    def __init__(
        self,
        encoder: SpinalEncoder,
        beam_width: int = 16,
        max_unpruned_width: int | None = None,
        use_njit: bool | None = None,
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
        self._all_segments = np.arange(1 << k, dtype=np.uint64)
        self._width = 1 << k
        self._key1 = encoder.hash_family._key1
        #: The numba tier is active only when requested *and* importable —
        #: a request with numba absent falls back to pure numpy silently.
        self.njit_active = False
        self._njit = None
        if _njit_requested(use_njit):
            kernels = _build_njit_kernels()
            if kernels is not None:
                self._njit = kernels
                self.njit_active = True
        self.candidates_explored_total = 0
        self.decode_calls = 0
        self._tel = current_telemetry()
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all cached state (the cumulative work counters survive)."""
        self._levels: list[_LevelCache] = []
        self._n_segments: int | None = None
        self._last_result: DecodeResult | None = None
        self._last_store: ReceivedObservations | None = None

    # ------------------------------------------------------------------
    def _expand(self, states: np.ndarray) -> np.ndarray:
        if self.njit_active:
            return self._njit["expand"](
                np.ascontiguousarray(states, dtype=np.uint64), self._width, self._key1
            )
        children = hash_spine_keyed(
            states[:, None], self._all_segments[None, :], self._key1
        )
        return children.reshape(-1)

    def _fill_rows(
        self,
        cache: _LevelCache,
        rows: np.ndarray,
        pass_indices: np.ndarray,
        values: np.ndarray,
        col0: int,
    ) -> None:
        """Write branch-cost columns ``[col0, col0 + len(pass_indices))`` of
        the given (possibly scattered) cost-matrix rows, then refresh their
        cached row sums over all ``[0, col0 + len(pass_indices))`` columns."""
        # Consecutive rows (the common case: freshly appended blocks) go
        # through plain slice views — no fancy-index gather/scatter copies.
        # A strided row-prefix view sums bit-identically to a compacted
        # copy: each row's prefix is contiguous, and numpy's pairwise
        # reduction over axis=1 works row by row.
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        contiguous = r1 - r0 == rows.size
        states = cache.states[r0:r1] if contiguous else cache.states[rows]
        n_obs = col0 + pass_indices.size
        block = self.encoder.branch_cost_columns(states, pass_indices, values)
        # When the fill starts at column 0 the freshly computed block *is*
        # the whole summed prefix, so sum it directly instead of re-reading
        # the rows back out of the big matrix (same per-row pairwise
        # reduction, so the floats are identical).
        if contiguous:
            cache.costs[r0:r1, col0:n_obs] = block
            if col0 == 0:
                cache.sums[r0:r1] = block.sum(axis=1)
            else:
                cache.sums[r0:r1] = cache.costs[r0:r1, :n_obs].sum(axis=1)
        else:
            cache.costs[rows, col0:n_obs] = block
            if col0 == 0:
                cache.sums[rows] = block.sum(axis=1)
            else:
                cache.sums[rows] = cache.costs[rows, :n_obs].sum(axis=1)

    @staticmethod
    def _column_overlap(
        cache: _LevelCache, pass_indices: np.ndarray, values: np.ndarray
    ) -> int:
        """Length of the shared observation prefix between cache and now."""
        m = min(cache.n_obs, pass_indices.size)
        if m == 0:
            return 0
        match = (pass_indices[:m] == cache.obs_pass_indices[:m]) & (
            values[:m] == cache.obs_values[:m]
        )
        if match.all():
            return m
        return int(np.argmin(match))

    def _level_overlap(
        self, cache: _LevelCache, observations: ReceivedObservations, position: int
    ) -> tuple[int, int]:
        """Return (shared column prefix, current column count) at a position.

        The fast path — same store object, same per-position version — needs
        no array work at all; otherwise the columns are compared.
        """
        version = observations.version_at(position)
        if (
            observations is self._last_store
            and cache.obs_version == version
        ):
            return cache.n_obs, cache.n_obs
        pass_indices, values = observations.for_position(position)
        common = self._column_overlap(cache, pass_indices, values)
        if common == cache.n_obs == pass_indices.size:
            # Identical columns reached through a different store (the
            # bisection strategy rebuilds truncated stores): re-stamp so the
            # next attempt takes the O(1) path.
            cache.obs_version = version
            cache.obs_pass_indices = pass_indices
            cache.obs_values = values
        return common, pass_indices.size

    def _resume_level(self, observations: ReceivedObservations, n_segments: int) -> int:
        """First tree level whose cached state the observations invalidate."""
        if len(self._levels) != n_segments:
            return 0
        for position in range(n_segments):
            cache = self._levels[position]
            common, n_now = self._level_overlap(cache, observations, position)
            if not (common == cache.n_obs == n_now):
                return position
        return n_segments

    # ------------------------------------------------------------------
    def decode(
        self, n_message_bits: int, observations: ReceivedObservations
    ) -> DecodeResult:
        """Decode, reusing whatever previous attempts already established.

        Semantics (message bits, path cost, beam trace) are identical to
        ``BubbleDecoder.decode`` on the same observations;
        ``candidates_explored`` counts only the cost work performed in *this*
        attempt (see :class:`IncrementalBubbleDecoder` for the unit).
        """
        params = self.encoder.params
        k = params.k
        n_segments = params.n_segments(n_message_bits)
        if observations.n_segments != n_segments:
            raise ValueError(
                f"observations were sized for {observations.n_segments} segments "
                f"but the message has {n_segments}"
            )
        if self._n_segments is not None and self._n_segments != n_segments:
            self.reset()
        self._n_segments = n_segments
        self.decode_calls += 1
        tel = self._tel
        t0 = tel.now_s() if tel.enabled else 0.0

        resume = self._resume_level(observations, n_segments)
        if resume == n_segments and self._last_result is not None:
            result = DecodeResult(
                message_bits=self._last_result.message_bits,
                path_cost=self._last_result.path_cost,
                candidates_explored=0,
                beam_trace=self._last_result.beam_trace,
            )
            self._last_result = result
            self._last_store = observations
            if tel.enabled:
                tel.counter("decoder.decodes")
                tel.counter("decoder.resume_shortcuts")
                tel.observe("decoder.decode_s", tel.now_s() - t0)
            return result

        if resume == 0:
            states = np.array(
                [self.encoder.hash_family.initial_state], dtype=np.uint64
            )
            costs = np.zeros(1, dtype=np.float64)
        else:
            states = self._levels[resume - 1].beam_states
            costs = self._levels[resume - 1].beam_costs

        width = self._width
        explored = 0
        cache_hits = 0
        cache_misses = 0
        evicted = 0
        for position in range(resume, n_segments):
            cache = self._levels[position] if position < len(self._levels) else None
            pass_indices, values = observations.for_position(position)
            n_obs = pass_indices.size
            version = observations.version_at(position)
            entries = 0
            hashed = 0

            if cache is not None and cache.n_obs:
                common = min(
                    self._column_overlap(cache, pass_indices, values), n_obs
                )
                if common < cache.n_obs:
                    # The shared observation prefix shrank or diverged (a
                    # bisection replay): every cached cost column beyond it
                    # is stale in every block, so restart the level rather
                    # than patch blocks column-wise.
                    cache = None
            if cache is None:
                cache = _LevelCache(width)
            if cache.needs_compaction(n_obs):
                blocks_before = cache.n_blocks
                cache.compact_grow(n_obs, self.decode_calls)
                evicted += blocks_before - cache.n_blocks

            blocks = cache.lookup(states)
            miss = blocks < 0
            if tel.enabled:
                n_miss = int(np.count_nonzero(miss))
                cache_misses += n_miss
                cache_hits += states.size - n_miss
            if miss.any():
                miss_parents = states[miss]
                children = self._expand(miss_parents)
                hashed += children.size
                b0 = cache.append_blocks(miss_parents, children)
                blocks[miss] = np.arange(b0, cache.n_blocks, dtype=np.int64)
            cache.last_used[blocks] = self.decode_calls
            cache.set_obs(pass_indices, values, version)

            if n_obs:
                # Lazily fill cost columns for exactly the blocks this beam
                # touches: newly appended blocks need all columns, retained
                # blocks only the observations that arrived since they were
                # last active — dormant blocks stay stale until re-hit.
                active = np.unique(blocks)
                stale = active[cache.col_filled[active] < n_obs]
                if stale.size:
                    offsets = np.arange(width, dtype=np.int64)
                    for f in np.unique(cache.col_filled[stale]):
                        f = int(f)
                        sel = stale[cache.col_filled[stale] == f]
                        rows = (sel[:, None] * width + offsets).reshape(-1)
                        self._fill_rows(
                            cache, rows, pass_indices[f:], values[f:], f
                        )
                        entries += rows.size * (n_obs - f)
                    cache.col_filled[stale] = n_obs

            # Work accounting: identical semantics to the incremental engine
            # — fresh matrix entries pro-rata per full node evaluation,
            # expansion hashing charged at observation-free levels.
            if n_obs:
                explored += -(-entries // n_obs)
            else:
                explored += hashed

            # Cumulative costs and pruning — the same expressions as
            # BubbleDecoder so ties and ulps agree.  Row sums depend only on
            # their own row (numpy's pairwise summation is per contiguous
            # row), so gathering cached per-block sums reproduces the exact
            # floats a fresh full-matrix sum would produce.
            n_rows = cache.n_rows
            if n_obs:
                branch_blocks = cache.sums[:n_rows].reshape(-1, width)[blocks]
            else:
                branch_blocks = np.zeros(
                    (states.size, width), dtype=np.float64
                )
            child_costs = costs[:, None] + branch_blocks
            flat_costs = child_costs.reshape(-1)
            if n_obs > 0:
                keep = min(self.beam_width, flat_costs.size)
            else:
                keep = min(self.max_unpruned_width, flat_costs.size)
            if keep < flat_costs.size:
                kept_idx = np.argpartition(flat_costs, keep - 1)[:keep]
            else:
                kept_idx = np.arange(flat_costs.size)

            kept_parents = kept_idx // width
            kept_segments = (kept_idx % width).astype(np.uint64)
            cache.kept_idx = kept_idx
            cache.beam_states = cache.states[:n_rows].reshape(-1, width)[
                blocks[kept_parents], kept_segments
            ]
            cache.beam_costs = flat_costs[kept_idx]
            cache.parents = kept_parents
            cache.segments = kept_segments
            if position < len(self._levels):
                self._levels[position] = cache
            else:
                self._levels.append(cache)
            states = cache.beam_states
            costs = cache.beam_costs

        # Vectorized backtracking: recover every survivor's segment path with
        # one gather per level, then select the best leaf's column.
        last = self._levels[n_segments - 1]
        nodes = np.arange(last.beam_costs.size)
        paths = np.empty((n_segments, nodes.size), dtype=np.uint64)
        for position in range(n_segments - 1, -1, -1):
            level = self._levels[position]
            paths[position] = level.segments[nodes]
            nodes = level.parents[nodes]
        best = int(np.argmin(last.beam_costs))
        segments = paths[:, best]

        message_bits = self.encoder.spine_generator.segments_to_bits(segments)
        self.candidates_explored_total += explored
        self._last_store = observations
        result = DecodeResult(
            message_bits=message_bits,
            path_cost=float(last.beam_costs[best]),
            candidates_explored=explored,
            beam_trace=tuple(int(level.kept_idx.size) for level in self._levels),
        )
        self._last_result = result
        if tel.enabled:
            tel.counter("decoder.decodes")
            tel.counter("decoder.levels_expanded", n_segments - resume)
            tel.counter("decoder.cache_hits", cache_hits)
            tel.counter("decoder.cache_misses", cache_misses)
            if evicted:
                tel.counter("decoder.cache_evictions", evicted)
            tel.observe("decoder.decode_s", tel.now_s() - t0)
        return result


# ---------------------------------------------------------------------------
#: Cap on elements per stacked kernel call.  Session chunks are sized so the
#: ``sessions x candidates x observations`` working set (8–16 bytes per
#: element across the hash/constellation/distance intermediates) stays
#: cache-resident; one giant stacked call spills L2 and runs slower than the
#: per-session spelling it replaces.
_MAX_STACK_ELEMENTS = 1 << 16


def _session_chunks(members: "list[int]", per_session: int, max_elements: int):
    """Split a same-shape session group into cache-sized chunks."""
    step = max(1, max_elements // max(per_session, 1))
    for start in range(0, len(members), step):
        yield members[start : start + step]


def _stack_rows(arrays: "list[np.ndarray]") -> np.ndarray:
    """``np.stack`` for same-shape 1-D rows, minus its shape introspection.

    The batch kernels stack tens of small per-session rows thousands of
    times per decode, where ``np.stack``'s per-call bookkeeping (shape
    set-building, per-array ``expand_dims``) costs more than the copies.
    A preallocated fill produces the identical array.
    """
    first = arrays[0]
    out = np.empty((len(arrays),) + first.shape, dtype=first.dtype)
    for j, row in enumerate(arrays):
        out[j] = row
    return out


class BatchDecoder:
    """Decode many concurrent spinal sessions as stacked whole-beam array ops.

    All sessions must share the code *shape* — segment size ``k``, mode and
    constellation parameters — but may (and in the relay/cell scenarios do)
    use independent hash-family seeds: the expansion and symbol hashes take
    per-element key arrays (:func:`~repro.core.hashing.hash_spine_keyed`),
    so one kernel call covers every session.  Ragged per-session observation
    sets are handled by stacking the candidate x observation products into
    one flat kernel call and splitting afterwards; only the cheap per-session
    reductions (row sums, pruning) loop over sessions, which keeps them
    bit-exact with a per-session :class:`BubbleDecoder`.

    Use :meth:`decode_all` with one observation store per session; results
    are returned in session order and are bit-identical (``message_bits``,
    ``path_cost``, ``beam_trace``, ``candidates_explored``) to running the
    from-scratch reference on each session separately.  :meth:`decode_subset`
    decodes any subset of the registered sessions per call — the serve
    engine's ragged/late-joining admission path, where the in-flight
    membership changes tick by tick.
    """

    def __init__(
        self,
        encoders: "list[SpinalEncoder] | tuple[SpinalEncoder, ...]",
        beam_width: int = 16,
        max_unpruned_width: int | None = None,
        max_stack_elements: int | None = None,
    ) -> None:
        if not encoders:
            raise ValueError("BatchDecoder needs at least one session encoder")
        if beam_width < 1:
            raise ValueError(f"beam_width must be at least 1, got {beam_width}")
        if max_stack_elements is not None and max_stack_elements < 1:
            raise ValueError(
                f"max_stack_elements must be at least 1, got {max_stack_elements}"
            )
        first = encoders[0].params
        for encoder in encoders:
            if encoder.params.with_(seed=first.seed) != first:
                raise ValueError(
                    "all batched sessions must share the code shape (k, mode, "
                    "constellation); only hash seeds may differ"
                )
        self.encoders = list(encoders)
        self.beam_width = beam_width
        k = first.k
        default_cap = beam_width * (1 << k)
        self.max_unpruned_width = (
            default_cap if max_unpruned_width is None else max_unpruned_width
        )
        if self.max_unpruned_width < beam_width:
            raise ValueError("max_unpruned_width must be at least beam_width")
        self._k = k
        self._width = 1 << k
        self._all_segments = np.arange(self._width, dtype=np.uint64)
        self._key1s = np.array(
            [e.hash_family._key1 for e in self.encoders], dtype=np.uint64
        )
        self._key2s = np.array(
            [e.hash_family._key2 for e in self.encoders], dtype=np.uint64
        )
        #: The shared code shape's axis-level table (``None`` in bit mode).
        self._levels = None if first.bit_mode else encoders[0].constellation.axis_levels()
        #: Cap on elements per stacked kernel call (see module constant).  A
        #: per-instance knob so callers — and the serve engine's determinism
        #: tests — can prove chunking never changes decode outputs.
        self.max_stack_elements = (
            _MAX_STACK_ELEMENTS if max_stack_elements is None else int(max_stack_elements)
        )
        self._tel = current_telemetry()

    @property
    def n_sessions(self) -> int:
        return len(self.encoders)

    # ------------------------------------------------------------------
    def _expand_all(
        self, states_list: list[np.ndarray], key1s: np.ndarray
    ) -> list[np.ndarray]:
        """Expand every session's beam with grouped broadcast hash calls.

        Sessions whose beams are the same width (the common lock-step case)
        stack into one ``(sessions, states, segments)`` broadcast of the
        keyed expansion hash — no materialised repeat/tile index products,
        so the memory traffic is just the output array.  The hash is
        elementwise, so each session's slice equals its single-session
        expansion bit for bit.  ``key1s`` is aligned with ``states_list``
        (one expansion key per decoded session, which for a subset decode is
        a gather of the registered keys).
        """
        flat_list: list[np.ndarray] = [None] * len(states_list)  # type: ignore[list-item]
        groups: dict[int, list[int]] = {}
        for session, states in enumerate(states_list):
            groups.setdefault(states.size, []).append(session)
        for members in groups.values():
            per_session = states_list[members[0]].size * self._width
            for chunk in _session_chunks(members, per_session, self.max_stack_elements):
                states = _stack_rows([states_list[s] for s in chunk])
                keys = key1s[np.asarray(chunk)][:, None, None]
                children = hash_spine_keyed(
                    states[:, :, None], self._all_segments[None, None, :], keys
                )
                for j, session in enumerate(chunk):
                    flat_list[session] = children[j].reshape(-1)
        return flat_list

    def _branch_all(
        self,
        flat_list: list[np.ndarray],
        obs_list: list[tuple[np.ndarray, np.ndarray]],
        key2s: np.ndarray,
    ) -> list[np.ndarray | None]:
        """Summed branch costs per session from grouped broadcast kernels.

        Sessions whose candidate and observation counts agree (the common
        lock-step case) stack into one ``(sessions, candidates,
        observations)`` broadcast evaluation — keyed symbol hash,
        constellation map and distance run once per group with no
        materialised index products.  Each session's slice of the 3-D
        result is a C-contiguous ``(candidates, observations)`` matrix, so
        its row sums match the per-session
        ``branch_cost_columns(...).sum(axis=1)`` bit for bit.
        """
        branches: list[np.ndarray | None] = [None] * len(flat_list)
        groups: dict[tuple[int, int], list[int]] = {}
        for session, (flat, (pass_indices, _values)) in enumerate(
            zip(flat_list, obs_list)
        ):
            # Sessions with no observations yet at this position (a late
            # joiner whose first block landed elsewhere, or a degenerate
            # member with an empty store) contribute no branch costs: they
            # are left at None here and get an explicit zero-cost branch in
            # the reduction loop, exactly like the single-session engines.
            if pass_indices.size:
                groups.setdefault((flat.size, pass_indices.size), []).append(session)
        for (n_cand, n_obs), members in groups.items():
            for chunk in _session_chunks(
                members, n_cand * n_obs, self.max_stack_elements
            ):
                self._branch_chunk(chunk, flat_list, obs_list, branches, key2s)
        return branches

    def _branch_chunk(
        self,
        members: list[int],
        flat_list: list[np.ndarray],
        obs_list: list[tuple[np.ndarray, np.ndarray]],
        branches: "list[np.ndarray | None]",
        key2s: np.ndarray,
    ) -> None:
        cands = _stack_rows([flat_list[s] for s in members])
        passes = _stack_rows([obs_list[s][0] for s in members])
        received = _stack_rows([obs_list[s][1] for s in members])
        keys = key2s[np.asarray(members)][:, None, None]
        entries = branch_cost_kernel(
            cands[:, :, None], passes[:, None, :], received[:, None, :], keys, self._levels
        )
        # numpy reduces each contiguous last-axis row pairwise on its own, so
        # row j of the chunk's one reduction is entries[j].sum(axis=1) bit
        # for bit.
        sums = entries.sum(axis=2)
        for j, session in enumerate(members):
            branches[session] = sums[j]

    # ------------------------------------------------------------------
    def decode_all(
        self,
        n_message_bits: int,
        observations_list: "list[ReceivedObservations]",
    ) -> list[DecodeResult]:
        """Decode one message per session; bit-exact with per-session decodes."""
        if len(observations_list) != len(self.encoders):
            raise ValueError(
                f"got {len(observations_list)} observation stores for "
                f"{len(self.encoders)} sessions"
            )
        return self.decode_subset(
            n_message_bits, observations_list, range(len(self.encoders))
        )

    def decode_subset(
        self,
        n_message_bits: int,
        observations_list: "list[ReceivedObservations]",
        sessions: "list[int] | range",
    ) -> list[DecodeResult]:
        """Decode a ragged subset of the registered sessions in one batch.

        ``sessions`` names registered encoder indices; ``observations_list``
        is aligned with it (one store per listed session).  This is the
        serve engine's admission path: sessions join and leave the in-flight
        set tick by tick, so each flush decodes whichever members have a
        fresh block — without rebuilding the batch for every membership
        change.  Results come back in ``sessions`` order and are bit-exact
        with per-session decodes, independent of the subset's composition
        and of :attr:`max_stack_elements` chunking.
        """
        sessions = [int(s) for s in sessions]
        if len(observations_list) != len(sessions):
            raise ValueError(
                f"got {len(observations_list)} observation stores for "
                f"{len(sessions)} subset sessions"
            )
        if len(set(sessions)) != len(sessions):
            raise ValueError("subset sessions must be distinct")
        for s in sessions:
            if not 0 <= s < len(self.encoders):
                raise IndexError(
                    f"session index {s} out of range for {len(self.encoders)} "
                    "registered sessions"
                )
        if not sessions:
            return []
        tel = self._tel
        t0 = tel.now_s() if tel.enabled else 0.0
        encoders = [self.encoders[s] for s in sessions]
        index = np.asarray(sessions, dtype=np.int64)
        key1s = self._key1s[index]
        key2s = self._key2s[index]
        n_segments = encoders[0].params.n_segments(n_message_bits)
        for observations in observations_list:
            if observations.n_segments != n_segments:
                raise ValueError(
                    f"observations were sized for {observations.n_segments} "
                    f"segments but the message has {n_segments}"
                )

        n_sessions = len(encoders)
        states_list = [
            np.array([e.hash_family.initial_state], dtype=np.uint64)
            for e in encoders
        ]
        costs_list = [np.zeros(1, dtype=np.float64) for _ in range(n_sessions)]
        parent_history: list[list[np.ndarray]] = [[] for _ in range(n_sessions)]
        segment_history: list[list[np.ndarray]] = [[] for _ in range(n_sessions)]
        beam_traces: list[list[int]] = [[] for _ in range(n_sessions)]
        explored = [0] * n_sessions

        width = self._width
        for position in range(n_segments):
            flat_list = self._expand_all(states_list, key1s)
            obs_list = [
                observations.for_position(position)
                for observations in observations_list
            ]
            branches = self._branch_all(flat_list, obs_list, key2s)
            # Batched pruning: sessions in lock-step (same candidate and
            # parent counts, same gating) stack into one argpartition /
            # gather over axis 1.  numpy partitions each row independently
            # with the same introselect a 1-D call uses, so per-session
            # results — indices, tie-breaks, costs to the last ulp — are
            # identical to the per-session spelling this replaces.
            groups: dict[tuple[int, int, bool], list[int]] = {}
            for session in range(n_sessions):
                groups.setdefault(
                    (
                        flat_list[session].size,
                        costs_list[session].size,
                        obs_list[session][0].size > 0,
                    ),
                    [],
                ).append(session)
            for (n_cand, n_parents, has_observations), members in groups.items():
                if has_observations:
                    keep = min(self.beam_width, n_cand)
                else:
                    keep = min(self.max_unpruned_width, n_cand)
                for chunk in _session_chunks(
                    members, n_cand, self.max_stack_elements
                ):
                    n_members = len(chunk)
                    flat_states = (
                        flat_list[chunk[0]][None, :]
                        if n_members == 1
                        else _stack_rows([flat_list[s] for s in chunk])
                    )
                    parent_costs = (
                        costs_list[chunk[0]][None, :]
                        if n_members == 1
                        else _stack_rows([costs_list[s] for s in chunk])
                    )
                    if has_observations:
                        branch = (
                            branches[chunk[0]][None, :]
                            if n_members == 1
                            else _stack_rows([branches[s] for s in chunk])
                        )
                    else:
                        branch = np.zeros((n_members, n_cand), dtype=np.float64)
                    flat_costs = (
                        parent_costs[:, :, None]
                        + branch.reshape(n_members, n_parents, width)
                    ).reshape(n_members, n_cand)
                    if keep < n_cand:
                        kept_idx = np.argpartition(flat_costs, keep - 1, axis=1)[
                            :, :keep
                        ]
                        new_costs = np.take_along_axis(flat_costs, kept_idx, axis=1)
                        new_states = np.take_along_axis(
                            flat_states, kept_idx, axis=1
                        )
                        kept_parents = kept_idx // width
                        kept_segments = (kept_idx % width).astype(np.uint64)
                        for j, session in enumerate(chunk):
                            explored[session] += n_cand
                            states_list[session] = new_states[j]
                            costs_list[session] = new_costs[j]
                            parent_history[session].append(kept_parents[j])
                            segment_history[session].append(kept_segments[j])
                            beam_traces[session].append(keep)
                    else:
                        # Nothing is pruned: the kept set is every candidate
                        # in order, so skip the gather copies entirely and
                        # share one parent/segment index row across the
                        # chunk (history rows are read-only).
                        all_idx = np.arange(n_cand)
                        kept_parents_row = all_idx // width
                        kept_segments_row = (all_idx % width).astype(np.uint64)
                        for j, session in enumerate(chunk):
                            explored[session] += n_cand
                            states_list[session] = flat_states[j]
                            costs_list[session] = flat_costs[j]
                            parent_history[session].append(kept_parents_row)
                            segment_history[session].append(kept_segments_row)
                            beam_traces[session].append(keep)

        results: list[DecodeResult] = []
        for session in range(n_sessions):
            costs = costs_list[session]
            nodes = np.arange(costs.size)
            paths = np.empty((n_segments, nodes.size), dtype=np.uint64)
            for position in range(n_segments - 1, -1, -1):
                paths[position] = segment_history[session][position][nodes]
                nodes = parent_history[session][position][nodes]
            best = int(np.argmin(costs))
            message_bits = encoders[session].spine_generator.segments_to_bits(
                paths[:, best]
            )
            results.append(
                DecodeResult(
                    message_bits=message_bits,
                    path_cost=float(costs[best]),
                    candidates_explored=explored[session],
                    beam_trace=tuple(beam_traces[session]),
                )
            )
        if tel.enabled:
            tel.counter("decoder.batch_decodes")
            tel.counter("decoder.batch_sessions", n_sessions)
            tel.observe("decoder.batch_decode_s", tel.now_s() - t0)
        return results


# ---------------------------------------------------------------------------
#: Decoding-engine registry behind the ``decoder=`` seam: every scenario
#: (Monte-Carlo runner, CLI, link transport, relay, cell, code families)
#: selects its engine by one of these names.
DECODER_ENGINES = {
    "bubble": BubbleDecoder,
    "incremental": IncrementalBubbleDecoder,
    "vectorized": VectorizedBubbleDecoder,
}


def make_decoder_factory(name: str, beam_width: int):
    """A ``decoder_factory`` (encoder -> decoder) for a registered engine."""
    try:
        cls = DECODER_ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown decoder {name!r}; expected one of {sorted(DECODER_ENGINES)}"
        ) from None

    def factory(encoder: SpinalEncoder):
        return cls(encoder, beam_width=beam_width)

    return factory
