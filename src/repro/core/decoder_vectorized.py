"""Vectorized batch decoding engine: whole-beam array ops, batched sessions.

:class:`VectorizedBubbleDecoder` is the practical decoder every rateless
receiver runs.  It returns what a fresh
:class:`~repro.core.decoder_bubble.BubbleDecoder` (the from-scratch
reference) returns on the same observations, but it keeps state between
the attempts of one transmission, so an attempt touches only arrays that
actually changed:

- **resume**: the beam kept at tree level ``t`` depends only on the
  observations at positions ``0..t``, so an attempt restarts at the first
  level whose observations changed;
- **parent-keyed blocks**: each level keeps the children of recently
  seen parent states as blocks of one candidates-last ``(blocks, columns,
  2^k)`` cost array, found with one dictionary probe per beam parent — a
  drifted beam re-sorts nothing;
- **sized to what it holds**: a level holds the current beam's blocks
  plus at most twice the beam width of earlier ones, a new parent takes
  the least recently used slot, and cost columns grow only when the
  observations outgrow them;
- **cached row sums**: a block whose observation set is unchanged reuses
  its summed branch costs, collapsing the level to one broadcast add plus
  one ``argpartition`` — O(beam) instead of O(beam x observations);
- **O(1) change detection**: :meth:`ReceivedObservations.version_at` and
  the store's append-only contract replace per-attempt column comparisons
  for the common growing-store case;
- **replay table**: when no level before the first observed one has an
  observation, the beam that reaches it depends only on the code, the
  level and ``max_unpruned_width``, so that level is scored from the
  encoder's table of replayed words
  (:meth:`~repro.core.encoder.SpinalEncoder.prefix_replay_words`), shared
  by every packet the code decodes; only the kept children's states are
  hashed, and the level stores no blocks.  Tail-first puncturing makes
  this every packet's first attempt.  The table is built only for levels
  of at most ``_MAX_STACK_ELEMENTS`` candidates.

The results contract is exact: for any sequence of observation sets —
growing (the on-line sequential receiver), or truncated and replayed in
any order (the bisection search) — ``decode`` returns the same
``message_bits`` and ``path_cost`` (to the last ulp, same tie-breaks) and
``beam_trace`` as a fresh :class:`BubbleDecoder`, which the randomized
differential suite in ``tests/test_decoder_vectorized.py`` locks down.

Decoder work
------------
``candidates_explored`` counts the work of one attempt in tree nodes: one
unit is one node scored against every observation at its level, which is
what the from-scratch decoder pays per node.  The count is a function of
the attempt history alone, never of what the block caches happen to
hold: it is the number of cost entries a cache of *only the last attempt*
would have to compute.  A per-level ledger — the parent states the last
attempt expanded at the level and the observation columns it saw there —
applies the rule:

- levels before the resume level cost nothing, and an attempt whose
  observations are unchanged costs 0;
- at a level with ``n_obs`` observations, the columns shared with the
  last attempt (their common prefix) are free for rows whose parent the
  last attempt expanded there; every row pays the columns beyond that
  prefix; the level costs ``ceil(entries / n_obs)``;
- at an observation-free level, the expansion costs ``n_parents x 2^k``
  unless the parent beam is the last attempt's, in the same order.

These are the "tree nodes" the k-sweep and scale-down experiments report;
``tests/golden/decoder_work.json`` pins them per attempt.

:class:`BatchDecoder` is the batch front: it decodes *many* concurrent
sessions (a serve flush, a calibration step's packets) per call.  Sessions
whose stores observe the same set of tree levels prune to the same beam
width at every level, so each such partition walks the tree in lock-step
as ``(sessions, beam)`` arrays: one keyed expansion, branch-cost kernels
per shared observation count, and one row-wise prune per level, then one
backtrack for the whole partition — no per-session Python in the level
loop.  Per-session results, work included, are bit-exact with
:class:`BubbleDecoder` run one session at a time.

Both engines score candidates through the one table-driven kernel,
:func:`~repro.core.branch_kernel.branch_cost_kernel`, called candidates-last
— ``(blocks, observations, 2^k)`` with the session's hash key in the
single-session engine, ``(rows, observations, candidates)`` with one key per
stacked session in the batch front — and both sum the observation planes
with :func:`~repro.core.branch_kernel.plane_sum`.  The kernel is its two
exact stages composed, the replay stage
(:func:`~repro.core.branch_kernel.replay_words`: keyed symbol hash, top
bits) and the distance stage
(:func:`~repro.core.branch_kernel.replay_distance`); a level scored from
the replay table runs the distance stage alone over the stored words, so
its costs are the floats the whole kernel gives.
"""

from __future__ import annotations

import numpy as np

from repro.core.branch_kernel import branch_cost_kernel, plane_sum, replay_distance
from repro.core.decoder_bubble import BubbleDecoder, DecodeResult
from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.hashing import hash_spine_keyed
from repro.obs.telemetry import current as current_telemetry

__all__ = ["VectorizedBubbleDecoder", "BatchDecoder", "DECODER_ENGINES"]


#: Cap on elements per stacked kernel call.  Row slices are sized so the
#: ``sessions x candidates x observations`` working set (8–16 bytes per
#: element across the hash/constellation/distance intermediates) stays
#: cache-resident, and so an unpruned level's ``sessions x candidates``
#: arrays stay small; one giant stacked call spills L2 and runs slower.
#: It also bounds the candidates of a level scored from an encoder's
#: replay table, so a table holds at most this many words per pass.
_MAX_STACK_ELEMENTS = 1 << 16


# ---------------------------------------------------------------------------
class _LevelCache:
    """Persistent parent-keyed cost cache for one tree level.

    Slot ``b`` holds the ``2^k`` children of parent state ``keys[b]``: their
    states ``states[b]``, their branch costs against the level's first
    ``col_filled[b]`` observations ``costs[b, :col_filled[b]]`` (one
    ``2^k``-wide plane per observation, candidates last), and the row sums
    of those costs ``sums[b]``.  An attempt reduces to a parent
    lookup — hits reuse their block's child states, cost entries and row
    sums in place, whatever order the beam drifted into; only genuinely new
    parents and genuinely new observation columns are ever computed.  A
    row's sum depends only on that row, so a reused block's sums are the
    floats a fresh decode would compute.

    The arrays are sized to what they hold: slots for the current beam plus
    ``keep`` earlier blocks, and only as many cost columns as the
    observations need (see :meth:`reserve`).  A new parent's block takes the
    least recently used slot, so a churning beam moves no data; the slots
    are rebuilt (:meth:`compact_grow`) only when the beam outgrows them or
    is far smaller than them, and more columns copy only the cost array.
    Cache contents never influence decode outputs or work counts — only
    how much computation the next attempt reuses — so eviction is a pure
    performance policy.

    The level's ledger is what the last attempt saw here: its observation
    columns (``obs_pass_indices``, ``obs_values``) and the parent states it
    expanded (``seen_parents``).  Work is counted against the ledger alone
    (see the module docstring), and it survives :meth:`drop_blocks`.  The
    last attempt's pruning outputs (``kept_idx`` .. ``segments``) are kept
    for resume and backtracking.
    """

    __slots__ = (
        "width", "keep", "index", "keys", "col_filled", "last_used",
        "states", "costs", "sums",
        "n_obs", "obs_pass_indices", "obs_values", "obs_version", "seen_parents",
        "kept_idx", "beam_states", "beam_costs", "parents", "segments",
    )

    def __init__(self, width: int, keep: int) -> None:
        self.width = width
        #: Blocks held beyond the current beam's, for parents that drift
        #: out of the beam and back in.
        self.keep = keep
        self.drop_blocks()
        self.n_obs = 0
        self.obs_pass_indices = np.empty(0, dtype=np.int64)
        self.obs_values = np.empty(0, dtype=np.float64)
        self.obs_version = -1
        #: Parent states the last attempt expanded at this level, in order.
        self.seen_parents: list[int] = []
        self.kept_idx: np.ndarray | None = None
        self.beam_states: np.ndarray | None = None
        self.beam_costs: np.ndarray | None = None
        self.parents: np.ndarray | None = None
        self.segments: np.ndarray | None = None

    def drop_blocks(self) -> None:
        """Forget every cached block; the ledger stays."""
        width = self.width
        #: Parent state -> slot of every resident block.
        self.index: dict[int, int] = {}
        self.keys = np.empty(0, dtype=np.uint64)
        self.col_filled = np.empty(0, dtype=np.int64)
        #: Attempt that last used each slot; ``-1`` marks an empty slot.
        self.last_used = np.empty(0, dtype=np.int64)
        self.states = np.empty((0, width), dtype=np.uint64)
        self.costs = np.empty((0, 0, width), dtype=np.float64)
        self.sums = np.empty((0, width), dtype=np.float64)

    def work(self, parents: list[int], common: int, n_obs: int) -> int:
        """Tree nodes this level costs, from the ledger (module docstring).

        ``parents`` is this attempt's parent beam and ``common`` the length
        of the observation prefix it shares with the ledger's columns.
        """
        seen = self.seen_parents
        n_parents = len(parents)
        if not n_obs:
            return 0 if parents == seen else n_parents * self.width
        if not common:
            reused = 0
        elif parents == seen:
            reused = n_parents
        else:
            known = set(seen)
            reused = sum(parent in known for parent in parents)
        # A reused parent's rows pay only the columns past the shared prefix.
        entries = (n_parents * n_obs - reused * common) * self.width
        return -(-entries // n_obs)

    @property
    def n_blocks(self) -> int:
        """Resident blocks."""
        return len(self.index)

    def set_obs(
        self, pass_indices: np.ndarray, values: np.ndarray, version: int
    ) -> None:
        self.obs_pass_indices = pass_indices
        self.obs_values = values
        self.n_obs = pass_indices.size
        self.obs_version = version

    def lookup(self, parents: np.ndarray) -> list[int]:
        """Slot per parent state, ``-1`` where the parent is unknown."""
        get = self.index.get
        return [get(p, -1) for p in parents.tolist()]

    def reserve(self, blocks: np.ndarray, n_new: int, n_cols: int) -> np.ndarray:
        """Make the arrays fit this beam and ``n_cols`` observation columns.

        ``blocks`` is the beam's slots (:meth:`lookup`, as an array), with
        ``n_new`` misses; it comes back renumbered if the slots were rebuilt.
        Slots about double as blocks arrive, up to room for the beam plus
        ``keep`` earlier blocks; past that, new blocks evict the least
        recently used.  Slots numbering over four times that bound (after
        the unpruned expansion of an observation-free level) shrink back.
        Columns only ever grow: exactly to the first observations a level
        sees, then by at least four or a quarter, copying only the cost
        array.
        """
        rows, cols = self.costs.shape[:2]
        if n_cols > cols:
            cols = n_cols if not cols else max(n_cols, cols + max(4, cols // 4))
        bound = self.keep + blocks.size
        full = self.n_blocks + n_new > rows
        if rows <= 4 * bound and not (full and rows < bound):
            if cols > self.costs.shape[1]:
                costs = np.empty((rows, cols, self.width), dtype=np.float64)
                costs[:, : self.costs.shape[1]] = self.costs
                self.costs = costs
            return blocks
        n_rows = min(bound, 2 * (self.n_blocks + n_new) + blocks.size)
        kept = self.last_used >= 0
        hits = blocks[blocks >= 0]
        kept[hits] = False
        cold = np.flatnonzero(kept)
        spare = n_rows - n_new - hits.size
        if cold.size > spare:
            recent = np.argsort(self.last_used[cold], kind="stable")
            kept[:] = False
            kept[cold[recent[cold.size - spare :]]] = True
        kept[hits] = True
        if rows:
            renumber = np.cumsum(kept) - 1
            blocks = np.where(blocks >= 0, renumber[blocks], blocks)
        self.compact_grow(np.flatnonzero(kept), n_rows, cols)
        return blocks

    def compact_grow(self, survivors: np.ndarray, n_rows: int, n_cols: int) -> None:
        """Rebuild the arrays as ``n_rows`` slots of ``n_cols`` columns.

        Blocks ``survivors`` (ascending) move to the front in order and every
        other block is dropped; only filled cost columns are copied.
        """
        m = survivors.size
        filled = int(self.col_filled[survivors].max()) if m else 0
        states = np.empty((n_rows, self.width), dtype=np.uint64)
        states[:m] = self.states[survivors]
        costs = np.empty((n_rows, n_cols, self.width), dtype=np.float64)
        costs[:m, :filled] = self.costs[survivors, :filled]
        sums = np.empty((n_rows, self.width), dtype=np.float64)
        sums[:m] = self.sums[survivors]
        keys = np.empty(n_rows, dtype=np.uint64)
        keys[:m] = self.keys[survivors]
        col_filled = np.zeros(n_rows, dtype=np.int64)
        col_filled[:m] = self.col_filled[survivors]
        last_used = np.full(n_rows, -1, dtype=np.int64)
        last_used[:m] = self.last_used[survivors]
        self.states, self.costs, self.sums = states, costs, sums
        self.keys, self.col_filled, self.last_used = keys, col_filled, last_used
        self.index = dict(zip(keys[:m].tolist(), range(m)))

    def store(self, parents: np.ndarray, children: np.ndarray, now: int) -> np.ndarray:
        """Give each new parent the least recently used slot; return the slots.

        The beam's hits must already carry ``now`` in :attr:`last_used`, so
        they are never chosen; :meth:`reserve` guarantees enough other slots.
        """
        n = parents.size
        last_used = self.last_used
        if n < last_used.size:
            slots = last_used.argpartition(n - 1)[:n]
        else:
            slots = np.arange(n)
        index = self.index
        for key in self.keys[slots[last_used[slots] >= 0]].tolist():
            index.pop(key, None)
        self.states[slots] = children
        self.keys[slots] = parents
        self.col_filled[slots] = 0
        last_used[slots] = now
        index.update(zip(parents.tolist(), slots.tolist()))
        return slots


class VectorizedBubbleDecoder:
    """Whole-beam array-op decoder; stateful drop-in for :class:`BubbleDecoder`.

    Constructor signature and the :meth:`decode` contract match
    :class:`BubbleDecoder` exactly, except that ``candidates_explored``
    counts only this attempt's work (see the module docstring).
    Consecutive calls share per-level caches and ledgers, so one instance
    serves one transmission — call :meth:`reset` (or decode a different
    message length) to start over.
    """

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
        self._all_segments = np.arange(1 << k, dtype=np.uint64)
        self._width = 1 << k
        self._key1 = encoder.hash_family._key1
        self._key2 = encoder.hash_family._key2
        #: The code's axis-level table (``None`` in bit mode).
        self._axis_levels = (
            None if encoder.params.bit_mode else encoder.constellation.axis_levels()
        )
        #: Earlier blocks a level keeps beside the current beam's, for
        #: parents that drift out of the beam and back in.
        self._keep_blocks = 2 * beam_width
        self.candidates_explored_total = 0
        self.decode_calls = 0
        self._tel = current_telemetry()
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all cached state and ledgers (the cumulative work counters
        survive)."""
        self._levels: list[_LevelCache] = []
        self._n_segments: int | None = None
        self._last_result: DecodeResult | None = None
        self._last_store: ReceivedObservations | None = None

    # ------------------------------------------------------------------
    def _refill(
        self,
        cache: _LevelCache,
        blocks: np.ndarray,
        pass_indices: np.ndarray,
        values: np.ndarray,
        col0: int,
    ) -> None:
        """Fill columns ``[col0, n_obs)`` of the given blocks and re-sum
        their rows over all ``n_obs`` columns.

        A cost entry depends only on its (spine value, pass index, received
        value), so columns filled across attempts hold the floats one
        from-scratch kernel call would, and :func:`plane_sum` adds each
        row's ``n_obs`` planes in the order a from-scratch row sum does.
        """
        n_obs = pass_indices.size
        cache.costs[blocks, col0:n_obs] = branch_cost_kernel(
            cache.states[blocks][:, None, :],
            pass_indices[None, col0:, None],
            values[None, col0:, None],
            self._key2,
            self._axis_levels,
        )
        cache.sums[blocks] = plane_sum(cache.costs[blocks, :n_obs])
        cache.col_filled[blocks] = n_obs

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

    def _expand_blocks(
        self,
        cache: _LevelCache,
        states: np.ndarray,
        pass_indices: np.ndarray,
        values: np.ndarray,
        now: int,
    ) -> tuple[np.ndarray, int, int]:
        """Bring the level's blocks for the beam ``states`` up to date.

        Every parent gets a block of its children, costed against all of the
        level's observations and summed.  Returns the beam's slots, how many
        parents missed and how many resident blocks were evicted.
        """
        n_obs = pass_indices.size
        found = cache.lookup(states)
        n_miss = found.count(-1)
        blocks = np.array(found, dtype=np.int64)
        # Less the resident blocks after storing, below.
        evicted = cache.n_blocks + n_miss
        blocks = cache.reserve(blocks, n_miss, n_obs)
        if n_miss:
            miss = blocks < 0
            cache.last_used[blocks[~miss]] = now
            parents = states[miss]
            children = hash_spine_keyed(
                parents[:, None], self._all_segments[None, :], self._key1
            )
            slots = cache.store(parents, children, now)
            blocks[miss] = slots
            if n_obs:
                # New blocks fill all columns in one kernel call, and the
                # fresh planes are summed directly.
                fresh = branch_cost_kernel(
                    children[:, None, :],
                    pass_indices[None, :, None],
                    values[None, :, None],
                    self._key2,
                    self._axis_levels,
                )
                cache.costs[slots, :n_obs] = fresh
                cache.sums[slots] = plane_sum(fresh)
                cache.col_filled[slots] = n_obs
        else:
            cache.last_used[blocks] = now
        evicted -= cache.n_blocks
        if n_obs and n_miss < states.size:
            # Retained blocks are filled only up to the observations they
            # last saw; bring this beam's up to date, one kernel call per
            # distinct fill level (usually one).  Beam states are distinct
            # spine hashes, so no block is listed twice.
            filled = cache.col_filled[blocks]
            levels = set(filled.tolist())
            if len(levels) == 1:
                col0 = levels.pop()
                if col0 < n_obs:
                    self._refill(cache, blocks, pass_indices, values, col0)
            else:
                levels.discard(n_obs)
                for col0 in sorted(levels):
                    self._refill(
                        cache, blocks[filled == col0], pass_indices, values, col0
                    )
        return blocks, n_miss, evicted

    # ------------------------------------------------------------------
    def decode(
        self, n_message_bits: int, observations: ReceivedObservations
    ) -> DecodeResult:
        """Decode, reusing whatever previous attempts already established.

        Semantics (message bits, path cost, beam trace) are identical to
        ``BubbleDecoder.decode`` on the same observations;
        ``candidates_explored`` counts this attempt's work in tree nodes, from
        the per-level ledgers (see the module docstring for the unit).
        """
        params = self.encoder.params
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
        now = self.decode_calls
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

        # Every level's columns were last set from ``_last_store``, and a
        # store only ever appends, so with the same store each cached column
        # set is a prefix of the current one and needs no comparison.
        same_store = observations is self._last_store
        first_observed = next(
            (p for p in range(n_segments) if observations.count_at(p)), n_segments
        )
        width = self._width
        explored = 0
        cache_hits = 0
        cache_misses = 0
        evicted = 0
        for position in range(resume, n_segments):
            pass_indices, values = observations.for_position(position)
            n_obs = pass_indices.size
            if position == len(self._levels):
                cache = _LevelCache(width, self._keep_blocks)
                self._levels.append(cache)
                common = 0
            else:
                cache = self._levels[position]
                if same_store:
                    common = cache.n_obs
                else:
                    common = self._column_overlap(cache, pass_indices, values)
                    if common < cache.n_obs:
                        # The shared observation prefix shrank or diverged (a
                        # bisection replay): every cached cost column beyond
                        # it is stale in every block, so restart the level's
                        # blocks rather than patch them column-wise.
                        cache.drop_blocks()
            beam = states.tolist()
            explored += cache.work(beam, common, n_obs)
            cache.seen_parents = beam

            # The first observed level after an observation-free prefix is
            # scored from the encoder's replay table and keeps no blocks.
            replayed = (
                position == first_observed
                and position > 0
                and states.size * width <= _MAX_STACK_ELEMENTS
            )
            if replayed:
                words = self.encoder.prefix_replay_words(
                    position, self.max_unpruned_width, pass_indices, states
                )
                branch = plane_sum(
                    replay_distance(words, values[:, None], self._axis_levels)[None]
                ).reshape(states.size, width)
            else:
                blocks, n_miss, n_evicted = self._expand_blocks(
                    cache, states, pass_indices, values, now
                )
                cache_misses += n_miss
                cache_hits += states.size - n_miss
                evicted += n_evicted
                if n_obs:
                    branch = cache.sums[blocks]
                else:
                    branch = np.zeros((states.size, width), dtype=np.float64)
            cache.set_obs(pass_indices, values, observations.version_at(position))

            # Cumulative costs and pruning — the same expressions as
            # BubbleDecoder so ties and ulps agree.
            flat_costs = (costs[:, None] + branch).reshape(-1)
            if n_obs > 0:
                keep = min(self.beam_width, flat_costs.size)
            else:
                keep = min(self.max_unpruned_width, flat_costs.size)
            if keep < flat_costs.size:
                # A copy: a view would keep the whole partition alive in the cache.
                kept_idx = flat_costs.argpartition(keep - 1)[:keep].copy()
            else:
                kept_idx = np.arange(flat_costs.size)

            kept_parents, kept_segments = np.divmod(kept_idx, width)
            cache.kept_idx = kept_idx
            if replayed:
                # The expansion hash is elementwise, so hashing only the kept
                # children gives the states a whole expansion would keep.
                cache.beam_states = hash_spine_keyed(
                    states[kept_parents], self._all_segments[kept_segments], self._key1
                )
            else:
                cache.beam_states = cache.states[blocks[kept_parents], kept_segments]
            cache.beam_costs = flat_costs[kept_idx]
            cache.parents = kept_parents
            cache.segments = kept_segments
            states = cache.beam_states
            costs = cache.beam_costs

        # Backtrack from the best leaf: one scalar step per level.
        last = self._levels[n_segments - 1]
        best = int(last.beam_costs.argmin())
        segments = np.empty(n_segments, dtype=np.uint64)
        node = best
        for position in range(n_segments - 1, -1, -1):
            level = self._levels[position]
            segments[position] = level.segments[node]
            node = level.parents[node]

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
def _row_slices(n_rows: int, per_row: int, max_elements: int) -> list[slice]:
    """Split ``n_rows`` stacked rows into cache-sized contiguous slices."""
    step = max(1, max_elements // max(per_row, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


class BatchDecoder:
    """Decode many concurrent spinal sessions in lock-step, as 2-D beam arrays.

    All sessions must share the code *shape* — segment size ``k``, mode and
    constellation parameters — but may (and in the relay/cell scenarios do)
    use independent hash-family seeds: the expansion and symbol hashes take
    per-element key arrays (:func:`~repro.core.hashing.hash_spine_keyed`),
    so one kernel call covers many sessions.

    A call partitions its sessions by *observed-position pattern* — which
    tree levels have at least one observation.  Whether a level prunes to
    ``beam_width`` or keeps up to ``max_unpruned_width`` depends only on
    that pattern, so every member of a partition has the same beam shape at
    every level, and the partition walks the tree as ``(sessions, beam)``
    state, cost and pruning-index arrays: one keyed expansion per level,
    branch-cost kernels over the rows that share an observation count (the
    counts may differ between members), one row-wise ``argpartition`` per
    level, and one backtrack and bit unpack for the whole partition.  Each
    row is reduced, pruned and backtracked exactly as a single-session
    decode does it, which keeps every session bit-exact with a per-session
    :class:`BubbleDecoder`.

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
        self._initial_states = np.array(
            [e.hash_family.initial_state for e in self.encoders], dtype=np.uint64
        )
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
    def _decode_partition(
        self,
        registered: np.ndarray,
        columns: "list[list[tuple[np.ndarray, np.ndarray]]]",
        counts: np.ndarray,
    ) -> list[DecodeResult]:
        """Decode sessions sharing one observed-position pattern in lock-step.

        ``registered`` names the members' encoders, ``columns`` holds each
        member's :meth:`ReceivedObservations.columns` and ``counts`` is the
        ``(members, positions)`` observation count table.  Every member has
        the same beam shape at every level, so the beams are
        ``(members, beam)`` arrays; a level runs over contiguous row slices
        of at most :attr:`max_stack_elements` candidates.
        """
        n_rows, n_segments = counts.shape
        key1s = self._key1s[registered]
        key2s = self._key2s[registered]
        states = self._initial_states[registered][:, None]
        costs = np.zeros((n_rows, 1), dtype=np.float64)
        kept_history: list[np.ndarray | None] = []
        beam_trace: list[int] = []
        explored = 0
        for position in range(n_segments):
            n_cand = states.shape[1] * self._width
            n_obs = counts[:, position]
            if n_obs[0]:
                level = [member[position] for member in columns]
                keep = min(self.beam_width, n_cand)
            else:
                level = None
                keep = min(self.max_unpruned_width, n_cand)
            steps = [
                self._step(
                    states[rows], costs[rows], key1s[rows], key2s[rows],
                    None if level is None else level[rows], n_obs[rows], keep,
                )
                for rows in _row_slices(n_rows, n_cand, self.max_stack_elements)
            ]
            if len(steps) == 1:
                states, costs, kept_idx = steps[0]
            else:
                states, costs, kept_idx = (
                    None if pieces[0] is None else np.concatenate(pieces)
                    for pieces in zip(*steps)
                )
            kept_history.append(kept_idx)
            beam_trace.append(keep)
            explored += n_cand

        # Backtrack every member's best leaf at once: one gather per level.
        rows = np.arange(n_rows)
        node = costs.argmin(axis=1)
        path_costs = costs[rows, node].tolist()
        segments = np.empty((n_rows, n_segments), dtype=np.uint64)
        for position in range(n_segments - 1, -1, -1):
            kept_idx = kept_history[position]
            flat = node if kept_idx is None else kept_idx[rows, node]
            node, segments[:, position] = np.divmod(flat, self._width)
        # Row-wise SpineGenerator.segments_to_bits.
        shifts = np.arange(self._k - 1, -1, -1, dtype=np.uint64)
        bits = ((segments[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        bits = bits.reshape(n_rows, -1)
        trace = tuple(beam_trace)
        return [
            DecodeResult(
                message_bits=bits[j],
                path_cost=path_costs[j],
                candidates_explored=explored,
                beam_trace=trace,
            )
            for j in range(n_rows)
        ]

    def _step(
        self,
        states: np.ndarray,
        costs: np.ndarray,
        key1s: np.ndarray,
        key2s: np.ndarray,
        columns: "list[tuple[np.ndarray, np.ndarray]] | None",
        n_obs: np.ndarray,
        keep: int,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray | None]":
        """Expand, score and prune one level of a row slice of beams.

        Returns the kept states, their costs and the kept candidate indices
        (``None`` when nothing is pruned).  The expressions are
        :class:`BubbleDecoder`'s, row by row — the keyed expansion hash is
        elementwise and numpy partitions each row with the same introselect
        a 1-D call uses — so states, ties and costs agree to the last ulp.
        """
        n_rows, n_parents = states.shape
        children = hash_spine_keyed(
            states[:, :, None], self._all_segments[None, None, :], key1s[:, None, None]
        ).reshape(n_rows, -1)
        if columns is None:
            branch = np.zeros(children.shape, dtype=np.float64)
        else:
            branch = self._branch_sums(children, key2s, columns, n_obs)
        flat_costs = (
            costs[:, :, None] + branch.reshape(n_rows, n_parents, self._width)
        ).reshape(children.shape)
        if keep == children.shape[1]:
            # Nothing is pruned: the kept set is every candidate in order.
            return children, flat_costs, None
        kept_idx = flat_costs.argpartition(keep - 1, axis=1)[:, :keep]
        rows = np.arange(n_rows)[:, None]
        return children[rows, kept_idx], flat_costs[rows, kept_idx], kept_idx

    def _branch_sums(
        self,
        children: np.ndarray,
        key2s: np.ndarray,
        columns: "list[tuple[np.ndarray, np.ndarray]]",
        n_obs: np.ndarray,
    ) -> np.ndarray:
        """Summed branch costs of every child, shaped like ``children``.

        ``columns`` and ``n_obs`` give each row's observations at the level.
        Rows with the same observation count share candidates-last
        ``(rows, observations, candidates)`` kernel calls, and
        :func:`~repro.core.branch_kernel.plane_sum` adds the observation
        planes in numpy's contiguous row-sum order, so the sums match the
        per-session reference's :meth:`SpinalEncoder.branch_costs` row sums
        bit for bit.
        """
        counts = set(n_obs.tolist())
        if len(counts) == 1:
            return self._score(children, key2s, columns, counts.pop())
        sums = np.empty(children.shape, dtype=np.float64)
        for count in counts:
            members = np.flatnonzero(n_obs == count)
            sums[members] = self._score(
                children[members], key2s[members], [columns[j] for j in members], count
            )
        return sums

    def _score(
        self,
        children: np.ndarray,
        key2s: np.ndarray,
        columns: "list[tuple[np.ndarray, np.ndarray]]",
        count: int,
    ) -> np.ndarray:
        """:meth:`_branch_sums` for rows that all hold ``count`` observations."""
        n_rows, n_cand = children.shape
        passes = np.concatenate([pass_indices for pass_indices, _ in columns])
        received = np.concatenate([values for _, values in columns])
        passes = passes.reshape(n_rows, count)
        received = received.reshape(n_rows, count)
        parts = [
            plane_sum(
                branch_cost_kernel(
                    children[rows, None, :],
                    passes[rows, :, None],
                    received[rows, :, None],
                    key2s[rows, None, None],
                    self._levels,
                )
            )
            for rows in _row_slices(n_rows, n_cand * count, self.max_stack_elements)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

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
        n_segments = self.encoders[sessions[0]].params.n_segments(n_message_bits)
        for observations in observations_list:
            if observations.n_segments != n_segments:
                raise ValueError(
                    f"observations were sized for {observations.n_segments} "
                    f"segments but the message has {n_segments}"
                )

        columns = [observations.columns() for observations in observations_list]
        counts = np.array(
            [[pass_indices.size for pass_indices, _ in member] for member in columns],
            dtype=np.int64,
        )
        partitions: dict[bytes, list[int]] = {}
        for j, pattern in enumerate(counts > 0):
            partitions.setdefault(pattern.tobytes(), []).append(j)
        index = np.asarray(sessions, dtype=np.int64)
        results: list[DecodeResult] = [None] * len(sessions)  # type: ignore[list-item]
        for members in partitions.values():
            decoded = self._decode_partition(
                index[members], [columns[j] for j in members], counts[members]
            )
            for j, result in zip(members, decoded):
                results[j] = result
        if tel.enabled:
            tel.counter("decoder.batch_decodes")
            tel.counter("decoder.batch_sessions", len(sessions))
            tel.counter("decoder.batch_partitions", len(partitions))
            tel.observe("decoder.batch_decode_s", tel.now_s() - t0)
        return results


# ---------------------------------------------------------------------------
#: The decoding engines, by name: the from-scratch reference and the stateful
#: engine.  Batched decode hooks accept decoders of these types only.
DECODER_ENGINES = {
    "bubble": BubbleDecoder,
    "vectorized": VectorizedBubbleDecoder,
}
