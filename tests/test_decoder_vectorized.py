"""Differential suite locking the vectorized engine to the reference.

:class:`VectorizedBubbleDecoder` restructures the beam walk as whole-beam
array operations with persistent parent-keyed caches, and
:class:`BatchDecoder` stacks many sessions into shared kernels — but the
results contract is the same as everywhere else in the decoder family:
bit-identical ``message_bits``, ``path_cost`` (to the last ulp, same
tie-breaks) and ``beam_trace`` versus a fresh :class:`BubbleDecoder` on the
same observations.  These tests enforce that over randomized
(k, B, puncturing, channel) configurations, growing and shrinking
(bisection-replayed) observation sets, degenerate beam widths, cache
eviction pressure, whole ``spinal``-family sessions and runner-level
searches against the from-scratch reference, and the batched path.

The stateful engine's ``candidates_explored`` is pinned too: never more
than a fresh decode's per attempt, strictly less over a session, and equal
attempt by attempt to ``tests/golden/decoder_work.json``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.decoder_vectorized import (
    BatchDecoder,
    DECODER_ENGINES,
    VectorizedBubbleDecoder,
    _LevelCache,
)
from repro.core.encoder import ReceivedObservations, SpinalEncoder, SubpassBlock
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.core.puncturing import (
    NoPuncturing,
    StridedPuncturing,
    SymbolBySymbol,
    TailFirstPuncturing,
)
from repro.experiments.runner import _run_bisect
from repro.phy.families import channel_for_code, make_code
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

_GOLDEN_DIR = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "make_decoder_work_golden", _GOLDEN_DIR / "make_decoder_work_golden.py"
)
work_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_golden)

WORK_GOLDEN = json.loads((_GOLDEN_DIR / "decoder_work.json").read_text())

_SCHEDULES = {
    "none": NoPuncturing,
    "symbol": SymbolBySymbol,
    "strided": lambda: StridedPuncturing(stride=4),
    "tail-first": TailFirstPuncturing,
}


def _random_config(trial: int):
    """Draw one randomized (params, puncturing, channel, payload) setup."""
    rng = spawn_rng(909, "vec-config", trial)
    k = int(rng.choice([1, 2, 3, 4]))
    beam = int(rng.choice([1, 2, 4, 8]))
    bit_mode = bool(rng.random() < 0.3)
    schedule = _SCHEDULES[rng.choice(list(_SCHEDULES))]()
    params = SpinalParams(
        k=k,
        c=int(rng.choice([4, 6])),
        seed=int(rng.integers(0, 2**32)),
        bit_mode=bit_mode,
    )
    if bit_mode:
        channel = BSCChannel(float(rng.uniform(0.01, 0.1)))
    else:
        channel = AWGNChannel(snr_db=float(rng.uniform(3.0, 15.0)), adc_bits=14)
    n_bits = k * int(rng.integers(3, 7))
    return params, schedule, channel, n_bits, rng


def _stream_blocks(encoder, message, channel, rng, n_subpasses):
    """Transmit ``n_subpasses`` subpasses, returning (block, received) pairs."""
    stream = encoder.symbol_stream(message)
    sent = []
    while len(sent) < n_subpasses:
        block = next(stream)
        sent.append((block, channel.transmit(block.values, rng)))
    return sent


def _assert_identical(result, reference):
    assert np.array_equal(result.message_bits, reference.message_bits)
    assert result.path_cost == reference.path_cost
    assert result.beam_trace == reference.beam_trace


class TestSubpassEquivalence:
    @pytest.mark.parametrize("trial", range(12))
    def test_bit_identical_after_every_subpass(self, trial):
        params, schedule, channel, n_bits, rng = _random_config(trial)
        encoder = SpinalEncoder(params, puncturing=schedule)
        message = random_message_bits(n_bits, rng)
        n_segments = params.n_segments(n_bits)
        n_subpasses = 3 * schedule.subpasses_per_cycle(n_segments)
        beam = int(spawn_rng(909, "vec-beam", trial).choice([1, 2, 4, 8]))

        fresh = BubbleDecoder(encoder, beam_width=beam)
        vectorized = VectorizedBubbleDecoder(encoder, beam_width=beam)
        observations = ReceivedObservations(n_segments)
        fresh_total = vec_total = 0
        for block, received in _stream_blocks(encoder, message, channel, rng, n_subpasses):
            observations.add_block(block, received)
            reference = fresh.decode(n_bits, observations)
            result = vectorized.decode(n_bits, observations)
            _assert_identical(result, reference)
            assert result.candidates_explored <= reference.candidates_explored
            fresh_total += reference.candidates_explored
            vec_total += result.candidates_explored
        assert vec_total < fresh_total  # strictly less work over the session

    @pytest.mark.parametrize("seed, label", [(909, "vec-shrink"), (808, "equiv-shrink")])
    def test_equivalence_under_shrinking_observations(self, seed, label):
        """The bisection strategy replays truncated prefixes in any order."""
        params = SpinalParams(k=3, c=6, seed=99)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        rng = spawn_rng(seed, label)
        message = random_message_bits(12, rng)
        channel = AWGNChannel(snr_db=8.0, adc_bits=14)
        sent = _stream_blocks(encoder, message, channel, rng, 12)
        blocks = [block for block, _ in sent]
        received = [out for _, out in sent]
        total = sum(block.n_symbols for block in blocks)
        full = ReceivedObservations(params.n_segments(12))
        for block, out in sent:
            full.add_block(block, out)

        vectorized = VectorizedBubbleDecoder(encoder, beam_width=4)
        fresh = BubbleDecoder(encoder, beam_width=4)
        for boundary in [2, 4, 8, total, total // 2, total // 4, 3 * total // 4, total]:
            view = full.truncated(boundary, blocks, received)
            reference = fresh.decode(12, view)
            result = vectorized.decode(12, view)
            _assert_identical(result, reference)
            assert result.candidates_explored <= reference.candidates_explored

    @pytest.mark.parametrize("bit_mode", [False, True])
    def test_plane_sum_regimes_match_fresh_reference(self, bit_mode, monkeypatch):
        """One level grows from 1 to 136 observations, one at a time.

        Every attempt refills level 1's blocks with one new column and
        re-sums their rows through ``plane_sum``, so the row length crosses
        its left-to-right regime (under 8) into the transposed-copy one, and
        past 128.  Every third block also grows level 2 while level 1's
        change drifts level 2's parents, so blocks come back at mixed fill
        levels and one attempt refills them from several first columns.
        Truncated stores then replay the transmission in bisection order.
        """
        params = SpinalParams(k=3, c=4, seed=4242, bit_mode=bit_mode)
        encoder = SpinalEncoder(params)
        rng = spawn_rng(909, "vec-plane-sum-regimes", bit_mode)
        channel = BSCChannel(0.2) if bit_mode else AWGNChannel(snr_db=-2.0, adc_bits=14)
        spine = encoder.spine(random_message_bits(12, rng))
        counts = [0, 0, 0, 0]
        blocks = []
        for step in range(136):
            if step == 0:
                positions = [0, 1, 2, 3]
            else:
                positions = [1, 2] if step % 3 == 0 else [1]
            passes = np.array([counts[p] for p in positions], dtype=np.int64)
            for p in positions:
                counts[p] += 1
            positions = np.array(positions, dtype=np.int64)
            values = encoder.values_from_spines(spine[positions], passes)
            blocks.append(SubpassBlock(step, positions, passes, values))

        refills = []
        refill = VectorizedBubbleDecoder._refill

        def recorded(self, cache, blocks, pass_indices, values, col0):
            refills.append((self.decode_calls, id(cache), col0, pass_indices.size))
            refill(self, cache, blocks, pass_indices, values, col0)

        monkeypatch.setattr(VectorizedBubbleDecoder, "_refill", recorded)
        vectorized = VectorizedBubbleDecoder(encoder, beam_width=4)
        fresh = BubbleDecoder(encoder, beam_width=4)
        full = ReceivedObservations(4)
        received = []
        for block in blocks:
            received.append(channel.transmit(block.values, rng))
            full.add_block(block, received[-1])
            _assert_identical(vectorized.decode(12, full), fresh.decode(12, full))
        assert full.count_at(1) == 136

        grown = {(col0, n_obs) for _, _, col0, n_obs in refills}
        assert {(6, 7), (7, 8), (128, 129)} <= grown
        per_level = [(call, cache) for call, cache, _, _ in refills]
        assert len(set(per_level)) < len(per_level)  # a mixed-fill refill

        total = full.total_symbols
        for boundary in [total // 2, total // 4, 3 * total // 4, 9, total - 1, total]:
            view = full.truncated(boundary, blocks, received)
            _assert_identical(vectorized.decode(12, view), fresh.decode(12, view))

    def test_repeat_decode_is_free_and_identical(self):
        params = SpinalParams(k=2, c=4, seed=5)
        encoder = SpinalEncoder(params)
        rng = spawn_rng(909, "vec-repeat")
        message = random_message_bits(8, rng)
        channel = AWGNChannel(snr_db=10.0, adc_bits=14)
        observations = ReceivedObservations(4)
        for block, out in _stream_blocks(encoder, message, channel, rng, 2):
            observations.add_block(block, out)
        vectorized = VectorizedBubbleDecoder(encoder, beam_width=4)
        first = vectorized.decode(8, observations)
        again = vectorized.decode(8, observations)
        assert np.array_equal(again.message_bits, first.message_bits)
        assert again.path_cost == first.path_cost
        assert first.candidates_explored > 0
        assert again.candidates_explored == 0

    def test_message_length_change_resets_state(self):
        params = SpinalParams(k=2, c=4, seed=6)
        encoder = SpinalEncoder(params)
        rng = spawn_rng(909, "vec-resize")
        channel = AWGNChannel(snr_db=12.0, adc_bits=14)
        vectorized = VectorizedBubbleDecoder(encoder, beam_width=4)
        for n_bits in (8, 12):
            message = random_message_bits(n_bits, rng)
            observations = ReceivedObservations(params.n_segments(n_bits))
            for block, out in _stream_blocks(encoder, message, channel, rng, 3):
                observations.add_block(block, out)
            reference = BubbleDecoder(encoder, beam_width=4).decode(n_bits, observations)
            result = vectorized.decode(n_bits, observations)
            _assert_identical(result, reference)

    def test_rejects_mismatched_observation_store(self):
        params = SpinalParams(k=2, c=4)
        encoder = SpinalEncoder(params)
        vectorized = VectorizedBubbleDecoder(encoder, beam_width=4)
        with pytest.raises(ValueError, match="segments"):
            vectorized.decode(8, ReceivedObservations(3))

    def test_constructor_validation_matches_bubble(self):
        encoder = SpinalEncoder(SpinalParams(k=2, c=4))
        with pytest.raises(ValueError):
            VectorizedBubbleDecoder(encoder, beam_width=0)
        with pytest.raises(ValueError):
            VectorizedBubbleDecoder(encoder, beam_width=8, max_unpruned_width=4)


def _cache_bytes(decoder: VectorizedBubbleDecoder) -> int:
    """Bytes held by a decoder's per-level block arrays."""
    return sum(
        level.states.nbytes + level.costs.nbytes + level.sums.nbytes
        for level in decoder._levels
    )


class TestCacheBehaviour:
    def test_lookup_on_empty_cache_has_no_hits(self):
        """Probing a block-less level must report all-miss."""
        cache = _LevelCache(4, keep=8)
        probes = np.array([1, 2, 3], dtype=np.uint64)
        assert np.array_equal(cache.lookup(probes), np.full(3, -1, dtype=np.int64))

    def test_kept_indices_own_their_data(self):
        """The cached pruning survivors must not pin the whole partition.

        A view of ``argpartition``'s output would keep its full base alive
        per level: 65,536 entries (512 KB) on the first observed level of a
        relay-fig2 first attempt, for 16 kept indices.
        """
        params = SpinalParams(k=8, c=10, seed=41)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        rng = spawn_rng(708, "kept-idx")
        message = random_message_bits(24, rng)
        channel = AWGNChannel(snr_db=6.0, adc_bits=14)
        observations = ReceivedObservations(params.n_segments(24))
        for block, received in _stream_blocks(encoder, message, channel, rng, 2):
            observations.add_block(block, received)
        decoder = VectorizedBubbleDecoder(encoder, beam_width=16)
        result = decoder.decode(24, observations)
        assert 16 in result.beam_trace  # some level was pruned to the beam
        for level in decoder._levels:
            assert level.kept_idx.base is None

    def test_block_rebuild_keeps_column_capacity(self):
        """A rebuild forced by the beam's block count must not grow columns.

        Regression: the compaction used to double the column capacity on
        every call, including the ones made only for the number of blocks,
        so a long session with a churning beam grew its cost array without
        bound.  Here the beam grows past the slots, then shrinks far below
        them, at a fixed observation count.
        """
        width, n_cols = 4, 3
        cache = _LevelCache(width, keep=2)
        capacity = None
        rebuilds = 0
        for step, n_parents in enumerate([2, 5, 40, 3, 60, 2], start=1):
            parents = np.arange(100 * step, 100 * step + n_parents, dtype=np.uint64)
            blocks = np.array(cache.lookup(parents), dtype=np.int64)
            assert (blocks < 0).all()
            arrays = cache.costs
            cache.reserve(blocks, n_parents, n_cols)
            rebuilds += cache.costs is not arrays
            capacity = capacity or cache.costs.shape[1]
            assert cache.costs.shape[1] == capacity >= n_cols
            assert n_parents <= cache.costs.shape[0] <= cache.keep + n_parents
            slots = cache.store(parents, np.zeros((n_parents, width), np.uint64), step)
            cache.col_filled[slots] = n_cols
        assert rebuilds == 6

    def test_long_low_snr_session_stays_exact_and_bounded(self):
        """Hundreds of attempts with a churning beam: exact, and bounded.

        Every level keeps at most ``4 x (keep + beam)`` blocks of at most a
        quarter more columns than observations (plus four), so the cache
        stays within a fixed budget no matter how long the session runs.
        """
        beam = 4
        params = SpinalParams(k=3, c=4, seed=31)
        encoder = SpinalEncoder(params, puncturing=SymbolBySymbol())
        rng = spawn_rng(909, "vec-evict")
        message = random_message_bits(12, rng)
        channel = AWGNChannel(snr_db=-5.0, adc_bits=14)  # noisy: the beam churns
        n_segments = params.n_segments(12)
        vectorized = VectorizedBubbleDecoder(encoder, beam_width=beam)
        fresh = BubbleDecoder(encoder, beam_width=beam)
        observations = ReceivedObservations(n_segments)
        peak = 0
        for block, out in _stream_blocks(encoder, message, channel, rng, 400):
            observations.add_block(block, out)
            reference = fresh.decode(12, observations)
            result = vectorized.decode(12, observations)
            _assert_identical(result, reference)
            peak = max(peak, _cache_bytes(vectorized))
            if min(observations.count_at(p) for p in range(n_segments)) == 0:
                continue  # unpruned levels may still be shrinking back
            for cache in vectorized._levels:
                assert cache.n_blocks <= cache.costs.shape[0]
                assert cache.costs.shape[0] <= 4 * (cache.keep + beam)
                assert cache.costs.shape[1] <= cache.n_obs + max(4, cache.n_obs // 4)
        n_obs = max(observations.count_at(p) for p in range(n_segments))
        assert n_obs >= 100
        width = 1 << params.k
        rows = 4 * (2 * beam + beam)
        budget = n_segments * rows * width * 8 * (n_obs + n_obs // 4 + 2)
        assert peak <= budget


class TestReplayTable:
    """Packets sharing one encoder score their first observed level from its
    replay table.

    Under tail-first puncturing a packet's first attempts observe only the
    tail of the spine, so the levels before the first observed one keep a
    beam that depends on the code alone.  Every attempt must still be the
    fresh reference's, and its ``candidates_explored`` must be what decoders
    on a fresh encoder (a cold table) count.
    """

    #: (params, payload bits, beam width): relay-fig2's code and the smoke one.
    SHAPES = {
        "fig2": (SpinalParams(k=8, c=10, seed=41), 24, 16),
        "fig2-bits": (SpinalParams(k=8, c=10, seed=42, bit_mode=True), 24, 16),
        "smoke": (SpinalParams(k=4, c=6, seed=43), 16, 8),
        "smoke-bits": (SpinalParams(k=4, c=6, seed=44, bit_mode=True), 16, 8),
    }

    @staticmethod
    def _sent(params, n_bits, packet, n_subpasses):
        """One packet's (blocks, received values) over a fixed channel."""
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        rng = spawn_rng(707, "replay-table", params.seed, packet)
        message = random_message_bits(n_bits, rng)
        if params.bit_mode:
            channel = BSCChannel(0.05)
        else:
            channel = AWGNChannel(snr_db=6.0, adc_bits=14)
        sent = _stream_blocks(encoder, message, channel, rng, n_subpasses)
        return [block for block, _ in sent], [out for _, out in sent]

    @staticmethod
    def _check_attempts(encoder, n_bits, views, beam_width, max_unpruned_width=None):
        """Decode ``views`` in order with a decoder on the shared ``encoder``.

        Each attempt is compared with a fresh :class:`BubbleDecoder` and, for
        its work, with the same decoder built on a fresh encoder.  Returns
        how many tables the shared encoder built meanwhile.
        """
        shared = VectorizedBubbleDecoder(encoder, beam_width, max_unpruned_width)
        cold = VectorizedBubbleDecoder(
            SpinalEncoder(encoder.params, encoder.puncturing),
            beam_width,
            max_unpruned_width,
        )
        fresh = BubbleDecoder(encoder, beam_width, max_unpruned_width)
        table = encoder._replay_words
        fills = 0
        for view in views:
            result = shared.decode(n_bits, view)
            _assert_identical(result, fresh.decode(n_bits, view))
            assert result.candidates_explored == cold.decode(n_bits, view).candidates_explored
            key = encoder._replay_key
            if key is not None:
                # One key, and at most 2^16 words per pass.
                assert encoder._replay_words.shape[0] == len(key[-1])
                assert encoder._replay_words.shape[1] <= 1 << 16
            fills += encoder._replay_words is not table
            table = encoder._replay_words
        return fills

    @staticmethod
    def _growing(params, n_bits, blocks, received, first):
        """The store after each subpass from the ``first``-th on."""
        store = ReceivedObservations(params.n_segments(n_bits))
        for index, (block, out) in enumerate(zip(blocks, received), start=1):
            store.add_block(block, out)
            if index >= first:
                yield store

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_packets_sharing_an_encoder_match_the_reference(self, shape):
        params, n_bits, beam = self.SHAPES[shape]
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        fills = 0
        n_segments = params.n_segments(n_bits)
        # k=8's one-symbol attempt has 2^20 candidates at its observed level,
        # which only the reference's cost makes worth skipping here.
        first = 2 if params.k == 8 else 1
        for packet in range(4):
            blocks, received = self._sent(params, n_bits, packet, 3 * n_segments)
            views = self._growing(params, n_bits, blocks, received, first)
            fills += self._check_attempts(encoder, n_bits, views, beam)
        if params.k == 8:
            # Every packet's first attempt is (0, 1, 1): one table serves all.
            assert fills == 1
            assert encoder._replay_words.shape == (1, 1 << 16)
            assert encoder._replay_key == (1, beam << 8, (0,))
        else:
            # The smoke code's first attempts walk the tail-first prefix
            # (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1): each replaces the key.
            assert fills == 4 * 3
            assert encoder._replay_key == (1, beam << 4, (0,))

    def test_two_unpruned_widths_on_one_encoder(self):
        params, n_bits, beam = self.SHAPES["fig2"]
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        widths = [None, 64, 64, None, 4096]
        fills = 0
        for packet, width in enumerate(widths):
            blocks, received = self._sent(params, n_bits, packet, 6)
            views = self._growing(params, n_bits, blocks, received, 2)
            fills += self._check_attempts(encoder, n_bits, views, beam, width)
        # The default cap is 16 x 256 = 4096, the same key as the explicit
        # 4096; the 64-wide level-0 beam keys a table of its own.
        assert fills == 3
        assert encoder._replay_key == (1, 4096, (0,))

    @pytest.mark.parametrize("shape", ["fig2", "fig2-bits", "smoke"])
    def test_bisection_replay_returns_to_the_prefix(self, shape):
        params, n_bits, beam = self.SHAPES[shape]
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        n_segments = params.n_segments(n_bits)
        # Warm the table with another packet first.
        blocks, received = self._sent(params, n_bits, 0, n_segments)
        self._check_attempts(
            encoder, n_bits, self._growing(params, n_bits, blocks, received, 2), beam
        )
        blocks, received = self._sent(params, n_bits, 1, 4 * n_segments)
        full = ReceivedObservations(n_segments)
        for block, out in zip(blocks, received):
            full.add_block(block, out)
        total = full.total_symbols
        boundaries = [total, 2, total // 2, 3, 2, n_segments + 1, 2, total]
        views = (full.truncated(boundary, blocks, received) for boundary in boundaries)
        self._check_attempts(encoder, n_bits, views, beam)

    def test_no_table_past_the_element_cap(self):
        """The observed level's candidates bound the table at 2^16 per pass.

        With k=4 and 8,192 unpruned nodes, a 4-segment code first observes
        level 3 with 256 x 16 x 16 = 2^16 candidates; a 5-segment one first
        observes level 4 with 8,192 x 16 = 2^17 and builds no table.
        """
        params, _, beam = self.SHAPES["smoke"]
        for n_bits, built in [(16, True), (20, False)]:
            encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
            blocks, received = self._sent(params, n_bits, 0, 1)
            views = self._growing(params, n_bits, blocks, received, 1)
            self._check_attempts(encoder, n_bits, views, beam, max_unpruned_width=8192)
            if built:
                assert encoder._replay_words.shape == (1, 1 << 16)
            else:
                assert encoder._replay_key is None


class TestEngineRegistry:
    def test_registry_names(self):
        assert DECODER_ENGINES == {
            "bubble": BubbleDecoder,
            "vectorized": VectorizedBubbleDecoder,
        }

    def test_run_config_builds_the_vectorized_engine(self):
        from repro.experiments.runner import SpinalRunConfig

        config = SpinalRunConfig(beam_width=8)
        decoder = config.decoder_factory()(config.build_encoder())
        assert type(decoder) is VectorizedBubbleDecoder
        assert decoder.beam_width == 8

    @staticmethod
    def _seam_decoders(seam):
        """The decoders one engine seam builds, with the engine it must use."""
        from repro.baselines.rate_adaptation import RateAdaptationPolicy
        from repro.mac.adaptive import AdaptiveSpinalLink, spinal_rate_options
        from repro.phy.fixed_rate import FixedRateSpinalCode

        params = SpinalParams(k=4, c=6)
        if seam == "spinal-family":
            code = make_code("spinal", seed=0, snr_db=6.0, smoke=True)
            return [code.decoder_factory(code.encoder)], VectorizedBubbleDecoder
        if seam == "fixed-rate":
            code = FixedRateSpinalCode(16, n_passes=2, params=params, beam_width=8)
            return [code.decoder_factory(code.encoder)], BubbleDecoder
        options = spinal_rate_options(4, (1, 2))
        policy = RateAdaptationPolicy(
            configs=options, thresholds={o: 0.0 for o in options}
        )
        link = AdaptiveSpinalLink(
            policy, AWGNChannel(10.0), payload_bits=16, params=params, beam_width=8
        )
        code = link._code_for_option(options[-1])
        return [code.decoder_factory(code.encoder)], BubbleDecoder

    @pytest.mark.parametrize("seam", ["spinal-family", "fixed-rate", "adaptive-link"])
    def test_each_seam_builds_one_fixed_engine(self, seam):
        """The rateless family always decodes with the vectorized engine;
        fixed-rate frames and the MAC's adaptive link keep the from-scratch
        bubble engine, so their outputs do not depend on any setting."""
        decoders, engine = self._seam_decoders(seam)
        for decoder in decoders:
            assert type(decoder) is engine
            assert decoder.beam_width == 8


class TestSpinalFamilySessions:
    """The ``spinal`` family decodes with the vectorized engine; its sessions
    must equal the same sessions decoded from scratch by the reference."""

    @staticmethod
    def _run(code, snr_db, seed, budget):
        session = CodecSession(code, channel_for_code(code, snr_db), max_symbols=budget)
        rng = spawn_rng(909, "family-session", snr_db, seed)
        return session.run(random_message_bits(session.payload_bits, rng), rng)

    @pytest.mark.parametrize(
        "smoke, points",
        [
            (False, ((-10, 2048), (-10, 96), (-2, 2048), (4, 2048), (12, 2048))),
            (True, ((-6, 2048), (-6, 32), (0, 2048), (6, 2048), (12, 2048))),
        ],
        ids=["figure2", "smoke"],
    )
    def test_sessions_match_the_from_scratch_reference(self, smoke, points):
        failures = 0
        for snr, budget in points:
            snr_db = float(snr)
            for seed in range(3):
                code = make_code("spinal", seed=seed, snr_db=snr_db, smoke=smoke)
                engine = code.decoder_factory(code.encoder)
                assert isinstance(engine, VectorizedBubbleDecoder)
                beam = engine.beam_width
                assert (code.encoder.params.k, beam) == ((4, 8) if smoke else (8, 16))
                reference = SpinalCode(
                    code.encoder,
                    lambda encoder: BubbleDecoder(encoder, beam_width=beam),
                    code.framer,
                )
                got = self._run(code, snr_db, seed, budget)
                want = self._run(reference, snr_db, seed, budget)
                assert got.symbols_sent == want.symbols_sent
                assert got.decode_attempts == want.decode_attempts
                assert got.success == want.success
                assert np.array_equal(got.decoded_payload, want.decoded_payload)
                failures += not got.success
        assert failures >= 2  # the exhausted, best-effort path is covered


class TestSessionEquivalence:
    def _session(self, factory):
        params = SpinalParams(k=4, c=6, seed=21)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        code = SpinalCode(encoder, factory, Framer(payload_bits=16, k=params.k))
        return CodecSession(code, AWGNChannel(snr_db=10.0, adc_bits=14), max_symbols=512)

    @pytest.mark.parametrize("seed, label", [(909, "vec-session"), (808, "equiv-session")])
    @pytest.mark.parametrize("search", ["sequential", "bisect"])
    def test_trials_identical_to_fresh_reference(self, search, seed, label):
        results = {}
        for name, factory in [
            ("fresh", lambda enc: BubbleDecoder(enc, beam_width=8)),
            ("vectorized", lambda enc: VectorizedBubbleDecoder(enc, beam_width=8)),
        ]:
            session = self._session(factory)
            run = _run_bisect if search == "bisect" else CodecSession.run
            rng = spawn_rng(seed, label, search)
            payload = random_message_bits(16, rng)
            results[name] = run(session, payload, rng)
        fresh, vec = results["fresh"], results["vectorized"]
        assert vec.success == fresh.success
        assert vec.symbols_sent == fresh.symbols_sent
        assert vec.decode_attempts == fresh.decode_attempts
        assert np.array_equal(vec.decoded_payload, fresh.decoded_payload)
        assert vec.work < fresh.work


class TestDecoderWorkGolden:
    """Per-attempt ``candidates_explored`` of seeded sessions, pinned.

    The golden was recorded with the engine the ledger replaced (see
    ``tests/golden/make_decoder_work_golden.py``, which also defines the
    sessions); registry trials store these counts as ``candidates``.
    """

    def test_golden_covers_every_axis(self):
        cases = work_golden.case_params()
        sessions = WORK_GOLDEN["sessions"]
        assert WORK_GOLDEN["seed"] == work_golden.SEED
        assert [s["case"] for s in sessions] == [dict(sorted(c.items())) for c in cases]
        assert {c["search"] for c in cases} == {"sequential", "bisect"}
        assert {c["adc_bits"] for c in cases} == {None, 14}
        assert {c["shape"] for c in cases} == {"k-sweep", "scale-down", "low-snr", "bsc"}
        assert all(s["work"] == sum(s["attempts"]) for s in sessions)
        assert max(len(s["attempts"]) for s in sessions) > 50

    @pytest.mark.parametrize("index", range(len(WORK_GOLDEN["sessions"])))
    def test_session_work_matches_the_golden(self, index):
        case = work_golden.case_params()[index]
        assert work_golden.run_case(case) == WORK_GOLDEN["sessions"][index]


class TestBatchDecoder:
    def _sessions(self, n_sessions, bit_mode=False, seed0=500, min_passes=2):
        """n independent sessions sharing the code shape, different seeds.

        Session ``i`` receives ``min_passes + i % 3`` full passes, so the
        stores are ragged and hold that many observations per position.
        """
        encoders = [
            SpinalEncoder(
                SpinalParams(k=3, c=4, seed=seed0 + i, bit_mode=bit_mode)
            )
            for i in range(n_sessions)
        ]
        stores = []
        rng = spawn_rng(909, "batch", n_sessions, bit_mode)
        if bit_mode:
            channel = BSCChannel(0.05)
        else:
            channel = AWGNChannel(snr_db=8.0, adc_bits=14)
        for i, encoder in enumerate(encoders):
            message = random_message_bits(12, rng)
            observations = ReceivedObservations(4)
            # Ragged: session i receives a different number of subpasses.
            n_subpasses = min_passes + i % 3
            for block, out in _stream_blocks(encoder, message, channel, rng, n_subpasses):
                observations.add_block(block, out)
            stores.append(observations)
        return encoders, stores

    @pytest.mark.parametrize("n_sessions", [1, 3, 8])
    def test_bit_identical_to_per_session_reference(self, n_sessions):
        encoders, stores = self._sessions(n_sessions)
        batch = BatchDecoder(encoders, beam_width=4)
        results = batch.decode_all(12, stores)
        for encoder, observations, result in zip(encoders, stores, results):
            reference = BubbleDecoder(encoder, beam_width=4).decode(12, observations)
            _assert_identical(result, reference)
            assert result.candidates_explored == reference.candidates_explored

    @pytest.mark.parametrize("bit_mode", [False, True])
    @pytest.mark.parametrize("min_passes", [9, 17])
    def test_long_stores_match_per_session_reference(self, min_passes, bit_mode):
        """Rows of >= 9 and >= 17 observations cross numpy's 8-wide pairwise
        summation block, where the batch's plane sums must still equal each
        session's own row sums bit for bit."""
        encoders, stores = self._sessions(6, bit_mode=bit_mode, min_passes=min_passes)
        assert min(store.count_at(0) for store in stores) >= min_passes
        results = BatchDecoder(encoders, beam_width=4).decode_all(12, stores)
        for encoder, observations, result in zip(encoders, stores, results):
            reference = BubbleDecoder(encoder, beam_width=4).decode(12, observations)
            _assert_identical(result, reference)
            assert result.candidates_explored == reference.candidates_explored

    def test_plane_sum_regimes_match_per_session_reference(self):
        """Levels of 1 to 200 observations, added one at a time.

        Each session's four levels hold a count tuple crossing numpy's
        row-sum regimes — fewer than 8, which the plane sum replays left to
        right, the eight-accumulator range with and without a ragged tail,
        and past 128 — so one batch decodes rows of many counts at each
        level.
        """
        counts = [(8, 9, 15, 16), (17, 127, 128, 129), (130, 200, 8, 3), (1, 8, 200, 129)]
        rng = spawn_rng(909, "plane-sum-regimes")
        encoders, stores = [], []
        for i, per_level in enumerate(counts):
            encoder = SpinalEncoder(SpinalParams(k=3, c=4, seed=800 + i))
            spine = encoder.spine(random_message_bits(12, rng))
            observations = ReceivedObservations(4)
            for position, n_obs in enumerate(per_level):
                passes = np.arange(n_obs)
                sent = encoder.values_from_spines(np.full(n_obs, spine[position]), passes)
                noise = rng.standard_normal(n_obs) + 1j * rng.standard_normal(n_obs)
                for pass_index, value in zip(passes.tolist(), (sent + 0.7 * noise).tolist()):
                    observations.add(position, pass_index, value)
            encoders.append(encoder)
            stores.append(observations)
        assert [tuple(s.count_at(p) for p in range(4)) for s in stores] == counts
        for max_stack_elements in (None, 100):
            batch = BatchDecoder(encoders, beam_width=4, max_stack_elements=max_stack_elements)
            results = batch.decode_all(12, stores)
            for encoder, observations, result in zip(encoders, stores, results):
                reference = BubbleDecoder(encoder, beam_width=4).decode(12, observations)
                _assert_identical(result, reference)
                assert result.candidates_explored == reference.candidates_explored

    def test_bit_mode_batch(self):
        encoders, stores = self._sessions(4, bit_mode=True)
        results = BatchDecoder(encoders, beam_width=4).decode_all(12, stores)
        for encoder, observations, result in zip(encoders, stores, results):
            reference = BubbleDecoder(encoder, beam_width=4).decode(12, observations)
            _assert_identical(result, reference)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchDecoder([])
        encoders, stores = self._sessions(2)
        with pytest.raises(ValueError, match="beam_width"):
            BatchDecoder(encoders, beam_width=0)
        mixed = [encoders[0], SpinalEncoder(SpinalParams(k=4, c=4, seed=1))]
        with pytest.raises(ValueError, match="code shape"):
            BatchDecoder(mixed)
        batch = BatchDecoder(encoders, beam_width=4)
        with pytest.raises(ValueError, match="observation stores"):
            batch.decode_all(12, stores[:1])
        with pytest.raises(ValueError, match="segments"):
            batch.decode_all(12, [stores[0], ReceivedObservations(7)])

    def test_decode_subset_matches_decode_all(self):
        """A ragged subset decode equals the same sessions' full-batch rows."""
        encoders, stores = self._sessions(5)
        batch = BatchDecoder(encoders, beam_width=4)
        full = batch.decode_all(12, stores)
        subset = batch.decode_subset(12, [stores[3], stores[1]], [3, 1])
        _assert_identical(subset[0], full[3])
        _assert_identical(subset[1], full[1])
        assert subset[0].candidates_explored == full[3].candidates_explored
        assert subset[1].candidates_explored == full[1].candidates_explored

    def test_decode_subset_chunking_invariance(self):
        """max_stack_elements=1 (every chunk degenerate) changes nothing."""
        encoders, stores = self._sessions(6)
        default = BatchDecoder(encoders, beam_width=4).decode_subset(
            12, stores, range(6)
        )
        tiny = BatchDecoder(
            encoders, beam_width=4, max_stack_elements=1
        ).decode_subset(12, stores, range(6))
        for a, b in zip(default, tiny):
            _assert_identical(a, b)
            assert a.candidates_explored == b.candidates_explored

    def test_empty_store_member_is_degenerate_but_exact(self):
        """A member with no observations (late joiner) stays bit-exact."""
        encoders, stores = self._sessions(3)
        stores[1] = ReceivedObservations(4)
        results = BatchDecoder(encoders, beam_width=4).decode_all(12, stores)
        for encoder, observations, result in zip(encoders, stores, results):
            reference = BubbleDecoder(encoder, beam_width=4).decode(12, observations)
            _assert_identical(result, reference)

    def test_all_empty_stores(self):
        """Every member degenerate: zero-cost branches, no kernel crash."""
        encoders, _ = self._sessions(3)
        stores = [ReceivedObservations(4) for _ in range(3)]
        results = BatchDecoder(encoders, beam_width=4).decode_all(12, stores)
        for encoder, observations, result in zip(encoders, stores, results):
            reference = BubbleDecoder(encoder, beam_width=4).decode(12, observations)
            _assert_identical(result, reference)

    def test_decode_subset_validation(self):
        encoders, stores = self._sessions(3)
        batch = BatchDecoder(encoders, beam_width=4)
        assert batch.decode_subset(12, [], []) == []
        with pytest.raises(ValueError, match="distinct"):
            batch.decode_subset(12, [stores[0], stores[1]], [1, 1])
        with pytest.raises(IndexError, match="out of range"):
            batch.decode_subset(12, [stores[0]], [7])
        with pytest.raises(ValueError, match="observation stores"):
            batch.decode_subset(12, stores, [0, 1])
        with pytest.raises(ValueError, match="max_stack_elements"):
            BatchDecoder(encoders, beam_width=4, max_stack_elements=0)

    #: Subpasses each session of the mixed-partition batch received: an empty
    #: store, part of a first pass, and whole passes with ragged remainders.
    _CUTS = (0, 1, 1, 2, 3, 4, 5, 6, 6, 7, 9, 10, 13)

    def _cut_sessions(self, mixed_schedules):
        """Stores cut at different symbol counts, so one batch holds several
        observed-position patterns and ragged counts within a pattern.

        Every session is tail-first unless ``mixed_schedules``, in which
        case every third one sends head first, so count vectors within a
        pattern no longer order componentwise.
        """
        encoders, stores = [], []
        rng = spawn_rng(909, "batch-cuts", mixed_schedules)
        channel = AWGNChannel(snr_db=6.0, adc_bits=14)
        for i, n_subpasses in enumerate(self._CUTS):
            head_first = mixed_schedules and i % 3 == 0
            encoder = SpinalEncoder(
                SpinalParams(k=3, c=4, seed=700 + i),
                puncturing=SymbolBySymbol() if head_first else TailFirstPuncturing(),
            )
            observations = ReceivedObservations(4)
            message = random_message_bits(12, rng)
            for block, out in _stream_blocks(encoder, message, channel, rng, n_subpasses):
                observations.add_block(block, out)
            encoders.append(encoder)
            stores.append(observations)
        return encoders, stores

    @pytest.mark.parametrize("max_stack_elements", [None, 7])
    @pytest.mark.parametrize("max_unpruned_width", [None, 4])
    @pytest.mark.parametrize("mixed_schedules", [False, True])
    def test_mixed_partitions_match_per_session_reference(
        self, mixed_schedules, max_unpruned_width, max_stack_elements
    ):
        encoders, stores = self._cut_sessions(mixed_schedules)
        counts = [tuple(s.count_at(p) for p in range(4)) for s in stores]
        patterns = {tuple(c > 0 for c in row) for row in counts}
        assert len(patterns) >= 4 and (False,) * 4 in patterns
        assert len({row for row in counts if all(row)}) >= 4  # ragged counts
        batch = BatchDecoder(
            encoders,
            beam_width=4,
            max_unpruned_width=max_unpruned_width,
            max_stack_elements=max_stack_elements,
        )
        results = batch.decode_all(12, stores)
        for encoder, observations, result in zip(encoders, stores, results):
            reference = BubbleDecoder(
                encoder, beam_width=4, max_unpruned_width=max_unpruned_width
            ).decode(12, observations)
            _assert_identical(result, reference)
            assert result.candidates_explored == reference.candidates_explored

        order = spawn_rng(909, "batch-order", mixed_schedules).permutation(len(stores))
        permuted = batch.decode_subset(12, [stores[i] for i in order], order.tolist())
        for i, result in zip(order, permuted):
            _assert_identical(result, results[i])
            assert result.candidates_explored == results[i].candidates_explored
