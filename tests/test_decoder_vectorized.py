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
eviction pressure, whole ``spinal``-family sessions against the incremental
engine, and the batched path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.decoder_incremental import IncrementalBubbleDecoder
from repro.core.decoder_vectorized import (
    BatchDecoder,
    DECODER_ENGINES,
    VectorizedBubbleDecoder,
    _LevelCache,
    make_decoder_factory,
)
from repro.core.encoder import ReceivedObservations, SpinalEncoder
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
        for block, received in _stream_blocks(encoder, message, channel, rng, n_subpasses):
            observations.add_block(block, received)
            reference = fresh.decode(n_bits, observations)
            result = vectorized.decode(n_bits, observations)
            _assert_identical(result, reference)

    def test_equivalence_under_shrinking_observations(self):
        """The bisection strategy replays truncated prefixes in any order."""
        params = SpinalParams(k=3, c=6, seed=99)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        rng = spawn_rng(909, "vec-shrink")
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
            capacity = capacity or cache.costs.shape[2]
            assert cache.costs.shape[2] == capacity >= n_cols
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
                assert cache.costs.shape[2] <= cache.n_obs + max(4, cache.n_obs // 4)
        n_obs = max(observations.count_at(p) for p in range(n_segments))
        assert n_obs >= 100
        width = 1 << params.k
        rows = 4 * (2 * beam + beam)
        budget = n_segments * rows * width * 8 * (n_obs + n_obs // 4 + 2)
        assert peak <= budget

    def test_work_accounting_is_no_more_than_fresh(self):
        params = SpinalParams(k=2, c=4, seed=8)
        encoder = SpinalEncoder(params, puncturing=SymbolBySymbol())
        rng = spawn_rng(909, "vec-work")
        message = random_message_bits(8, rng)
        channel = AWGNChannel(snr_db=8.0, adc_bits=14)
        observations = ReceivedObservations(4)
        fresh = BubbleDecoder(encoder, beam_width=4)
        vectorized = VectorizedBubbleDecoder(encoder, beam_width=4)
        fresh_total = vec_total = 0
        for block, out in _stream_blocks(encoder, message, channel, rng, 16):
            observations.add_block(block, out)
            fresh_total += fresh.decode(8, observations).candidates_explored
            vec_total += vectorized.decode(8, observations).candidates_explored
        assert 0 < vec_total < fresh_total


class TestEngineRegistry:
    def test_registry_names(self):
        assert set(DECODER_ENGINES) == {"bubble", "incremental", "vectorized"}

    def test_factory_builds_requested_engine(self, small_encoder):
        decoder = make_decoder_factory("vectorized", 8)(small_encoder)
        assert isinstance(decoder, VectorizedBubbleDecoder)
        assert decoder.beam_width == 8

    def test_factory_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown decoder"):
            make_decoder_factory("magic", 8)

    def test_run_config_accepts_vectorized(self):
        from repro.experiments.runner import SpinalRunConfig

        config = SpinalRunConfig(decoder="vectorized")
        decoder = config.decoder_factory()(config.build_encoder())
        assert isinstance(decoder, VectorizedBubbleDecoder)
        with pytest.raises(ValueError, match="unknown decoder"):
            SpinalRunConfig(decoder="magic")

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
        return [link.decoder, code.decoder_factory(code.encoder)], BubbleDecoder

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
    must equal the same sessions decoded by the incremental engine."""

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
    def test_sessions_match_the_incremental_engine(self, smoke, points):
        failures = 0
        for snr, budget in points:
            snr_db = float(snr)
            for seed in range(3):
                code = make_code("spinal", seed=seed, snr_db=snr_db, smoke=smoke)
                engine = code.decoder_factory(code.encoder)
                assert isinstance(engine, VectorizedBubbleDecoder)
                beam = engine.beam_width
                assert (code.encoder.params.k, beam) == ((4, 8) if smoke else (8, 16))
                incremental = SpinalCode(
                    code.encoder,
                    lambda encoder: IncrementalBubbleDecoder(encoder, beam_width=beam),
                    code.framer,
                )
                got = self._run(code, snr_db, seed, budget)
                want = self._run(incremental, snr_db, seed, budget)
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

    @pytest.mark.parametrize("search", ["sequential", "bisect"])
    def test_trials_identical_to_fresh_reference(self, search):
        results = {}
        for name, factory in [
            ("fresh", lambda enc: BubbleDecoder(enc, beam_width=8)),
            ("vectorized", lambda enc: VectorizedBubbleDecoder(enc, beam_width=8)),
        ]:
            session = self._session(factory)
            run = _run_bisect if search == "bisect" else CodecSession.run
            rng = spawn_rng(909, "vec-session", search)
            payload = random_message_bits(16, rng)
            results[name] = run(session, payload, rng)
        fresh, vec = results["fresh"], results["vectorized"]
        assert vec.symbols_sent == fresh.symbols_sent
        assert vec.decode_attempts == fresh.decode_attempts
        assert np.array_equal(vec.decoded_payload, fresh.decoded_payload)
        assert vec.work < fresh.work


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
        summation block, where the chunk's one ``sum(axis=2)`` must still
        equal each session's own row sums bit for bit."""
        encoders, stores = self._sessions(6, bit_mode=bit_mode, min_passes=min_passes)
        assert min(store.count_at(0) for store in stores) >= min_passes
        results = BatchDecoder(encoders, beam_width=4).decode_all(12, stores)
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
