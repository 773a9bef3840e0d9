"""Equivalence suite locking the incremental decoder to the reference.

The incremental engine's whole value proposition is "same answers, less
work": after *every* subpass of a rateless session it must produce
bit-identical ``message_bits`` and an exactly equal ``path_cost`` to a fresh
:class:`BubbleDecoder` handed the same observations, while evaluating
strictly fewer tree nodes over the session.  These tests enforce that
contract over randomized (k, B, puncturing, channel) configurations, over
the bisection search's shrinking observation replays, and at the
session/runner level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.decoder_incremental import IncrementalBubbleDecoder
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
    rng = spawn_rng(808, "equiv-config", trial)
    k = int(rng.choice([2, 3, 4]))
    beam = int(rng.choice([2, 4, 8]))
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


class TestSubpassEquivalence:
    @pytest.mark.parametrize("trial", range(12))
    def test_bit_identical_after_every_subpass(self, trial):
        params, schedule, channel, n_bits, rng = _random_config(trial)
        encoder = SpinalEncoder(params, puncturing=schedule)
        message = random_message_bits(n_bits, rng)
        n_segments = params.n_segments(n_bits)
        n_subpasses = 3 * schedule.subpasses_per_cycle(n_segments)

        fresh = BubbleDecoder(encoder, beam_width=4)
        incremental = IncrementalBubbleDecoder(encoder, beam_width=4)
        observations = ReceivedObservations(n_segments)
        fresh_total = 0
        incr_total = 0
        for block, received in _stream_blocks(encoder, message, channel, rng, n_subpasses):
            observations.add_block(block, received)
            reference = fresh.decode(n_bits, observations)
            result = incremental.decode(n_bits, observations)
            assert np.array_equal(result.message_bits, reference.message_bits)
            assert result.path_cost == reference.path_cost
            assert result.beam_trace == reference.beam_trace
            assert result.candidates_explored <= reference.candidates_explored
            fresh_total += reference.candidates_explored
            incr_total += result.candidates_explored
        assert incr_total < fresh_total  # strictly less work over the session

    def test_equivalence_under_shrinking_observations(self):
        """The bisection strategy replays truncated prefixes in any order."""
        params = SpinalParams(k=3, c=6, seed=99)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        rng = spawn_rng(808, "equiv-shrink")
        message = random_message_bits(12, rng)
        channel = AWGNChannel(snr_db=8.0, adc_bits=14)
        sent = _stream_blocks(encoder, message, channel, rng, 12)
        blocks = [block for block, _ in sent]
        received = [out for _, out in sent]
        total = sum(block.n_symbols for block in blocks)
        full = ReceivedObservations(params.n_segments(12))
        for block, out in sent:
            full.add_block(block, out)

        incremental = IncrementalBubbleDecoder(encoder, beam_width=4)
        fresh = BubbleDecoder(encoder, beam_width=4)
        # A bisection-like boundary walk: gallop up, then jump around.
        for boundary in [2, 4, 8, total, total // 2, total // 4, 3 * total // 4, total]:
            view = full.truncated(boundary, blocks, received)
            reference = fresh.decode(12, view)
            result = incremental.decode(12, view)
            assert np.array_equal(result.message_bits, reference.message_bits)
            assert result.path_cost == reference.path_cost

    def test_repeat_decode_is_free_and_identical(self):
        params = SpinalParams(k=2, c=4, seed=5)
        encoder = SpinalEncoder(params)
        rng = spawn_rng(808, "equiv-repeat")
        message = random_message_bits(8, rng)
        channel = AWGNChannel(snr_db=10.0, adc_bits=14)
        observations = ReceivedObservations(4)
        for block, out in _stream_blocks(encoder, message, channel, rng, 2):
            observations.add_block(block, out)
        incremental = IncrementalBubbleDecoder(encoder, beam_width=4)
        first = incremental.decode(8, observations)
        again = incremental.decode(8, observations)
        assert np.array_equal(again.message_bits, first.message_bits)
        assert again.path_cost == first.path_cost
        assert first.candidates_explored > 0
        assert again.candidates_explored == 0

    def test_message_length_change_resets_state(self):
        params = SpinalParams(k=2, c=4, seed=6)
        encoder = SpinalEncoder(params)
        rng = spawn_rng(808, "equiv-resize")
        channel = AWGNChannel(snr_db=12.0, adc_bits=14)
        incremental = IncrementalBubbleDecoder(encoder, beam_width=4)
        for n_bits in (8, 12):
            message = random_message_bits(n_bits, rng)
            observations = ReceivedObservations(params.n_segments(n_bits))
            for block, out in _stream_blocks(encoder, message, channel, rng, 3):
                observations.add_block(block, out)
            reference = BubbleDecoder(encoder, beam_width=4).decode(n_bits, observations)
            result = incremental.decode(n_bits, observations)
            assert np.array_equal(result.message_bits, reference.message_bits)
            assert result.path_cost == reference.path_cost

    def test_rejects_mismatched_observation_store(self):
        params = SpinalParams(k=2, c=4)
        encoder = SpinalEncoder(params)
        incremental = IncrementalBubbleDecoder(encoder, beam_width=4)
        with pytest.raises(ValueError, match="segments"):
            incremental.decode(8, ReceivedObservations(3))

    def test_constructor_validation_matches_bubble(self):
        encoder = SpinalEncoder(SpinalParams(k=2, c=4))
        with pytest.raises(ValueError):
            IncrementalBubbleDecoder(encoder, beam_width=0)
        with pytest.raises(ValueError):
            IncrementalBubbleDecoder(encoder, beam_width=8, max_unpruned_width=4)


class TestEmptyCacheRegression:
    def test_zero_width_cached_expansion_does_not_wrap_index(self):
        """Replay an observation history that leaves a level's cached
        expansion zero-width and then forces the row-lookup path.

        The row-reuse lookup clamps ``searchsorted`` misses with
        ``np.minimum(idx, sorted_states.size - 1)``.  On an empty cached
        expansion that clamp produces index ``-1``, which wraps to the *last*
        row of the (empty) sorted array and faulted with an ``IndexError``
        before the emptiness guard was added — and would silently alias the
        final row on any hypothetical non-empty miss.  The beam expansion of
        a live decode is never empty (it has ``beam x 2^k`` children), so the
        zero-width state is replayed here by editing the level cache the way
        a defensive reset could leave it: expansion arrays emptied, parent
        beam drifted.  The decoder must treat every probe as a miss,
        recompute the rows, and stay bit-identical to a fresh decode.
        """
        params = SpinalParams(k=2, c=4, seed=17)
        encoder = SpinalEncoder(params, puncturing=SymbolBySymbol())
        rng = spawn_rng(808, "equiv-empty-cache")
        message = random_message_bits(8, rng)
        channel = AWGNChannel(snr_db=6.0, adc_bits=14)
        sent = _stream_blocks(encoder, message, channel, rng, 8)

        incremental = IncrementalBubbleDecoder(encoder, beam_width=2)
        observations = ReceivedObservations(params.n_segments(8))
        for block, out in sent[:4]:
            observations.add_block(block, out)
        incremental.decode(8, observations)

        cache = incremental._levels[1]
        assert cache.obs_pass_indices.size > 0  # the overlap below is real
        cache.sorted_states = np.empty(0, dtype=np.uint64)
        cache.sort_order = np.empty(0, dtype=np.int64)
        # Drift the recorded parent beam so the wholesale-reuse fast path is
        # off and the decoder must go through the sorted-states row lookup.
        cache.parent_states = cache.parent_states + np.uint64(1)

        for block, out in sent[4:]:
            observations.add_block(block, out)
        reference = BubbleDecoder(encoder, beam_width=2).decode(8, observations)
        result = incremental.decode(8, observations)
        assert np.array_equal(result.message_bits, reference.message_bits)
        assert result.path_cost == reference.path_cost
        assert result.beam_trace == reference.beam_trace


class TestFigure2Acceptance:
    def test_three_fold_reduction_at_figure2_operating_point(self):
        """The PR's headline claim, pinned: >= 3x fewer tree-node evaluations
        per rateless trial at the Figure-2 AWGN configuration (24-bit
        messages, k=8, c=10, B=16, tail-first, 14-bit ADC) at -5 dB, for the
        on-line sequential receiver, with identical trial outcomes."""
        from repro.experiments.runner import SpinalRunConfig
        from repro.theory.capacity import awgn_capacity_db

        config = SpinalRunConfig()
        snr_db = -5.0
        work = {}
        outcomes = {}
        for name, cls in [("fresh", BubbleDecoder), ("incremental", IncrementalBubbleDecoder)]:
            code = SpinalCode(
                config.build_encoder(),
                lambda enc, cls=cls: cls(enc, beam_width=config.beam_width),
                config.build_framer(),
            )
            session = CodecSession(
                code,
                AWGNChannel(snr_db=snr_db, signal_power=1.0, adc_bits=config.adc_bits),
                max_symbols=config.symbol_budget(awgn_capacity_db(snr_db)),
            )
            candidates = 0
            trail = []
            for trial in range(2):
                rng = spawn_rng(config.seed, "trial", snr_db, trial)
                payload = random_message_bits(config.payload_bits, rng)
                result = session.run(payload, rng)
                candidates += result.work
                trail.append(
                    (result.symbols_sent, result.decode_attempts, result.payload_correct)
                )
            work[name] = candidates
            outcomes[name] = trail
        assert outcomes["incremental"] == outcomes["fresh"]
        assert work["fresh"] >= 3 * work["incremental"], work


class TestSessionEquivalence:
    def _session(self, factory):
        params = SpinalParams(k=4, c=6, seed=21)
        encoder = SpinalEncoder(params, puncturing=TailFirstPuncturing())
        code = SpinalCode(encoder, factory, Framer(payload_bits=16, k=params.k))
        return CodecSession(code, AWGNChannel(snr_db=10.0, adc_bits=14), max_symbols=512)

    @pytest.mark.parametrize("search", ["sequential", "bisect"])
    def test_trials_identical_with_fewer_candidates(self, search):
        results = {}
        for name, factory in [
            ("fresh", lambda enc: BubbleDecoder(enc, beam_width=8)),
            ("incremental", lambda enc: IncrementalBubbleDecoder(enc, beam_width=8)),
        ]:
            session = self._session(factory)
            run = _run_bisect if search == "bisect" else CodecSession.run
            rng = spawn_rng(808, "equiv-session", search)
            payload = random_message_bits(16, rng)
            results[name] = run(session, payload, rng)
        fresh, incr = results["fresh"], results["incremental"]
        assert incr.success == fresh.success
        assert incr.symbols_sent == fresh.symbols_sent
        assert incr.decode_attempts == fresh.decode_attempts
        assert np.array_equal(incr.decoded_payload, fresh.decoded_payload)
        assert incr.work < fresh.work
