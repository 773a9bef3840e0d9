"""Unit tests for the spinal encoder and the observation store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.params import SpinalParams
from repro.core.puncturing import SymbolBySymbol, TailFirstPuncturing
from repro.utils.bitops import random_message_bits


class TestEncodePasses:
    def test_shape_symbol_mode(self, small_encoder, rng):
        message = random_message_bits(16, rng)
        symbols = small_encoder.encode_passes(message, n_passes=3)
        assert symbols.shape == (3, 4)
        assert symbols.dtype == np.complex128

    def test_shape_bit_mode(self, bit_mode_encoder, rng):
        message = random_message_bits(12, rng)
        bits = bit_mode_encoder.encode_passes(message, n_passes=5)
        assert bits.shape == (5, 4)
        assert bits.dtype == np.uint8
        assert set(np.unique(bits)).issubset({0, 1})

    def test_deterministic(self, small_encoder, rng):
        message = random_message_bits(16, rng)
        a = small_encoder.encode_passes(message, 2)
        b = small_encoder.encode_passes(message, 2)
        assert np.array_equal(a, b)

    def test_passes_differ(self, small_encoder, rng):
        """Each pass draws fresh pseudo-random bits, so symbols differ."""
        message = random_message_bits(16, rng)
        symbols = small_encoder.encode_passes(message, 2)
        assert not np.array_equal(symbols[0], symbols[1])

    def test_rejects_non_positive_passes(self, small_encoder, rng):
        with pytest.raises(ValueError):
            small_encoder.encode_passes(random_message_bits(16, rng), 0)

    def test_prefix_property(self, small_encoder, rng):
        """Symbols at position t do not depend on later message segments."""
        message = random_message_bits(16, rng)
        other = message.copy()
        other[-4:] ^= 1  # change only the last segment
        symbols_a = small_encoder.encode_passes(message, 2)
        symbols_b = small_encoder.encode_passes(other, 2)
        assert np.array_equal(symbols_a[:, :-1], symbols_b[:, :-1])
        assert not np.array_equal(symbols_a[:, -1], symbols_b[:, -1])

    def test_average_symbol_energy_near_unity(self, rng):
        """Unit-power constellation: the empirical symbol energy is ~1."""
        encoder = SpinalEncoder(SpinalParams(k=4, c=8))
        message = random_message_bits(64, rng)
        symbols = encoder.encode_passes(message, n_passes=64).reshape(-1)
        assert float(np.mean(np.abs(symbols) ** 2)) == pytest.approx(1.0, abs=0.1)


class TestSymbolStream:
    def test_follows_schedule_order(self, small_params, rng):
        encoder = SpinalEncoder(small_params, puncturing=TailFirstPuncturing())
        message = random_message_bits(16, rng)
        stream = encoder.symbol_stream(message)
        first = next(stream)
        second = next(stream)
        assert first.positions.tolist() == [3]
        assert second.positions.tolist() == [2]

    def test_pass_indices_increment_per_position(self, small_params, rng):
        encoder = SpinalEncoder(small_params, puncturing=SymbolBySymbol())
        message = random_message_bits(16, rng)
        stream = encoder.symbol_stream(message)
        blocks = [next(stream) for _ in range(8)]
        # Position 0 appears in blocks 0 and 4 with pass indices 0 and 1.
        assert blocks[0].pass_indices.tolist() == [0]
        assert blocks[4].positions.tolist() == [0]
        assert blocks[4].pass_indices.tolist() == [1]

    def test_stream_matches_encode_passes(self, small_encoder, rng):
        """The default (un-punctured) stream reproduces encode_passes exactly."""
        message = random_message_bits(16, rng)
        reference = small_encoder.encode_passes(message, 2)
        stream = small_encoder.symbol_stream(message)
        first = next(stream)
        second = next(stream)
        assert np.allclose(first.values, reference[0])
        assert np.allclose(second.values, reference[1])

    def test_block_symbol_count(self, small_encoder, rng):
        block = next(small_encoder.symbol_stream(random_message_bits(16, rng)))
        assert block.n_symbols == 4


class TestReceivedObservations:
    def test_add_and_query(self):
        obs = ReceivedObservations(3)
        obs.add(0, 0, 1 + 1j)
        obs.add(0, 1, 2 + 0j)
        obs.add(2, 0, -1j)
        passes, values = obs.for_position(0)
        assert passes.tolist() == [0, 1]
        assert values.tolist() == [1 + 1j, 2 + 0j]
        assert obs.count_at(1) == 0
        assert obs.total_symbols == 3

    def test_add_block(self, small_encoder, rng):
        message = random_message_bits(16, rng)
        block = next(small_encoder.symbol_stream(message))
        obs = ReceivedObservations(4)
        obs.add_block(block, block.values)
        assert obs.total_symbols == 4

    def test_views_stay_read_only_snapshots_across_buffer_doublings(
        self, small_encoder, rng
    ):
        """What ``for_position`` and ``columns()`` returned stays as it was
        while later blocks append to, and double, the position's buffers;
        ``version_at`` counts every add."""
        message = random_message_bits(16, rng)
        stream = small_encoder.symbol_stream(message)
        obs = ReceivedObservations(4)
        snapshots = []
        for n_blocks in range(1, 20):  # 19 passes: buffers double 4 -> 8 -> 16 -> 32
            block = next(stream)
            obs.add_block(block, block.values + 0.5)
            columns = obs.columns()
            for position in range(4):
                assert obs.version_at(position) == obs.count_at(position) == n_blocks
                passes, values = obs.for_position(position)
                assert passes is columns[position][0] and values is columns[position][1]
                assert passes.tolist() == list(range(n_blocks))
                assert not passes.flags.writeable and not values.flags.writeable
            snapshots.append(
                [(passes, values, passes.copy(), values.copy()) for passes, values in columns]
            )
        assert obs.total_symbols == 19 * 4
        for snapshot in snapshots:
            for passes, values, passes_then, values_then in snapshot:
                assert passes.tobytes() == passes_then.tobytes()
                assert values.tobytes() == values_then.tobytes()
                assert not passes.flags.writeable and not values.flags.writeable

    def test_mixed_value_types_widen_like_asarray(self):
        obs = ReceivedObservations(1)
        obs.add(0, 0, 1)
        assert obs.for_position(0)[1].dtype == np.asarray([1]).dtype
        obs.add(0, 1, 0.5 + 1j)
        passes, values = obs.for_position(0)
        assert values.dtype == np.complex128 and values.tolist() == [1, 0.5 + 1j]
        assert passes.tolist() == [0, 1]

    def test_add_block_shape_mismatch(self, small_encoder, rng):
        message = random_message_bits(16, rng)
        block = next(small_encoder.symbol_stream(message))
        obs = ReceivedObservations(4)
        with pytest.raises(ValueError):
            obs.add_block(block, block.values[:2])

    def test_position_bounds(self):
        obs = ReceivedObservations(2)
        with pytest.raises(ValueError):
            obs.add(2, 0, 0j)
        with pytest.raises(ValueError):
            obs.for_position(5)

    def test_rejects_negative_pass(self):
        obs = ReceivedObservations(2)
        with pytest.raises(ValueError):
            obs.add(0, -1, 0j)

    def test_rejects_bad_segment_count(self):
        with pytest.raises(ValueError):
            ReceivedObservations(0)

    def test_truncated_keeps_prefix(self, small_encoder, rng):
        message = random_message_bits(16, rng)
        stream = small_encoder.symbol_stream(message)
        blocks, received = [], []
        for _ in range(3):
            block = next(stream)
            blocks.append(block)
            received.append(block.values)
        obs = ReceivedObservations(4)
        truncated = obs.truncated(6, blocks, received)
        assert truncated.total_symbols == 6


class TestBranchCosts:
    def test_true_spine_has_zero_cost_noiseless(self, small_encoder, make_observations, rng):
        message = random_message_bits(16, rng)
        observations = make_observations(small_encoder, message, n_passes=2)
        spine = small_encoder.spine(message)
        for position in range(4):
            cost = small_encoder.branch_costs(
                spine[position : position + 1], position, observations
            )
            assert cost[0] == pytest.approx(0.0, abs=1e-18)

    def test_wrong_spine_has_positive_cost(self, small_encoder, make_observations, rng):
        message = random_message_bits(16, rng)
        observations = make_observations(small_encoder, message, n_passes=2)
        wrong = np.array([0xDEADBEEF], dtype=np.uint64)
        cost = small_encoder.branch_costs(wrong, 0, observations)
        assert cost[0] > 0.0

    def test_no_observations_gives_zero(self, small_encoder):
        obs = ReceivedObservations(4)
        costs = small_encoder.branch_costs(np.arange(5, dtype=np.uint64), 2, obs)
        assert np.all(costs == 0.0)

    def test_shape_preserved(self, small_encoder, make_observations, rng):
        message = random_message_bits(16, rng)
        observations = make_observations(small_encoder, message, n_passes=1)
        spines = np.arange(12, dtype=np.uint64).reshape(3, 4)
        costs = small_encoder.branch_costs(spines, 0, observations)
        assert costs.shape == (3, 4)

    def test_bit_mode_uses_hamming_distance(self, bit_mode_encoder, rng):
        message = random_message_bits(12, rng)
        coded = bit_mode_encoder.encode_passes(message, 1)
        obs = ReceivedObservations(4)
        # Feed the *flipped* bit at position 0, pass 0.
        obs.add(0, 0, int(coded[0, 0]) ^ 1)
        spine = bit_mode_encoder.spine(message)
        cost = bit_mode_encoder.branch_costs(spine[:1], 0, obs)
        assert cost[0] == pytest.approx(1.0)

    def test_total_cost_matches_sum_of_branches(self, small_encoder, make_observations, rng):
        message = random_message_bits(16, rng)
        noise = 0.1 * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        observations = make_observations(small_encoder, message, n_passes=2, noise=noise)
        total = small_encoder.total_cost(message, observations)
        assert total == pytest.approx(float(np.sum(np.abs(noise) ** 2)), rel=1e-9)
