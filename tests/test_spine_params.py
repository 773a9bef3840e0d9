"""Unit tests for spine generation and the SpinalParams bundle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import SpinalParams
from repro.core.spine import SpineGenerator
from repro.utils.bitops import random_message_bits


class TestSpinalParams:
    def test_defaults_match_paper_figure2(self):
        params = SpinalParams()
        assert params.k == 8
        assert params.c == 10
        assert not params.bit_mode

    def test_coded_bits_per_symbol(self):
        assert SpinalParams(k=4, c=6).coded_bits_per_symbol == 12
        assert SpinalParams(k=4, bit_mode=True).coded_bits_per_symbol == 1

    def test_n_segments(self):
        assert SpinalParams(k=8).n_segments(24) == 3

    def test_n_segments_rejects_indivisible_length(self):
        with pytest.raises(ValueError):
            SpinalParams(k=8).n_segments(20)

    def test_n_segments_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SpinalParams(k=8).n_segments(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinalParams(k=0)
        with pytest.raises(ValueError):
            SpinalParams(c=1)
        with pytest.raises(ValueError):
            SpinalParams(average_power=0.0)

    def test_bit_mode_ignores_c_validation(self):
        params = SpinalParams(k=4, c=1, bit_mode=True)
        assert params.bit_mode

    def test_with_returns_modified_copy(self):
        params = SpinalParams(k=8)
        changed = params.with_(k=4)
        assert changed.k == 4 and params.k == 8

    def test_factories(self):
        params = SpinalParams(k=6, c=8, constellation="offset-linear")
        assert params.make_hash_family().k == 6
        assert params.make_constellation().bits_per_symbol == 16

    def test_max_rate_per_pass(self):
        assert SpinalParams(k=8).max_rate_per_pass() == 8.0


class TestSpineGenerator:
    @pytest.fixture
    def generator(self, small_params):
        return SpineGenerator(small_params.make_hash_family())

    def test_spine_length(self, generator, rng):
        message = random_message_bits(16, rng)
        assert generator.generate(message).shape == (4,)

    def test_deterministic(self, generator, rng):
        message = random_message_bits(16, rng)
        assert np.array_equal(generator.generate(message), generator.generate(message))

    def test_sequential_structure(self, generator, rng):
        """s_t depends only on the first t segments (prefix property)."""
        message = random_message_bits(16, rng)
        other = message.copy()
        other[-1] ^= 1  # change only the last segment
        spine_a = generator.generate(message)
        spine_b = generator.generate(other)
        assert np.array_equal(spine_a[:-1], spine_b[:-1])
        assert spine_a[-1] != spine_b[-1]

    def test_first_segment_changes_whole_spine(self, generator, rng):
        message = random_message_bits(16, rng)
        other = message.copy()
        other[0] ^= 1
        spine_a = generator.generate(message)
        spine_b = generator.generate(other)
        assert np.all(spine_a != spine_b)

    def test_extend_matches_generate(self, generator, rng):
        message = random_message_bits(16, rng)
        segments = generator.segment_values(message)
        state = generator.hash_family.initial_state
        spine = generator.generate(message)
        for t, segment in enumerate(segments):
            state = generator.extend(state, segment)
            assert int(state) == int(spine[t])

    def test_segments_roundtrip(self, generator, rng):
        message = random_message_bits(20, rng)
        segments = generator.segment_values(message)
        assert np.array_equal(generator.segments_to_bits(segments), message)
