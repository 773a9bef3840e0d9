"""Unit tests for repro.utils.rng, repro.utils.units and repro.utils.results."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.utils.results import mean, render_table, std_error
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.units import db_to_linear, ebn0_to_snr_db, linear_to_db, snr_db_to_ebn0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_different_labels_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_base_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed(123456789, "x", "y") < 2**63

    def test_spawn_rng_streams_are_independent(self):
        a = spawn_rng(5, "one").integers(0, 1000, size=20)
        b = spawn_rng(5, "two").integers(0, 1000, size=20)
        assert not np.array_equal(a, b)


class TestUnits:
    def test_db_roundtrip(self):
        for value in (0.01, 1.0, 10.0, 123.4):
            assert linear_to_db(db_to_linear(linear_to_db(value))) == pytest.approx(
                linear_to_db(value)
            )

    def test_known_values(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert linear_to_db(100.0) == pytest.approx(20.0)

    def test_linear_to_db_rejects_non_positive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_ebn0_roundtrip(self):
        snr = 12.0
        assert ebn0_to_snr_db(snr_db_to_ebn0(snr, 4.0), 4.0) == pytest.approx(snr)

    def test_ebn0_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            snr_db_to_ebn0(10.0, 0.0)


class TestStatsHelpers:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean([])

    def test_std_error_single_sample_is_zero(self):
        assert std_error([4.2]) == 0.0

    def test_std_error_matches_formula(self):
        values = [1.0, 2.0, 3.0, 4.0]
        expected = math.sqrt(np.var(values, ddof=1) / len(values))
        assert std_error(values) == pytest.approx(expected)


class TestRenderTable:
    def test_contains_headers_and_values(self):
        text = render_table(["a", "b"], [(1, 2.5), (3, 4.25)])
        assert "a" in text and "b" in text
        assert "2.500" in text and "4.250" in text

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])

    def test_bools_render_as_text(self):
        text = render_table(["flag"], [(True,)])
        assert "True" in text
