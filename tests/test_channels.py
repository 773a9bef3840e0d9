"""Unit tests for the channel models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels import (
    AWGNChannel,
    BECChannel,
    BSCChannel,
    ERASURE,
    RayleighBlockFadingChannel,
    TimeVaryingAWGNChannel,
)
from repro.channels.quantize import AdcQuantizer
from repro.channels.traces import (
    constant_trace,
    gilbert_elliott_trace,
    random_walk_trace,
    sinusoidal_trace,
)
from repro.utils.rng import spawn_rng


class TestAWGNChannel:
    def test_noise_energy_matches_snr(self, rng):
        channel = AWGNChannel(snr_db=10.0)
        assert channel.noise_energy == pytest.approx(0.1)
        assert channel.snr_linear == pytest.approx(10.0)

    def test_empirical_noise_power(self, rng):
        channel = AWGNChannel(snr_db=3.0)
        clean = np.zeros(20000, dtype=np.complex128)
        received = channel.transmit(clean, rng)
        measured = float(np.mean(np.abs(received) ** 2))
        assert measured == pytest.approx(channel.noise_energy, rel=0.05)

    def test_noise_is_circular(self, rng):
        channel = AWGNChannel(snr_db=0.0)
        received = channel.transmit(np.zeros(20000, dtype=np.complex128), rng)
        assert float(np.mean(received.real**2)) == pytest.approx(0.5, rel=0.1)
        assert float(np.mean(received.imag**2)) == pytest.approx(0.5, rel=0.1)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_one_draw_is_the_two_call_noise_stream(self, n):
        """Each block's noise is one ``standard_normal((2, n))`` draw: the
        values, and what the generator draws next, of one
        ``standard_normal(n)`` call for I and another for Q."""
        channel = AWGNChannel(snr_db=2.0)
        values = np.exp(1j * np.arange(n, dtype=np.float64))
        got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = channel.transmit(values, got_rng)
        sigma = np.sqrt(channel.noise_energy / 2.0)
        want = values + sigma * (
            want_rng.standard_normal(n) + 1j * want_rng.standard_normal(n)
        )
        assert got.tobytes() == want.tobytes()
        assert got_rng.standard_normal() == want_rng.standard_normal()

    def test_adc_quantisation_applied(self, rng):
        channel = AWGNChannel(snr_db=10.0, adc_bits=4)
        received = channel.transmit(np.ones(100, dtype=np.complex128), rng)
        # With a 4-bit ADC there are at most 16 distinct values per dimension.
        assert len(np.unique(received.real)) <= 16

    def test_14_bit_adc_nearly_transparent(self, rng):
        # Stay well inside the ADC full scale so only quantisation error remains.
        values = 0.5 * (rng.standard_normal(1000) + 1j * rng.standard_normal(1000))
        values = np.clip(values.real, -1.5, 1.5) + 1j * np.clip(values.imag, -1.5, 1.5)
        coarse = AWGNChannel(snr_db=100.0, adc_bits=14)
        received = coarse.transmit(values, rng)
        assert np.max(np.abs(received - values)) < 1e-2

    def test_rejects_bad_signal_power(self):
        with pytest.raises(ValueError):
            AWGNChannel(snr_db=10.0, signal_power=0.0)

    def test_describe_mentions_snr(self):
        assert "10.0" in AWGNChannel(snr_db=10.0).describe()


class TestTimeVaryingAWGN:
    def test_trace_indexing_and_reset(self, rng):
        channel = TimeVaryingAWGNChannel([30.0, -10.0])
        channel.transmit(np.zeros(1, dtype=np.complex128), rng)
        assert channel._cursor == 1
        channel.reset()
        assert channel._cursor == 0

    def test_noise_follows_trace(self, rng):
        # First 2000 symbols at 30 dB, next 2000 at -10 dB.
        trace = [30.0] * 2000 + [-10.0] * 2000
        channel = TimeVaryingAWGNChannel(trace)
        quiet = channel.transmit(np.zeros(2000, dtype=np.complex128), rng)
        loud = channel.transmit(np.zeros(2000, dtype=np.complex128), rng)
        assert np.mean(np.abs(quiet) ** 2) < np.mean(np.abs(loud) ** 2) / 100

    def test_trace_wraps_around(self, rng):
        channel = TimeVaryingAWGNChannel([20.0, 20.0, 20.0])
        received = channel.transmit(np.zeros(10, dtype=np.complex128), rng)
        assert received.shape == (10,)

    def test_mean_snr(self):
        assert TimeVaryingAWGNChannel([0.0, 10.0]).mean_snr_db == pytest.approx(5.0)

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            TimeVaryingAWGNChannel([])


class TestBSCChannel:
    def test_flip_probability(self, rng):
        channel = BSCChannel(0.2)
        bits = np.zeros(50000, dtype=np.uint8)
        flipped = channel.transmit(bits, rng)
        assert float(flipped.mean()) == pytest.approx(0.2, abs=0.02)

    def test_zero_probability_is_identity(self, rng):
        channel = BSCChannel(0.0)
        bits = rng.integers(0, 2, size=100, dtype=np.uint8)
        assert np.array_equal(channel.transmit(bits, rng), bits)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            BSCChannel(0.7)
        with pytest.raises(ValueError):
            BSCChannel(-0.1)

    def test_rejects_non_binary_input(self, rng):
        with pytest.raises(ValueError):
            BSCChannel(0.1).transmit(np.array([0, 1, 2], dtype=np.uint8), rng)


class TestBECChannel:
    def test_erasure_probability(self, rng):
        channel = BECChannel(0.3)
        bits = np.zeros(50000, dtype=np.uint8)
        received = channel.transmit(bits, rng)
        assert float(np.mean(received == ERASURE)) == pytest.approx(0.3, abs=0.02)

    def test_non_erased_bits_unchanged(self, rng):
        channel = BECChannel(0.5)
        bits = rng.integers(0, 2, size=1000, dtype=np.uint8)
        received = channel.transmit(bits, rng)
        kept = received != ERASURE
        assert np.array_equal(received[kept], bits[kept])

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            BECChannel(1.0)


class TestFadingChannel:
    def test_reset_restores_block_state(self, rng):
        channel = RayleighBlockFadingChannel(average_snr_db=20.0, coherence_symbols=4)
        channel.transmit(np.ones(3, dtype=np.complex128), rng)
        channel.reset()
        assert channel._symbols_in_block == 0

    def test_mean_noise_enhancement_exceeds_awgn(self, rng):
        """Equalised fading noise is on average stronger than pure AWGN noise."""
        awgn = AWGNChannel(snr_db=10.0)
        fading = RayleighBlockFadingChannel(average_snr_db=10.0, coherence_symbols=8)
        clean = np.zeros(4000, dtype=np.complex128)
        awgn_power = np.mean(np.abs(awgn.transmit(clean, rng)) ** 2)
        fading_power = np.mean(np.abs(fading.transmit(clean, rng)) ** 2)
        assert fading_power > awgn_power

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RayleighBlockFadingChannel(10.0, coherence_symbols=0)
        with pytest.raises(ValueError):
            RayleighBlockFadingChannel(10.0, signal_power=-1.0)


class TestAdcQuantizer:
    def test_step_size(self):
        quantizer = AdcQuantizer(bits=3, full_scale=4.0)
        assert quantizer.step == pytest.approx(1.0)

    def test_quantisation_error_bounded_by_half_step(self, rng):
        quantizer = AdcQuantizer(bits=8, full_scale=2.0)
        values = rng.uniform(-1.9, 1.9, size=1000)
        error = np.abs(quantizer.quantize_real(values) - values)
        assert np.max(error) <= quantizer.step / 2 + 1e-12

    def test_saturation(self):
        quantizer = AdcQuantizer(bits=4, full_scale=1.0)
        assert quantizer.quantize_real(np.array([10.0]))[0] <= 1.0
        assert quantizer.quantize_real(np.array([-10.0]))[0] >= -1.0

    def test_complex_quantisation(self, rng):
        quantizer = AdcQuantizer(bits=6, full_scale=2.0)
        values = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        out = quantizer.quantize(values)
        assert np.iscomplexobj(out)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdcQuantizer(bits=0, full_scale=1.0)
        with pytest.raises(ValueError):
            AdcQuantizer(bits=8, full_scale=0.0)


class TestTraces:
    def test_constant(self):
        assert np.all(constant_trace(5.0, 10) == 5.0)

    def test_random_walk_bounds(self, rng):
        trace = random_walk_trace(10.0, 5000, 2.0, rng, min_snr_db=0.0, max_snr_db=20.0)
        assert trace.min() >= 0.0 and trace.max() <= 20.0

    def test_random_walk_moves(self, rng):
        trace = random_walk_trace(10.0, 100, 1.0, rng)
        assert np.std(trace) > 0.0

    def test_gilbert_elliott_two_levels(self, rng):
        trace = gilbert_elliott_trace(20.0, 0.0, 2000, rng)
        assert set(np.unique(trace)).issubset({0.0, 20.0})
        assert 0.0 in trace and 20.0 in trace

    def test_sinusoidal_period(self):
        trace = sinusoidal_trace(10.0, 5.0, period_symbols=20, length=40)
        assert trace[0] == pytest.approx(trace[20])
        assert trace.max() <= 15.0 + 1e-9

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            constant_trace(0.0, 0)
        with pytest.raises(ValueError):
            random_walk_trace(0.0, 10, 1.0, rng, min_snr_db=5.0, max_snr_db=1.0)
        with pytest.raises(ValueError):
            gilbert_elliott_trace(10.0, 0.0, 10, rng, p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            sinusoidal_trace(0.0, 1.0, 0, 10)


def _random_walk_reference(start_snr_db, length, step_db, rng, min_snr_db, max_snr_db):
    """The pre-vectorization one-step-at-a-time loop, kept as the oracle."""
    steps = rng.normal(0.0, step_db, size=length)
    trace = np.empty(length)
    current = float(np.clip(start_snr_db, min_snr_db, max_snr_db))
    for i, step in enumerate(steps):
        current += step
        if current > max_snr_db:
            current = 2 * max_snr_db - current
        if current < min_snr_db:
            current = 2 * min_snr_db - current
        current = float(np.clip(current, min_snr_db, max_snr_db))
        trace[i] = current
    return trace


def _gilbert_elliott_reference(good, bad, length, rng, p_gb, p_bg):
    """The pre-vectorization per-symbol loop, kept as the oracle."""
    trace = np.empty(length)
    in_good_state = True
    for i in range(length):
        trace[i] = good if in_good_state else bad
        if in_good_state and rng.random() < p_gb:
            in_good_state = False
        elif not in_good_state and rng.random() < p_bg:
            in_good_state = True
    return trace


class TestTraceVectorizationBitIdentity:
    """The vectorized trace generators are bit-identical to the old loops.

    The mobility layer of ``repro.net`` puts these on the per-user hot path
    at city scale; vectorization must not move a single bit, or every
    downstream seed-pinned result shifts.
    """

    @pytest.mark.parametrize("step_db", [0.05, 1.0, 25.0, 200.0])
    @pytest.mark.parametrize("start", [-10.0, 3.7, 40.0, 99.0])
    def test_random_walk_matches_reference_loop(self, step_db, start):
        # step_db spans "never reflects" to "reflects nearly every step"
        # (200 dB steps exceed the whole range, exercising the double
        # reflection); start values include both boundaries and an
        # out-of-range start that the initial clip pulls back.
        args = (start, 4097, step_db)
        kwargs = {"min_snr_db": -10.0, "max_snr_db": 40.0}
        expected = _random_walk_reference(*args, spawn_rng(11, "w"), **kwargs)
        actual = random_walk_trace(*args, spawn_rng(11, "w"), **kwargs)
        assert np.array_equal(actual, expected)

    def test_random_walk_consumes_identical_rng_stream(self):
        rng_a, rng_b = spawn_rng(12, "s"), spawn_rng(12, "s")
        _random_walk_reference(5.0, 777, 3.0, rng_a, -10.0, 40.0)
        random_walk_trace(5.0, 777, 3.0, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "p_gb,p_bg",
        [(0.05, 0.2), (0.0, 0.0), (1.0, 1.0), (0.5, 0.01), (0.0, 1.0)],
    )
    def test_gilbert_elliott_matches_reference_loop(self, p_gb, p_bg):
        expected = _gilbert_elliott_reference(
            20.0, -3.0, 3001, spawn_rng(13, "ge"), p_gb, p_bg
        )
        actual = gilbert_elliott_trace(
            20.0, -3.0, 3001, spawn_rng(13, "ge"), p_good_to_bad=p_gb, p_bad_to_good=p_bg
        )
        assert np.array_equal(actual, expected)

    def test_gilbert_elliott_consumes_identical_rng_stream(self):
        rng_a, rng_b = spawn_rng(14, "s"), spawn_rng(14, "s")
        _gilbert_elliott_reference(20.0, 0.0, 555, rng_a, 0.05, 0.2)
        gilbert_elliott_trace(20.0, 0.0, 555, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestPerUserSeedDiscipline:
    """Seed determinism and per-user independence (the MAC cell's contract).

    The multi-user cell gives every user a private channel instance and a
    private generator derived from (seed, user, packet) labels; these tests
    pin the properties that makes correct: the same seed reproduces a
    channel realisation bit-exactly, and different user seeds draw
    statistically independent realisations.
    """

    def test_fading_same_seed_is_bit_identical(self):
        symbols = np.ones(256, dtype=np.complex128)

        def realisation(seed):
            channel = RayleighBlockFadingChannel(10.0, coherence_symbols=8)
            return channel.transmit(symbols, spawn_rng(seed, "user", 0))

        assert np.array_equal(realisation(42), realisation(42))

    def test_fading_different_user_seeds_are_independent(self):
        symbols = np.ones(4096, dtype=np.complex128)

        def noise(user):
            channel = RayleighBlockFadingChannel(10.0, coherence_symbols=8)
            received = channel.transmit(symbols, spawn_rng(7, "user", user))
            return received - symbols

        a, b = noise(0), noise(1)
        assert not np.array_equal(a, b)
        # Effective noise across users is uncorrelated (independent fades
        # and independent AWGN draws): the normalised cross-correlation of
        # long realisations must be tiny.
        correlation = np.abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert correlation < 0.05

    def test_fading_channel_state_is_per_instance(self):
        # Two users transmitting alternately must see the same fades they
        # would have seen transmitting alone: channel state cannot bleed
        # across instances.
        symbols = np.ones(64, dtype=np.complex128)
        alone = RayleighBlockFadingChannel(10.0, coherence_symbols=8)
        alone_out = alone.transmit(symbols, spawn_rng(3, "user", 0))
        shared_a = RayleighBlockFadingChannel(10.0, coherence_symbols=8)
        shared_b = RayleighBlockFadingChannel(10.0, coherence_symbols=8)
        rng_a, rng_b = spawn_rng(3, "user", 0), spawn_rng(3, "user", 1)
        interleaved = []
        for start in range(0, 64, 8):
            interleaved.append(shared_a.transmit(symbols[start : start + 8], rng_a))
            shared_b.transmit(symbols[start : start + 8], rng_b)
        assert np.array_equal(np.concatenate(interleaved), alone_out)

    def test_random_walk_same_seed_identical_different_seed_independent(self):
        same_a = random_walk_trace(10.0, 500, 1.0, spawn_rng(5, "walk", 0))
        same_b = random_walk_trace(10.0, 500, 1.0, spawn_rng(5, "walk", 0))
        other = random_walk_trace(10.0, 500, 1.0, spawn_rng(5, "walk", 1))
        assert np.array_equal(same_a, same_b)
        assert not np.array_equal(same_a, other)
        # Walks themselves correlate spuriously (integrated noise); the
        # i.i.d. *increments* are what independence makes uncorrelated.
        correlation = np.corrcoef(np.diff(same_a), np.diff(other))[0, 1]
        assert abs(correlation) < 0.15

    def test_gilbert_elliott_same_seed_identical_different_seed_differs(self):
        same_a = gilbert_elliott_trace(20.0, 0.0, 500, spawn_rng(5, "ge", 0))
        same_b = gilbert_elliott_trace(20.0, 0.0, 500, spawn_rng(5, "ge", 0))
        other = gilbert_elliott_trace(20.0, 0.0, 500, spawn_rng(5, "ge", 1))
        assert np.array_equal(same_a, same_b)
        assert not np.array_equal(same_a, other)


class TestTimeVaryingExternalClock:
    def test_set_time_pins_the_trace_cursor(self, rng):
        # Trace: silent at even indices (40 dB), screaming at odd (-20 dB).
        trace = [40.0 if i % 2 == 0 else -20.0 for i in range(2)]
        quiet = TimeVaryingAWGNChannel(trace)
        loud = TimeVaryingAWGNChannel(trace)
        symbol = np.ones(1, dtype=np.complex128)
        quiet.set_time(0)
        loud.set_time(1)
        quiet_error = abs(quiet.transmit(symbol, np.random.default_rng(1))[0] - 1.0)
        loud_error = abs(loud.transmit(symbol, np.random.default_rng(1))[0] - 1.0)
        assert loud_error > 10.0 * quiet_error

    def test_set_time_matches_organically_advanced_cursor(self):
        trace = [0.0, 5.0, 10.0, 15.0]
        organic = TimeVaryingAWGNChannel(trace)
        pinned = TimeVaryingAWGNChannel(trace)
        organic.transmit(np.ones(2, dtype=np.complex128), spawn_rng(1, "warmup"))
        pinned.set_time(2)
        rng_a, rng_b = spawn_rng(2, "probe"), spawn_rng(2, "probe")
        a = organic.transmit(np.ones(4, dtype=np.complex128), rng_a)
        b = pinned.transmit(np.ones(4, dtype=np.complex128), rng_b)
        assert np.array_equal(a, b)

    def test_set_time_rejects_negative(self):
        channel = TimeVaryingAWGNChannel([0.0, 10.0])
        with pytest.raises(ValueError, match="non-negative"):
            channel.set_time(-1)
