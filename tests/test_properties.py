"""Property-based tests (hypothesis) on the core data structures and invariants.

These cover the invariants the rest of the system silently relies on:
round-trips (bit packing, framing, segmentation, QAM mapping), determinism of
the hash/encoder layer, CRC error detection, GF(2) algebra, the noiseless
decode round-trip, and the ML-optimality of the exhaustive decoder.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.constellation import make_constellation
from repro.core.crc import CRC8, CRC16_CCITT
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.framing import Framer
from repro.core.hashing import SaltedHashFamily
from repro.core.params import SpinalParams
from repro.core.puncturing import NoPuncturing, StridedPuncturing, SymbolBySymbol, TailFirstPuncturing
from repro.ldpc.matrices import gf2_inverse, gf2_matmul_vec, gf2_rank
from repro.modulation import make_modulation
from repro.utils.bitops import (
    bits_to_int,
    int_to_bits,
    pack_segments,
    unpack_segments,
)

# Most properties run a bounded number of examples to keep the suite fast.
FAST_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=96).map(
    lambda bits: np.array(bits, dtype=np.uint8)
)


class TestBitopsProperties:
    @FAST_SETTINGS
    @given(value=st.integers(0, 2**32 - 1), width=st.integers(33, 48))
    def test_int_bits_roundtrip(self, value, width):
        assert bits_to_int(int_to_bits(value, width)) == value

    @FAST_SETTINGS
    @given(bits=bit_arrays, k=st.sampled_from([1, 2, 3, 4, 6, 8]))
    def test_segment_roundtrip(self, bits, k):
        assume(bits.size % k == 0)
        assert np.array_equal(unpack_segments(pack_segments(bits, k), k), bits)

    @FAST_SETTINGS
    @given(bits=bit_arrays, k=st.sampled_from([2, 4, 8]))
    def test_segment_values_fit_k_bits(self, bits, k):
        assume(bits.size % k == 0)
        segments = pack_segments(bits, k)
        assert int(segments.max()) < (1 << k)


class TestCrcProperties:
    @FAST_SETTINGS
    @given(bits=bit_arrays)
    def test_append_check_roundtrip(self, bits):
        assert CRC16_CCITT.check(CRC16_CCITT.append(bits))

    @FAST_SETTINGS
    @given(bits=bit_arrays, data=st.data())
    def test_any_single_bit_flip_detected(self, bits, data):
        framed = CRC8.append(bits)
        position = data.draw(st.integers(0, framed.size - 1))
        framed[position] ^= 1
        assert not CRC8.check(framed)


class TestFramerProperties:
    @FAST_SETTINGS
    @given(
        payload_bits=st.integers(8, 64),
        k=st.sampled_from([2, 4, 8]),
        tail=st.integers(0, 2),
        use_crc=st.booleans(),
        data=st.data(),
    )
    def test_frame_roundtrip_and_alignment(self, payload_bits, k, tail, use_crc, data):
        framer = Framer(
            payload_bits=payload_bits,
            k=k,
            crc=CRC16_CCITT if use_crc else None,
            tail_segments=tail,
        )
        payload = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=payload_bits, max_size=payload_bits)),
            dtype=np.uint8,
        )
        framed = framer.frame(payload)
        assert framed.size % k == 0
        assert framed.size == framer.framed_bits
        assert np.array_equal(framer.extract_payload(framed), payload)
        assert framer.check(framed) or framer.crc is None


class TestHashProperties:
    @FAST_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        state=st.integers(0, 2**63 - 1),
        segment=st.integers(0, 255),
    )
    def test_hash_deterministic_and_seed_dependent(self, seed, state, segment):
        family_a = SaltedHashFamily(seed=seed, k=8)
        family_b = SaltedHashFamily(seed=seed, k=8)
        assert family_a.hash_spine_scalar(state, segment) == family_b.hash_spine_scalar(
            state, segment
        )

    @FAST_SETTINGS
    @given(
        state=st.integers(0, 2**63 - 1),
        segment_a=st.integers(0, 255),
        segment_b=st.integers(0, 255),
    )
    def test_distinct_segments_distinct_children(self, state, segment_a, segment_b):
        assume(segment_a != segment_b)
        family = SaltedHashFamily(seed=99, k=8)
        assert family.hash_spine_scalar(state, segment_a) != family.hash_spine_scalar(
            state, segment_b
        )


class TestConstellationProperties:
    @FAST_SETTINGS
    @given(
        kind=st.sampled_from(["linear", "offset-linear", "truncated-gaussian"]),
        c=st.integers(2, 8),
        power=st.floats(0.25, 8.0),
    )
    def test_average_energy_matches_request(self, kind, c, power):
        mapper = make_constellation(kind, c=c, average_power=power)
        assert mapper.average_energy == pytest.approx(power, rel=1e-6)

    @FAST_SETTINGS
    @given(kind=st.sampled_from(["linear", "offset-linear"]), c=st.integers(2, 6))
    def test_empirical_energy_matches_analytic(self, kind, c):
        mapper = make_constellation(kind, c=c)
        points = mapper.enumerate_points()
        assert float(np.mean(np.abs(points) ** 2)) == pytest.approx(
            mapper.average_energy, rel=1e-9
        )


class TestModulationProperties:
    @FAST_SETTINGS
    @given(
        name=st.sampled_from(["BPSK", "QAM-4", "QAM-16", "QAM-64"]),
        data=st.data(),
    )
    def test_modulate_hard_demodulate_roundtrip(self, name, data):
        modulation = make_modulation(name)
        n_symbols = data.draw(st.integers(1, 20))
        bits = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 1),
                    min_size=n_symbols * modulation.bits_per_symbol,
                    max_size=n_symbols * modulation.bits_per_symbol,
                )
            ),
            dtype=np.uint8,
        )
        assert np.array_equal(modulation.demodulate_hard(modulation.modulate(bits)), bits)


class TestGF2Properties:
    @FAST_SETTINGS
    @given(data=st.data())
    def test_inverse_property(self, data):
        size = data.draw(st.integers(2, 10))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        matrix = rng.integers(0, 2, size=(size, size), dtype=np.uint8)
        assume(gf2_rank(matrix) == size)
        inverse = gf2_inverse(matrix)
        identity = (matrix.astype(int) @ inverse.astype(int)) % 2
        assert np.array_equal(identity, np.eye(size, dtype=int))

    @FAST_SETTINGS
    @given(data=st.data())
    def test_matmul_vec_linearity(self, data):
        rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        matrix = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        x = rng.integers(0, 2, size=cols, dtype=np.uint8)
        y = rng.integers(0, 2, size=cols, dtype=np.uint8)
        lhs = gf2_matmul_vec(matrix, x ^ y)
        rhs = gf2_matmul_vec(matrix, x) ^ gf2_matmul_vec(matrix, y)
        assert np.array_equal(lhs, rhs)


class TestPuncturingProperties:
    @FAST_SETTINGS
    @given(
        schedule=st.sampled_from(
            [NoPuncturing(), SymbolBySymbol(), TailFirstPuncturing(), StridedPuncturing(4)]
        ),
        n_segments=st.integers(1, 20),
        subpass=st.integers(0, 50),
    )
    def test_positions_always_valid(self, schedule, n_segments, subpass):
        positions = schedule.subpass_positions(subpass, n_segments)
        assert np.all((0 <= positions) & (positions < n_segments))
        assert len(set(positions.tolist())) == positions.size


class TestEncodeDecodeProperties:
    @FAST_SETTINGS
    @given(
        seed=st.integers(0, 2**16),
        k=st.sampled_from([2, 4]),
        n_segments=st.integers(2, 5),
        data=st.data(),
    )
    def test_noiseless_roundtrip(self, seed, k, n_segments, data):
        """One clean pass decodes to a zero-cost explanation of the symbols.

        The decoded message is the true one unless the hash family collides
        — two messages whose single-pass encodings are *identical symbols*
        are information-theoretically indistinguishable from one clean pass
        (hypothesis found such a collision at seed=246, k=2), so the
        guarantee is: zero path cost, and the decoded message re-encodes to
        exactly the observed symbols.
        """
        n_bits = k * n_segments
        params = SpinalParams(k=k, c=6, seed=seed)
        encoder = SpinalEncoder(params)
        bits = np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=n_bits, max_size=n_bits)),
            dtype=np.uint8,
        )
        values = encoder.encode_passes(bits, 1)
        observations = ReceivedObservations(n_segments)
        for position in range(n_segments):
            observations.add(position, 0, values[0, position])
        result = BubbleDecoder(encoder, beam_width=4).decode(n_bits, observations)
        assert result.path_cost == 0.0
        assert np.array_equal(encoder.encode_passes(result.message_bits, 1), values)

    @FAST_SETTINGS
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_decoded_cost_never_exceeds_true_message_cost(self, seed, data):
        """The decoder's winning path never costs more than the true path."""
        params = SpinalParams(k=4, c=6, seed=seed)
        encoder = SpinalEncoder(params)
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        bits = rng.integers(0, 2, size=12, dtype=np.uint8)
        values = encoder.encode_passes(bits, 2)
        noise = 0.3 * (rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape))
        observations = ReceivedObservations(3)
        for pass_index in range(2):
            for position in range(3):
                observations.add(
                    position, pass_index, values[pass_index, position] + noise[pass_index, position]
                )
        result = BubbleDecoder(encoder, beam_width=64).decode(12, observations)
        true_cost = encoder.total_cost(bits, observations)
        assert result.path_cost <= true_cost + 1e-9


_FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_stays_small(x):
    assert x < 10
"""


class TestFailureReport:
    def test_failing_property_reports_its_example(self, tmp_path):
        """A failing property ends in its falsifying example, not an
        INTERNALERROR (see ``tests/conftest.py``), under this suite's
        ``pytest.ini``."""
        tests_dir = Path(__file__).resolve().parent
        (tmp_path / "test_fails.py").write_text(_FAILING_PROPERTY)
        path = [str(tests_dir), str(tests_dir.parent / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "conftest",
                "-p", "no:cacheprovider", "-c", str(tests_dir.parent / "pytest.ini"),
                "--rootdir", str(tmp_path), "test_fails.py",
            ],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            capture_output=True,
            text=True,
            timeout=120,
        )
        output = proc.stdout + proc.stderr
        assert proc.returncode == 1, output
        assert "Falsifying example" in output
        assert "INTERNALERROR" not in output
