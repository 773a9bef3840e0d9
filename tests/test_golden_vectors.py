"""Golden-vector regression tests for the hot-path identity of the code.

The stateful decoding engine caches and reuses salted hash outputs and
branch costs across decode attempts, so any silent change to the hash
family, the spine recurrence, or the encoder's symbol generation would
corrupt results in ways ordinary behavioural tests may miss.  These vectors
pin the exact bit-level identity of the code at fixed seeds: a failure here
means the *code itself* changed (every previously-encoded transmission
becomes undecodable), which must always be a deliberate, versioned decision
— never a refactoring accident.

All expected values were generated by the implementation at the time this
suite was introduced and are hard-coded on purpose.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.encoder import SpinalEncoder
from repro.core.hashing import SaltedHashFamily, splitmix64
from repro.core.params import SpinalParams
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

_STATES = np.array([0, 1, 0xDEADBEEF, 2**64 - 1], dtype=np.uint64)
_SEGMENTS = np.array([0, 1, 170, 255], dtype=np.uint64)


class TestHashFamilyGoldenVectors:
    family = SaltedHashFamily(seed=0x5EEDC0DE, k=8)

    def test_splitmix64_reference_values(self):
        # First output of the splitmix64 reference sequence from seed 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(123456789) == 0x223C74D93DEB7679

    def test_hash_spine_pinned_outputs(self):
        expected = np.array(
            [
                0xC7118A63D36F752A,
                0xF6D8C797E52903FF,
                0x285C11CB6912F3C0,
                0xEF4F76F5673F1022,
            ],
            dtype=np.uint64,
        )
        assert np.array_equal(self.family.hash_spine(_STATES, _SEGMENTS), expected)

    def test_symbol_word_pinned_outputs(self):
        expected_pass0 = np.array(
            [
                0x545CB475E6221BB8,
                0x78D64FED2F8EBA7E,
                0xCC7AD4D8BF3CC9A1,
                0xE66F46EE1B9FDAC1,
            ],
            dtype=np.uint64,
        )
        expected_pass3 = np.array(
            [
                0x0BA8198B1E65C552,
                0xAA39AFB991DB2C3F,
                0x43ECE76B00A80C67,
                0x2232F0ECA21C72AD,
            ],
            dtype=np.uint64,
        )
        assert np.array_equal(self.family.symbol_word(_STATES, 0), expected_pass0)
        assert np.array_equal(self.family.symbol_word(_STATES, 3), expected_pass3)


class TestEncoderGoldenVectors:
    """A full encode at a pinned seed, checked bit-for-bit."""

    message = np.array(
        [int(b) for b in "1111111101110101110000101110111111010001000001001010011001001000"],
        dtype=np.uint8,
    )

    def test_pinned_message_reproduces(self):
        rng = spawn_rng(20111114, "golden")
        assert np.array_equal(random_message_bits(64, rng), self.message)

    def test_spine_pinned_values(self):
        encoder = SpinalEncoder(SpinalParams(k=8, c=10, seed=0x5EEDC0DE))
        expected = np.array(
            [
                0x2DA1222F1C56F002,
                0x249740D3CD73F6B3,
                0x226B90437488963E,
                0xDB00B7B22E2EA7C0,
                0x427A164DCE2EABCF,
                0x81DAEA3DE6276707,
                0xDB9F0E0CB0BCA831,
                0x6FDB88C37089DB69,
            ],
            dtype=np.uint64,
        )
        assert np.array_equal(encoder.spine(self.message), expected)

    def test_encode_passes_digest_and_spot_values(self):
        encoder = SpinalEncoder(SpinalParams(k=8, c=10, seed=0x5EEDC0DE))
        passes = encoder.encode_passes(self.message, 3)
        assert passes.shape == (3, 8)
        digest = hashlib.sha256(passes.tobytes()).hexdigest()
        assert digest == "81571004e991f0da4f2c1b3c9880e57f3bc133bc3f642974df94c1ae1685ce9c"
        spot = passes[0, :3]
        expected = np.array(
            [
                1.2073769955636484 + 0.45755755189019215j,
                -0.40964576635195216 + 0.9821916035339203j,
                -1.2049814062867363 - 0.48390903393622414j,
            ]
        )
        assert np.array_equal(spot, expected)

    def test_bit_mode_encode_passes_pinned(self):
        encoder = SpinalEncoder(SpinalParams(k=4, seed=77, bit_mode=True))
        message = np.array(
            [int(b) for b in "0100110001100101"], dtype=np.uint8
        )
        passes = encoder.encode_passes(message, 8)
        expected = np.array(
            [
                [0, 0, 1, 1],
                [1, 1, 0, 0],
                [0, 0, 1, 1],
                [1, 0, 0, 1],
                [0, 1, 0, 0],
                [0, 0, 1, 1],
                [1, 0, 1, 1],
                [1, 1, 0, 0],
            ],
            dtype=np.uint8,
        )
        assert np.array_equal(passes, expected)
