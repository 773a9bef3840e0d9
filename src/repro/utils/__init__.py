"""Shared utilities for the spinal-code reproduction.

The helpers here are deliberately small and dependency-free (beyond numpy):
bit packing/unpacking used by the encoder and the LDPC substrate, decibel
conversions, seeded RNG management, and the summary statistics and table
rendering used by the experiment harness.
"""

from repro.utils.bitops import (
    bits_to_int,
    bits_to_bytes,
    bytes_to_bits,
    int_to_bits,
    pack_segments,
    random_message_bits,
    unpack_segments,
)
from repro.utils.results import render_table
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.units import db_to_linear, ebn0_to_snr_db, linear_to_db, snr_db_to_ebn0

__all__ = [
    "bits_to_int",
    "bits_to_bytes",
    "bytes_to_bits",
    "int_to_bits",
    "pack_segments",
    "unpack_segments",
    "random_message_bits",
    "render_table",
    "derive_seed",
    "spawn_rng",
    "db_to_linear",
    "linear_to_db",
    "ebn0_to_snr_db",
    "snr_db_to_ebn0",
]
