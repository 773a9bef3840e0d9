"""Quasi-cyclic parity-check matrices and GF(2) linear algebra.

A QC-LDPC code is described by a small *base matrix* whose entries are either
``-1`` (an all-zero ``Z x Z`` block) or a shift ``0 <= s < Z`` (the identity
matrix cyclically right-shifted by ``s``).  Expanding the base matrix with
lifting factor ``Z`` yields the binary parity-check matrix ``H``.

The GF(2) helpers (rank, inverse, solve) are used by the encoder to derive a
systematic encoding from ``H`` without needing a generator-matrix table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "QCMatrix",
    "expand_base_matrix",
    "gf2_rank",
    "gf2_inverse",
    "gf2_solve",
    "gf2_matmul_vec",
    "has_four_cycle",
]


@dataclass(frozen=True)
class QCMatrix:
    """A quasi-cyclic matrix: integer base matrix plus lifting factor.

    Attributes
    ----------
    base:
        2-D integer array; ``-1`` marks a zero block, any other value is the
        cyclic shift of an identity block.
    lifting:
        Block size ``Z``.
    """

    base: np.ndarray
    lifting: int

    def __post_init__(self) -> None:
        base = np.asarray(self.base, dtype=np.int64)
        if base.ndim != 2:
            raise ValueError(f"base matrix must be 2-D, got shape {base.shape}")
        if self.lifting <= 0:
            raise ValueError(f"lifting factor must be positive, got {self.lifting}")
        if np.any(base >= self.lifting):
            raise ValueError("shift values must be smaller than the lifting factor")
        if np.any(base < -1):
            raise ValueError("base entries must be -1 (zero block) or a shift >= 0")
        object.__setattr__(self, "base", base)

    @property
    def block_shape(self) -> tuple[int, int]:
        return tuple(self.base.shape)

    @property
    def shape(self) -> tuple[int, int]:
        rows, cols = self.base.shape
        return rows * self.lifting, cols * self.lifting

    def expand(self) -> sparse.csr_matrix:
        """Expand to the full binary matrix as a scipy CSR sparse matrix."""
        return expand_base_matrix(self.base, self.lifting)

    def column_weights(self) -> np.ndarray:
        """Number of non-zero blocks per base column."""
        return (self.base >= 0).sum(axis=0)

    def row_weights(self) -> np.ndarray:
        """Number of non-zero blocks per base row."""
        return (self.base >= 0).sum(axis=1)


def expand_base_matrix(base: np.ndarray, lifting: int) -> sparse.csr_matrix:
    """Expand a shift base matrix into its binary parity-check matrix."""
    # Imported here so that ``import repro`` loads no scipy module.
    from scipy import sparse

    base = np.asarray(base, dtype=np.int64)
    n_block_rows, n_block_cols = base.shape
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    block_indices = np.arange(lifting)
    for br in range(n_block_rows):
        for bc in range(n_block_cols):
            shift = base[br, bc]
            if shift < 0:
                continue
            # Row i of a right-shifted identity has its one at column (i + shift) mod Z.
            rows.append(br * lifting + block_indices)
            cols.append(bc * lifting + (block_indices + shift) % lifting)
    if not rows:
        raise ValueError("base matrix has no non-zero blocks")
    row_idx = np.concatenate(rows)
    col_idx = np.concatenate(cols)
    data = np.ones(row_idx.size, dtype=np.uint8)
    shape = (n_block_rows * lifting, n_block_cols * lifting)
    return sparse.csr_matrix((data, (row_idx, col_idx)), shape=shape)


def has_four_cycle(base: np.ndarray, lifting: int) -> bool:
    """Check whether the expanded graph contains any length-4 cycle.

    Two columns sharing two base rows ``r1, r2`` create a 4-cycle iff the
    shift differences match modulo ``Z``:
    ``s[r1, c1] - s[r2, c1] == s[r1, c2] - s[r2, c2] (mod Z)``.
    """
    base = np.asarray(base, dtype=np.int64)
    n_rows, n_cols = base.shape
    for c1 in range(n_cols):
        for c2 in range(c1 + 1, n_cols):
            shared = np.where((base[:, c1] >= 0) & (base[:, c2] >= 0))[0]
            if shared.size < 2:
                continue
            for i in range(shared.size):
                for j in range(i + 1, shared.size):
                    r1, r2 = shared[i], shared[j]
                    delta1 = (base[r1, c1] - base[r2, c1]) % lifting
                    delta2 = (base[r1, c2] - base[r2, c2]) % lifting
                    if delta1 == delta2:
                        return True
    return False


# -- GF(2) linear algebra -----------------------------------------------------


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of a dense binary matrix over GF(2)."""
    m = np.array(matrix, dtype=np.uint8) % 2
    n_rows, n_cols = m.shape
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for row in range(pivot_row, n_rows):
            if m[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        m[[pivot_row, pivot]] = m[[pivot, pivot_row]]
        eliminate = (m[:, col] == 1) & (np.arange(n_rows) != pivot_row)
        m[eliminate] ^= m[pivot_row]
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def gf2_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square binary matrix over GF(2).

    Raises
    ------
    ValueError
        If the matrix is singular over GF(2).
    """
    m = np.array(matrix, dtype=np.uint8) % 2
    n_rows, n_cols = m.shape
    if n_rows != n_cols:
        raise ValueError(f"matrix must be square, got {m.shape}")
    augmented = np.concatenate([m, np.eye(n_rows, dtype=np.uint8)], axis=1)
    for col in range(n_rows):
        pivot = None
        for row in range(col, n_rows):
            if augmented[row, col]:
                pivot = row
                break
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        augmented[[col, pivot]] = augmented[[pivot, col]]
        eliminate = (augmented[:, col] == 1) & (np.arange(n_rows) != col)
        augmented[eliminate] ^= augmented[col]
    return augmented[:, n_rows:]


def gf2_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` over GF(2) for square invertible ``A``."""
    inverse = gf2_inverse(matrix)
    return gf2_matmul_vec(inverse, rhs)


def gf2_matmul_vec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Binary matrix-vector product over GF(2)."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    vector = np.asarray(vector, dtype=np.uint8)
    return (matrix.astype(np.int64) @ vector.astype(np.int64) % 2).astype(np.uint8)
