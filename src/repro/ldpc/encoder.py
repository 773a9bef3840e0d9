"""Systematic LDPC encoding.

An LDPC code is defined by its sparse parity-check matrix ``H = [H_info | H_par]``
(``(n-k) x n``).  A systematic codeword ``x = [s | p]`` must satisfy
``H x = 0``, i.e. ``H_par p = H_info s`` over GF(2).  The constructions in
this package always make ``H_par`` invertible (dual-diagonal plus a weight-3
column), so encoding is a pre-computed GF(2) matrix application.

The same class carries the decoder-facing views of ``H`` (edge lists sorted
by check and by variable) so that the belief-propagation decoder does not
recompute them per codeword.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.ldpc.matrices import QCMatrix, gf2_inverse

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["LDPCCode"]


class LDPCCode:
    """A binary LDPC code with systematic encoding support."""

    def __init__(self, parity_check: sparse.spmatrix, name: str = "ldpc") -> None:
        # Imported here so that ``import repro`` loads no scipy module.
        from scipy import sparse

        h = sparse.csr_matrix(parity_check, dtype=np.uint8)
        if h.ndim != 2:
            raise ValueError("parity-check matrix must be 2-D")
        self.parity_check = h
        self.name = name
        self.n = int(h.shape[1])
        self.n_checks = int(h.shape[0])
        self.k = self.n - self.n_checks

        h_info = h[:, : self.k].toarray()
        h_par = h[:, self.k :].toarray()
        try:
            h_par_inv = gf2_inverse(h_par)
        except ValueError as exc:
            raise ValueError(
                "the parity part of H is singular over GF(2); this code cannot "
                "be encoded systematically — regenerate the construction with "
                "another seed"
            ) from exc
        # p = (H_par^-1 H_info) s over GF(2); precompute the k x (n-k) map.
        self._encode_matrix = (h_par_inv.astype(np.int64) @ h_info.astype(np.int64) % 2).astype(
            np.uint8
        )

        # Edge bookkeeping for belief propagation, sorted by check row.
        coo = h.tocoo()
        order = np.lexsort((coo.col, coo.row))
        self.edge_check = coo.row[order].astype(np.int64)
        self.edge_variable = coo.col[order].astype(np.int64)
        self.n_edges = int(self.edge_check.size)
        # Row pointer boundaries for grouping edges by check.
        self.check_ptr = np.searchsorted(self.edge_check, np.arange(self.n_checks + 1))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_qc_matrix(cls, qc_matrix: QCMatrix, name: str = "qc-ldpc") -> "LDPCCode":
        return cls(qc_matrix.expand(), name=name)

    # -- properties ----------------------------------------------------------
    @property
    def rate(self) -> float:
        """Design code rate k/n."""
        return self.k / self.n

    def describe(self) -> str:
        return f"{self.name} (n={self.n}, k={self.k}, rate={self.rate:.3f})"

    # -- encoding ------------------------------------------------------------
    def encode(self, message_bits: np.ndarray) -> np.ndarray:
        """Encode ``k`` message bits into an ``n``-bit systematic codeword."""
        message_bits = np.asarray(message_bits, dtype=np.uint8)
        if message_bits.shape != (self.k,):
            raise ValueError(
                f"expected {self.k} message bits, got shape {message_bits.shape}"
            )
        parity = (self._encode_matrix.astype(np.int64) @ message_bits.astype(np.int64) % 2).astype(
            np.uint8
        )
        return np.concatenate([message_bits, parity])

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode a batch of messages, shape ``(batch, k)`` -> ``(batch, n)``."""
        messages = np.asarray(messages, dtype=np.uint8)
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(f"expected shape (batch, {self.k}), got {messages.shape}")
        parity = (messages.astype(np.int64) @ self._encode_matrix.T.astype(np.int64) % 2).astype(
            np.uint8
        )
        return np.concatenate([messages, parity], axis=1)

    # -- checks ----------------------------------------------------------------
    def syndrome(self, codeword: np.ndarray) -> np.ndarray:
        """Compute ``H x`` over GF(2) (all zero for a valid codeword)."""
        codeword = np.asarray(codeword, dtype=np.uint8)
        if codeword.shape[-1] != self.n:
            raise ValueError(f"expected codewords of length {self.n}")
        product = self.parity_check.astype(np.int64) @ codeword.astype(np.int64).T
        return (product % 2).astype(np.uint8).T

    def is_codeword(self, codeword: np.ndarray) -> bool:
        return not np.any(self.syndrome(codeword))

    def extract_message(self, codeword: np.ndarray) -> np.ndarray:
        """Systematic message bits of a codeword (the first ``k`` positions)."""
        codeword = np.asarray(codeword, dtype=np.uint8)
        return codeword[..., : self.k]
