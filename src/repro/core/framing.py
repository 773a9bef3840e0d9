"""Framing: padding, CRC, and known tail bits around the raw payload.

Two remarks in the paper motivate this layer:

* Section 3.2 — the receiver detects successful decoding "using a CRC at the
  end of each pass, for example"; the framer appends that CRC.
* Section 4 — "the erroneous bits are always in the last few bits, a property
  that we can use in practice by adding some known trailing bits to each
  coded message"; the framer can append ``tail_segments`` all-zero segments,
  which both protects the payload's final bits and (with tail-first
  puncturing) enables rates above ``k`` bits/symbol.

The framer also pads the payload so the framed length is a multiple of the
segment size ``k`` required by the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.crc import Crc

__all__ = ["Framer"]


@dataclass(frozen=True)
class Framer:
    """Deterministic framing of a fixed-length payload.

    Layout of a framed message (all lengths in bits)::

        payload (payload_bits) | CRC (crc.width, optional) | pad (0..k-1) | tail (tail_segments * k)

    The pad bits are zeros inserted so that payload+CRC+pad is a multiple of
    ``k``; the tail segments are additional all-zero segments known to the
    receiver.
    """

    payload_bits: int
    k: int
    crc: Crc | None = None
    tail_segments: int = 0

    def __post_init__(self) -> None:
        if self.payload_bits <= 0:
            raise ValueError(f"payload_bits must be positive, got {self.payload_bits}")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.tail_segments < 0:
            raise ValueError(f"tail_segments must be non-negative, got {self.tail_segments}")
        # The lengths are fixed by the fields; the receiver checks every
        # decode attempt against them, so they are computed once.
        crc_bits = self.crc.width if self.crc is not None else 0
        checked = self.payload_bits + crc_bits
        pad_bits = (-checked) % self.k
        object.__setattr__(self, "_crc_bits", crc_bits)
        object.__setattr__(self, "_pad_bits", pad_bits)
        object.__setattr__(self, "_checked_bits", checked)
        object.__setattr__(
            self, "_framed_bits", checked + pad_bits + self.tail_segments * self.k
        )

    # -- derived lengths ----------------------------------------------------
    @property
    def crc_bits(self) -> int:
        return self._crc_bits

    @property
    def pad_bits(self) -> int:
        return self._pad_bits

    @property
    def framed_bits(self) -> int:
        """Total number of coded bits handed to the spinal encoder."""
        return self._framed_bits

    @property
    def n_segments(self) -> int:
        return self.framed_bits // self.k

    @property
    def overhead_bits(self) -> int:
        """Bits transmitted beyond the payload itself."""
        return self.framed_bits - self.payload_bits

    # -- framing ------------------------------------------------------------
    def frame(self, payload: np.ndarray) -> np.ndarray:
        """Build the framed bit vector for one payload."""
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.ndim != 1 or payload.size != self.payload_bits:
            raise ValueError(
                f"expected a payload of {self.payload_bits} bits, got shape {payload.shape}"
            )
        parts = [payload]
        if self.crc is not None:
            parts.append(self.crc.compute(payload))
        padding = self.pad_bits + self.tail_segments * self.k
        if padding:
            parts.append(np.zeros(padding, dtype=np.uint8))
        return np.concatenate(parts)

    def extract_payload(self, framed: np.ndarray) -> np.ndarray:
        """Recover the payload bits from a (decoded) framed message."""
        framed = np.asarray(framed, dtype=np.uint8)
        if framed.size != self._framed_bits:
            raise ValueError(
                f"expected {self._framed_bits} framed bits, got {framed.size}"
            )
        return framed[: self.payload_bits]

    def check(self, framed: np.ndarray) -> bool:
        """Validate a decoded framed message.

        With a CRC configured this checks the CRC; it additionally verifies
        that the known pad and tail bits are zero (a cheap extra check that
        catches many near-miss decodes).  Without a CRC only the known bits
        are checked, which is weak — experiments without a CRC should use
        genie termination instead.
        """
        framed = np.asarray(framed, dtype=np.uint8)
        if framed.size != self._framed_bits:
            return False
        checked = self._checked_bits
        if np.count_nonzero(framed[checked:]):
            return False
        if self.crc is None:
            return True
        return self.crc.check(framed[:checked])
