"""Packet-level accounting of a rateless link under a feedback model.

Takes the per-packet "symbols needed" measurements produced by the rateless
session and turns them into link-level throughput and latency numbers for a
given feedback model — the quantity experiment E13 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.link.feedback import FeedbackModel

__all__ = ["LinkSessionResult", "simulate_link_session"]


@dataclass(frozen=True)
class LinkSessionResult:
    """Aggregate outcome of delivering a sequence of packets."""

    n_packets: int
    payload_bits_per_packet: int
    symbols_needed: np.ndarray
    symbols_spent: np.ndarray

    @property
    def total_payload_bits(self) -> int:
        return self.n_packets * self.payload_bits_per_packet

    @property
    def throughput_bits_per_symbol(self) -> float:
        """Delivered payload bits per channel use, including feedback overhead.

        An empty packet sequence spends nothing and delivers nothing; its
        throughput is defined as 0.0 (rather than raising), so aggregation
        code can fold in idle links without special-casing them.
        """
        total_spent = float(self.symbols_spent.sum())
        if total_spent == 0:
            return 0.0
        return self.total_payload_bits / total_spent

    @property
    def ideal_throughput_bits_per_symbol(self) -> float:
        """Throughput with perfect feedback (the paper's assumption)."""
        total_needed = float(self.symbols_needed.sum())
        if total_needed == 0:
            return 0.0
        return self.total_payload_bits / total_needed

    @property
    def feedback_efficiency(self) -> float:
        """Fraction of the ideal throughput retained under the feedback model.

        Vacuously 1.0 for an empty packet sequence (no symbols were needed
        and none were spent).
        """
        ideal = self.ideal_throughput_bits_per_symbol
        if ideal == 0:
            return 1.0
        return self.throughput_bits_per_symbol / ideal

    @property
    def mean_packet_symbols(self) -> float:
        """Mean channel uses per packet including overhead (a latency proxy)."""
        if self.symbols_spent.size == 0:
            return 0.0
        return float(self.symbols_spent.mean())


def simulate_link_session(
    symbols_needed_per_packet: Sequence[int],
    payload_bits_per_packet: int,
    feedback: FeedbackModel,
) -> LinkSessionResult:
    """Apply a feedback model to a sequence of per-packet symbol requirements.

    An empty sequence is valid and yields a zero-packet result whose
    throughput properties are all well-defined (zero throughput, vacuously
    perfect efficiency).  The *measured* counterpart is
    ``simulate_relay_transport([session], payloads, config).hops[0]
    .link_session_result()`` (:mod:`repro.link.topology`), which simulates
    the protocol dynamics instead of assuming a model.
    """
    needed = np.asarray(list(symbols_needed_per_packet), dtype=np.int64)
    if np.any(needed <= 0):
        raise ValueError("symbols_needed_per_packet must be positive")
    if payload_bits_per_packet <= 0:
        raise ValueError(
            f"payload_bits_per_packet must be positive, got {payload_bits_per_packet}"
        )
    spent = np.array([feedback.symbols_spent(int(n)) for n in needed], dtype=np.float64)
    return LinkSessionResult(
        n_packets=int(needed.size),
        payload_bits_per_packet=int(payload_bits_per_packet),
        symbols_needed=needed,
        symbols_spent=spent,
    )

