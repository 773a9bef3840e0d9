"""Amplify-and-forward relaying: soft symbols forwarded without decoding.

The comparison point for decode-and-forward network coding: the relay never
decodes, it just rescales its noisy reception to its transmit power and
retransmits.  Noise therefore *accumulates* across hops — the effective
end-to-end SNR is strictly below the worse hop — but the relay needs no
codebook, adds no decode latency, and (in the two-way variant) performs
*analog* network coding for free: both endpoints transmit simultaneously,
the relay amplifies the superposition, and each endpoint subtracts its own
(known) contribution before decoding the other's signal.

Both channels compose with any *symbol-domain* rateless code: the code just
sees a worse AWGN channel and streams more symbols, which is exactly the
paper's pitch — no provisioning for the composed SNR is needed.  Bit-domain
families (LT over BSC) are rejected: there is no soft symbol to forward.

Accounting: each end-to-end symbol costs the medium ``uses_per_symbol = 2``
(uplink slot + downlink slot).  The two-way variant's two directions share
slots (superposed uplink, broadcast downlink), so one exchange costs
``2 * max(n_A, n_B)`` — the analog counterpart of the XOR scheme's
``max`` downlink accounting.

Modelling note: the two directions of :func:`run_two_way_af_exchange` draw
their relay noise independently.  Marginal per-direction statistics are
exact; the (second-order) cross-direction noise correlation through the
shared relay amplifier is not modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channels.base import SymbolChannel
from repro.netcode.twoway import TwoWayConfig
from repro.obs.telemetry import current as current_telemetry
from repro.phy.families import make_code
from repro.phy.session import CodecSession
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.units import db_to_linear, linear_to_db

__all__ = [
    "AmplifyForwardChannel",
    "TwoWayAmplifyChannel",
    "TwoWayAmplifyResult",
    "amplify_codes",
    "run_two_way_af_exchange",
]


class AmplifyForwardChannel(SymbolChannel):
    """One-way relay that rescales and retransmits its noisy reception.

    The relay receives ``y = x + n1`` (uplink noise energy ``N1``), scales
    by ``g = sqrt(P / (P + N1))`` so its transmit power is back at ``P``,
    and sends ``g*y``; the destination receives ``g*y + n2`` and normalises
    by ``g``, seeing ``x + n1 + n2/g`` — an AWGN channel with noise energy
    ``N1 + N2*(P + N1)/P``.  Every end-to-end symbol occupies the medium
    twice (one uplink slot, one downlink slot).
    """

    uses_per_symbol = 2

    def __init__(
        self,
        uplink_snr_db: float,
        downlink_snr_db: float,
        signal_power: float = 1.0,
    ) -> None:
        if signal_power <= 0:
            raise ValueError(f"signal_power must be positive, got {signal_power}")
        self.uplink_snr_db = float(uplink_snr_db)
        self.downlink_snr_db = float(downlink_snr_db)
        self.signal_power = float(signal_power)
        self.uplink_noise = self.signal_power / db_to_linear(uplink_snr_db)
        self.downlink_noise = self.signal_power / db_to_linear(downlink_snr_db)
        #: Power normalisation at the relay: amplify the (signal + uplink
        #: noise) mixture back to the transmit power budget.
        self.gain_squared = self.signal_power / (self.signal_power + self.uplink_noise)
        self.effective_noise = self.uplink_noise + self.downlink_noise / self.gain_squared

    @property
    def effective_snr_db(self) -> float:
        """The composed end-to-end SNR (strictly below both hop SNRs)."""
        return linear_to_db(self.signal_power / self.effective_noise)

    def transmit(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        received = values + _noise(self.uplink_noise, values.shape, rng)
        received = received + _noise(self.downlink_noise, values.shape, rng) / math.sqrt(
            self.gain_squared
        )
        return received

    def describe(self) -> str:
        return (
            f"AmplifyForward(up={self.uplink_snr_db:.1f} dB, "
            f"down={self.downlink_snr_db:.1f} dB, "
            f"eff={self.effective_snr_db:.1f} dB)"
        )


class TwoWayAmplifyChannel(SymbolChannel):
    """Analog network coding: superposed uplinks, one amplified broadcast.

    Both endpoints transmit simultaneously; the relay receives
    ``x_A + x_B + n_R`` (power ``2P + N_R``), scales it back to ``P`` with
    ``g = sqrt(P / (2P + N_R))`` and broadcasts.  An endpoint subtracts its
    own known transmission ``g*x_self``, then normalises by ``g``, seeing
    the *other* endpoint's signal through noise ``N_R + N_E*(2P + N_R)/P``.
    This channel models one direction of that exchange (the other endpoint's
    signal as seen after self-interference cancellation).
    """

    uses_per_symbol = 2

    def __init__(
        self,
        relay_snr_db: float,
        endpoint_snr_db: float,
        signal_power: float = 1.0,
    ) -> None:
        if signal_power <= 0:
            raise ValueError(f"signal_power must be positive, got {signal_power}")
        self.relay_snr_db = float(relay_snr_db)
        self.endpoint_snr_db = float(endpoint_snr_db)
        self.signal_power = float(signal_power)
        self.relay_noise = self.signal_power / db_to_linear(relay_snr_db)
        self.endpoint_noise = self.signal_power / db_to_linear(endpoint_snr_db)
        self.gain_squared = self.signal_power / (
            2.0 * self.signal_power + self.relay_noise
        )
        self.effective_noise = self.relay_noise + self.endpoint_noise / self.gain_squared

    @property
    def effective_snr_db(self) -> float:
        return linear_to_db(self.signal_power / self.effective_noise)

    def transmit(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        received = values + _noise(self.relay_noise, values.shape, rng)
        received = received + _noise(
            self.endpoint_noise, values.shape, rng
        ) / math.sqrt(self.gain_squared)
        return received

    def describe(self) -> str:
        return (
            f"TwoWayAmplify(relay={self.relay_snr_db:.1f} dB, "
            f"endpoint={self.endpoint_snr_db:.1f} dB, "
            f"eff={self.effective_snr_db:.1f} dB)"
        )


def _noise(energy: float, shape, rng: np.random.Generator) -> np.ndarray:
    sigma_per_dim = math.sqrt(energy / 2.0)
    return sigma_per_dim * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


@dataclass(frozen=True)
class TwoWayAmplifyResult:
    """Per-round accounting for the analog-network-coding exchange.

    ``slot_uses[r] = 2 * max(n_A, n_B)``: the directions share superposed
    uplink slots and broadcast downlink slots, so the exchange is paced by
    the slower direction.
    """

    config: TwoWayConfig
    symbols_a: np.ndarray
    symbols_b: np.ndarray
    delivered: np.ndarray
    effective_snr_a_db: float
    effective_snr_b_db: float

    @property
    def slot_uses(self) -> np.ndarray:
        return 2 * np.maximum(self.symbols_a, self.symbols_b)

    @property
    def total_uses(self) -> int:
        return int(self.slot_uses.sum())

    @property
    def delivery_rate(self) -> float:
        return float(self.delivered.mean()) if self.delivered.size else 0.0


def amplify_codes(config: TwoWayConfig) -> tuple:
    """The A→B and B→A codes of an AF exchange; refuses a bit-domain family."""
    code_ab = make_code(
        config.family,
        seed=derive_seed(config.seed, "netcode", "af-ab"),
        snr_db=config.snr_a_db,
        smoke=config.smoke,
    )
    code_ba = make_code(
        config.family,
        seed=derive_seed(config.seed, "netcode", "af-ba"),
        snr_db=config.snr_b_db,
        smoke=config.smoke,
    )
    if code_ab.info.domain != "symbol":
        raise ValueError(
            f"amplify-and-forward needs a soft symbol channel; code family "
            f"{config.family!r} is {code_ab.info.domain}-domain"
        )
    return code_ab, code_ba


def run_two_way_af_exchange(config: TwoWayConfig) -> TwoWayAmplifyResult:
    """Exchange payloads through an amplify-and-forward relay (no decoding).

    Direction A→B runs A's code over a :class:`TwoWayAmplifyChannel` whose
    relay leg is A's link SNR and whose endpoint leg is B's, and vice
    versa.  ``symbols_a[r]`` is what B needed to decode A's payload in
    round ``r`` (the per-direction rateless adaptation to the composed
    channel); the medium cost is ``slot_uses``.
    """
    code_ab, code_ba = amplify_codes(config)
    tel = current_telemetry()
    channel_ab = TwoWayAmplifyChannel(config.snr_a_db, config.snr_b_db)
    channel_ba = TwoWayAmplifyChannel(config.snr_b_db, config.snr_a_db)
    session_ab = CodecSession(code_ab, channel_ab, max_symbols=config.max_symbols)
    session_ba = CodecSession(code_ba, channel_ba, max_symbols=config.max_symbols)
    payload_bits = code_ab.info.payload_bits

    n = config.rounds
    symbols_a = np.zeros(n, dtype=np.int64)
    symbols_b = np.zeros(n, dtype=np.int64)
    delivered = np.zeros(n, dtype=bool)
    for rnd in range(n):
        with tel.span("netcode.af_exchange", round=rnd):
            payload_a = (
                spawn_rng(config.seed, "netcode", "payload-a", rnd)
                .integers(0, 2, size=payload_bits)
                .astype(np.uint8)
            )
            payload_b = (
                spawn_rng(config.seed, "netcode", "payload-b", rnd)
                .integers(0, 2, size=payload_bits)
                .astype(np.uint8)
            )
            to_b = session_ab.run(
                payload_a, spawn_rng(config.seed, "netcode", "af-ab", rnd)
            )
            to_a = session_ba.run(
                payload_b, spawn_rng(config.seed, "netcode", "af-ba", rnd)
            )
            symbols_a[rnd] = to_b.symbols_sent
            symbols_b[rnd] = to_a.symbols_sent
            delivered[rnd] = bool(to_b.payload_correct and to_a.payload_correct)
            if tel.enabled:
                tel.counter(
                    "netcode.phase_uses",
                    2 * int(max(to_b.symbols_sent, to_a.symbols_sent)),
                    phase="af-slots",
                )
    return TwoWayAmplifyResult(
        config=config,
        symbols_a=symbols_a,
        symbols_b=symbols_b,
        delivered=delivered,
        effective_snr_a_db=channel_ba.effective_snr_db,
        effective_snr_b_db=channel_ab.effective_snr_db,
    )
