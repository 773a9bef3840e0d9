"""Two-way relaying with XOR network coding over any rateless code family.

Endpoints A and B each want the other's payload, and can only reach each
other through a relay R.  The plain (one-way) scheme costs **four** phases
per exchange: A→R, R→B, B→R, R→A.  The network-coded scheme costs
**three**: both uplinks as before, then R XOR-combines the two decoded
payloads and *broadcasts one* rateless downlink stream; each endpoint
decodes the combination and un-XORs it with the payload it already knows
(its own).  The downlink cost drops from ``d_A + d_B`` symbol uses to
``max(d_A, d_B)`` — the headline "XOR halves the downlink" claim, which
this module *measures* per phase rather than assumes.

Rateless codes make the scheme clean at unequal SNRs: the relay does not
need to know either downlink's quality, it just streams until both
endpoints have decoded (the broadcast advantage accounting lives in
:func:`~repro.netcode.multicast.broadcast_transmission`).

Fairness discipline: both schemes share the *same* uplink runs (the uplink
phases are identical physics), and every leg of an exchange shares one code
*construction* seed — as a deployed system would use one code — with
per-leg demapper calibration and independence coming from each leg's
private noise stream.  The baseline unicasts and the XOR broadcast then
differ only in what is encoded and who listens, so the measured saving
isolates the network-coding gain from code-construction luck (an LT
neighbourhood draw that peels late would otherwise skew whichever leg it
landed on).  Every random stream derives from ``config.seed`` via labels,
so results are bit-identical in any process/worker layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.netcode.multicast import broadcast_transmission
from repro.obs.telemetry import current as current_telemetry
from repro.phy.families import channel_for_code, code_family, make_code
from repro.phy.session import CodecSession
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.units import check_snr_db

__all__ = ["TwoWayConfig", "TwoWayResult", "run_two_way_exchange"]


@dataclass(frozen=True)
class TwoWayConfig:
    """Operating point for a two-way relay exchange.

    ``snr_a_db`` governs both directions of the A↔R link and ``snr_b_db``
    the B↔R link (symmetric links, possibly asymmetric *ends* — the
    experiment's sweep axis).
    """

    family: str = "spinal"
    snr_a_db: float = 24.0
    snr_b_db: float = 24.0
    rounds: int = 4
    seed: int = 20111114
    smoke: bool = False
    max_symbols: int = 4096

    def __post_init__(self) -> None:
        code_family(self.family)
        check_snr_db("snr_a_db", self.snr_a_db)
        check_snr_db("snr_b_db", self.snr_b_db)
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.max_symbols < 1:
            raise ValueError(f"max_symbols must be at least 1, got {self.max_symbols}")

    def with_(self, **changes) -> "TwoWayConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class TwoWayResult:
    """Per-round, per-phase medium-use accounting for both schemes.

    All arrays have one entry per round.  The uplink phases are shared
    between the schemes; the XOR scheme's third phase is ``broadcast``
    and the baseline's third and fourth are the two unicast downlinks.
    """

    config: TwoWayConfig
    uplink_a: np.ndarray
    uplink_b: np.ndarray
    broadcast: np.ndarray
    downlink_a: np.ndarray
    downlink_b: np.ndarray
    xor_delivered: np.ndarray
    baseline_delivered: np.ndarray

    @property
    def n_rounds(self) -> int:
        return int(self.uplink_a.size)

    @property
    def xor_total_uses(self) -> int:
        """Medium uses of the 3-phase XOR scheme, summed over rounds."""
        return int(self.uplink_a.sum() + self.uplink_b.sum() + self.broadcast.sum())

    @property
    def baseline_total_uses(self) -> int:
        """Medium uses of the 4-phase one-way scheme, summed over rounds."""
        return int(
            self.uplink_a.sum()
            + self.uplink_b.sum()
            + self.downlink_a.sum()
            + self.downlink_b.sum()
        )

    @property
    def medium_use_saving(self) -> float:
        """Fraction of the baseline's total medium uses the XOR scheme saves."""
        if self.baseline_total_uses == 0:
            return 0.0
        return 1.0 - self.xor_total_uses / self.baseline_total_uses

    @property
    def downlink_saving(self) -> float:
        """Fraction of the baseline's *downlink* uses the broadcast saves."""
        downlink = int(self.downlink_a.sum() + self.downlink_b.sum())
        if downlink == 0:
            return 0.0
        return 1.0 - int(self.broadcast.sum()) / downlink

    @property
    def xor_delivery_rate(self) -> float:
        return float(self.xor_delivered.mean()) if self.xor_delivered.size else 0.0

    @property
    def baseline_delivery_rate(self) -> float:
        return (
            float(self.baseline_delivered.mean()) if self.baseline_delivered.size else 0.0
        )


def run_two_way_exchange(config: TwoWayConfig) -> TwoWayResult:
    """Run ``config.rounds`` two-way exchanges, measuring both schemes.

    Per round: fresh payloads for A and B; two uplink sessions (independent
    codes, the relay fully decodes); then (a) the XOR broadcast — one
    stream both endpoints decode and un-XOR with their own payload — and
    (b) the baseline's two unicast downlinks carrying the raw decoded
    payloads.  A failed uplink fails the round for both schemes (the relay
    has nothing trustworthy to forward); its phase uses still count.
    """
    tel = current_telemetry()
    seed = config.seed
    # One code construction for every leg (see the module docstring); the
    # snr_db argument only calibrates soft demappers, so per-leg instances
    # share all combinatorial structure (hash families, LT neighbourhoods).
    code_seed = derive_seed(seed, "netcode", "code")
    code_up_a = make_code(
        config.family, seed=code_seed, snr_db=config.snr_a_db, smoke=config.smoke
    )
    code_up_b = make_code(
        config.family, seed=code_seed, snr_db=config.snr_b_db, smoke=config.smoke
    )
    session_up_a = CodecSession(
        code_up_a,
        channel_for_code(code_up_a, config.snr_a_db),
        max_symbols=config.max_symbols,
    )
    session_up_b = CodecSession(
        code_up_b,
        channel_for_code(code_up_b, config.snr_b_db),
        max_symbols=config.max_symbols,
    )
    # The downlink code serves two listeners at possibly different SNRs;
    # its demapper is calibrated for the weaker one.
    code_down = make_code(
        config.family,
        seed=code_seed,
        snr_db=min(config.snr_a_db, config.snr_b_db),
        smoke=config.smoke,
    )
    payload_bits = session_up_a.payload_bits

    n = config.rounds
    uplink_a = np.zeros(n, dtype=np.int64)
    uplink_b = np.zeros(n, dtype=np.int64)
    broadcast = np.zeros(n, dtype=np.int64)
    downlink_a = np.zeros(n, dtype=np.int64)
    downlink_b = np.zeros(n, dtype=np.int64)
    xor_delivered = np.zeros(n, dtype=bool)
    baseline_delivered = np.zeros(n, dtype=bool)

    for rnd in range(n):
        with tel.span("netcode.exchange", round=rnd):
            payload_a = (
                spawn_rng(seed, "netcode", "payload-a", rnd)
                .integers(0, 2, size=payload_bits)
                .astype(np.uint8)
            )
            payload_b = (
                spawn_rng(seed, "netcode", "payload-b", rnd)
                .integers(0, 2, size=payload_bits)
                .astype(np.uint8)
            )
            up_a = session_up_a.run(payload_a, spawn_rng(seed, "netcode", "up-a", rnd))
            up_b = session_up_b.run(payload_b, spawn_rng(seed, "netcode", "up-b", rnd))
            uplink_a[rnd] = up_a.symbols_sent
            uplink_b[rnd] = up_b.symbols_sent
            if tel.enabled:
                tel.counter("netcode.phase_uses", int(up_a.symbols_sent), phase="uplink-a")
                tel.counter("netcode.phase_uses", int(up_b.symbols_sent), phase="uplink-b")
            a_hat = up_a.decoded_payload if up_a.success else None
            b_hat = up_b.decoded_payload if up_b.success else None
            if a_hat is None or b_hat is None:
                continue  # both schemes lose the round; uplink uses are charged

            # -- XOR scheme: one broadcast downlink ---------------------------
            combined = np.bitwise_xor(
                np.asarray(a_hat, dtype=np.uint8), np.asarray(b_hat, dtype=np.uint8)
            )
            if tel.enabled:
                tel.counter("netcode.xor_combines")
            bcast = broadcast_transmission(
                code_down,
                combined,
                [
                    channel_for_code(code_down, config.snr_a_db),
                    channel_for_code(code_down, config.snr_b_db),
                ],
                [
                    spawn_rng(seed, "netcode", "down-a", rnd),
                    spawn_rng(seed, "netcode", "down-b", rnd),
                ],
                max_symbols=config.max_symbols,
            )
            broadcast[rnd] = bcast.symbols_sent
            if tel.enabled:
                tel.counter(
                    "netcode.phase_uses", int(bcast.symbols_sent), phase="broadcast"
                )
            ok = bcast.all_decoded
            if ok:
                got_a, got_b = (np.asarray(p, dtype=np.uint8) for p in bcast.payloads)
                # Each endpoint un-XORs with the payload it already knows.
                ok = bool(
                    np.array_equal(np.bitwise_xor(got_a, payload_a), payload_b)
                    and np.array_equal(np.bitwise_xor(got_b, payload_b), payload_a)
                )
            xor_delivered[rnd] = ok

            # -- baseline: two unicast downlinks (one-listener broadcasts) -----
            base_a = broadcast_transmission(
                code_down,
                b_hat,
                [channel_for_code(code_down, config.snr_a_db)],
                [spawn_rng(seed, "netcode", "base-down-a", rnd)],
                max_symbols=config.max_symbols,
            )
            base_b = broadcast_transmission(
                code_down,
                a_hat,
                [channel_for_code(code_down, config.snr_b_db)],
                [spawn_rng(seed, "netcode", "base-down-b", rnd)],
                max_symbols=config.max_symbols,
            )
            downlink_a[rnd] = base_a.symbols_sent
            downlink_b[rnd] = base_b.symbols_sent
            if tel.enabled:
                tel.counter("netcode.phase_uses", int(downlink_a[rnd]), phase="downlink-a")
                tel.counter("netcode.phase_uses", int(downlink_b[rnd]), phase="downlink-b")
            baseline_delivered[rnd] = bool(
                base_a.all_decoded
                and base_b.all_decoded
                and np.array_equal(base_a.payloads[0], payload_b)
                and np.array_equal(base_b.payloads[0], payload_a)
            )

    if tel.enabled:
        tel.counter("netcode.exchanges", n)
    return TwoWayResult(
        config=config,
        uplink_a=uplink_a,
        uplink_b=uplink_b,
        broadcast=broadcast,
        downlink_a=downlink_a,
        downlink_b=downlink_b,
        xor_delivered=xor_delivered,
        baseline_delivered=baseline_delivered,
    )
