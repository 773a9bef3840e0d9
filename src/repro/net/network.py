"""The multi-cell network: N MAC cells, one clock, SINR, mobility, handoff.

This is the layer the ROADMAP's city-scale item asks for.  A
:class:`CellNetwork` places base stations on a grid
(:class:`~repro.net.geometry.CityGeometry`), walks users through the city
(:class:`~repro.net.mobility.MobilityModel`), and runs one
:class:`~repro.mac.cell.MacCell` per base station **on a single shared
** :class:`~repro.link.events.EventScheduler` — so a block on the air in one
cell is, at the same instant, interference in every other cell.

SINR instead of SNR
-------------------
Every user's channel is a :class:`SinrChannel` (or :class:`SinrBitChannel`
for bit-domain code families) whose noise level is recomputed from live
network state each time the cell pins the channel to the clock before a
grant (the ``set_time`` hook ``MacCell`` already honors).  The uplink SINR
of user *u* served by cell *s* is

    ``S_u / (1 + sum_c I_c)``

in units of *s*'s noise floor, where ``S_u`` is path-loss attenuated signal
from *u*'s current position and the sum runs over every *other* cell whose
medium is busy right now — radiating from its transmitting user's position
(uplink interference comes from handsets, not towers).  Interference is
sampled at grant time and held for the block: a block-length approximation,
priced by the calibration tests.  With one cell, or interference disabled,
the serving SNR passes through untouched — no dB→linear→dB round-trip — so
the degenerate network is bit-identical to a standalone ``MacCell``.

Mobility and handoff
--------------------
Positions advance on epoch boundaries (``PRIORITY_ACK``: after blocks land,
before new grants).  Each epoch, every user is re-associated to its
strongest cell if that cell beats the serving one by more than
``handoff_hysteresis_db`` (ties and dead heats stay put — deterministic).
A user whose own block is on the air is *not* torn off mid-block: the
handoff defers to the block boundary and re-evaluates there.  Migration
moves the user's whole ``_UserState`` — queue, partially transmitted head
packet, delivered-bits accounting — so no symbol is lost or double-counted
across a handoff; the new cell's scheduler adopts the user immediately.

Fidelity tiers
--------------
``tier="exact"`` runs real codecs per block; ``tier="flow"`` swaps each
user's PHY for a calibrated :class:`~repro.net.fastpath.FlowLink` while
keeping *all* of the above machinery (medium contention, interference
activity, mobility, handoff) unchanged.  A flow packet's outcome is a drawn
symbol count, so it carries one shared empty payload instead of drawing
payload bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.channels.bsc import BSCChannel
from repro.link.events import (
    PRIORITY_ACK,
    PRIORITY_BLOCK,
    EventScheduler,
)
from repro.mac.cell import CellUser, MacCell, RatelessLink, packet_outcomes
from repro.mac.metrics import CellResult, PacketOutcome
from repro.mac.schedulers import make_scheduler
from repro.net.fastpath import FlowLink, SymbolCountModel, cached_symbol_model
from repro.net.geometry import CityGeometry
from repro.net.mobility import MobilityModel
from repro.obs.telemetry import current as current_telemetry
from repro.phy.families import (
    bpsk_crossover_probability,
    channel_for_code,
    code_family,
    make_code,
)
from repro.phy.session import CodecSession
from repro.utils.bitops import random_message_bits
from repro.utils.rng import derive_seed, spawn_rngs
from repro.utils.units import db_to_linear, linear_to_db

__all__ = [
    "CellNetwork",
    "NetworkConfig",
    "NetworkResult",
    "SinrBitChannel",
    "SinrChannel",
    "default_symbol_model",
    "network_code",
    "network_payloads",
    "simulate_network",
]


class SinrChannel(AWGNChannel):
    """An AWGN channel whose operating SNR tracks a live SINR callback.

    ``transmit`` is inherited untouched, so for any fixed SINR value the
    noise draws are bit-identical to a plain :class:`AWGNChannel` at that
    SNR — the property the single-cell degeneration test pins.  The cell
    refreshes the level via the ``set_time`` hook it already calls before
    every grant.
    """

    def __init__(self, sinr_db_fn, signal_power: float = 1.0, adc_bits: int | None = None):
        self._sinr_db_fn = sinr_db_fn
        super().__init__(
            snr_db=float(sinr_db_fn()), signal_power=signal_power, adc_bits=adc_bits
        )

    def set_time(self, time: int) -> None:
        snr_db = float(self._sinr_db_fn())
        self.snr_db = snr_db
        self.noise_energy = self.signal_power / db_to_linear(snr_db)

    def describe(self) -> str:
        return f"SINR-AWGN(now={self.snr_db:.1f} dB)"


class SinrBitChannel(BSCChannel):
    """The bit-domain counterpart: crossover probability tracks the SINR.

    Bit-domain code families (LT fountain, bit-mode spinal) see the same
    physical SINR through the library's BPSK hard-decision mapping.
    """

    def __init__(self, sinr_db_fn):
        self._sinr_db_fn = sinr_db_fn
        super().__init__(bpsk_crossover_probability(float(sinr_db_fn())))

    def set_time(self, time: int) -> None:
        self.crossover_probability = bpsk_crossover_probability(
            float(self._sinr_db_fn())
        )

    def describe(self) -> str:
        return f"SINR-BSC(p={self.crossover_probability:g})"


@dataclass(frozen=True)
class NetworkConfig:
    """Everything a city run depends on, hashable and picklable.

    Traffic is fully backlogged: every user starts with
    ``packets_per_user`` packets queued at t=0 (per-packet arrival
    processes stay a single-cell feature for now).
    """

    n_cells: int = 4
    n_users: int = 8
    packets_per_user: int = 2
    scheduler: str = "round-robin"
    code: str = "spinal"
    tier: str = "exact"
    seed: int = 20111114
    smoke_codes: bool = True
    max_symbols: int = 1024
    adc_bits: int | None = None
    # -- geometry / radio ----------------------------------------------------
    cell_radius: float = 400.0
    reference_snr_db: float = 16.0
    path_loss_exponent: float = 3.0
    reference_distance: float = 50.0
    min_distance: float = 1.0
    interference: bool = True
    # -- mobility / handoff --------------------------------------------------
    epoch_symbols: int = 128
    mobility_step: float = 80.0
    max_epochs: int = 1024
    handoff_hysteresis_db: float = 1.0
    user_positions: "tuple[tuple[float, float], ...] | None" = None
    # -- flow tier calibration -----------------------------------------------
    calibration_samples: int = 48
    calibration_grid_points: int = 9

    def __post_init__(self) -> None:
        if self.tier not in ("exact", "flow"):
            raise ValueError(f"tier must be 'exact' or 'flow', got {self.tier!r}")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be at least 1, got {self.n_cells}")
        if self.n_users < 0:
            raise ValueError(f"n_users must be non-negative, got {self.n_users}")
        if self.packets_per_user < 1:
            raise ValueError("packets_per_user must be at least 1")
        if self.max_symbols < 1:
            raise ValueError("max_symbols must be at least 1")
        if self.epoch_symbols < 0:
            raise ValueError("epoch_symbols must be non-negative")
        if self.user_positions is not None and len(self.user_positions) != self.n_users:
            raise ValueError(
                f"{len(self.user_positions)} positions for {self.n_users} users"
            )
        if not (math.isfinite(self.mobility_step) and self.mobility_step >= 0):
            raise ValueError(
                f"mobility_step must be finite and non-negative, got {self.mobility_step}"
            )
        # A NaN margin compares false both ways and would silently stop
        # every handoff.
        if not math.isfinite(self.handoff_hysteresis_db):
            raise ValueError(
                f"handoff_hysteresis_db must be finite, got {self.handoff_hysteresis_db}"
            )
        if self.calibration_samples < 1:
            raise ValueError(
                f"calibration_samples must be at least 1, got {self.calibration_samples}"
            )
        self.geometry()  # the radius and path-loss law check themselves
        make_scheduler(self.scheduler)
        code_family(self.code)

    def geometry(self) -> CityGeometry:
        return CityGeometry.grid(
            self.n_cells,
            self.cell_radius,
            self.reference_snr_db,
            self.path_loss_exponent,
            self.reference_distance,
            self.min_distance,
        )


def network_code(config: NetworkConfig, user: int, snr_db: float):
    """The per-user code instance (the seed-label convention, made public)."""
    return make_code(
        config.code,
        seed=derive_seed(config.seed, "net-code", user),
        snr_db=snr_db,
        smoke=config.smoke_codes,
    )


def network_payloads(
    config: NetworkConfig, payload_bits: Mapping[int, int]
) -> dict[int, list[np.ndarray]]:
    """Each user's payloads (the seed-label convention, made public).

    ``payload_bits`` gives each user to draw for its code's payload size.
    Packet ``p`` of user ``u`` is drawn from
    ``spawn_rng(config.seed, "net-payload", u, p)``; the streams of all the
    users are derived in one :func:`~repro.utils.rng.spawn_rngs` batch.
    """
    packets = range(config.packets_per_user)
    rngs = spawn_rngs(
        config.seed, [("net-payload", user, p) for user in payload_bits for p in packets]
    )
    return {
        user: [random_message_bits(bits, next(rngs)) for _ in packets]
        for user, bits in payload_bits.items()
    }


# The one payload every flow-tier packet carries: empty and read-only.
_NO_PAYLOAD = np.zeros(0, dtype=np.uint8)
_NO_PAYLOAD.flags.writeable = False


def default_symbol_model(config: NetworkConfig) -> SymbolCountModel:
    """Calibrate (memoized) a flow model spanning the config's SINR range.

    The grid runs from the worst serving SNR (a user at the Voronoi corner,
    ``radius * sqrt(2)`` from its nearest base station) minus an
    interference margin, up to the reference SNR, at roughly 2.5 dB spacing
    (``calibration_grid_points`` is a floor; dead low-SNR points abort
    early inside the calibrator, so the fine grid stays affordable).
    """
    geometry = config.geometry()
    corner_db = geometry.snr_db(
        geometry.cell_x[0] + geometry.cell_radius,
        geometry.cell_y[0] + geometry.cell_radius,
        0,
    )
    margin = 6.0 if (config.interference and config.n_cells > 1) else 0.0
    low = corner_db - margin
    high = config.reference_snr_db
    points = max(
        2, int(config.calibration_grid_points), round((high - low) / 2.5) + 1
    )
    grid = tuple(
        low + (high - low) * index / (points - 1) for index in range(points)
    )
    return cached_symbol_model(
        config.code,
        grid,
        config.calibration_samples,
        derive_seed(config.seed, "net-calibration"),
        smoke=config.smoke_codes,
        max_symbols=config.max_symbols,
        adc_bits=config.adc_bits,
    )


@dataclass(frozen=True)
class NetworkResult:
    """Network-wide outcome: cell metrics plus mobility/handoff accounting."""

    scheduler: str
    tier: str
    n_users: int
    n_cells: int
    packets: tuple[PacketOutcome, ...]
    makespan: int
    n_handoffs: int
    n_deferred_handoffs: int
    handoffs_by_user: tuple[int, ...]
    final_serving: tuple[int, ...]

    def as_cell_result(self) -> CellResult:
        """The network flattened to one cell's metric surface (same packets)."""
        return CellResult(
            scheduler=self.scheduler,
            n_users=self.n_users,
            packets=self.packets,
            makespan=self.makespan,
        )

    @property
    def aggregate_goodput(self) -> float:
        return self.as_cell_result().aggregate_goodput

    @property
    def jain_fairness(self) -> float:
        # A zero-user city has a vacuously fair (empty) allocation; the
        # cell-level index treats that as undefined and raises.
        if self.n_users == 0:
            return 1.0
        return self.as_cell_result().jain_fairness

    @property
    def delivery_rate(self) -> float:
        cell = self.as_cell_result()
        return cell.n_delivered / cell.n_packets if cell.n_packets else 0.0

    @property
    def mean_latency(self) -> float:
        return self.as_cell_result().mean_latency

    @property
    def handoffs_per_user(self) -> float:
        return self.n_handoffs / self.n_users if self.n_users else 0.0

    @property
    def handoff_rate_per_kilosymbol(self) -> float:
        return 1000.0 * self.n_handoffs / self.makespan if self.makespan else 0.0

    def summary(self) -> dict:
        """JSON-native summary (the CLI/shard serialization surface)."""
        cell = self.as_cell_result()
        return {
            "scheduler": self.scheduler,
            "tier": self.tier,
            "n_users": self.n_users,
            "n_cells": self.n_cells,
            "n_packets": cell.n_packets,
            "n_delivered": cell.n_delivered,
            "delivery_rate": self.delivery_rate,
            "aggregate_goodput": self.aggregate_goodput,
            "jain_fairness": self.jain_fairness,
            "mean_latency": self.mean_latency,
            "makespan": self.makespan,
            "n_handoffs": self.n_handoffs,
            "n_deferred_handoffs": self.n_deferred_handoffs,
            "handoffs_per_user": self.handoffs_per_user,
            "handoff_rate_per_kilosymbol": self.handoff_rate_per_kilosymbol,
        }


class CellNetwork:
    """Construct, then :meth:`run` to completion; :meth:`result` for metrics."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        mobility: MobilityModel | None = None,
        model: SymbolCountModel | None = None,
    ) -> None:
        self.config = config
        self._tel = current_telemetry()
        self.clock = EventScheduler()
        self._tel.bind_clock(self.clock)
        self.geometry = config.geometry()
        self.mobility = mobility if mobility is not None else self._build_mobility()
        if self.mobility.n_users != config.n_users:
            raise ValueError(
                f"mobility model covers {self.mobility.n_users} users, "
                f"config has {config.n_users}"
            )
        self.epoch = 0
        self.n_handoffs = 0
        self.n_deferred_handoffs = 0
        self.handoff_counts = [0] * config.n_users
        self._pending_handoff = [False] * config.n_users
        # Every user's per-cell SNR this epoch, one row per user, from one
        # vectorized path-loss evaluation per epoch (row i is bit-identical
        # to the scalar law): positions only change at epoch boundaries, but
        # CSI-reading schedulers observe every eligible user at every grant.
        # The initial association reads it too (argmax ties go to the lowest
        # cell index).
        self._snrs = self.geometry.snrs_db_many(*self.mobility.positions(0))
        self.serving: list[int] = np.argmax(self._snrs, axis=1).tolist()
        # Scalar serving-cell SNR per user (the hot CSI read), invalidated
        # every epoch and per-user on handoff.
        self._signal_cache: dict[int, float] = {}
        # Per-epoch memo of each transmitting user's per-cell received power
        # in linear units: a user's SNR row only changes at epoch
        # boundaries, so its dB->linear conversion is paid once per epoch
        # however many packets it interferes with.  Cleared every epoch.
        self._linear_cache: dict[int, list[float]] = {}
        # Memo of the last interference sum, keyed on (executing event,
        # serving cell): a CSI-reading grant scans only users of the
        # granting cell, so the whole scan pays for one sum.
        self._interference_memo: "tuple[tuple[int, int], float] | None" = None
        # An empty city has no link to calibrate for.
        if config.tier == "flow" and model is None and config.n_users:
            model = default_symbol_model(config)
        self._model = model
        # Channels read construction-time SINR (no cell busy yet) through the
        # same callback they use live, so `cells` must exist, empty, first.
        self.cells: list[MacCell] = []
        users = range(config.n_users)
        links = {user: self._build_link(user) for user in users}
        if config.tier == "flow":
            payloads = dict.fromkeys(users, (_NO_PAYLOAD,) * config.packets_per_user)
        else:
            payloads = network_payloads(
                config, {user: link.payload_bits for user, link in links.items()}
            )
        users_by_cell: list[list[CellUser]] = [[] for _ in range(config.n_cells)]
        for user in users:
            users_by_cell[self.serving[user]].append(
                CellUser(
                    link=links[user],
                    payloads=payloads[user],
                    csi=lambda now, user=user: self.sinr_db(user),
                    uid=user,
                )
            )
        self.cells[:] = [
            MacCell(
                cell_users,
                make_scheduler(config.scheduler),
                seed=config.seed,
                clock=self.clock,
                allow_empty=True,
            )
            for cell_users in users_by_cell
        ]
        # Packet objects mutate in place wherever their user roams; keep one
        # global registry so results never depend on which cell finished them.
        self._packets = [packet for cell in self.cells for packet in cell.packets]
        if config.epoch_symbols > 0 and self.mobility.n_epochs > 0:
            self.clock.schedule(config.epoch_symbols, PRIORITY_ACK, self._on_epoch)

    # -- construction helpers ------------------------------------------------
    def _build_mobility(self) -> MobilityModel:
        config = self.config
        x_range, y_range = self.geometry.bounds()
        if config.epoch_symbols == 0:
            n_epochs = 0
        else:
            # Worst case: the whole city's symbol budget serialized in one
            # cell; beyond that bound (or max_epochs) walks park.
            worst = config.n_users * config.packets_per_user * config.max_symbols
            n_epochs = min(config.max_epochs, math.ceil(worst / config.epoch_symbols) + 1)
        positions = (
            list(config.user_positions) if config.user_positions is not None else None
        )
        return MobilityModel.walks(
            config.n_users,
            n_epochs,
            config.epoch_symbols,
            config.mobility_step,
            x_range,
            y_range,
            config.seed,
            initial_positions=positions,
        )

    def _build_link(self, user: int) -> "FlowLink | RatelessLink":
        config = self.config
        if config.tier == "flow":
            return FlowLink(model=self._model)

        def sinr_fn(user=user) -> float:
            return self.sinr_db(user)

        code = network_code(config, user, float(self._snrs[user, self.serving[user]]))
        if code.info.domain == "symbol":
            channel = SinrChannel(
                sinr_fn, signal_power=code.info.signal_power, adc_bits=config.adc_bits
            )
        else:
            channel = SinrBitChannel(sinr_fn)
        return RatelessLink(
            CodecSession(code, channel, termination="genie", max_symbols=config.max_symbols)
        )

    # -- live radio state ----------------------------------------------------
    def _user_linear(self, user: int) -> list[float]:
        """User ``user``'s per-cell received power (linear), this epoch."""
        cached = self._linear_cache.get(user)
        if cached is None:
            cached = self._linear_cache[user] = [
                db_to_linear(snr_db) for snr_db in self._snrs[user].tolist()
            ]
        return cached

    def _interference_linear(self, serving: int) -> float:
        """Summed linear interference power heard at cell ``serving``, right now.

        Memoized per (executing event, ``serving``).  Who is on the air
        changes only inside grant and block events.  Every read inside a
        grant event (head opens, the CSI scan, the channel pin) is for a
        user of the granting cell, and the one change the grant makes, its
        own cell's transmitter, is outside that cell's sum.  Terms are
        accumulated in cell-index order, so every read of the same instant
        sums the same floats in the same order.
        """
        key = (self.clock.n_processed, serving)
        memo = self._interference_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        total = 0.0
        now = self.clock.now
        for index, cell in enumerate(self.cells):
            # Intra-cell is TDMA: one transmitter, no self-interference.
            if index == serving:
                continue
            # ``cell.on_air_user``, read in place: this loop runs on every
            # SINR read.
            packet = cell._on_air
            if packet is not None and cell.busy_until > now:
                total += self._user_linear(packet.user)[serving]
        self._interference_memo = (key, total)
        return total

    def sinr_db(self, user: int) -> float:
        """User ``user``'s uplink SINR at its serving cell, right now."""
        signal_db = self._signal_cache.get(user)
        if signal_db is None:
            signal_db = self._signal_cache[user] = float(
                self._snrs[user, self.serving[user]]
            )
        if not self.config.interference or self.config.n_cells == 1:
            return signal_db
        if not self.cells:
            return signal_db  # construction-time read: nothing is live yet
        total = self._interference_linear(self.serving[user])
        if total == 0.0:
            # No active interferers: return the serving SNR *unchanged* (no
            # dB round-trip), so interference-free degenerates bit-exactly.
            return signal_db
        sinr_db = linear_to_db(db_to_linear(signal_db) / (1.0 + total))
        if self._tel.enabled:
            self._tel.observe("net.sinr_db", sinr_db)
        return sinr_db

    # -- mobility / handoff --------------------------------------------------
    def _unfinished(self) -> bool:
        return any(not packet.finished for packet in self._packets)

    def _on_epoch(self) -> None:
        self.epoch += 1
        if self._tel.enabled:
            self._tel.counter("net.epochs")
        self._linear_cache.clear()
        self._signal_cache.clear()
        n_users = self.config.n_users
        if n_users:
            # The handoff rule of :meth:`_consider_handoff` runs as array
            # ops: only the users it moves reach scalar code, each with its
            # target.
            matrix = self._snrs = self.geometry.snrs_db_many(
                *self.mobility.positions(self.epoch)
            )
            serving = np.asarray(self.serving)
            rows = np.arange(n_users)
            targets = np.argmax(matrix, axis=1)
            better = matrix[rows, targets] > (
                matrix[rows, serving] + self.config.handoff_hysteresis_db
            )
            movers = np.nonzero((targets != serving) & better)[0]
            for user, target in zip(movers.tolist(), targets[movers].tolist()):
                self._hand_off(user, target)
        if self.epoch < self.mobility.n_epochs and self._unfinished():
            self.clock.schedule(
                (self.epoch + 1) * self.config.epoch_symbols,
                PRIORITY_ACK,
                self._on_epoch,
            )

    def _consider_handoff(self, user: int) -> None:
        """Hand ``user`` off if its strongest cell beats its serving one."""
        snrs = self._snrs[user]
        serving = self.serving[user]
        target = int(np.argmax(snrs))
        # Strictly-better-plus-hysteresis: an exact tie (equidistant user)
        # deterministically stays with its serving cell.
        if target != serving and (
            snrs[target] > snrs[serving] + self.config.handoff_hysteresis_db
        ):
            self._hand_off(user, target)

    def _hand_off(self, user: int, target: int) -> None:
        """Move ``user`` to cell ``target`` now, or at its block boundary."""
        cell = self.cells[self.serving[user]]
        if cell.on_air_user == user:
            # The user's own block is on the air: hand off at the block
            # boundary (after the block lands, before any new grant).
            self.n_deferred_handoffs += 1
            if self._tel.enabled:
                self._tel.counter("net.handoffs_deferred")
            if not self._pending_handoff[user]:
                self._pending_handoff[user] = True
                self.clock.schedule(
                    cell.busy_until,
                    PRIORITY_BLOCK,
                    lambda user=user: self._deferred_handoff(user),
                )
            return
        self._migrate(user, target)

    def _deferred_handoff(self, user: int) -> None:
        self._pending_handoff[user] = False
        self._consider_handoff(user)  # re-evaluate: positions may have moved on

    def _migrate(self, user: int, target: int) -> None:
        state = self.cells[self.serving[user]].detach_user(user)
        self.serving[user] = target
        self._signal_cache.pop(user, None)  # the serving-cell SNR changed
        self.cells[target].attach_state(state)
        self.n_handoffs += 1
        self.handoff_counts[user] += 1
        if self._tel.enabled:
            self._tel.counter("net.handoffs")

    # -- driving -------------------------------------------------------------
    def _event_budget(self) -> int:
        cells = sum(cell._event_budget() for cell in self.cells)
        epochs = self.mobility.n_epochs + 2
        handoffs = 2 * epochs * max(1, self.config.n_users)
        return 64 + cells + 4 * epochs + handoffs

    def run(self) -> NetworkResult:
        """Simulate until every packet in every cell is resolved."""
        self.clock.run(max_events=self._event_budget())
        if self._unfinished():  # pragma: no cover - liveness guard
            raise RuntimeError("network event budget exhausted with packets pending")
        return self.result()

    def result(self) -> NetworkResult:
        return NetworkResult(
            scheduler=self.cells[0].scheduler.name,
            tier=self.config.tier,
            n_users=self.config.n_users,
            n_cells=self.config.n_cells,
            packets=packet_outcomes(self._packets),
            makespan=max((cell.closed_at for cell in self.cells), default=0),
            n_handoffs=self.n_handoffs,
            n_deferred_handoffs=self.n_deferred_handoffs,
            handoffs_by_user=tuple(self.handoff_counts),
            final_serving=tuple(self.serving),
        )


def simulate_network(
    config: NetworkConfig,
    *,
    mobility: MobilityModel | None = None,
    model: SymbolCountModel | None = None,
) -> NetworkResult:
    """Build and run one city to completion (the one-call entry point)."""
    return CellNetwork(config, mobility=mobility, model=model).run()
