"""Experiment E15: measured transport goodput over the ARQ/relay grid.

Experiment E13 priced feedback with closed-form models; this sweep replaces
the formulas with the simulated sliding-window transport of
:mod:`repro.link.transport` and measures goodput over the full protocol
grid: ARQ policy (go-back-N vs selective-repeat) x window size x feedback
RTT (ACK delay) x hop count, optionally with ACK loss.  Every grid point
transports the *same* pseudo-random packet burst with the same per-packet
noise streams, so comparisons across points are paired.

Grid points are independent simulations, so ``n_workers`` fans them out
over worker processes exactly like the Monte-Carlo runner fans trials:
results are re-assembled in grid order and every random stream is derived
from ``(seed, labels...)`` irrespective of worker assignment, making the
sweep bit-deterministic for any worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace
from functools import partial

from repro.core.params import SpinalParams
from repro.experiments.registry import Experiment, register, run_experiment
from repro.experiments.runner import SpinalRunConfig
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.link.topology import build_relay_sessions, simulate_relay_transport
from repro.link.transport import TransportConfig
from repro.utils.bitops import random_message_bits
from repro.utils.parallel import stride_map
from repro.utils.results import render_table
from repro.utils.rng import spawn_rng

__all__ = [
    "TransportSweepConfig",
    "TransportSweepRow",
    "run_transport_sweep",
    "transport_sweep_table",
    "TRANSPORT_EXPERIMENT",
]


@dataclass(frozen=True)
class TransportSweepConfig:
    """One transport measurement campaign (the E15 grid).

    ``snr_db`` is the first hop's SNR; each additional hop degrades by
    ``snr_step_db`` (a pessimistic chain, the regime where relaying is
    interesting).  ``n_workers`` fans grid points over processes with
    results identical to the serial sweep.
    """

    payload_bits: int = 24
    params: SpinalParams = field(default_factory=lambda: SpinalParams(k=8, c=10))
    beam_width: int = 16
    adc_bits: int | None = 14
    puncturing: str = "tail-first"
    decoder: str = "incremental"
    snr_db: float = 8.0
    snr_step_db: float = -2.0
    n_packets: int = 8
    protocols: tuple[str, ...] = ("go-back-n", "selective-repeat")
    windows: tuple[int, ...] = (1, 2, 4)
    ack_delays: tuple[int, ...] = (0, 8, 32)
    hop_counts: tuple[int, ...] = (1, 2)
    ack_loss: float = 0.0
    max_symbols: int = 4096
    seed: int = 20111114
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_packets < 0:
            raise ValueError(f"n_packets must be non-negative, got {self.n_packets}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be at least 1, got {self.n_workers}")
        if any(h < 1 for h in self.hop_counts):
            raise ValueError("hop counts must be at least 1")

    def with_(self, **changes) -> "TransportSweepConfig":
        return replace(self, **changes)

    # -- derived -------------------------------------------------------------
    def run_config(self) -> SpinalRunConfig:
        return SpinalRunConfig(
            payload_bits=self.payload_bits,
            params=self.params,
            beam_width=self.beam_width,
            adc_bits=self.adc_bits,
            puncturing=self.puncturing,
            decoder=self.decoder,
            max_symbols=self.max_symbols,
            seed=self.seed,
        )

    def hop_snrs(self, n_hops: int) -> list[float]:
        return [self.snr_db + hop * self.snr_step_db for hop in range(n_hops)]

    def payloads(self) -> list:
        return [
            random_message_bits(self.payload_bits, spawn_rng(self.seed, "transport-payload", i))
            for i in range(self.n_packets)
        ]

    def grid(self) -> list[tuple[int, str, int, int]]:
        """The (hops, protocol, window, ack_delay) points, in report order."""
        return list(
            itertools.product(self.hop_counts, self.protocols, self.windows, self.ack_delays)
        )


@dataclass(frozen=True)
class TransportSweepRow:
    """Measured outcome of one grid point."""

    hops: int
    protocol: str
    window: int
    ack_delay: int
    n_delivered: int
    n_packets: int
    goodput: float
    symbol_efficiency: float
    total_symbols: int
    acks_sent: int
    acks_lost: int
    makespan: int


def _sweep_point(
    config: TransportSweepConfig, point: tuple[int, str, int, int]
) -> TransportSweepRow:
    """Simulate one grid point; the worker entry point of the parallel sweep.

    A top-level function so it pickles under any multiprocessing start
    method.  Everything is rebuilt from the configs, so outcomes do not
    depend on which worker (or how many) ran the point.
    """
    n_hops, protocol, window, ack_delay = point
    sessions = build_relay_sessions(config.run_config(), config.hop_snrs(n_hops))
    transport = TransportConfig(
        protocol=protocol,
        window=window,
        ack_delay=ack_delay,
        ack_loss=config.ack_loss,
        seed=config.seed,
    )
    result = simulate_relay_transport(sessions, config.payloads(), transport)
    return TransportSweepRow(
        hops=n_hops,
        protocol=protocol,
        window=window,
        ack_delay=ack_delay,
        n_delivered=result.n_delivered,
        n_packets=result.n_packets,
        goodput=result.end_to_end_goodput,
        symbol_efficiency=result.symbol_efficiency,
        total_symbols=result.total_symbols_sent,
        acks_sent=sum(hop.acks_sent for hop in result.hops),
        acks_lost=sum(hop.acks_lost for hop in result.hops),
        makespan=result.makespan,
    )


def run_transport_sweep(config: TransportSweepConfig) -> list[TransportSweepRow]:
    """Measure every grid point; rows come back in :meth:`grid` order.

    Standard configurations route through the experiment registry (same
    stride-mapped fan-out, plus optional persistence via ``repro run
    transport``); configs with a non-default :class:`SpinalParams` — which
    the declarative spec does not carry — fall back to the direct
    stride-mapped sweep.  Both paths are bit-identical for any worker count.
    """
    if config.params != SpinalParams(k=config.params.k, c=config.params.c):
        return stride_map(partial(_sweep_batch, config), config.grid(), config.n_workers)
    outcome = run_experiment(
        TRANSPORT_EXPERIMENT,
        overrides={
            "hops": config.hop_counts,
            "protocol": config.protocols,
            "window": config.windows,
            "ack_delay": config.ack_delays,
            "payload_bits": config.payload_bits,
            "k": config.params.k,
            "c": config.params.c,
            "beam_width": config.beam_width,
            "adc_bits": config.adc_bits,
            "puncturing": config.puncturing,
            "decoder": config.decoder,
            "snr_db": config.snr_db,
            "snr_step_db": config.snr_step_db,
            "n_packets": config.n_packets,
            "ack_loss": config.ack_loss,
            "max_symbols": config.max_symbols,
        },
        seed=config.seed,
        n_workers=config.n_workers,
    )
    return [
        TransportSweepRow(**cell["trials"][0])
        for _key, _params, cell in outcome.successful_cells()
    ]


def _sweep_batch(
    config: TransportSweepConfig, batch: list[tuple[int, tuple[int, str, int, int]]]
) -> list[tuple[int, TransportSweepRow]]:
    return [(index, _sweep_point(config, point)) for index, point in batch]


def transport_point(params, rng) -> dict:
    """Registry kernel: simulate one (hops, protocol, window, delay) grid point.

    Deterministic given the parameters — the transport derives every stream
    from the injected base seed, so the engine-provided ``rng`` is unused.
    """
    config = TransportSweepConfig(
        payload_bits=int(params["payload_bits"]),
        params=SpinalParams(k=int(params["k"]), c=int(params["c"])),
        beam_width=int(params["beam_width"]),
        adc_bits=None if params["adc_bits"] is None else int(params["adc_bits"]),
        puncturing=str(params["puncturing"]),
        decoder=str(params["decoder"]),
        snr_db=float(params["snr_db"]),
        snr_step_db=float(params["snr_step_db"]),
        n_packets=int(params["n_packets"]),
        ack_loss=float(params["ack_loss"]),
        max_symbols=int(params["max_symbols"]),
        seed=int(params["seed"]),
    )
    row = _sweep_point(
        config,
        (
            int(params["hops"]),
            str(params["protocol"]),
            int(params["window"]),
            int(params["ack_delay"]),
        ),
    )
    return asdict(row)


TRANSPORT_EXPERIMENT = register(
    Experiment(
        name="transport",
        description="E15: measured ARQ/relay goodput over protocol × window × RTT × hops",
        spec=SweepSpec(
            axes=(
                Axis("hops", (1, 2), "int"),
                Axis("protocol", ("go-back-n", "selective-repeat"), "str"),
                Axis("window", (1, 2, 4), "int"),
                Axis("ack_delay", (0, 8, 32), "int"),
            ),
            fixed={
                "payload_bits": 24,
                "k": 8,
                "c": 10,
                "beam_width": 16,
                "adc_bits": 14,
                "puncturing": "tail-first",
                "decoder": "incremental",
                "snr_db": 8.0,
                "snr_step_db": -2.0,
                "n_packets": 8,
                "ack_loss": 0.0,
                "max_symbols": 4096,
            },
        ),
        run_point=transport_point,
        columns=(
            Column("hops", "hops"),
            Column("protocol", "protocol"),
            Column("window", "window"),
            Column("ack delay", "ack_delay"),
            Column("delivered", "n_delivered"),
            Column("goodput (b/sym-t)", "goodput"),
            Column("efficiency", "symbol_efficiency"),
            Column("symbols", "total_symbols"),
            Column("makespan", "makespan"),
        ),
        n_trials=1,
        max_trials=1,  # the simulation derives every stream from the base seed
        smoke={
            "hops": (1,),
            "protocol": ("selective-repeat",),
            "window": (1, 2),
            "ack_delay": (0,),
            "n_packets": 2,
            "max_symbols": 512,
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
        },
        plot=PlotSpec(
            x="window",
            y="goodput",
            series="protocol",
            x_label="window size",
            y_label="goodput",
        ),
    )
)


def transport_sweep_table(rows: list[TransportSweepRow]) -> str:
    return render_table(
        [
            "hops",
            "protocol",
            "window",
            "ack delay",
            "delivered",
            "goodput (b/sym-t)",
            "efficiency",
            "symbols",
            "acks (lost)",
            "makespan",
        ],
        [
            (
                row.hops,
                row.protocol,
                row.window,
                row.ack_delay,
                f"{row.n_delivered}/{row.n_packets}",
                row.goodput,
                row.symbol_efficiency,
                row.total_symbols,
                f"{row.acks_sent} ({row.acks_lost})",
                row.makespan,
            )
            for row in rows
        ],
    )
