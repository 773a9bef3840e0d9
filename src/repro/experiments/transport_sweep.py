"""Experiment E15: measured transport goodput over the ARQ/relay grid.

Experiment E13 priced feedback with closed-form models; this sweep replaces
the formulas with the simulated sliding-window transport of
:mod:`repro.link.transport` and measures goodput over the full protocol
grid: ARQ policy (go-back-N vs selective-repeat) x window size x feedback
RTT (ACK delay) x hop count, optionally with ACK loss.  Every grid point
transports the *same* pseudo-random packet burst with the same per-packet
noise streams, so comparisons across points are paired.

Registered as ``transport`` (``repro run transport``, or the ``repro
transport`` spelling).  Every random stream is derived from ``(seed,
labels...)``, so grid points fan out over the registry engine's workers
with results identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.params import SpinalParams
from repro.experiments.registry import Experiment, register
from repro.experiments.runner import SpinalRunConfig
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.link.topology import build_relay_sessions, simulate_relay_transport
from repro.link.transport import TransportConfig
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng
from repro.utils.units import check_snr_db

__all__ = ["TransportSweepConfig", "transport_config_from_params", "TRANSPORT_EXPERIMENT"]


@dataclass(frozen=True)
class TransportSweepConfig:
    """One transport measurement campaign (the E15 grid), validated.

    ``snr_db`` is the first hop's SNR; each additional hop degrades by
    ``snr_step_db`` (a pessimistic chain, the regime where relaying is
    interesting).  The kernel simulates one grid point of it.
    """

    payload_bits: int = 24
    params: SpinalParams = field(default_factory=lambda: SpinalParams(k=8, c=10))
    beam_width: int = 16
    adc_bits: int | None = 14
    puncturing: str = "tail-first"
    snr_db: float = 8.0
    snr_step_db: float = -2.0
    n_packets: int = 8
    windows: tuple[int, ...] = (1, 2, 4)
    ack_delays: tuple[int, ...] = (0, 8, 32)
    hop_counts: tuple[int, ...] = (1, 2)
    ack_loss: float = 0.0
    max_symbols: int = 4096
    seed: int = 20111114

    def __post_init__(self) -> None:
        if self.n_packets < 1:
            raise ValueError(f"n_packets must be at least 1, got {self.n_packets}")
        if self.max_symbols < 1:
            raise ValueError(f"max_symbols must be at least 1, got {self.max_symbols}")
        if any(h < 1 for h in self.hop_counts):
            raise ValueError("hop counts must be at least 1")
        if any(w < 1 for w in self.windows):
            raise ValueError(f"window sizes must be at least 1, got {self.windows}")
        if any(d < 0 for d in self.ack_delays):
            raise ValueError(f"ack delays must be non-negative, got {self.ack_delays}")
        check_snr_db("snr_db", self.snr_db)
        check_snr_db("snr_step_db", self.snr_step_db)
        self.run_config()  # raises on a bad code shape, beam width or ADC depth

    # -- derived -------------------------------------------------------------
    def run_config(self) -> SpinalRunConfig:
        return SpinalRunConfig(
            payload_bits=self.payload_bits,
            params=self.params,
            beam_width=self.beam_width,
            adc_bits=self.adc_bits,
            puncturing=self.puncturing,
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


def transport_config_from_params(params) -> tuple[TransportSweepConfig, TransportConfig]:
    """One grid point's campaign and ARQ settings, both validated (the
    campaign's grid is narrowed to the point, so its checks cover it)."""
    config = TransportSweepConfig(
        payload_bits=int(params["payload_bits"]),
        params=SpinalParams(k=int(params["k"]), c=int(params["c"])),
        beam_width=int(params["beam_width"]),
        adc_bits=None if params["adc_bits"] is None else int(params["adc_bits"]),
        puncturing=str(params["puncturing"]),
        snr_db=float(params["snr_db"]),
        snr_step_db=float(params["snr_step_db"]),
        n_packets=int(params["n_packets"]),
        windows=(int(params["window"]),),
        ack_delays=(int(params["ack_delay"]),),
        hop_counts=(int(params["hops"]),),
        ack_loss=float(params["ack_loss"]),
        max_symbols=int(params["max_symbols"]),
        seed=int(params["seed"]),
    )
    transport = TransportConfig(
        protocol=str(params["protocol"]),
        window=config.windows[0],
        ack_delay=config.ack_delays[0],
        ack_loss=config.ack_loss,
        seed=config.seed,
    )
    return config, transport


def transport_point(params, rng) -> dict:
    """Registry kernel: simulate one (hops, protocol, window, delay) grid point.

    Deterministic given the parameters — the transport derives every stream
    from the injected base seed, so the engine-provided ``rng`` is unused.
    """
    config, transport = transport_config_from_params(params)
    n_hops = config.hop_counts[0]
    sessions = build_relay_sessions(config.run_config(), config.hop_snrs(n_hops))
    result = simulate_relay_transport(sessions, config.payloads(), transport)
    return {
        "hops": n_hops,
        "protocol": transport.protocol,
        "window": transport.window,
        "ack_delay": transport.ack_delay,
        "n_delivered": result.n_delivered,
        "n_packets": result.n_packets,
        "goodput": result.end_to_end_goodput,
        "symbol_efficiency": result.symbol_efficiency,
        "total_symbols": result.total_symbols_sent,
        "acks_sent": sum(hop.acks_sent for hop in result.hops),
        "acks_lost": sum(hop.acks_lost for hop in result.hops),
        "makespan": result.makespan,
    }


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
                # An inert label kept so the spec hash does not move.
                "decoder": "incremental",
                "snr_db": 8.0,
                "snr_step_db": -2.0,
                "n_packets": 8,
                "ack_loss": 0.0,
                "max_symbols": 4096,
            },
        ),
        run_point=transport_point,
        cell_config=transport_config_from_params,
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
