"""Experiment E16: cell goodput and fairness vs user count x MAC scheduler.

The paper's network-level claim needs a network: this sweep populates one
shared-medium cell (:mod:`repro.mac.cell`) with ``n_users`` rateless spinal
uplinks whose SNRs span a configurable spread, runs each MAC discipline of
:mod:`repro.mac.schedulers` over the identical traffic and noise streams,
and reports aggregate goodput, Jain fairness and latency percentiles.

Two physical regimes are worth sweeping (the ``channel`` parameter):

* ``awgn`` (default) — static per-user SNRs.  Per-packet symbol counts are
  then schedule-invariant, so every work-conserving scheduler produces the
  same aggregate goodput; differences show up in latency and ordering.
* ``sine:<period>:<amplitude>`` — per-user sinusoidal SNR traces pinned to
  the shared cell clock, phase-staggered across users.  Channel-aware
  schedulers now ride each user's crests, and the opportunistic gain the
  MAC literature promises becomes measurable.
* ``fading:<coherence>`` — per-user Rayleigh block fading (the scheduler
  observes only the mean SNR; the fades themselves stay private).

The kernel derives every random stream from the injected base seed, so the
sweep is deterministic per cell and worker-count invariant like every other
registry experiment (``max_trials = 1``).
"""

from __future__ import annotations

from repro.channels.awgn import AWGNChannel, TimeVaryingAWGNChannel
from repro.channels.fading import RayleighBlockFadingChannel
from repro.channels.traces import sinusoidal_trace
from repro.experiments.registry import Experiment, register
from repro.experiments.runner import spinal_config_from_params, spinal_fixed
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.mac.cell import CellUser, RatelessLink, simulate_cell, spread_snrs
from repro.mac.metrics import CellResult
from repro.mac.schedulers import SCHEDULER_NAMES, make_scheduler
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

__all__ = [
    "build_cell_channel",
    "build_rateless_cell_users",
    "cell_metrics",
    "cell_scaling_point",
    "CELL_SCALING_EXPERIMENT",
]


def build_cell_channel(
    kind: str, snr_db: float, adc_bits: int | None, user: int, n_users: int
):
    """Build one user's channel from the experiment's ``channel`` string.

    ``awgn`` | ``sine:<period>:<amplitude>`` | ``fading:<coherence>`` — see
    the module docstring for when each regime is interesting.  Sine traces
    are phase-staggered by user (user ``u`` leads by ``u / n_users`` of a
    period) so crests do not line up across the cell.
    """
    name, _, arguments = kind.partition(":")
    if name == "awgn":
        return AWGNChannel(snr_db=snr_db, adc_bits=adc_bits)
    if name == "sine":
        period_text, _, amplitude_text = arguments.partition(":")
        period = int(period_text)
        amplitude = float(amplitude_text) if amplitude_text else 6.0
        phase = 2.0 * 3.141592653589793 * user / max(n_users, 1)
        trace = sinusoidal_trace(snr_db, amplitude, period, length=period, phase=phase)
        return TimeVaryingAWGNChannel(trace, adc_bits=adc_bits)
    if name == "fading":
        coherence = int(arguments) if arguments else 16
        return RayleighBlockFadingChannel(snr_db, coherence_symbols=coherence)
    raise ValueError(
        f"unknown channel kind {kind!r}; expected 'awgn', 'sine:<period>[:<amp>]' "
        "or 'fading:[<coherence>]'"
    )


def build_rateless_cell_users(params, snrs_db) -> list[CellUser]:
    """One rateless :class:`CellUser` per SNR, streams derived from the seed."""
    config = spinal_config_from_params(params)
    seed = int(params["seed"])
    packets_per_user = int(params["packets_per_user"])
    users = []
    for user, snr_db in enumerate(snrs_db):
        channel = build_cell_channel(
            str(params["channel"]), float(snr_db), config.adc_bits, user, len(snrs_db)
        )
        session = config.build_session(channel, max_symbols=int(params["max_symbols"]))
        payloads = [
            random_message_bits(
                config.payload_bits, spawn_rng(seed, "cell-payload", user, i)
            )
            for i in range(packets_per_user)
        ]
        users.append(CellUser(RatelessLink(session), payloads))
    return users


def cell_metrics(result: CellResult) -> dict:
    """JSON-native summary of one cell run (the kernels' return value)."""
    per_user = result.per_user_goodput()
    return {
        "goodput": result.aggregate_goodput,
        "fairness": result.jain_fairness,
        "delivered": result.n_delivered,
        "n_packets": result.n_packets,
        "delivered_fraction": result.delivered_fraction,
        "mean_latency": result.mean_latency,
        "p90_latency": result.latency_percentile(90.0),
        "min_user_goodput": float(per_user.min()),
        "max_user_goodput": float(per_user.max()),
        "total_symbols": result.total_symbols_sent,
        "makespan": result.makespan,
    }


def cell_scaling_point(params, rng) -> dict:
    """Registry kernel: one (n_users, scheduler) cell simulation.

    Deterministic given the parameters — every stream derives from the
    injected base seed, so the engine-provided ``rng`` is unused.
    """
    n_users = int(params["n_users"])
    snrs = spread_snrs(
        float(params["snr_center_db"]), float(params["snr_spread_db"]), n_users
    )
    users = build_rateless_cell_users(params, snrs)
    result = simulate_cell(
        users, make_scheduler(str(params["scheduler"])), seed=int(params["seed"])
    )
    return cell_metrics(result)


CELL_SCALING_EXPERIMENT = register(
    Experiment(
        name="cell-scaling",
        description="E16: multi-user cell goodput/fairness vs user count × MAC scheduler",
        spec=SweepSpec(
            axes=(
                Axis("n_users", (1, 2, 4, 8, 16), "int"),
                Axis("scheduler", SCHEDULER_NAMES, "str"),
            ),
            fixed={
                **spinal_fixed(search="sequential", max_symbols=4096),
                "snr_center_db": 12.0,
                "snr_spread_db": 12.0,
                "packets_per_user": 4,
                "channel": "awgn",
            },
        ),
        run_point=cell_scaling_point,
        columns=(
            Column("users", "n_users"),
            Column("scheduler", "scheduler"),
            Column("goodput (b/sym-t)", "goodput"),
            Column("fairness", "fairness"),
            Column("delivered", "delivered"),
            Column("mean latency", "mean_latency"),
            Column("p90 latency", "p90_latency"),
            Column("makespan", "makespan"),
        ),
        n_trials=1,
        max_trials=1,  # the simulation derives every stream from the base seed
        smoke={
            "n_users": (1, 2, 4),
            "scheduler": SCHEDULER_NAMES,
            "packets_per_user": 2,
            "max_symbols": 512,
            "snr_spread_db": 8.0,
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
        },
        plot=PlotSpec(
            x="n_users",
            y="goodput",
            series="scheduler",
            x_label="users in the cell",
            y_label="aggregate goodput",
        ),
    )
)
