"""Experiment E13: the cost of realistic feedback (Section 6, future work).

The paper's evaluation assumes free, instantaneous feedback; it explicitly
lists a feedback link-layer protocol as future work and notes an eventual
system "ought to use a feedback protocol to achieve the best possible
trade-off between throughput and latency".  This experiment quantifies that
trade-off: it measures the per-packet symbol requirements of the spinal code
at one SNR, then applies different feedback models (perfect, delayed,
per-block with overhead) and reports the retained throughput.

Registered as ``feedback`` with a string-valued ``model`` axis so the sweep
stays declarative: ``perfect``, ``delayed:<symbols>``, and
``block:<size>:<overhead>`` where ``<size>`` is either an absolute symbol
count or ``<N>x`` for N times the frame's segment count.  The per-trial
kernel measures symbols (paired across models — every model cell at one SNR
sees the same trial streams); the cell aggregate prices the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.registry import Experiment, register, run_experiment
from repro.experiments.runner import (
    SpinalRunConfig,
    awgn_seed_labels,
    awgn_trial,
    require_engine_compatible,
    run_spinal_point,
    spinal_config_from_params,
    spinal_fixed,
    spinal_overrides,
)
from repro.experiments.spec import Axis, Column, SweepSpec
from repro.link.feedback import BlockFeedback, DelayedFeedback, FeedbackModel, PerfectFeedback
from repro.link.session import simulate_link_session
from repro.utils.results import render_table

__all__ = [
    "FeedbackRow",
    "feedback_experiment",
    "feedback_table",
    "default_feedback_models",
    "parse_feedback_model",
    "DEFAULT_MODEL_SPECS",
    "FEEDBACK_EXPERIMENT",
]

#: Declarative spellings of :func:`default_feedback_models`, in the same order.
DEFAULT_MODEL_SPECS = (
    "perfect",
    "delayed:2",
    "delayed:8",
    "block:1x:1",
    "block:4x:1",
    "block:16x:2",
)


def default_feedback_models(n_segments: int) -> list[FeedbackModel]:
    """A representative set of feedback models for the E13 sweep."""
    return [parse_feedback_model(spec, n_segments) for spec in DEFAULT_MODEL_SPECS]


def parse_feedback_model(spec: str, n_segments: int) -> FeedbackModel:
    """Build a feedback model from its declarative axis spelling."""
    if spec == "perfect":
        return PerfectFeedback()
    kind, _, rest = spec.partition(":")
    if kind == "delayed" and rest:
        return DelayedFeedback(delay_symbols=int(rest))
    if kind == "block" and rest:
        size, _, overhead = rest.partition(":")
        if size.endswith("x"):
            block_symbols = int(size[:-1]) * n_segments
        else:
            block_symbols = int(size)
        return BlockFeedback(
            block_symbols=block_symbols, overhead_symbols=int(overhead or 1)
        )
    raise ValueError(
        f"unknown feedback model {spec!r}; expected 'perfect', 'delayed:<symbols>' "
        "or 'block:<size|Nx>:<overhead>'"
    )


def feedback_point(params, rng) -> dict:
    """Registry kernel: one spinal trial (the model is priced in aggregate)."""
    return awgn_trial(params, rng)


def feedback_aggregate(params, trials) -> dict:
    """Apply this cell's feedback model to the measured symbol counts."""
    config = spinal_config_from_params(params)
    framer = config.build_framer()
    model = parse_feedback_model(str(params["model"]), framer.n_segments)
    session = simulate_link_session(
        [int(t["symbols"]) for t in trials],
        payload_bits_per_packet=config.payload_bits,
        feedback=model,
    )
    return {
        "model_label": model.describe(),
        "throughput": session.throughput_bits_per_symbol,
        "ideal_throughput": session.ideal_throughput_bits_per_symbol,
        "efficiency": session.feedback_efficiency,
        "symbols_per_packet": session.mean_packet_symbols,
    }


FEEDBACK_EXPERIMENT = register(
    Experiment(
        name="feedback",
        description="E13: throughput retained under realistic feedback models",
        spec=SweepSpec(
            axes=(
                Axis("snr_db", (5.0, 15.0), "float"),
                Axis("model", DEFAULT_MODEL_SPECS, "str"),
            ),
            fixed=spinal_fixed(),
        ),
        run_point=feedback_point,
        columns=(
            Column("feedback model", "model_label"),
            Column("SNR(dB)", "snr_db"),
            Column("throughput", "throughput"),
            Column("ideal", "ideal_throughput"),
            Column("efficiency", "efficiency"),
            Column("sym/packet", "symbols_per_packet"),
        ),
        n_trials=40,
        aggregate=feedback_aggregate,
        seed_labels=awgn_seed_labels,
        # The kernel never reads `model` (it is priced in aggregate), so the
        # engine measures each SNR's trials once and shares them across all
        # model cells instead of redoing identical Monte-Carlo work 6x.
        trial_invariant_axes=("model",),
        smoke={
            "snr_db": (10.0,),
            "model": ("perfect", "delayed:2"),
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
            "n_trials": 3,
        },
    )
)


@dataclass(frozen=True)
class FeedbackRow:
    """Throughput of one feedback model at one SNR."""

    model: str
    snr_db: float
    throughput: float
    ideal_throughput: float
    efficiency: float
    mean_symbols_per_packet: float


def feedback_experiment(
    snr_values_db=(5.0, 15.0),
    config: SpinalRunConfig | None = None,
    models: list[FeedbackModel] | None = None,
) -> list[FeedbackRow]:
    """Apply each feedback model to measured per-packet symbol counts.

    With the default models this routes through the experiment registry;
    custom :class:`FeedbackModel` objects cannot be spelled as axis values,
    so that path measures with :func:`run_spinal_point` and prices the
    models directly (same numbers, no persistence).
    """
    if config is None:
        config = SpinalRunConfig(n_trials=40)
    if models is not None:
        rows = []
        for snr_db in snr_values_db:
            measurement = run_spinal_point(config, float(snr_db))
            for model in models:
                session = simulate_link_session(
                    measurement.symbols_sent,
                    payload_bits_per_packet=config.payload_bits,
                    feedback=model,
                )
                rows.append(
                    FeedbackRow(
                        model=model.describe(),
                        snr_db=float(snr_db),
                        throughput=session.throughput_bits_per_symbol,
                        ideal_throughput=session.ideal_throughput_bits_per_symbol,
                        efficiency=session.feedback_efficiency,
                        mean_symbols_per_packet=session.mean_packet_symbols,
                    )
                )
        return rows
    require_engine_compatible(config)
    outcome = run_experiment(
        FEEDBACK_EXPERIMENT,
        overrides={
            **spinal_overrides(config),
            "snr_db": tuple(float(s) for s in snr_values_db),
        },
        n_trials=config.n_trials,
        seed=config.seed,
        n_workers=config.n_workers,
    )
    return [
        FeedbackRow(
            model=cell["aggregate"]["model_label"],
            snr_db=float(params["snr_db"]),
            throughput=cell["aggregate"]["throughput"],
            ideal_throughput=cell["aggregate"]["ideal_throughput"],
            efficiency=cell["aggregate"]["efficiency"],
            mean_symbols_per_packet=cell["aggregate"]["symbols_per_packet"],
        )
        for _key, params, cell in outcome.successful_cells()
    ]


def feedback_table(rows: list[FeedbackRow]) -> str:
    return render_table(
        ["feedback model", "SNR(dB)", "throughput", "ideal", "efficiency", "sym/packet"],
        [
            (
                row.model,
                row.snr_db,
                row.throughput,
                row.ideal_throughput,
                row.efficiency,
                row.mean_symbols_per_packet,
            )
            for row in rows
        ],
    )
