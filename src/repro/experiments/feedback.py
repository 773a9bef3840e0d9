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

from repro.experiments.registry import Experiment, register
from repro.experiments.runner import (
    awgn_config_from_params,
    awgn_seed_labels,
    awgn_trial,
    spinal_config_from_params,
    spinal_fixed,
)
from repro.experiments.spec import Axis, Column, SweepSpec
from repro.link.feedback import BlockFeedback, DelayedFeedback, FeedbackModel, PerfectFeedback
from repro.link.session import simulate_link_session

__all__ = [
    "parse_feedback_model",
    "DEFAULT_MODEL_SPECS",
    "FEEDBACK_EXPERIMENT",
]

#: The feedback models the E13 sweep prices, as ``model`` axis spellings.
DEFAULT_MODEL_SPECS = (
    "perfect",
    "delayed:2",
    "delayed:8",
    "block:1x:1",
    "block:4x:1",
    "block:16x:2",
)


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
        cell_config=awgn_config_from_params,
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
