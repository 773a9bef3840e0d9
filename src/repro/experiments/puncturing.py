"""Experiment E7: puncturing pushes the rate above k bits/symbol.

Section 3.1: "In our experiments, we actually obtain rates higher than k
bits/symbol using puncturing, where the transmitter does not send each
successive spine value in every pass."  This experiment compares the
available schedules at high SNR and reports how often the achieved rate
exceeds the un-punctured ceiling of ``k``.

Registered as ``puncturing`` (``repro run puncturing``).
"""

from __future__ import annotations

from repro.experiments.registry import Experiment, register
from repro.experiments.runner import (
    awgn_config_from_params,
    awgn_seed_labels,
    awgn_trial,
    spinal_fixed,
)
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.utils.results import mean, std_error

__all__ = ["PUNCTURING_EXPERIMENT"]

DEFAULT_SCHEDULES = ("none", "symbol", "strided", "tail-first")


def puncturing_config(params):
    """The cell's AWGN spinal config under its ``schedule``."""
    return awgn_config_from_params({**params, "puncturing": params["schedule"]})


def puncturing_point(params, rng) -> dict:
    """Registry kernel: one spinal trial under this cell's schedule."""
    return awgn_trial({**params, "puncturing": params["schedule"]}, rng)


def puncturing_aggregate(params, trials) -> dict:
    rates = [float(t["rate"]) for t in trials]
    k = int(params["k"])
    return {
        "rate": mean(rates),
        "rate_stderr": std_error(rates),
        "max_rate": max(rates),
        "fraction_above_k": sum(1 for r in rates if r > k) / len(rates),
        "success": mean([1.0 if t["ok"] else 0.0 for t in trials]),
    }


def _puncturing_fixed() -> dict:
    fixed = spinal_fixed()
    fixed.pop("puncturing")
    return fixed


PUNCTURING_EXPERIMENT = register(
    Experiment(
        name="puncturing",
        description="E7: puncturing schedules vs rate at high SNR (rates above k b/sym)",
        spec=SweepSpec(
            axes=(
                Axis("schedule", DEFAULT_SCHEDULES, "str"),
                Axis("snr_db", (20.0, 30.0, 40.0), "float"),
            ),
            fixed=_puncturing_fixed(),
        ),
        run_point=puncturing_point,
        cell_config=puncturing_config,
        columns=(
            Column("schedule", "schedule"),
            Column("SNR(dB)", "snr_db"),
            Column("mean rate", "rate"),
            Column("max rate", "max_rate"),
            Column("frac > k", "fraction_above_k"),
            Column("k", "k"),
        ),
        n_trials=25,
        aggregate=puncturing_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={
            "schedule": ("none", "tail-first"),
            "snr_db": (25.0,),
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
            "n_trials": 2,
        },
        plot=PlotSpec(
            x="snr_db",
            y="rate",
            series="schedule",
            x_label="SNR (dB)",
            y_label="bits/symbol",
        ),
    )
)
