"""Experiment E5: the graceful scale-down property (rate versus beam width B).

Section 3.2: "As B grows, the rate achieved by the decoder gets closer to
capacity.  Interestingly, ... even small values of B achieve high rates close
to capacity."  This experiment sweeps B at a few SNRs and also records the
decoder work (tree nodes expanded) so the rate/complexity trade-off is
explicit.

Registered as ``scale-down`` (``repro run scale-down``).
"""

from __future__ import annotations

from repro.experiments.registry import Experiment, register
from repro.experiments.runner import (
    awgn_config_from_params,
    awgn_seed_labels,
    awgn_trial,
    rate_cell_aggregate,
    spinal_fixed,
)
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec

__all__ = ["SCALE_DOWN_EXPERIMENT"]

DEFAULT_BEAM_WIDTHS = (1, 2, 4, 8, 16, 32, 64, 256)


def scale_down_point(params, rng) -> dict:
    """Registry kernel: one spinal trial at this cell's beam width and SNR."""
    return awgn_trial(params, rng)


def _scale_down_fixed() -> dict:
    fixed = spinal_fixed()
    fixed.pop("beam_width")
    return fixed


SCALE_DOWN_EXPERIMENT = register(
    Experiment(
        name="scale-down",
        description="E5: graceful scale-down — spinal rate vs decoder beam width B",
        spec=SweepSpec(
            axes=(
                Axis("snr_db", (5.0, 10.0, 20.0), "float"),
                Axis("beam_width", DEFAULT_BEAM_WIDTHS, "int"),
            ),
            fixed=_scale_down_fixed(),
        ),
        run_point=scale_down_point,
        cell_config=awgn_config_from_params,
        columns=(
            Column("SNR(dB)", "snr_db"),
            Column("B", "beam_width"),
            Column("mean rate", "rate"),
            Column("fraction of capacity", "fraction_of_capacity"),
            Column("tree nodes", "candidates"),
        ),
        n_trials=25,
        aggregate=rate_cell_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "n_trials": 2,
            "snr_db": (10.0,),
            "beam_width": (1, 4),
        },
        plot=PlotSpec(
            x="beam_width",
            y="rate",
            series="snr_db",
            x_label="beam width B",
            y_label="bits/symbol",
        ),
    )
)
