"""Experiment E11: constellation mapping ablation (Section 6, future work).

The paper uses the linear map of Eq. (3) and conjectures that "a Gaussian
mapping is likely to improve performance" (part of the Theorem-1 gap is
attributed to the uniform rather than Gaussian input distribution).  This
ablation measures the achieved rate of the three implemented maps — the
paper's sign/magnitude linear map, the offset-linear (uniform PAM) map, and
the truncated-Gaussian map — across SNR.

Registered as ``constellation-maps`` (``repro run constellation-maps``).
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

__all__ = ["CONSTELLATION_EXPERIMENT"]

DEFAULT_MAPS = ("linear", "offset-linear", "truncated-gaussian")


def constellation_point(params, rng) -> dict:
    """Registry kernel: one spinal trial under this cell's mapping function."""
    return awgn_trial(params, rng)


def _constellation_fixed() -> dict:
    fixed = spinal_fixed()
    fixed.pop("constellation")
    return fixed


CONSTELLATION_EXPERIMENT = register(
    Experiment(
        name="constellation-maps",
        description="E11: linear vs offset-linear vs truncated-Gaussian symbol maps",
        spec=SweepSpec(
            axes=(
                Axis("constellation", DEFAULT_MAPS, "str"),
                Axis("snr_db", (0.0, 10.0, 20.0), "float"),
            ),
            fixed=_constellation_fixed(),
        ),
        run_point=constellation_point,
        cell_config=awgn_config_from_params,
        columns=(
            Column("constellation", "constellation"),
            Column("SNR(dB)", "snr_db"),
            Column("mean rate", "rate"),
            Column("fraction of capacity", "fraction_of_capacity"),
        ),
        n_trials=25,
        aggregate=rate_cell_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={
            "constellation": ("linear",),
            "snr_db": (10.0,),
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
            "n_trials": 2,
        },
        plot=PlotSpec(
            x="snr_db",
            y="rate",
            series="constellation",
            x_label="SNR (dB)",
            y_label="bits/symbol",
        ),
    )
)
