"""Experiment E9: behaviour across message lengths.

Section 5: "we have similar results for other block lengths, but the SNR
thresholds differ with length" (referring to the SNR below which the
rateless spinal code beats the fixed-block finite-length bound).  This
experiment repeats the rate-vs-SNR measurement for several message lengths
and reports each length's rate together with the corresponding
finite-blocklength bound.

Registered as ``blocklength`` (``repro run blocklength``).
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
from repro.theory.finite_blocklength import ppv_fixed_block_bound_db

__all__ = ["BLOCKLENGTH_EXPERIMENT"]

DEFAULT_MESSAGE_LENGTHS = (16, 24, 48, 96)


def blocklength_point(params, rng) -> dict:
    """Registry kernel: one spinal trial plus this length's PPV bound."""
    metrics = awgn_trial(params, rng)
    metrics["ppv_bound"] = ppv_fixed_block_bound_db(
        float(params["snr_db"]), block_length=int(params["payload_bits"])
    )
    return metrics


def blocklength_aggregate(params, trials) -> dict:
    out = rate_cell_aggregate(params, trials)
    out["beats_bound"] = out["rate"] > out["ppv_bound"]
    return out


def _blocklength_fixed() -> dict:
    fixed = spinal_fixed()
    fixed.pop("payload_bits")
    return fixed


BLOCKLENGTH_EXPERIMENT = register(
    Experiment(
        name="blocklength",
        description="E9: spinal rate vs message length against the PPV fixed-block bound",
        spec=SweepSpec(
            axes=(
                Axis("payload_bits", DEFAULT_MESSAGE_LENGTHS, "int"),
                Axis("snr_db", (0.0, 10.0, 20.0), "float"),
            ),
            fixed=_blocklength_fixed(),
        ),
        run_point=blocklength_point,
        cell_config=awgn_config_from_params,
        columns=(
            Column("m (bits)", "payload_bits"),
            Column("SNR(dB)", "snr_db"),
            Column("mean rate", "rate"),
            Column("capacity", "capacity"),
            Column("PPV bound(m)", "ppv_bound"),
            Column("beats bound", "beats_bound"),
        ),
        n_trials=25,
        aggregate=blocklength_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={
            "payload_bits": (16,),
            "snr_db": (10.0,),
            "k": 4,
            "c": 6,
            "beam_width": 8,
            "n_trials": 2,
        },
        plot=PlotSpec(
            x="snr_db",
            y="rate",
            series="payload_bits",
            x_label="SNR (dB)",
            y_label="bits/symbol",
        ),
    )
)
