"""Experiments E3/E4: empirical checks of the paper's two theorems.

Theorem 1 (AWGN): the decoder succeeds once the number of passes ``L``
satisfies ``L (C - Δ) > k`` with ``Δ = ½ log2(πe/6) ≈ 0.2546``.  We measure
the empirical per-symbol rate gap ``C - rate`` across SNR and compare it to
``Δ`` (the measured gap should be of the same order, and the paper notes the
practical decoder does *better* than the bound at low SNR).

Theorem 2 (BSC): with bit-mode encoding over a binary symmetric channel the
rate should approach ``C_bsc(p) = 1 - H2(p)`` with no constant gap.

Both are registry experiments (``repro run theorem1-gap`` / ``repro run
theorem2-bsc``).
"""

from __future__ import annotations

from repro.experiments.registry import Experiment, register
from repro.experiments.runner import (
    SPINAL_SMOKE,
    awgn_config_from_params,
    awgn_seed_labels,
    awgn_trial,
    bsc_config_from_params,
    bsc_seed_labels,
    bsc_trial,
    rate_cell_aggregate,
    spinal_fixed,
)
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.theory.bounds import spinal_awgn_rate_bound

__all__ = [
    "THEOREM1_EXPERIMENT",
    "THEOREM2_EXPERIMENT",
]


def theorem1_point(params, rng) -> dict:
    """Registry kernel: one spinal trial plus the Theorem-1 rate bound."""
    metrics = awgn_trial(params, rng)
    metrics["theorem_rate"] = spinal_awgn_rate_bound(float(params["snr_db"]))
    return metrics


def theorem1_aggregate(params, trials) -> dict:
    out = rate_cell_aggregate(params, trials)
    out["measured_gap"] = out["capacity"] - out["rate"]
    out["beats_bound"] = out["rate"] >= out["theorem_rate"]
    return out


THEOREM1_EXPERIMENT = register(
    Experiment(
        name="theorem1-gap",
        description="E3: capacity gap of the practical decoder vs the Theorem-1 bound",
        spec=SweepSpec(
            axes=(Axis("snr_db", (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0), "float"),),
            fixed=spinal_fixed(payload_bits=32),
        ),
        run_point=theorem1_point,
        cell_config=awgn_config_from_params,
        columns=(
            Column("SNR(dB)", "snr_db"),
            Column("capacity", "capacity"),
            Column("C - Δ (Thm 1)", "theorem_rate"),
            Column("measured", "rate"),
            Column("measured gap", "measured_gap"),
            Column("beats bound", "beats_bound"),
        ),
        n_trials=30,
        aggregate=theorem1_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={**SPINAL_SMOKE, "snr_db": (5.0, 15.0)},
        plot=PlotSpec(x="snr_db", y="measured_gap", x_label="SNR (dB)", y_label="C - rate"),
    )
)


def theorem2_point(params, rng) -> dict:
    """Registry kernel: one bit-mode spinal trial over the BSC."""
    return bsc_trial(params, rng)


THEOREM2_EXPERIMENT = register(
    Experiment(
        name="theorem2-bsc",
        description="E4: bit-mode spinal rate over a BSC against C_bsc(p)",
        spec=SweepSpec(
            axes=(Axis("p", (0.01, 0.02, 0.05, 0.1, 0.2, 0.3), "float"),),
            fixed=spinal_fixed(payload_bits=32, k=4, bit_mode=True),
        ),
        run_point=theorem2_point,
        cell_config=bsc_config_from_params,
        columns=(
            Column("p", "p"),
            Column("C_bsc", "capacity"),
            Column("measured", "rate"),
            Column("fraction of capacity", "fraction_of_capacity"),
        ),
        n_trials=30,
        aggregate=rate_cell_aggregate,
        seed_labels=bsc_seed_labels,
        smoke={"payload_bits": 16, "k": 4, "beam_width": 8, "n_trials": 2, "p": (0.05,)},
        plot=PlotSpec(x="p", y="rate", x_label="crossover probability", y_label="bits/bit"),
    )
)
