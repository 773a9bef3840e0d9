"""Experiment E12: how much the LDPC baseline owes to its decoder budget.

Figure 2 decodes the LDPC baselines with 40 belief-propagation iterations.
This ablation sweeps the iteration budget (and the sum-product vs min-sum
algorithm choice) near each configuration's waterfall, confirming that the
baseline in the reproduction is not handicapped by a weak decoder.

Two registry experiments live here:

* ``ldpc-ablation`` — the E12 (algorithm × iteration budget) FER sweep;
* ``ldpc-rate`` — achieved rate of one fixed LDPC configuration across SNR
  (what the ``repro ldpc`` CLI command measures).
"""

from __future__ import annotations

import math

from repro.baselines.ldpc_system import FixedRateLdpcSystem, LdpcConfig
from repro.experiments.registry import Experiment, register
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.ldpc.construction import wifi_like_rate
from repro.modulation import make_modulation

__all__ = [
    "LDPC_ABLATION_EXPERIMENT",
    "LDPC_RATE_EXPERIMENT",
]

DEFAULT_ITERATIONS = (5, 10, 20, 40, 80)


def _ldpc_config(params) -> LdpcConfig:
    """The cell's code rate and modulation, rejecting a cell no kernel can run."""
    rate = wifi_like_rate(str(params["rate"]))
    snr_db = float(params["snr_db"])
    # LDPC LLRs need a positive noise energy: no noiseless limit here.
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be a finite number of dB, got {snr_db}")
    for name in ("frames", "iterations"):
        if int(params[name]) < 1:
            raise ValueError(f"{name} must be at least 1, got {params[name]}")
    make_modulation(str(params["modulation"]))  # raises on an unknown name
    return LdpcConfig(rate, str(params["modulation"]))


def ldpc_ablation_point(params, rng) -> dict:
    """Registry kernel: FER of one (algorithm, iteration budget) cell."""
    config = _ldpc_config(params)
    system = FixedRateLdpcSystem(
        config,
        max_iterations=int(params["iterations"]),
        algorithm=str(params["algorithm"]),
    )
    fer = system.frame_error_rate(
        float(params["snr_db"]), int(params["frames"]), rng
    )
    return {"config_label": config.label, "fer": fer}


def ldpc_ablation_seed_labels(params, trial) -> tuple:
    """The historical stream labels of the iteration ablation.

    Trial 0 reproduces the pre-registry stream exactly; further trials
    append the trial index so ``--trials N`` measures independent batches
    rather than duplicating the first.
    """
    labels = ("ldpc-ablation", str(params["algorithm"]), int(params["iterations"]))
    return labels if trial == 0 else labels + (trial,)


LDPC_ABLATION_EXPERIMENT = register(
    Experiment(
        name="ldpc-ablation",
        description="E12: LDPC frame error rate vs BP iteration budget and algorithm",
        spec=SweepSpec(
            axes=(
                Axis("algorithm", ("sum-product", "min-sum"), "str"),
                Axis("iterations", DEFAULT_ITERATIONS, "int"),
            ),
            fixed={"rate": "1/2", "modulation": "BPSK", "snr_db": 1.0, "frames": 100},
        ),
        run_point=ldpc_ablation_point,
        cell_config=_ldpc_config,
        columns=(
            Column("config", "config_label"),
            Column("algorithm", "algorithm"),
            Column("iterations", "iterations"),
            Column("SNR(dB)", "snr_db"),
            Column("FER", "fer"),
        ),
        n_trials=1,
        seed_labels=ldpc_ablation_seed_labels,
        smoke={"algorithm": ("min-sum",), "iterations": (5,), "frames": 2},
        plot=PlotSpec(
            x="iterations",
            y="fer",
            series="algorithm",
            x_label="BP iterations",
            y_label="FER",
        ),
    )
)


def ldpc_rate_point(params, rng) -> dict:
    """Registry kernel: achieved rate of one LDPC configuration at one SNR."""
    config = _ldpc_config(params)
    system = FixedRateLdpcSystem(config, max_iterations=int(params["iterations"]))
    fer = system.frame_error_rate(
        float(params["snr_db"]), int(params["frames"]), rng
    )
    return {
        "nominal_rate": system.nominal_rate,
        "fer": fer,
        "achieved_rate": system.nominal_rate * (1.0 - fer),
    }


def ldpc_rate_seed_labels(params, trial) -> tuple:
    """The historical stream labels of the ``repro ldpc`` CLI measurement.

    Trial 0 reproduces the pre-registry stream exactly; further trials
    append the trial index for independent batches.
    """
    labels = ("cli-ldpc", float(params["snr_db"]))
    return labels if trial == 0 else labels + (trial,)


LDPC_RATE_EXPERIMENT = register(
    Experiment(
        name="ldpc-rate",
        description="Achieved rate of one fixed-rate LDPC configuration across SNR",
        spec=SweepSpec(
            axes=(Axis("snr_db", (0.0, 4.0, 8.0, 12.0, 16.0, 20.0), "float"),),
            fixed={"rate": "1/2", "modulation": "QAM-16", "frames": 40, "iterations": 40},
        ),
        run_point=ldpc_rate_point,
        cell_config=_ldpc_config,
        columns=(
            Column("SNR(dB)", "snr_db"),
            Column("nominal rate", "nominal_rate"),
            Column("FER", "fer"),
            Column("achieved rate", "achieved_rate"),
        ),
        n_trials=1,
        seed_labels=ldpc_rate_seed_labels,
        smoke={"snr_db": (8.0,), "modulation": "BPSK", "frames": 2, "iterations": 5},
        plot=PlotSpec(
            x="snr_db", y="achieved_rate", x_label="SNR (dB)", y_label="bits/symbol"
        ),
    )
)
