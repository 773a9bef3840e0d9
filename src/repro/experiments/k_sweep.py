"""Experiment E6: the role of the segment size k.

Section 3.1: "the computational complexity of the decoder grows
exponentially with k, while the maximum rate achievable by the code grows
linearly with k".  This experiment sweeps k at fixed SNR and message length
and reports both the achieved rate and the decoder work per delivered
message, making that trade-off measurable.

Registered as ``k-sweep`` (``repro run k-sweep``).
"""

from __future__ import annotations

from repro.channels.awgn import AWGNChannel
from repro.experiments.registry import Experiment, default_aggregate, register
from repro.experiments.runner import (
    awgn_config_from_params,
    run_one_spinal_trial,
    spinal_fixed,
)
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.utils.results import mean

__all__ = ["K_SWEEP_EXPERIMENT"]


def k_sweep_point(params, rng) -> dict:
    """Registry kernel: one spinal trial at this cell's segment size k.

    The symbol budget assumes an ideal rate of ``k`` bits/symbol (the
    un-punctured ceiling), exactly like the historical experiment.
    """
    config = awgn_config_from_params(params)
    channel = AWGNChannel(float(params["snr_db"]), adc_bits=config.adc_bits)
    budget = config.symbol_budget(ideal_rate=max(float(params["k"]), 1.0))
    return run_one_spinal_trial(config, channel, budget, rng)


def k_sweep_seed_labels(params, trial) -> tuple:
    """The historical per-trial stream labels of the k sweep."""
    return ("k-sweep", int(params["k"]), trial)


def k_sweep_aggregate(params, trials) -> dict:
    out = default_aggregate(params, trials)
    out["rate"] = mean([float(t["rate"]) for t in trials])
    out["candidates"] = mean([float(t["candidates"]) for t in trials])
    out["max_rate_bound"] = float(params["k"]) * 2  # tail-first puncturing can double it
    return out


def _k_sweep_fixed() -> dict:
    fixed = spinal_fixed(snr_db=15.0)
    fixed.pop("k")
    return fixed


K_SWEEP_EXPERIMENT = register(
    Experiment(
        name="k-sweep",
        description="E6: rate and decoder work vs segment size k at fixed SNR",
        spec=SweepSpec(
            axes=(Axis("k", (2, 3, 4, 6, 8), "int"),),
            fixed=_k_sweep_fixed(),
        ),
        run_point=k_sweep_point,
        cell_config=awgn_config_from_params,
        columns=(
            Column("k", "k"),
            Column("SNR(dB)", "snr_db"),
            Column("mean rate", "rate"),
            Column("tree nodes / message", "candidates"),
            Column("max rate bound", "max_rate_bound"),
        ),
        n_trials=25,
        aggregate=k_sweep_aggregate,
        seed_labels=k_sweep_seed_labels,
        smoke={
            "k": (2, 4),
            "payload_bits": 16,
            "beam_width": 8,
            "c": 6,
            "n_trials": 2,
        },
        plot=PlotSpec(x="k", y="rate", x_label="segment size k", y_label="bits/symbol"),
    )
)
