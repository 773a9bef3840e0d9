"""Experiment E15: how much of the spinal gain is the *rateless* operation?

Section 3 notes that spinal codes can also be run at fixed rates.  This
ablation pins that down: at each SNR it compares

* the rateless spinal session (decode as soon as possible, the paper's
  Figure 2 operation), against
* the best fixed-rate spinal configuration chosen *with hindsight* for that
  SNR (the best ``k / n_passes`` whose frame error rate keeps its achieved
  rate highest).

The gap between the two is the value of ratelessness itself (no
configuration search, no mis-selection, fine-grained stopping).

Registered as ``fixed-vs-rateless``: the per-trial kernel measures the
rateless session; the cell aggregate performs the hindsight fixed-rate
search (its streams use the historical ``("fixed-spinal", snr, passes)``
labels).
"""

from __future__ import annotations

from repro.experiments.registry import Experiment, register
from repro.experiments.runner import (
    awgn_config_from_params,
    awgn_seed_labels,
    awgn_trial,
    rate_cell_aggregate,
    spinal_config_from_params,
    spinal_fixed,
)
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.phy.fixed_rate import FixedRateSpinalCode, measure_error_rates
from repro.utils.rng import spawn_rng

__all__ = ["FIXED_VS_RATELESS_EXPERIMENT"]

DEFAULT_PASS_CHOICES = (1, 2, 3, 4, 6, 8, 12)


def fixed_vs_rateless_point(params, rng) -> dict:
    """Registry kernel: one rateless spinal trial at this cell's SNR."""
    return awgn_trial(params, rng)


def fixed_vs_rateless_aggregate(params, trials) -> dict:
    """Mean rateless rate plus the hindsight-best fixed-rate configuration.

    The fixed-rate search draws from ``fixed_search_seed`` when set (a seed
    independent of the rateless trials'), falling back to the run's base
    seed.
    """
    out = rate_cell_aggregate(params, trials)
    config = spinal_config_from_params(params)
    snr_db = float(params["snr_db"])
    search_seed = params["fixed_search_seed"]
    if search_seed is None:
        search_seed = params["seed"]
    best_rate = 0.0
    best_passes = 0
    for n_passes in params["pass_choices"]:
        code = FixedRateSpinalCode(
            config.payload_bits,
            n_passes=int(n_passes),
            params=config.params,
            beam_width=config.beam_width,
        )
        rng = spawn_rng(int(search_seed), "fixed-spinal", snr_db, int(n_passes))
        fer, _ = measure_error_rates(
            code, snr_db, int(params["n_fixed_frames"]), rng, config.adc_bits
        )
        achieved_rate = code.nominal_rate * (1.0 - fer)
        if achieved_rate > best_rate:
            best_rate = achieved_rate
            best_passes = int(n_passes)
    out["best_fixed_rate"] = best_rate
    out["best_fixed_passes"] = best_passes
    out["rateless_gain"] = out["rate"] - best_rate
    return out


FIXED_VS_RATELESS_EXPERIMENT = register(
    Experiment(
        name="fixed-vs-rateless",
        description="Rateless spinal vs the hindsight-best fixed-rate spinal per SNR",
        spec=SweepSpec(
            axes=(Axis("snr_db", (0.0, 5.0, 10.0, 15.0, 20.0), "float"),),
            fixed={
                **spinal_fixed(),
                "pass_choices": DEFAULT_PASS_CHOICES,
                "n_fixed_frames": 25,
                "fixed_search_seed": None,
            },
        ),
        run_point=fixed_vs_rateless_point,
        cell_config=awgn_config_from_params,
        columns=(
            Column("SNR(dB)", "snr_db"),
            Column("capacity", "capacity"),
            Column("rateless", "rate"),
            Column("best fixed spinal", "best_fixed_rate"),
            Column("passes", "best_fixed_passes"),
            Column("rateless gain", "rateless_gain"),
        ),
        n_trials=25,
        aggregate=fixed_vs_rateless_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={
            "snr_db": (12.0,),
            "pass_choices": (1, 2),
            "n_fixed_frames": 2,
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
            "n_trials": 2,
        },
        plot=PlotSpec(
            x="snr_db", y="rateless_gain", x_label="SNR (dB)", y_label="bits/symbol"
        ),
    )
)
