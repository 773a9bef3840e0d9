"""Figure 2: rate versus SNR for spinal codes, bounds, and LDPC baselines.

This module regenerates every curve of the paper's only quantitative figure:

* the Shannon capacity bound ``log2(1 + SNR)``;
* the finite-blocklength ("fixed-block approx.") bound for length-24 codes
  at error probability 1e-4;
* the spinal code with ``m = 24``, ``k = 8``, ``c = 10``, ``B = 16`` and a
  14-bit receiver ADC;
* the eight fixed-rate LDPC configurations (648-bit wifi-like codes over
  BPSK/QAM-4/QAM-16/QAM-64 with 40-iteration BP decoding).

The ``figure2`` experiment registered here carries the first four curves
(``repro run figure2``); each LDPC curve is one ``ldpc-rate`` run over a
:data:`~repro.baselines.ldpc_system.FIGURE2_LDPC_CONFIGS` entry, which is
what ``repro figure2 --with-ldpc`` adds (README, "Unified experiment
registry").
"""

from __future__ import annotations

from repro.experiments.registry import Experiment, register
from repro.experiments.runner import (
    SPINAL_SMOKE,
    awgn_config_from_params,
    awgn_seed_labels,
    awgn_trial,
    rate_cell_aggregate,
    spinal_fixed,
)
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.theory.finite_blocklength import ppv_fixed_block_bound_db

__all__ = ["DEFAULT_SNR_GRID_DB", "FIGURE2_EXPERIMENT"]

#: SNR grid of the paper's figure: -10 dB to 40 dB.
DEFAULT_SNR_GRID_DB: tuple[float, ...] = tuple(float(s) for s in range(-10, 42, 2))


def figure2_point(params, rng) -> dict:
    """Registry kernel: one Figure-2 spinal trial plus the bound curves."""
    metrics = awgn_trial(params, rng)
    metrics["shannon"] = metrics["capacity"]
    metrics["fixed_block"] = ppv_fixed_block_bound_db(
        float(params["snr_db"]), block_length=int(params["payload_bits"])
    )
    return metrics


FIGURE2_EXPERIMENT = register(
    Experiment(
        name="figure2",
        description="Figure 2 core: spinal rate vs SNR with Shannon and fixed-block bounds",
        spec=SweepSpec(
            axes=(Axis("snr_db", DEFAULT_SNR_GRID_DB, "float"),),
            fixed=spinal_fixed(),
        ),
        run_point=figure2_point,
        cell_config=awgn_config_from_params,
        columns=(
            Column("SNR(dB)", "snr_db"),
            Column("Shannon", "shannon"),
            Column("FixedBlk", "fixed_block"),
            Column("Spinal", "rate"),
            Column("stderr", "rate_stderr"),
        ),
        n_trials=30,
        aggregate=rate_cell_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={**SPINAL_SMOKE, "snr_db": (0.0, 10.0)},
        plot=PlotSpec(x="snr_db", y="rate", x_label="SNR (dB)", y_label="bits/symbol"),
    )
)
