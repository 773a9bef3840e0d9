"""Experiment E10: sensitivity to the receiver ADC resolution.

The paper's Figure 2 experiment quantises each received dimension to 14 bits
"to simulate quantization of an ADC".  This ablation sweeps the ADC depth to
show that 14 bits is effectively transparent and to find how few bits the
decoder can actually live with — a practically relevant question for a
receiver that feeds raw I/Q samples to the decoder.

Registered as ``quantization``; the ``adc_bits`` axis admits ``none`` for
"no quantiser".
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

__all__ = ["QUANTIZATION_EXPERIMENT"]

DEFAULT_ADC_BITS = (4, 6, 8, 10, 14, None)


def quantization_point(params, rng) -> dict:
    """Registry kernel: one spinal trial at this cell's ADC depth."""
    return awgn_trial(params, rng)


def _quantization_fixed() -> dict:
    fixed = spinal_fixed()
    fixed.pop("adc_bits")
    return fixed


QUANTIZATION_EXPERIMENT = register(
    Experiment(
        name="quantization",
        description="E10: spinal rate vs receiver ADC depth (none = no quantiser)",
        spec=SweepSpec(
            axes=(
                Axis("adc_bits", DEFAULT_ADC_BITS, "int", optional=True),
                Axis("snr_db", (10.0, 25.0), "float"),
            ),
            fixed=_quantization_fixed(),
        ),
        run_point=quantization_point,
        cell_config=awgn_config_from_params,
        columns=(
            Column("ADC bits", "adc_bits", none_text="inf"),
            Column("SNR(dB)", "snr_db"),
            Column("mean rate", "rate"),
            Column("fraction of capacity", "fraction_of_capacity"),
        ),
        n_trials=25,
        aggregate=rate_cell_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={
            "adc_bits": (6, None),
            "snr_db": (10.0,),
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
            "n_trials": 2,
        },
        plot=PlotSpec(
            x="snr_db",
            y="fraction_of_capacity",
            series="adc_bits",
            x_label="SNR (dB)",
            y_label="fraction of capacity",
        ),
    )
)
