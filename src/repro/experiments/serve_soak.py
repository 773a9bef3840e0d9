"""The serve soak as a registry run: N spinal sessions through one engine.

One cell, one :class:`~repro.serve.SoakConfig`: ``n_sessions`` requests
served by the batched decode engine (:mod:`repro.serve`) under a
``max_in_flight`` backpressure bound.  The kernel returns the soak's
symbol-time summary — throughput, latency percentiles, queue and batch
metrics — with no wall-clock field, so the stored cell is deterministic
(``max_trials = 1``; every stream derives from the injected base seed and
the engine-provided ``rng`` is unused).

Registered as ``serve-soak``; ``repro serve-soak`` is its flag spelling.
"""

from __future__ import annotations

from repro.experiments.registry import Experiment, register
from repro.experiments.spec import Column, SweepSpec
from repro.serve import SoakConfig, run_soak

__all__ = ["SERVE_SOAK_EXPERIMENT", "serve_soak_config", "serve_soak_point"]


def serve_soak_config(params) -> SoakConfig:
    """The cell's :class:`SoakConfig`: every parameter, the seed included, is a field."""
    return SoakConfig(**params)


def serve_soak_point(params, rng) -> dict:
    """Registry kernel: serve one soak to completion; its symbol-time summary."""
    return run_soak(serve_soak_config(params)).summary()


SERVE_SOAK_EXPERIMENT = register(
    Experiment(
        name="serve-soak",
        description=(
            "serve soak: N concurrent spinal sessions through the batched "
            "decode engine under bounded admission"
        ),
        spec=SweepSpec(
            fixed={
                "n_sessions": 256,
                "max_in_flight": 64,
                "arrival_spacing": 0,
                "snr_db": 8.0,
                "payload_bits": 16,
                "k": 4,
                "c": 6,
                "beam_width": 8,
                "max_symbols": 512,
                "batching": True,
            },
        ),
        run_point=serve_soak_point,
        cell_config=serve_soak_config,
        columns=(
            Column("sessions", "n_sessions"),
            Column("in flight", "max_in_flight"),
            Column("delivered", "delivered"),
            Column("symbols", "total_symbols"),
            Column("makespan", "makespan"),
            Column("symbols/tick", "symbols_per_tick"),
            Column("p99 latency", "p99_latency"),
            Column("max batch", "max_batch_sessions"),
        ),
        n_trials=1,
        max_trials=1,  # every stream derives from the base seed
        smoke={"n_sessions": 32, "max_in_flight": 16},
    )
)
