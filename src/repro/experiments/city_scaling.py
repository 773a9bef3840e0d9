"""Experiment E19: city-scale network goodput vs user density × scheduler.

The multi-cell simulator (:mod:`repro.net`) puts ``n_users`` mobile uplinks
into a grid of base stations under one symbol-time clock: per-user SINR
(serving-cell path loss over interfering cells' live transmit activity),
deterministic random-walk mobility, and hysteresis handoff that migrates
queue and in-flight state between cells.  This sweep scales user density
across MAC disciplines and code families at both fidelity tiers:

* ``exact`` — every block runs the real encoder/channel/decoder;
* ``flow``  — packets sample symbols-to-decode distributions calibrated
  off the bit-exact codec (same MAC/mobility/handoff machinery, city-scale
  throughput).

Reading the table: aggregate goodput and Jain fairness answer the paper's
network-level question (does rateless self-adaptation keep cell-edge users
served?), while the handoff columns characterize the mobility regime the
answer was measured under.  The two tiers should agree to within the
calibrated error bound pinned in ``tests/test_net.py``.

Every random stream derives from the injected base seed, so cells are
deterministic and worker-count invariant (``max_trials = 1``).  The
``city-soak`` experiment (``repro city-soak``) runs replicas of one city.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.registry import Experiment, register
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.mac.schedulers import SCHEDULER_NAMES
from repro.net import NetworkConfig, simulate_network
from repro.utils.rng import derive_seed

__all__ = [
    "city_config_from_params",
    "city_scaling_point",
    "city_soak_config",
    "city_soak_point",
    "CITY_SCALING_EXPERIMENT",
    "CITY_SOAK_EXPERIMENT",
]


def city_config_from_params(params) -> NetworkConfig:
    """Translate a registry parameter point into a :class:`NetworkConfig`."""
    return NetworkConfig(
        n_cells=int(params["n_cells"]),
        n_users=int(params["n_users"]),
        packets_per_user=int(params["packets_per_user"]),
        scheduler=str(params["scheduler"]),
        code=str(params["code"]),
        tier=str(params["tier"]),
        seed=int(params["seed"]),
        smoke_codes=True,
        max_symbols=int(params["max_symbols"]),
        cell_radius=float(params["cell_radius"]),
        reference_snr_db=float(params["reference_snr_db"]),
        epoch_symbols=int(params["epoch_symbols"]),
        mobility_step=float(params["mobility_step"]),
        calibration_samples=int(params["calibration_samples"]),
        calibration_grid_points=int(params["calibration_grid_points"]),
    )


def city_scaling_point(params, rng) -> dict:
    """Registry kernel: one (n_users, scheduler, code, tier) city simulation.

    Deterministic given the parameters — every stream derives from the
    injected base seed, so the engine-provided ``rng`` is unused.
    """
    return simulate_network(city_config_from_params(params)).summary()


CITY_SCALING_EXPERIMENT = register(
    Experiment(
        name="city-scaling",
        description=(
            "E19: multi-cell SINR network goodput/fairness/handoffs vs "
            "user density × scheduler × code family × fidelity tier"
        ),
        spec=SweepSpec(
            axes=(
                Axis("n_users", (4, 8, 16), "int"),
                Axis("scheduler", SCHEDULER_NAMES, "str"),
                Axis("code", ("spinal", "lt"), "str"),
                Axis("tier", ("exact", "flow"), "str"),
            ),
            fixed={
                "n_cells": 4,
                "packets_per_user": 2,
                "max_symbols": 512,
                "cell_radius": 150.0,
                "reference_snr_db": 18.0,
                "epoch_symbols": 128,
                "mobility_step": 60.0,
                "calibration_samples": 32,
                "calibration_grid_points": 9,
            },
        ),
        run_point=city_scaling_point,
        cell_config=city_config_from_params,
        columns=(
            Column("users", "n_users"),
            Column("scheduler", "scheduler"),
            Column("code", "code"),
            Column("tier", "tier"),
            Column("goodput (b/sym-t)", "aggregate_goodput"),
            Column("fairness", "jain_fairness"),
            Column("delivered", "n_delivered"),
            Column("handoffs", "n_handoffs"),
            Column("handoffs/ksym", "handoff_rate_per_kilosymbol"),
            Column("makespan", "makespan"),
        ),
        n_trials=1,
        max_trials=1,  # the simulation derives every stream from the base seed
        smoke={
            "n_users": (2, 4),
            "scheduler": ("round-robin", "max-snr"),
            "code": ("spinal",),
            "tier": ("exact", "flow"),
            "packets_per_user": 2,
            "max_symbols": 512,
            "calibration_samples": 12,
            "calibration_grid_points": 5,
        },
        plot=PlotSpec(
            x="n_users",
            y="aggregate_goodput",
            series="scheduler",
            x_label="users in the city",
            y_label="aggregate goodput",
        ),
    )
)


def city_soak_config(params) -> NetworkConfig:
    """Replica ``params["replica"]`` of one city: an independent derived seed.

    The rest is :func:`city_config_from_params` plus the ``interference``
    switch.  A soak needs at least one user, though an empty city is legal
    for library callers.
    """
    config = city_config_from_params(params)
    if config.n_users < 1:
        raise ValueError(f"n_users must be at least 1, got {config.n_users}")
    return dataclasses.replace(
        config,
        interference=bool(params["interference"]),
        seed=derive_seed(config.seed, "net-replica", int(params["replica"])),
    )


def city_soak_point(params, rng) -> dict:
    """Registry kernel: one replica of the city, run to completion.

    Deterministic given the parameters — every stream derives from the
    replica's seed, so the engine-provided ``rng`` is unused.
    """
    return simulate_network(city_soak_config(params)).summary()


CITY_SOAK_EXPERIMENT = register(
    Experiment(
        name="city-soak",
        description=(
            "city soak: seed-independent replicas of one multi-cell SINR "
            "network (mobility, handoff, either fidelity tier)"
        ),
        spec=SweepSpec(
            axes=(Axis("replica", (0,), "int"),),
            fixed={
                "n_cells": 4,
                "n_users": 16,
                "packets_per_user": 2,
                "scheduler": "round-robin",
                "code": "spinal",
                "tier": "flow",
                "max_symbols": 512,
                "cell_radius": 150.0,
                "reference_snr_db": 18.0,
                "epoch_symbols": 128,
                "mobility_step": 80.0,
                "calibration_samples": 48,
                "calibration_grid_points": 9,
                "interference": True,
            },
        ),
        run_point=city_soak_point,
        cell_config=city_soak_config,
        columns=(
            Column("replica", "replica"),
            Column("goodput (b/sym-t)", "aggregate_goodput"),
            Column("fairness", "jain_fairness"),
            Column("delivered", "n_delivered"),
            Column("handoffs", "n_handoffs"),
            Column("makespan", "makespan"),
        ),
        n_trials=1,
        max_trials=1,  # the simulation derives every stream from the replica seed
        smoke={
            "replica": (0, 1),
            "n_users": 4,
            "calibration_samples": 12,
            "calibration_grid_points": 5,
        },
    )
)
