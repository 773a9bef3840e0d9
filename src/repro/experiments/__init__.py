"""Experiment harness: everything needed to regenerate the paper's results.

All experiments are registered in a single declarative registry
(:mod:`repro.experiments.registry`): each module defines an
:class:`~repro.experiments.registry.Experiment` — a typed
:class:`~repro.experiments.spec.SweepSpec` plus a pure
``run_point(params, rng)`` kernel — and one engine provides grid expansion,
process fan-out of points and trials (worker-count-invariant seeding),
persistence to a content-hash-keyed JSON store with cell-level resume, and
declarative table/plot rendering.  ``repro list`` enumerates them,
``repro run <name>`` executes them, ``repro report <run.json>`` re-renders
persisted runs.

Module index:

* :mod:`repro.experiments.runner` — shared Monte-Carlo machinery plus the
  ``rate``/``bsc`` experiments;
* :mod:`repro.experiments.figure2` — ``figure2`` (rate vs SNR with bounds)
  and the E2 crossover claim;
* :mod:`repro.experiments.theorems` — ``theorem1-gap`` / ``theorem2-bsc``;
* :mod:`repro.experiments.scale_down` — ``scale-down`` (rate vs beam width);
* :mod:`repro.experiments.k_sweep` — ``k-sweep`` (segment size k);
* :mod:`repro.experiments.puncturing` — ``puncturing`` (rates above k);
* :mod:`repro.experiments.distance` — ``distance`` (nonlinearity profile);
* :mod:`repro.experiments.blocklength` — ``blocklength`` (message lengths);
* :mod:`repro.experiments.quantization` — ``quantization`` (ADC precision);
* :mod:`repro.experiments.constellation_maps` — ``constellation-maps``;
* :mod:`repro.experiments.ldpc_ablation` — ``ldpc-ablation`` /
  ``ldpc-rate``;
* :mod:`repro.experiments.feedback` — ``feedback`` (feedback overhead);
* :mod:`repro.experiments.fixed_vs_rateless` — ``fixed-vs-rateless``;
* :mod:`repro.experiments.transport_sweep` — ``transport`` (measured
  ARQ/relay goodput).

There is no second Python API: scripts run an experiment with
``run_experiment(get(name), overrides=...)`` and read the outcome's cells.
"""

from repro.experiments.registry import (
    Experiment,
    RunOutcome,
    all_experiments,
    get,
    load_all,
    names,
    register,
    run_experiment,
)
from repro.experiments.runner import (
    SpinalRunConfig,
    make_puncturing,
)
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.experiments.transport_sweep import TransportSweepConfig

__all__ = [
    "Experiment",
    "RunOutcome",
    "Axis",
    "Column",
    "PlotSpec",
    "SweepSpec",
    "register",
    "get",
    "names",
    "all_experiments",
    "load_all",
    "run_experiment",
    "SpinalRunConfig",
    "make_puncturing",
    "TransportSweepConfig",
]
