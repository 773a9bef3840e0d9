"""Unified experiment registry and sweep engine.

Every experiment in this package is registered here as one declarative
:class:`Experiment`: a name, a description, a :class:`~repro.experiments.spec.SweepSpec`
of typed axes, a pure ``run_point(params, rng) -> Mapping`` kernel, and a
table/plot spec.  A single engine then provides, for *every* experiment:

* grid expansion with stable cell keys and report ordering;
* process fan-out of points *and* trials via
  :func:`repro.utils.parallel.stride_map`, with per-(cell, trial) seeds
  derived from ``(seed, labels...)`` so any worker count produces
  bit-identical results;
* persistence to a versioned JSON store
  (:class:`repro.utils.store.RunStore`) keyed by a content hash of the
  resolved spec, with cell-level resume: re-running the same spec recomputes
  nothing, and extending a sweep's axis values re-uses every compatible
  already-measured cell;
* structured error records: a kernel that raises turns its cell into an
  ``{"error": ...}`` aggregate instead of killing the whole sweep;
* declarative table rendering (``repro run`` / ``repro report``) and
  optional ASCII plots.

Kernels, aggregates, and seed-label functions must be *top-level* module
functions so experiments pickle across process boundaries.
"""

from __future__ import annotations

import csv
import importlib
import io
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.experiments.spec import (
    Axis,
    Column,
    PlotSpec,
    SweepSpec,
    format_key_value,
    spec_hash,
)
from repro.utils.asciiplot import ascii_plot
from repro.utils.parallel import stride_map
from repro.utils.results import mean, render_table, std_error
from repro.utils.rng import spawn_rng
from repro.utils.store import RunStore, STORE_SCHEMA_VERSION

__all__ = [
    "Experiment",
    "RunOutcome",
    "register",
    "get",
    "names",
    "all_experiments",
    "load_all",
    "resolve_run",
    "run_experiment",
    "render_run",
    "render_run_csv",
    "render_run_plot",
    "default_aggregate",
    "catalog",
    "catalog_markdown",
    "EXPERIMENT_MODULES",
]

#: Modules that define and register experiments; imported by :func:`load_all`.
#: (``spec``, ``registry`` and ``metrics`` are infrastructure, not experiments.)
EXPERIMENT_MODULES = (
    "repro.experiments.runner",
    "repro.experiments.figure2",
    "repro.experiments.theorems",
    "repro.experiments.scale_down",
    "repro.experiments.k_sweep",
    "repro.experiments.puncturing",
    "repro.experiments.distance",
    "repro.experiments.blocklength",
    "repro.experiments.quantization",
    "repro.experiments.constellation_maps",
    "repro.experiments.ldpc_ablation",
    "repro.experiments.feedback",
    "repro.experiments.fixed_vs_rateless",
    "repro.experiments.transport_sweep",
    "repro.experiments.cell_scaling",
    "repro.experiments.cell_rateless_vs_adaptive",
    "repro.experiments.code_family_matrix",
    "repro.experiments.city_scaling",
    "repro.experiments.network_coding_gain",
    "repro.experiments.serve_soak",
)

_REGISTRY: dict[str, "Experiment"] = {}


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: declarative spec plus a pure kernel.

    Attributes
    ----------
    name:
        Registry key, also the ``repro run <name>`` spelling.
    description:
        One line for ``repro list`` and the README catalog.
    spec:
        Typed axes plus fixed parameters.  The engine injects the resolved
        base seed as ``params["seed"]`` when calling the kernel/aggregate.
    run_point:
        Pure per-trial kernel ``(params, rng) -> Mapping`` returning
        JSON-native metrics.  Called once per (cell, trial) work unit, in a
        worker process.
    columns:
        Report table columns; each source names an aggregate metric, an
        axis, or a fixed parameter (looked up in that order).
    n_trials:
        Default trials per cell (1 for single-shot/analytical kernels).
    seed:
        Default base seed.
    aggregate:
        Optional ``(params, trials) -> Mapping`` reducing a cell's per-trial
        mappings; defaults to :func:`default_aggregate` (numeric means plus
        standard errors).  Runs in the parent process.
    seed_labels:
        Optional ``(params, trial) -> tuple`` of labels mixed with the base
        seed for the trial's generator.  Ported experiments use this to
        reproduce their historical streams bit-exactly; the default is
        ``(name, cell_key, trial)``.
    smoke:
        Overrides (may include ``n_trials``/``seed``) that shrink the
        experiment to a seconds-scale configuration for ``--smoke`` runs
        and CI.
    plot:
        Optional declarative ASCII plot.
    trial_invariant_axes:
        Axes the kernel's output provably does not depend on (the axis is
        consumed by ``aggregate`` only, e.g. the feedback ``model``).  The
        engine runs each trial once per *projected* cell and shares the
        results across the invariant axis instead of recomputing identical
        Monte-Carlo work per cell.
    max_trials:
        Upper bound on trials per cell, for kernels that derive all their
        randomness from the base seed (so extra trials would duplicate the
        first bit-for-bit and misreport their spread as statistics).
    cell_config:
        The ``params -> config`` builder the kernel calls first, raising
        ``ValueError``/``KeyError`` on a cell it cannot run.
        :func:`resolve_run` calls it on every cell, so bad input fails
        before the first cell is computed instead of becoming error cells.
    """

    name: str
    description: str
    spec: SweepSpec
    run_point: Callable[[Mapping, np.random.Generator], Mapping]
    columns: tuple[Column, ...]
    n_trials: int = 1
    seed: int = 20111114
    aggregate: Callable[[Mapping, list], Mapping] | None = None
    seed_labels: Callable[[Mapping, int], tuple] | None = None
    smoke: Mapping[str, object] = field(default_factory=dict)
    plot: PlotSpec | None = None
    trial_invariant_axes: tuple[str, ...] = ()
    max_trials: int | None = None
    cell_config: Callable[[Mapping], object] | None = None

    @property
    def module(self) -> str:
        """The module that defines this experiment's kernel."""
        return self.run_point.__module__


def register(experiment: Experiment) -> Experiment:
    """Add one experiment to the global registry (idempotent per identity)."""
    existing = _REGISTRY.get(experiment.name)
    if existing is not None and existing is not experiment:
        raise ValueError(f"experiment {experiment.name!r} is already registered")
    _REGISTRY[experiment.name] = experiment
    return experiment


def load_all() -> None:
    """Import every experiment module so the registry is fully populated."""
    for module in EXPERIMENT_MODULES:
        importlib.import_module(module)


def all_experiments() -> dict[str, Experiment]:
    load_all()
    return dict(_REGISTRY)


def names() -> list[str]:
    return sorted(all_experiments())


def get(name: str) -> Experiment:
    experiments = all_experiments()
    try:
        return experiments[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {sorted(experiments)}"
        ) from None


# -- aggregation --------------------------------------------------------------


def default_aggregate(params: Mapping, trials: list) -> dict:
    """Reduce a cell's trial mappings: numeric means plus standard errors.

    Booleans aggregate to their success fraction; strings must be constant
    and pass through; a single trial keeps integer metrics as integers so
    count-like quantities render cleanly.
    """
    out: dict = {}
    first = trials[0]
    for key, value in first.items():
        values = [t[key] for t in trials]
        if isinstance(value, bool):
            out[key] = mean([1.0 if v else 0.0 for v in values])
        elif isinstance(value, (int, float)):
            if len(values) == 1:
                out[key] = values[0]
            else:
                floats = [float(v) for v in values]
                out[key] = mean(floats)
                out[f"{key}_stderr"] = std_error(floats)
        else:
            out[key] = value
    return out


def _jsonify(value):
    """Coerce kernel/aggregate outputs to JSON-native types."""
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"kernel returned non-JSON value {value!r}")


# -- the engine ---------------------------------------------------------------


def _unit_batch(
    experiment: Experiment,
    cells: list[tuple[str, dict]],
    label_keys: list[str],
    seed: int,
    batch: list[tuple[int, tuple[int, int]]],
) -> list[tuple[int, dict]]:
    """Run a batch of (cell, trial) units; the worker entry point.

    A top-level function so it pickles under any multiprocessing start
    method.  The trial generator is derived from ``(seed, labels...)``
    alone — with the default labels built from the cell's *projected* key
    (trial-invariant axes stripped), so shared trials hash identically no
    matter which sibling cell computed them — so outcomes are independent
    of worker count, batching, and cache state; a raising kernel yields a
    structured error record instead of poisoning the pool.
    """
    results = []
    for index, (cell_index, trial) in batch:
        _key, params = cells[cell_index]
        kernel_params = {**params, "seed": int(seed)}
        if experiment.seed_labels is not None:
            labels = experiment.seed_labels(kernel_params, trial)
        else:
            labels = (experiment.name, label_keys[cell_index], trial)
        rng = spawn_rng(seed, *labels)
        try:
            result = _jsonify(dict(experiment.run_point(kernel_params, rng)))
        except Exception as exc:  # noqa: BLE001 - converted to an error record
            result = {"error": f"{type(exc).__name__}: {exc}"}
        results.append((index, result))
    return results


def _aggregate_cell(experiment: Experiment, params: dict, seed: int, trials: list) -> dict:
    """Reduce one cell's trials, degrading failures to structured records.

    This is the API boundary that keeps ``mean``/``std_error``'s
    empty-input ``ValueError`` (and any aggregate bug) from killing a whole
    sweep: a cell with no successful trial — or whose aggregate raises —
    becomes ``{"error": ...}`` and the sweep carries on.
    """
    successes = [t for t in trials if "error" not in t]
    if not successes:
        return {"error": trials[0]["error"], "n_failed": len(trials)}
    aggregate_fn = experiment.aggregate or default_aggregate
    try:
        aggregate = _jsonify(dict(aggregate_fn({**params, "seed": int(seed)}, successes)))
    except Exception as exc:  # noqa: BLE001 - converted to an error record
        return {
            "error": f"aggregate failed: {type(exc).__name__}: {exc}",
            "n_failed": len(trials) - len(successes),
        }
    aggregate.setdefault("n_trials", len(successes))
    if len(successes) < len(trials):
        aggregate["n_failed"] = len(trials) - len(successes)
    return aggregate


def _compatible_spec(candidate: Mapping, target: Mapping) -> bool:
    """Whether a stored spec's cells are reusable for the target spec.

    Compatible means: identical fixed parameters, trial count, and seed,
    and identical axis names/kinds — only the axis *values* may differ
    (the grid was extended or subset).
    """
    if candidate.get("n_trials") != target["n_trials"]:
        return False
    if candidate.get("seed") != target["seed"]:
        return False
    a, b = candidate.get("spec", {}), target["spec"]
    if a.get("fixed") != b["fixed"]:
        return False
    strip = [
        [(axis["name"], axis["kind"], axis.get("optional", False)) for axis in s.get("axes", ())]
        for s in (a, b)
    ]
    return strip[0] == strip[1]


@dataclass
class RunOutcome:
    """Everything one engine invocation produced."""

    experiment: Experiment
    spec: SweepSpec
    record: dict
    path: Path | None
    n_cells_computed: int
    n_cells_cached: int

    def cells(self) -> list[tuple[str, dict, dict]]:
        """(key, params, cell record) triples in report order."""
        return [
            (key, params, self.record["cells"][key])
            for key, params in self.spec.cells()
        ]

    def successful_cells(self) -> list[tuple[str, dict, dict]]:
        """Like :meth:`cells`, but raise if any cell is an error record.

        Callers that read a metric from every grid point use this to surface
        the engine's structured error cells as one exception carrying the
        original kernel error text instead of failing later on a missing
        aggregate key.
        """
        cells = self.cells()
        errors = [
            f"{key}: {cell['aggregate']['error']}"
            for key, _params, cell in cells
            if "error" in cell["aggregate"]
        ]
        if errors:
            raise RuntimeError(
                f"experiment {self.experiment.name!r} had failing cells:\n"
                + "\n".join(f"  {line}" for line in errors)
            )
        return cells

    def table(self) -> str:
        return render_run(self.experiment, self.record)


def resolve_run(
    experiment: Experiment,
    overrides: Mapping[str, object] | None = None,
    *,
    n_trials: int | None = None,
    seed: int | None = None,
    smoke: bool = False,
) -> tuple[SweepSpec, int, int]:
    """The ``(spec, n_trials, seed)`` a :func:`run_experiment` call would run.

    Raises ``ValueError``/``KeyError`` on bad overrides, trial counts or
    cells (through the experiment's ``cell_config``) without computing
    anything, so callers can validate a whole batch of runs before the
    first cell starts.
    """
    merged: dict = {}
    if smoke:
        merged.update(experiment.smoke)
    if overrides:
        merged.update(overrides)
    default_trials = merged.pop("n_trials", experiment.n_trials)
    default_seed = merged.pop("seed", experiment.seed)
    resolved_trials = int(default_trials if n_trials is None else n_trials)
    resolved_seed = int(default_seed if seed is None else seed)
    if resolved_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {resolved_trials}")
    if experiment.max_trials is not None and resolved_trials > experiment.max_trials:
        raise ValueError(
            f"experiment {experiment.name!r} supports at most "
            f"{experiment.max_trials} trial(s) per cell — its kernel derives "
            "all randomness from the base seed, so extra trials would only "
            "duplicate the first"
        )
    spec = experiment.spec.with_values(merged)
    if experiment.cell_config is not None:
        for _key, params in spec.cells():
            experiment.cell_config({**params, "seed": resolved_seed})
    return spec, resolved_trials, resolved_seed


def run_experiment(
    experiment: Experiment,
    overrides: Mapping[str, object] | None = None,
    *,
    n_workers: int = 1,
    n_trials: int | None = None,
    seed: int | None = None,
    store: RunStore | None = None,
    smoke: bool = False,
) -> RunOutcome:
    """Expand, (re)compute, aggregate, and optionally persist one sweep.

    ``overrides`` replace axis values or fixed parameters by name (the CLI
    maps ``--set axis=v1,v2`` here); ``smoke=True`` first applies the
    experiment's tiny smoke overrides.  With a ``store``, previously
    persisted cells of the same resolved spec — or of any compatible spec of
    the same experiment — are reused instead of recomputed, and the merged
    record is saved back, so interrupted or extended sweeps resume.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    spec, resolved_trials, resolved_seed = resolve_run(
        experiment, overrides, n_trials=n_trials, seed=seed, smoke=smoke
    )

    resolved_hash = spec_hash(experiment.name, spec, resolved_trials, resolved_seed)
    spec_document = {
        "spec": spec.to_dict(),
        "n_trials": resolved_trials,
        "seed": resolved_seed,
    }

    cells = spec.cells()
    cached: dict[str, dict] = {}
    if store is not None:
        exact = store.load_exact(experiment.name, resolved_hash)
        records = [exact] if exact is not None else [
            record
            for record in store.iter_records(experiment.name)
            if _compatible_spec(record, spec_document)
        ]
        wanted = {key for key, _ in cells}
        for record in records:
            for key, cell in record["cells"].items():
                # Error cells are never reused: a re-run after a fix must
                # recompute them.
                if key in wanted and "error" not in cell.get("aggregate", {}):
                    cached.setdefault(key, cell)

    missing = [i for i, (key, _) in enumerate(cells) if key not in cached]

    # Cells that differ only along trial-invariant axes share one kernel
    # run: group by the projected (variant-axes-only) key, compute one
    # representative per group — or lift trials from a cached sibling —
    # and fan the results back out.  With no invariant axes every group is
    # a singleton and this is a no-op.
    invariant = set(experiment.trial_invariant_axes)
    unknown = invariant - set(spec.axis_names)
    if unknown:
        raise ValueError(
            f"trial_invariant_axes name unknown axes: {sorted(unknown)}"
        )
    variant_axes = [axis for axis in spec.axes if axis.name not in invariant]
    groups: dict[tuple, list[int]] = {}
    label_keys: list[str] = []
    for i, (key, params) in enumerate(cells):
        projected = tuple((axis.name, params[axis.name]) for axis in variant_axes)
        groups.setdefault(projected, []).append(i)
        # Trial-stream identity for default seed labels: the invariant axes
        # are stripped so every sibling cell derives the same streams.
        label_keys.append(
            ",".join(f"{name}={format_key_value(value)}" for name, value in projected)
            if projected
            else key
        )

    group_trials: dict[tuple, list] = {}
    representatives: dict[tuple, int] = {}
    for projected, members in groups.items():
        missing_members = [i for i in members if cells[i][0] not in cached]
        if not missing_members:
            continue
        cached_members = [i for i in members if cells[i][0] in cached]
        if cached_members:
            group_trials[projected] = cached[cells[cached_members[0]][0]]["trials"]
        else:
            representatives[projected] = missing_members[0]

    compute_indices = sorted(representatives.values())
    units = [(i, trial) for i in compute_indices for trial in range(resolved_trials)]
    outcomes = stride_map(
        partial(_unit_batch, experiment, cells, label_keys, resolved_seed),
        units,
        n_workers,
    )

    trials_by_cell: dict[int, list] = {i: [] for i in compute_indices}
    for (cell_index, _), result in zip(units, outcomes):
        trials_by_cell[cell_index].append(result)
    for projected, members in groups.items():
        trials = group_trials.get(projected)
        if trials is None and projected in representatives:
            trials = trials_by_cell[representatives[projected]]
        for i in members:
            if cells[i][0] not in cached:
                trials_by_cell[i] = trials

    record_cells: dict[str, dict] = {}
    for i, (key, params) in enumerate(cells):
        if key in cached:
            record_cells[key] = cached[key]
            continue
        trials = trials_by_cell[i]
        axis_params = {name: params[name] for name in spec.axis_names}
        record_cells[key] = {
            "params": axis_params,
            "trials": trials,
            "aggregate": _aggregate_cell(experiment, params, resolved_seed, trials),
        }

    record = {
        "schema_version": STORE_SCHEMA_VERSION,
        "experiment": experiment.name,
        "description": experiment.description,
        "spec": spec_document["spec"],
        "n_trials": resolved_trials,
        "seed": resolved_seed,
        "spec_hash": resolved_hash,
        "cells": record_cells,
    }

    path = store.save(record) if store is not None else None
    return RunOutcome(
        experiment=experiment,
        spec=spec,
        record=record,
        path=path,
        n_cells_computed=len(compute_indices),
        n_cells_cached=len(cells) - len(missing),
    )


# -- rendering ----------------------------------------------------------------


def _lookup(column: Column, aggregate: Mapping, params: Mapping, fixed: Mapping):
    for mapping in (aggregate, params, fixed):
        if column.source in mapping:
            value = mapping[column.source]
            return column.none_text if value is None else value
    return ""


def _iter_report_rows(experiment: Experiment, record: Mapping):
    """Yield one ``(key, values, error)`` triple per persisted cell, in order.

    ``values`` holds the experiment's column values looked up in the cell's
    aggregate, its axis params, then the spec's fixed parameters; for an
    error cell the aggregate is withheld, so metric columns come back as
    ``""`` while real axis values — including falsy ones like 0 — keep the
    failed cell's coordinates readable.  ``error`` is the structured
    failure text (None for healthy cells).  The table and CSV renderers
    share this traversal so the two formats cannot drift apart.
    """
    spec = SweepSpec.from_dict(record["spec"])
    for key, _params in spec.cells():
        cell = record["cells"].get(key)
        if cell is None:
            continue
        aggregate = cell.get("aggregate", {})
        error = aggregate["error"] if "error" in aggregate else None
        values = [
            _lookup(column, {} if error is not None else aggregate,
                    cell.get("params", {}), spec.fixed)
            for column in experiment.columns
        ]
        yield key, values, error


def render_run(experiment: Experiment, record: Mapping) -> str:
    """Render a (possibly reloaded) run record as the experiment's table."""
    headers = [column.header for column in experiment.columns]
    rows = []
    errors = []
    for key, values, error in _iter_report_rows(experiment, record):
        if error is not None:
            errors.append(f"{key}: {error}")
            # Only lookup *misses* (metrics that never got computed) become
            # the ERR marker.
            rows.append(["ERR" if value == "" else value for value in values])
        else:
            rows.append(values)
    table = render_table(headers, rows)
    if errors:
        table += "\n\nfailed cells:\n" + "\n".join(f"  {line}" for line in errors)
    return table


def render_run_csv(experiment: Experiment, record: Mapping) -> str:
    """Render a (possibly reloaded) run record as CSV.

    Cells whose aggregate is a structured ``{"error": ...}`` record are not
    omitted: they become a row carrying the cell's axis coordinates, empty
    metric fields, and a ``note`` marker referencing a footnote line
    (``# [n] <cell>: <error>``) appended after the data — so downstream
    tooling sees every grid point and humans see why one is blank.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([column.header for column in experiment.columns] + ["note"])
    footnotes: list[str] = []
    for key, values, error in _iter_report_rows(experiment, record):
        if error is not None:
            footnotes.append(f"[{len(footnotes) + 1}] {key}: {error}")
            writer.writerow(values + [f"[{len(footnotes)}]"])
        else:
            writer.writerow(values + [""])
    text = buffer.getvalue()
    if footnotes:
        text += "".join(f"# {line}\n" for line in footnotes)
    return text


def render_run_plot(experiment: Experiment, record: Mapping) -> str | None:
    """Render the experiment's declarative ASCII plot, if it defines one."""
    plot = experiment.plot
    if plot is None:
        return None
    spec = SweepSpec.from_dict(record["spec"])
    x_axis = spec.axis(plot.x)
    if len(x_axis.values) < 2:
        return None
    series_values: Sequence = (None,)
    if plot.series is not None:
        series_values = spec.axis(plot.series).values
    curves: dict[str, list[float]] = {}
    for series_value in series_values:
        label = plot.y if series_value is None else f"{plot.series}={series_value}"
        points = []
        for key, params in spec.cells():
            if series_value is not None and params[plot.series] != series_value:
                continue
            cell = record["cells"].get(key)
            if cell is None:
                return None
            aggregate = cell.get("aggregate", {})
            if "error" in aggregate or plot.y not in aggregate:
                return None
            points.append((params[plot.x], float(aggregate[plot.y])))
        # Average duplicates from axes the plot does not show.
        by_x: dict[float, list[float]] = {}
        for x, y in points:
            by_x.setdefault(float(x), []).append(y)
        curves[label] = [mean(by_x[float(x)]) for x in x_axis.values]
    return ascii_plot(
        [float(x) for x in x_axis.values],
        curves,
        x_label=plot.x_label or plot.x,
        y_label=plot.y_label or plot.y,
        connect=True,
    )


# -- catalog ------------------------------------------------------------------


def catalog() -> str:
    """Plain-text experiment catalog for ``repro list``."""
    lines = []
    for name in names():
        experiment = _REGISTRY[name]
        axes = ", ".join(
            f"{axis.name}[{len(axis.values)}]" for axis in experiment.spec.axes
        ) or "(single cell)"
        lines.append(f"{name:<20} {experiment.description}")
        lines.append(f"{'':<20}   axes: {axes}; trials/cell: {experiment.n_trials}")
    return "\n".join(lines)


def catalog_markdown() -> str:
    """Markdown experiment catalog (the README's "Experiments catalog")."""
    lines = [
        "| Experiment | Description | Axes | Trials/cell |",
        "| --- | --- | --- | --- |",
    ]
    for name in names():
        experiment = _REGISTRY[name]
        axes = ", ".join(
            f"`{axis.name}`={list(axis.values)!r}" if len(axis.values) <= 4
            else f"`{axis.name}` ({len(axis.values)} values)"
            for axis in experiment.spec.axes
        ) or "—"
        axes = axes.replace("|", "\\|")
        lines.append(
            f"| `{name}` | {experiment.description} | {axes} | {experiment.n_trials} |"
        )
    return "\n".join(lines)
