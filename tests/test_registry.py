"""Tests of the unified experiment registry, sweep engine, and results store.

Four contracts are locked down here:

* **completeness** — every experiment module in ``repro.experiments`` is
  registered (a new module cannot be added without a registry entry);
* **smoke** — every registered experiment runs end to end under its tiny
  smoke configuration and renders a table;
* **determinism** — the persisted JSON of a sweep is byte-identical for
  any worker count;
* **resilience** — a kernel that raises produces a structured error cell
  (the sweep continues) instead of an exception killing the run, including
  the ``mean``/``std_error`` empty-input case at the aggregation boundary.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.registry import (
    EXPERIMENT_MODULES,
    Experiment,
    default_aggregate,
    render_run,
    render_run_plot,
    run_experiment,
)
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec, spec_hash
from repro.utils.store import RunStore, read_run

# -- spec ---------------------------------------------------------------------


class TestAxis:
    def test_coerces_values_to_kind(self):
        axis = Axis("snr_db", (0, 10), "float")
        assert axis.values == (0.0, 10.0)
        assert all(isinstance(v, float) for v in axis.values)
        # inf is the noiseless limit; NaN is no SNR at all.
        assert axis.parse("inf") == float("inf")
        with pytest.raises(ValueError, match="NaN is not a value"):
            axis.parse("nan")

    def test_optional_axis_admits_none(self):
        axis = Axis("adc_bits", (4, None), "int", optional=True)
        assert axis.values == (4, None)
        assert axis.parse("none") is None
        assert axis.parse("8") == 8

    def test_non_optional_rejects_none(self):
        with pytest.raises(ValueError, match="does not admit None"):
            Axis("k", (4, None), "int")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            Axis("x", (1,), "complex")

    def test_round_trips_through_dict(self):
        axis = Axis("schedule", ("none", "tail-first"), "str")
        assert Axis.from_dict(axis.to_dict()) == axis


class TestSweepSpec:
    def _spec(self) -> SweepSpec:
        return SweepSpec(
            axes=(
                Axis("schedule", ("none", "tail-first"), "str"),
                Axis("snr_db", (10.0, 20.0), "float"),
            ),
            fixed={"k": 4, "beam_width": 8},
        )

    def test_cells_expand_in_report_order(self):
        keys = [key for key, _ in self._spec().cells()]
        assert keys == [
            "schedule=none,snr_db=10.0",
            "schedule=none,snr_db=20.0",
            "schedule=tail-first,snr_db=10.0",
            "schedule=tail-first,snr_db=20.0",
        ]

    def test_cells_merge_fixed_parameters(self):
        _key, params = self._spec().cells()[0]
        assert params == {"k": 4, "beam_width": 8, "schedule": "none", "snr_db": 10.0}

    def test_with_values_overrides_axis_and_fixed(self):
        spec = self._spec().with_values({"snr_db": (5.0,), "k": 8})
        assert spec.axis("snr_db").values == (5.0,)
        assert spec.fixed["k"] == 8
        # Scalars are promoted to single-value axes.
        spec = self._spec().with_values({"snr_db": 5})
        assert spec.axis("snr_db").values == (5.0,)

    def test_with_values_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown parameter"):
            self._spec().with_values({"bogus": 1})

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            SweepSpec(axes=(), fixed={"seed": 1})
        with pytest.raises(ValueError, match="reserved"):
            SweepSpec(axes=(Axis("n_trials", (1,), "int"),))

    def test_axis_fixed_overlap_rejected(self):
        with pytest.raises(ValueError, match="both axis and fixed"):
            SweepSpec(axes=(Axis("k", (4,), "int"),), fixed={"k": 8})

    def test_empty_axes_single_cell(self):
        spec = SweepSpec(axes=(), fixed={"n_samples": 10})
        assert spec.cells() == [("all", {"n_samples": 10})]

    def test_round_trips_through_dict(self):
        spec = self._spec()
        assert SweepSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


class TestSpecHash:
    def test_stable_and_sensitive(self):
        spec = SweepSpec(axes=(Axis("snr_db", (10.0,), "float"),), fixed={"k": 4})
        base = spec_hash("rate", spec, n_trials=5, seed=1)
        assert base == spec_hash("rate", spec, n_trials=5, seed=1)
        assert base != spec_hash("rate", spec, n_trials=6, seed=1)
        assert base != spec_hash("rate", spec, n_trials=5, seed=2)
        assert base != spec_hash("bsc", spec, n_trials=5, seed=1)
        wider = spec.with_values({"snr_db": (10.0, 20.0)})
        assert base != spec_hash("rate", wider, n_trials=5, seed=1)

    def test_equivalent_value_spellings_hash_identically(self):
        a = SweepSpec(axes=(Axis("snr_db", (10,), "float"),))
        b = SweepSpec(axes=(Axis("snr_db", (10.0,), "float"),))
        assert spec_hash("rate", a, 5, 1) == spec_hash("rate", b, 5, 1)


# -- registry completeness and smoke ------------------------------------------

_INFRASTRUCTURE_MODULES = {"__init__", "metrics", "registry", "spec"}


class TestRegistryCompleteness:
    def test_every_experiment_module_is_registered(self):
        experiments_dir = (
            Path(__file__).parent.parent / "src" / "repro" / "experiments"
        )
        modules = {
            path.stem
            for path in experiments_dir.glob("*.py")
            if path.stem not in _INFRASTRUCTURE_MODULES
        }
        registered_modules = {
            experiment.module.rsplit(".", 1)[-1]
            for experiment in registry.all_experiments().values()
        }
        missing = modules - registered_modules
        assert not missing, f"experiment modules without a registry entry: {sorted(missing)}"
        # And the loader list matches the on-disk modules.
        listed = {module.rsplit(".", 1)[-1] for module in EXPERIMENT_MODULES}
        assert listed == modules

    def test_names_are_unique_and_descriptive(self):
        experiments = registry.all_experiments()
        assert len(experiments) >= 14
        for name, experiment in experiments.items():
            assert experiment.name == name
            assert experiment.description
            assert experiment.columns

    def test_get_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            registry.get("bogus-experiment")

    def test_double_registration_rejected(self):
        existing = registry.get("rate")
        clone = Experiment(
            name="rate",
            description="imposter",
            spec=SweepSpec(),
            run_point=default_aggregate,
            columns=(Column("x", "x"),),
        )
        with pytest.raises(ValueError, match="already registered"):
            registry.register(clone)
        # Re-registering the identical object is an idempotent no-op.
        assert registry.register(existing) is existing


class TestSmokeAllExperiments:
    @pytest.mark.parametrize("name", sorted(registry.all_experiments()))
    def test_smoke_run_renders_and_persists(self, name, tmp_path):
        experiment = registry.get(name)
        store = RunStore(tmp_path)
        outcome = run_experiment(experiment, store=store, smoke=True)
        assert outcome.path is not None and outcome.path.exists()
        record = read_run(outcome.path)
        assert record["experiment"] == name
        assert record["cells"]
        for cell in record["cells"].values():
            assert "error" not in cell["aggregate"], cell["aggregate"]
        table = outcome.table()
        for column in experiment.columns:
            assert column.header in table
        # The persisted record re-renders identically without recomputation.
        assert render_run(experiment, record) == table


# -- determinism, caching, resume ---------------------------------------------

_RATE_OVERRIDES = {
    "snr_db": (5.0, 10.0),
    "payload_bits": 16,
    "k": 4,
    "c": 6,
    "beam_width": 8,
}


def _run_rate(store: RunStore, n_workers: int = 1, **kwargs):
    return run_experiment(
        registry.get("rate"),
        overrides=dict(_RATE_OVERRIDES, **kwargs.pop("overrides", {})),
        n_trials=kwargs.pop("n_trials", 4),
        n_workers=n_workers,
        store=store,
        **kwargs,
    )


class TestDeterminismAndResume:
    def test_worker_count_does_not_change_persisted_bytes(self, tmp_path):
        serial = _run_rate(RunStore(tmp_path / "w1"), n_workers=1)
        parallel = _run_rate(RunStore(tmp_path / "w4"), n_workers=4)
        assert serial.path.read_bytes() == parallel.path.read_bytes()
        assert serial.path.name == parallel.path.name

    def test_rerun_hits_cache_completely(self, tmp_path):
        store = RunStore(tmp_path)
        first = _run_rate(store)
        again = _run_rate(store)
        assert first.n_cells_computed == 2 and first.n_cells_cached == 0
        assert again.n_cells_computed == 0 and again.n_cells_cached == 2
        assert again.record == first.record

    def test_extended_grid_resumes_from_compatible_cells(self, tmp_path):
        store = RunStore(tmp_path)
        _run_rate(store)
        extended = _run_rate(
            store, overrides={"snr_db": (5.0, 10.0, 15.0)}
        )
        assert extended.n_cells_cached == 2
        assert extended.n_cells_computed == 1
        # The reused cells carry the exact same trials.
        fresh = _run_rate(RunStore(tmp_path / "fresh"), overrides={"snr_db": (15.0,)})
        assert (
            extended.record["cells"]["snr_db=15.0"]
            == fresh.record["cells"]["snr_db=15.0"]
        )

    def test_different_fixed_params_do_not_share_cells(self, tmp_path):
        store = RunStore(tmp_path)
        _run_rate(store)
        other = _run_rate(store, overrides={"beam_width": 4})
        assert other.n_cells_cached == 0
        assert other.n_cells_computed == 2

    def test_different_trials_or_seed_do_not_share_cells(self, tmp_path):
        store = RunStore(tmp_path)
        _run_rate(store)
        assert _run_rate(store, n_trials=5).n_cells_cached == 0
        assert _run_rate(store, seed=7).n_cells_cached == 0

    def test_seed_and_trials_change_the_hash(self, tmp_path):
        store = RunStore(tmp_path)
        a = _run_rate(store)
        b = _run_rate(store, seed=7)
        assert a.record["spec_hash"] != b.record["spec_hash"]
        assert a.path != b.path


# -- structured error cells ---------------------------------------------------


def _fragile_point(params, rng):
    if params["x"] >= 10:
        raise ValueError("mean of empty sequence")  # simulated kernel failure
    return {"value": float(params["x"]) + float(rng.random() * 0)}


def _empty_aggregate(params, trials):
    from repro.utils.results import mean

    # Deliberately aggregates an empty list for x == 5: the engine boundary
    # must convert the ValueError into an error record, not crash the sweep.
    values = [t["value"] for t in trials if params["x"] != 5]
    return {"value": mean(values)}


FRAGILE = Experiment(
    name="fragile-test-experiment",
    description="kernel/aggregate failures become structured error cells",
    spec=SweepSpec(axes=(Axis("x", (1, 5, 10), "int"),)),
    run_point=_fragile_point,
    columns=(Column("x", "x"), Column("value", "value")),
    n_trials=2,
    aggregate=_empty_aggregate,
)


class TestStructuredErrorCells:
    def test_failing_cells_do_not_kill_the_sweep(self, tmp_path):
        outcome = run_experiment(FRAGILE, store=RunStore(tmp_path))
        cells = outcome.record["cells"]
        assert "error" not in cells["x=1"]["aggregate"]
        assert cells["x=1"]["aggregate"]["value"] == pytest.approx(1.0)
        # Kernel raised for every trial of x=10: structured error record.
        assert cells["x=10"]["aggregate"]["error"].startswith("ValueError")
        assert cells["x=10"]["aggregate"]["n_failed"] == 2
        # Aggregate itself raised (mean of empty) for x=5: also an error
        # record — the mean/std_error ValueError never escapes the engine.
        assert "mean of empty sequence" in cells["x=5"]["aggregate"]["error"]

    def test_error_cells_render_and_persist(self, tmp_path):
        outcome = run_experiment(FRAGILE, store=RunStore(tmp_path))
        table = outcome.table()
        assert "failed cells" in table
        assert "x=10" in table
        record = read_run(outcome.path)
        assert render_run(FRAGILE, record) == table

    def test_successful_cells_surfaces_the_original_error(self, tmp_path):
        outcome = run_experiment(FRAGILE, store=RunStore(tmp_path))
        with pytest.raises(RuntimeError, match="mean of empty sequence"):
            outcome.successful_cells()

    def test_error_cells_are_recomputed_not_cached(self, tmp_path):
        store = RunStore(tmp_path)
        run_experiment(FRAGILE, store=store)
        again = run_experiment(FRAGILE, store=store)
        # The good cell is reused; both failing cells are retried.
        assert again.n_cells_cached == 1
        assert again.n_cells_computed == 2


# -- trial-invariant axes and trial guards ------------------------------------


class TestTrialSharing:
    def test_feedback_measures_once_per_snr(self, tmp_path):
        """Model cells at one SNR share one set of trials (no 6x recompute)."""
        outcome = run_experiment(
            registry.get("feedback"), store=RunStore(tmp_path), smoke=True
        )
        cells = outcome.record["cells"]
        # Smoke config: 1 SNR x 2 models -> exactly one computed representative.
        assert len(cells) == 2
        assert outcome.n_cells_computed == 1
        (trials_a, trials_b) = [cell["trials"] for cell in cells.values()]
        assert trials_a == trials_b
        # But the aggregates differ — the model axis is priced in aggregate.
        labels = {cell["aggregate"]["model_label"] for cell in cells.values()}
        assert len(labels) == 2

    def test_shared_trials_resume_from_cached_siblings(self, tmp_path):
        store = RunStore(tmp_path)
        run_experiment(registry.get("feedback"), store=store, smoke=True)
        extended = run_experiment(
            registry.get("feedback"),
            overrides={"model": ("perfect", "delayed:2", "delayed:8")},
            store=store,
            smoke=True,
        )
        # The new model cell lifts its trials from a cached sibling: zero
        # kernel work for a pure-aggregate extension.
        assert extended.n_cells_computed == 0
        assert extended.n_cells_cached == 2

    def test_max_trials_guard(self):
        with pytest.raises(ValueError, match="at most 1 trial"):
            run_experiment(registry.get("transport"), n_trials=2, smoke=True)
        with pytest.raises(ValueError, match="at most 1 trial"):
            run_experiment(registry.get("distance"), n_trials=3, smoke=True)

    def test_ldpc_extra_trials_use_independent_streams(self):
        from repro.experiments.ldpc_ablation import ldpc_ablation_seed_labels

        params = {"algorithm": "min-sum", "iterations": 5}
        base = ldpc_ablation_seed_labels(params, 0)
        assert base == ("ldpc-ablation", "min-sum", 5)  # historical stream
        assert ldpc_ablation_seed_labels(params, 1) != base
        assert ldpc_ablation_seed_labels(params, 2) != ldpc_ablation_seed_labels(params, 1)

    def test_unknown_invariant_axis_rejected(self):
        broken = Experiment(
            name="broken-invariant-test",
            description="",
            spec=SweepSpec(axes=(Axis("x", (1,), "int"),)),
            run_point=_fragile_point,
            columns=(Column("x", "x"),),
            trial_invariant_axes=("bogus",),
        )
        with pytest.raises(ValueError, match="unknown axes"):
            run_experiment(broken)


# -- rendering ----------------------------------------------------------------


class TestRendering:
    def test_plot_spec_renders_series(self, tmp_path):
        outcome = _run_rate(RunStore(tmp_path))
        chart = render_run_plot(registry.get("rate"), outcome.record)
        assert chart is not None
        assert "SNR (dB)" in chart and "rate" in chart

    def test_plot_requires_two_x_values(self, tmp_path):
        outcome = _run_rate(RunStore(tmp_path), overrides={"snr_db": (10.0,)})
        assert render_run_plot(registry.get("rate"), outcome.record) is None

    def test_catalog_mentions_every_experiment(self):
        text = registry.catalog()
        markdown = registry.catalog_markdown()
        for name in registry.names():
            assert name in text
            assert f"`{name}`" in markdown


# -- store --------------------------------------------------------------------


class TestRunStore:
    def test_read_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-run.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="schema_version"):
            read_run(path)

    def test_read_rejects_future_schema(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError, match="not supported"):
            read_run(path)

    def test_iter_records_skips_corrupt_files(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = _run_rate(store)
        (tmp_path / "rate-corrupt.json").write_text("{ not json")
        records = list(store.iter_records("rate"))
        assert len(records) == 1
        assert records[0]["spec_hash"] == outcome.record["spec_hash"]

    def test_save_is_deterministic(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = _run_rate(store)
        before = outcome.path.read_bytes()
        store.save(outcome.record)
        assert outcome.path.read_bytes() == before

    @pytest.mark.parametrize("field", ["experiment", "spec", "spec_hash", "cells"])
    def test_read_rejects_record_missing_a_field(self, field, tmp_path):
        outcome = _run_rate(RunStore(tmp_path))
        record = json.loads(outcome.path.read_text())
        del record[field]
        outcome.path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=f"missing {field!r}"):
            read_run(outcome.path)

    def test_load_exact_misses_an_unknown_hash(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = _run_rate(store)
        assert store.load_exact("rate", "0" * 64) is None
        assert store.load_exact("bsc", outcome.record["spec_hash"]) is None

    def test_load_exact_round_trips_the_record(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = _run_rate(store)
        loaded = store.load_exact("rate", outcome.record["spec_hash"])
        assert loaded == json.loads(json.dumps(outcome.record))
        assert [path.name for path in tmp_path.iterdir()] == [outcome.path.name]

    def test_iter_records_skips_other_experiments_sharing_the_prefix(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = _run_rate(store)
        foreign = dict(outcome.record, experiment="rate-foreign")
        assert store.save(foreign).name.startswith("rate-")
        records = list(store.iter_records("rate"))
        assert [record["experiment"] for record in records] == ["rate"]
