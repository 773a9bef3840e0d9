"""Tests for the CLI entry points and the ASCII plot helper."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines.ldpc_system import FIGURE2_LDPC_CONFIGS
from repro.cli import build_parser, main, run
from repro.experiments import get, registry, run_experiment
from repro.experiments.metrics import crossover_snr
from repro.utils.asciiplot import ascii_plot

#: Stands in for a run-store file a test writes first.
STORE_FILE = "<store file>"


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        chart = ascii_plot(
            [0.0, 1.0, 2.0],
            {"capacity": [0.0, 1.0, 2.0], "spinal": [0.0, 0.8, 1.7]},
            x_label="SNR",
            y_label="rate",
        )
        assert "*" in chart and "o" in chart
        assert "capacity" in chart and "spinal" in chart
        assert "SNR" in chart

    def test_constant_series_does_not_crash(self):
        chart = ascii_plot([0.0, 1.0], {"flat": [1.0, 1.0]})
        assert "flat" in chart

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ascii_plot([0.0, 1.0], {"a": [1.0, 2.0]}, width=4)
        with pytest.raises(ValueError):
            ascii_plot([0.0], {"a": [1.0]})
        with pytest.raises(ValueError):
            ascii_plot([0.0, 1.0], {})
        with pytest.raises(ValueError):
            ascii_plot([0.0, 1.0], {"a": [1.0]})


class TestRegistryCommands:
    """The registry-backed ``list`` / ``run`` / ``report`` commands."""

    def test_list_enumerates_experiments(self):
        output = run(["list"])
        for name in ("rate", "figure2", "transport", "k-sweep", "puncturing"):
            assert name in output

    def test_list_markdown_is_a_table(self):
        output = run(["list", "--markdown"])
        assert output.startswith("| Experiment |")
        assert "| `rate` |" in output

    def test_run_smoke_persists_and_reports(self, tmp_path):
        out_dir = str(tmp_path / "results")
        output = run(["run", "rate", "--smoke", "--out", out_dir])
        assert "rate (b/sym)" in output
        assert "1 cells computed, 0 from cache" in output
        run_files = list((tmp_path / "results").glob("rate-*.json"))
        assert len(run_files) == 1
        # Re-running the same spec recomputes nothing.
        again = run(["run", "rate", "--smoke", "--out", out_dir])
        assert "0 cells computed, 1 from cache" in again
        # And the report re-renders the same table from the JSON alone.
        report = run(["report", str(run_files[0])])
        table_lines = [line for line in output.splitlines() if "10.000" in line]
        assert table_lines and all(line in report for line in table_lines)

    def test_run_set_overrides_axis_and_workers_match(self, tmp_path):
        base = [
            "run", "rate", "--smoke", "--set", "snr_db=5,10",
            "--out", str(tmp_path / "a"),
        ]
        serial = run(base)
        parallel = run(
            ["run", "rate", "--smoke", "--set", "snr_db=5,10", "-j", "3",
             "--out", str(tmp_path / "b")]
        )
        strip = lambda text: text.split("saved:")[0]  # noqa: E731
        assert strip(parallel) == strip(serial)
        a_file = next((tmp_path / "a").glob("rate-*.json"))
        b_file = next((tmp_path / "b").glob("rate-*.json"))
        assert a_file.read_bytes() == b_file.read_bytes()

    def test_run_no_save(self, tmp_path):
        output = run(
            ["run", "distance", "--smoke", "--no-save", "--out", str(tmp_path)]
        )
        assert "saved:" not in output
        assert not list(tmp_path.glob("*.json"))

    def test_run_plot(self, tmp_path):
        output = run(
            ["run", "rate", "--smoke", "--set", "snr_db=5,10,15", "--plot",
             "--no-save", "--out", str(tmp_path)]
        )
        assert "SNR (dB)" in output  # chart x label

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run"], "exactly one"),
            (["run", "rate", "--all"], "exactly one"),
            (["run", "nonexistent"], "unknown experiment"),
            (["run", "rate", "--set", "bogus=1"], "unknown parameter"),
            (["run", "rate", "--set", "snr_db=abc"], "could not convert"),
            (["run", "--all", "--set", "k=4"], "cannot be combined"),
            (["run", "rate", "--workers", "0"], "--workers must be at least 1"),
            (["run", "rate", "--trials", "0"], "n_trials must be at least 1"),
            # cell-rateless-vs-adaptive (not the first experiment) allows one trial.
            (["run", "--all", "--trials", "2"], "at most 1 trial"),
            # Each experiment's cell builder rejects a cell no kernel can run.
            (["run", "rate", "--set", "search=ternary"], "unknown search strategy"),
            (["run", "rate", "--set", "k=0"], "k must be in [1, 16], got 0"),
            (["run", "rate", "--set", "beam_width=0"], "beam_width must be at least 1"),
            (["run", "rate", "--set", "payload_bits=-1"], "payload_bits must be at least 1"),
            (["run", "rate", "--set", "adc_bits=0"], "ADC bits must be in [1, 32], got 0"),
            (["run", "transport", "--set", "window=0"], "window sizes must be at least 1"),
            (["run", "cell-scaling", "--set", "n_users=0"], "n_users must be at least 1"),
            (["run", "cell-scaling", "--set", "channel=bogus"], "unknown channel kind"),
            (["run", "city-scaling", "--set", "n_cells=0"], "n_cells must be at least 1"),
            (
                ["run", "network-coding-gain", "--set", "topology=bogus"],
                "unknown topology 'bogus'",
            ),
            (
                ["run", "code-family-matrix", "--set", "budget_factor=0"],
                "budget_factor must be positive and finite, got 0.0",
            ),
            (
                ["run", "code-family-matrix", "--set", "scenario=bogus"],
                "unknown scenario 'bogus'",
            ),
            (
                ["run", "ldpc-rate", "--set", "snr_db=inf"],
                "snr_db must be a finite number of dB, got inf",
            ),
        ],
    )
    def test_run_bad_input_is_one_line_and_exit_2(self, argv, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--smoke", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro run: error: ")
        assert message in err[0]
        # Validation precedes every cell: nothing was computed or persisted.
        assert not list(tmp_path.iterdir())

    def test_a_nan_for_any_numeric_parameter_is_rejected_before_any_cell(
        self, tmp_path, capsys
    ):
        walked = []
        for experiment in registry.all_experiments().values():
            spec = experiment.spec
            names = [axis.name for axis in spec.axes if axis.kind in ("int", "float")]
            names += [
                name
                for name, value in spec.fixed.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            ]
            for name in names:
                out = tmp_path / f"{experiment.name}-{name}"
                argv = ["run", experiment.name, "--smoke", "--set", f"{name}=nan"]
                with pytest.raises(SystemExit) as excinfo:
                    main([*argv, "--out", str(out)])
                err = capsys.readouterr().err.strip().splitlines()
                assert excinfo.value.code == 2, argv
                assert len(err) == 1 and err[0].startswith("repro run: error: "), argv
                assert not out.exists() or not list(out.iterdir()), argv
                walked.append(argv)
        assert walked


class TestParser:
    def test_rate_command_defaults(self):
        args = build_parser().parse_args(["rate", "10"])
        assert args.command == "rate"
        assert args.snrs == [10.0]
        assert args.k == 8 and args.beam_width == 16

    def test_bsc_command(self):
        args = build_parser().parse_args(["bsc", "0.05", "0.1", "--trials", "3"])
        assert args.command == "bsc"
        assert args.crossovers == [0.05, 0.1]
        assert args.trials == 3

    def test_figure2_command(self):
        args = build_parser().parse_args(["figure2", "--snr-step", "10"])
        assert args.snr_step == 10.0

    def test_ldpc_command(self):
        args = build_parser().parse_args(["ldpc", "5", "--rate", "3/4", "--modulation", "QAM-64"])
        assert args.rate == "3/4"
        assert args.modulation == "QAM-64"

    def test_transport_command_defaults(self):
        args = build_parser().parse_args(["transport"])
        assert args.command == "transport"
        assert args.protocol == "both"
        assert args.window == [1, 2, 4]
        assert args.hops == [1, 2]
        assert args.ack_delay == [0, 8, 32]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMainEndToEnd:
    """Run the CLI commands with tiny workloads (they print and return text)."""

    def test_rate(self, capsys):
        output = run(
            [
                "rate", "6", "12",
                "--payload-bits", "16", "--k", "4", "--c", "6",
                "--trials", "3", "--beam-width", "8", "--plot",
            ]
        )
        assert "SNR(dB)" in output and "capacity" in output
        assert "bits/symbol" in output  # the ASCII chart legend
        assert capsys.readouterr().out  # printed something

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rate", "10", "--trials", "0"], "n_trials must be at least 1"),
            (["rate", "10", "--workers", "0"], "--workers must be at least 1"),
            (["bsc", "0.1", "--trials", "0"], "n_trials must be at least 1"),
            (["transport", "--hops", "0"], "hop counts must be at least 1"),
            (["transport", "--window", "0"], "window sizes must be at least 1"),
            (["transport", "--packets", "0"], "n_packets must be at least 1"),
            (["transport", "--max-symbols", "0"], "max_symbols must be at least 1"),
            (["transport", "--ack-delay", "-1"], "ack delays must be non-negative"),
            (["figure2", "--snr-step", "0"], "--snr-step must be positive"),
            (["figure2", "--snr-step", "-5"], "--snr-step must be positive"),
            (["figure2", "--trials", "0"], "n_trials must be at least 1"),
            (
                ["figure2", "--snr-min", "10", "--snr-max", "0"],
                "must not exceed --snr-max",
            ),
            (["rate", "10", "--beam-width", "0"], "beam_width must be at least 1"),
            (["rate", "10", "--payload-bits", "0"], "payload_bits must be at least 1"),
            (["bsc", "1.5"], "crossover probability must be in [0, 0.5]"),
            (["bsc", "-0.1"], "crossover probability must be in [0, 0.5]"),
            (["transport", "--beam-width", "0"], "beam_width must be at least 1"),
            (["report", "/nonexistent.json"], "cannot read /nonexistent.json"),
            (["rate", "nan", "--trials", "2"], "axis 'snr_db': NaN is not a value"),
            (["rate", "10", "--k", "0"], "k must be in [1, 16], got 0"),
            (["rate", "10", "--c", "0"], "c must be in [2, 16], got 0"),
            (["bsc", "0.1", "--k", "0"], "k must be in [1, 16], got 0"),
            (["transport", "--snr", "nan"], "fixed parameter 'snr_db': NaN is not a value"),
            (
                ["transport", "--snr-step", "nan"],
                "fixed parameter 'snr_step_db': NaN is not a value",
            ),
            (["serve-soak", "--snr", "nan"], "fixed parameter 'snr_db': NaN is not a value"),
            (["ldpc", "5", "--frames", "0"], "frames must be at least 1, got 0"),
            (["ldpc", "5", "--rate", "1/7"], "rate must be one of 1/2, 2/3, 3/4, 5/6"),
            (["ldpc", "5", "--iterations", "0"], "iterations must be at least 1, got 0"),
            (["ldpc", "inf"], "snr_db must be a finite number of dB, got inf"),
            (["ldpc", "nan"], "axis 'snr_db': NaN is not a value"),
            (["transport", "--ack-loss", "2"], "ack_loss must be in [0, 1], got 2.0"),
            (["obs", "report", "/nonexistent"], "cannot read /nonexistent"),
            (["city-soak", "--users", "0"], "n_users must be at least 1, got 0"),
            (["mesh", "--snr", "nan"], "fixed parameter 'snr_db': NaN is not a value"),
            (
                ["mesh", "--snr-offset", "nan"],
                "fixed parameter 'snr_offset_db': NaN is not a value",
            ),
            (["mesh", "--snr", "1e308"], "snr_a_db of 1e+308 dB overflows a power ratio"),
            (["mesh", "--max-symbols", "0"], "max_symbols must be at least 1, got 0"),
            (["mesh", "--topology", "tree", "--depth", "0"], "depth must be at least 1, got 0"),
            (
                ["mesh", "--topology", "tree", "--branching", "0"],
                "branching must be at least 1, got 0",
            ),
            (["serve-soak", "--snr", "1e308"], "snr_db of 1e+308 dB overflows a power ratio"),
            (["mesh", "--rounds", "0"], "rounds must be at least 1, got 0"),
            (["mesh", "--family", "bogus"], "unknown code family 'bogus'"),
            (
                ["mesh", "--with-af", "--family", "lt", "--smoke", "--rounds", "1"],
                "code family 'lt' is bit-domain",
            ),
            (
                ["mesh", "--with-af", "--topology", "butterfly", "--smoke"],
                "topology 'butterfly' has none",
            ),
            (["mesh", "--with-af", "--topology", "tree", "--smoke"], "topology 'tree' has none"),
            (
                ["mesh", "--topology", "tree", "--depth", "30", "--smoke", "--rounds", "1"],
                "exceeds the cap of 1024 leaves",
            ),
            (["bsc", "0.6", "--trials", "1"], "crossover probability must be in [0, 0.5]"),
            (["bsc", "nan"], "axis 'p': NaN is not a value"),
            (
                ["serve-soak", "--smoke", "--telemetry-stream"],
                "--telemetry-stream requires --telemetry DIR",
            ),
            (
                ["mesh", "--smoke", "--rounds", "1", "--telemetry-stream"],
                "--telemetry-stream requires --telemetry DIR",
            ),
            (
                ["run", "transport", "--smoke", "--telemetry-stream"],
                "--telemetry-stream requires --telemetry DIR",
            ),
            (
                ["run", "rate", "--smoke", "--set", "snr_db=nan"],
                "axis 'snr_db': NaN is not a value",
            ),
            (
                ["figure2", "--snr-max", "inf", "--trials", "1"],
                "--snr-max must be a finite number of dB, got inf",
            ),
            (
                ["figure2", "--snr-min", "nan", "--snr-max", "0"],
                "--snr-min must be a finite number of dB, got nan",
            ),
            (
                ["figure2", "--snr-step", "1e-300", "--trials", "1"],
                "gives more than the cap of 1000 SNR points",
            ),
            (["report", STORE_FILE, "--csv", "--plot"], "--csv cannot be combined with --plot"),
            # City fields only the kernel used to reject, one error cell each.
            (
                ["run", "city-scaling", "--smoke", "--no-save", "--set", "mobility_step=-1"],
                "mobility_step must be finite and non-negative, got -1.0",
            ),
            (
                ["run", "city-scaling", "--smoke", "--no-save", "--set", "cell_radius=0"],
                "cell_radius must be positive",
            ),
            (
                ["run", "city-scaling", "--smoke", "--no-save", "--set", "reference_snr_db=inf"],
                "reference_snr_db must be finite, got inf",
            ),
            (
                ["run", "city-scaling", "--smoke", "--no-save", "--set", "calibration_samples=0"],
                "calibration_samples must be at least 1, got 0",
            ),
            # argparse's own errors take one line too.
            (
                ["serve-soak", "--arrival-spacing", "nan"],
                "argument --arrival-spacing: invalid int value: 'nan'",
            ),
            (["city-soak", "--cells", "x"], "argument --cells: invalid int value: 'x'"),
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(self, argv, message, tmp_path, capsys):
        if STORE_FILE in argv:
            main(["run", "rate", "--smoke", "--out", str(tmp_path)])
            store_file = str(next(tmp_path.glob("rate-*.json")))
            argv = [store_file if arg == STORE_FILE else arg for arg in argv]
            capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro {argv[0]}: error: ")
        assert message in err[0]

    def test_main_returns_the_exit_status(self, capsys):
        assert main(["list"]) == 0
        assert "serve-soak" in capsys.readouterr().out

    def test_an_unknown_command_is_one_line_and_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: argument command: ")

    def test_figure2_counts_its_snr_points_before_building_them(self, capsys):
        """A 1e-300 dB step over 50 dB is refused without allocating the list."""
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(["figure2", "--snr-min", "-10", "--snr-max", "40",
                      "--snr-step", "1e-300", "--trials", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.code == 2
        assert "cap of 1000 SNR points" in capsys.readouterr().err
        # Parser and message only: a list of even the capped size of points
        # would not fit, let alone the 5e301 this step asks for.
        assert peak < 1_000_000, peak

    def test_obs_report_of_a_malformed_file_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "report", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("repro obs: error: ")

    def test_rate_single_point_skips_plot(self):
        output = run(
            [
                "rate", "12",
                "--payload-bits", "16", "--k", "4", "--c", "6",
                "--trials", "2", "--beam-width", "8", "--plot",
            ]
        )
        assert "SNR(dB)" in output

    def test_bsc(self):
        output = run(
            [
                "bsc", "0.05",
                "--payload-bits", "16", "--k", "4", "--trials", "3", "--beam-width", "8",
            ]
        )
        assert "rate (b/bit)" in output

    def test_rate_with_workers(self):
        base_args = [
            "rate", "10",
            "--payload-bits", "16", "--k", "4", "--c", "6",
            "--trials", "4", "--beam-width", "8",
        ]
        serial = run(base_args)
        parallel = run(base_args + ["--workers", "2"])
        # Worker count is a wall-clock knob only: the rendered measurements
        # must be identical.
        assert parallel == serial

    def test_figure2_without_ldpc(self):
        output = run(
            ["figure2", "--snr-min", "0", "--snr-max", "20", "--snr-step", "10", "--trials", "3"]
        )
        assert "Shannon" in output and "Spinal" in output

    def test_figure2_crossover_line_comes_from_the_registry_cells(self):
        output = run(
            ["figure2", "--snr-min", "0", "--snr-max", "20", "--snr-step", "10", "--trials", "2"]
        )
        cells = run_experiment(
            get("figure2"), overrides={"snr_db": (0.0, 10.0, 20.0)}, n_trials=2
        ).successful_cells()
        crossover = crossover_snr(
            np.array([params["snr_db"] for _key, params, _cell in cells]),
            np.array([cell["aggregate"]["rate"] for _key, _params, cell in cells]),
            np.array([cell["aggregate"]["fixed_block"] for _key, _params, cell in cells]),
        )
        assert crossover is not None
        assert f"fixed-block bound up to {crossover:.1f} dB" in output

    def test_figure2_with_ldpc_adds_one_column_per_baseline(self):
        output = run(
            [
                "figure2", "--snr-min", "0", "--snr-max", "20", "--snr-step", "10",
                "--trials", "2", "--with-ldpc", "--ldpc-frames", "1",
            ]
        )
        header = output.splitlines()[0]
        for config in FIGURE2_LDPC_CONFIGS:
            assert config.label in header
        # One row per SNR; every LDPC column reads a rate, not a footnote.
        rows = output.splitlines()[2:5]
        assert [float(row.split()[0]) for row in rows] == [0.0, 10.0, 20.0]
        assert all(len(row.split()) == 4 + len(FIGURE2_LDPC_CONFIGS) for row in rows)

    def test_figure2_workers_knob(self):
        base = ["figure2", "--snr-min", "10", "--snr-max", "10", "--trials", "2"]
        assert run(base + ["-j", "2"]) == run(base)

    def test_ldpc(self):
        output = run(
            [
                "ldpc", "8",
                "--rate", "1/2", "--modulation", "BPSK",
                "--frames", "4", "--iterations", "10",
            ]
        )
        assert "achieved rate" in output

    def test_transport(self):
        base = [
            "transport",
            "--snr", "10", "--payload-bits", "16", "--k", "4", "--c", "6",
            "--beam-width", "8", "--packets", "3", "--max-symbols", "512",
            "--hops", "1", "2", "--window", "1", "2", "--ack-delay", "0", "6",
            "--protocol", "selective-repeat", "--plot",
        ]
        output = run(base)
        assert "goodput" in output and "selective-repeat" in output
        assert "window size" in output  # the ASCII chart axis label
        # Workers are a wall-clock knob only: rendered output is identical.
        assert run(base + ["--workers", "2"]) == output


    def test_transport_is_one_registry_run(self):
        output = run(
            [
                "transport",
                "--snr", "10", "--payload-bits", "16", "--k", "4", "--c", "6",
                "--beam-width", "8", "--packets", "2", "--max-symbols", "512",
                "--hops", "1", "--window", "1", "2", "--ack-delay", "0",
                "--protocol", "go-back-n",
            ]
        )
        outcome = run_experiment(
            get("transport"),
            overrides={
                "hops": (1,),
                "protocol": ("go-back-n",),
                "window": (1, 2),
                "ack_delay": (0,),
                "payload_bits": 16,
                "k": 4,
                "c": 6,
                "beam_width": 8,
                "snr_db": 10.0,
                "n_packets": 2,
                "max_symbols": 512,
            },
        )
        assert output == outcome.table()


class TestAsciiPlotConnect:
    def test_connect_draws_interpolated_segments(self):
        x = [0.0, 10.0]
        series = {"line": [0.0, 10.0]}
        dots = ascii_plot(x, series)
        connected = ascii_plot(x, series, connect=True)
        assert dots.count("*") == 3  # two data points plus the legend marker
        assert connected.count("*") > 10  # the segment fills the diagonal

    def test_connect_preserves_exact_points_across_series(self):
        x = [0.0, 1.0, 2.0]
        series = {"a": [0.0, 2.0, 0.0], "b": [2.0, 0.0, 2.0]}
        chart = ascii_plot(x, series, connect=True)
        assert "*" in chart and "o" in chart


class TestReportCsv:
    def _run_file(self, tmp_path, *extra):
        out_dir = str(tmp_path / "results")
        main(["run", "rate", "--smoke", *extra, "--out", out_dir])
        return str(next((tmp_path / "results").glob("rate-*.json")))

    def test_csv_round_trips_through_the_csv_module(self, tmp_path):
        import csv as csv_module
        import io

        run_file = self._run_file(tmp_path, "--set", "snr_db=5,10")
        output = run(["report", run_file, "--csv"])
        rows = list(csv_module.reader(io.StringIO(output)))
        assert rows[0] == ["SNR(dB)", "capacity", "rate (b/sym)", "stderr", "note"]
        assert len(rows) == 3
        assert [row[0] for row in rows[1:]] == ["5.0", "10.0"]
        assert all(row[-1] == "" for row in rows[1:])  # no footnotes
        assert float(rows[2][2]) > 0.0

    def test_error_cells_become_footnoted_rows_not_crashes(self, tmp_path):
        # A kernel-level failure (invalid symbol budget) must render as a
        # footnoted row in *both* the table and the CSV — never a crash,
        # never a silently missing grid point.
        run_file = self._run_file(tmp_path, "--set", "max_symbols=-5")
        table = run(["report", run_file])
        assert "failed cells" in table
        assert "max_symbols must be positive" in table
        csv_text = run(["report", run_file, "--csv"])
        lines = csv_text.splitlines()
        assert lines[1].startswith("10.0,")  # the cell's coordinates survive
        assert lines[1].endswith("[1]")  # ...with a footnote marker
        assert lines[2].startswith("# [1] snr_db=10.0:")
        assert "max_symbols must be positive" in lines[2]

    def test_cell_scaling_report_plots_per_scheduler_curves(self, tmp_path):
        out_dir = str(tmp_path / "results")
        main(["run", "cell-scaling", "--smoke", "--out", out_dir])
        run_file = str(next((tmp_path / "results").glob("cell-scaling-*.json")))
        output = run(["report", run_file, "--plot"])
        for name in ("round-robin", "max-snr", "proportional-fair"):
            assert f"scheduler={name}" in output  # one legend entry per curve
        assert "users in the cell" in output
        csv_text = run(["report", run_file, "--csv"])
        assert csv_text.splitlines()[0].startswith("users,scheduler,")


class TestServeSoakCommand:
    def test_table_reports_the_soak_metrics(self):
        output = run(
            ["serve-soak", "--sessions", "12", "--in-flight", "4"]
        )
        for metric in ("symbols_per_tick", "p99_latency", "peak_in_flight"):
            assert metric in output

    def test_json_summary_is_machine_readable(self):
        import json as _json

        output = run(
            ["serve-soak", "--sessions", "8", "--in-flight", "4", "--json"]
        )
        summary = _json.loads(output)
        assert summary["n_sessions"] == 8
        assert summary["peak_in_flight"] <= 4
        assert summary["delivered"] == 8
        assert summary["elapsed_s"] > 0

    def test_no_batching_selects_the_sequential_driver(self):
        import json as _json

        batched = _json.loads(
            run(["serve-soak", "--sessions", "8", "--in-flight", "4", "--json"])
        )
        sequential = _json.loads(
            run(
                ["serve-soak", "--sessions", "8", "--in-flight", "4",
                 "--no-batching", "--json"]
            )
        )
        assert batched["max_batch_sessions"] > 1
        assert sequential["max_batch_sessions"] == 1
        # Same outcomes either way (the determinism contract).
        for key in ("delivered", "total_symbols", "makespan", "p99_latency"):
            assert batched[key] == sequential[key]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "0"],
            ["-B", "0"],
            ["--payload-bits", "0"],
            ["--c", "1"],
            ["--sessions", "0"],
            ["--in-flight", "0"],
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-soak", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro serve-soak: error: ")

    def test_infinite_snr_is_the_noiseless_limit(self):
        import json as _json

        summary = _json.loads(run(["serve-soak", "--snr", "inf", "--smoke", "--json"]))
        assert summary["delivered"] == summary["n_sessions"] > 0


class TestCitySoakCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--cells", "0"],
            ["--replicas", "0"],
            ["--epoch-symbols", "-1"],
            ["--users", "-1"],
            ["--packets-per-user", "0"],
            ["--max-symbols", "0"],
            ["--cell-radius", "-5"],
            ["--scheduler", "bogus"],
            ["--code", "bogus"],
            ["--reference-snr", "nan"],
            ["--reference-snr", "inf"],
            ["--cell-radius", "nan"],
            ["--cell-radius", "inf"],
            ["--workers", "0"],
            ["--workers", "-1"],
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["city-soak", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro city-soak: error: ")


class TestMeshCommand:
    def test_two_way_json_meets_the_saving_claim(self):
        import json as _json

        output = run(["mesh", "--smoke", "--json"])
        summary = _json.loads(output)
        assert summary["topology"] == "two-way"
        assert summary["delivered_coded"] == 1.0
        assert summary["delivered_plain"] == 1.0
        assert summary["coded_uses"] < summary["plain_uses"]
        assert summary["saving"] >= 0.25

    def test_with_af_reports_the_composed_snr(self):
        import json as _json

        summary = _json.loads(run(["mesh", "--smoke", "--with-af", "--json"]))
        assert summary["af_uses"] > 0
        assert summary["af_delivered"] == 1.0
        # Noise accumulates through the relay: strictly below the hop SNR.
        assert summary["af_effective_snr_a_db"] < summary["snr_a_db"]

    def test_tree_topology_table(self):
        output = run(
            ["mesh", "--topology", "tree", "--family", "spinal", "--smoke",
             "--rounds", "1"]
        )
        for key in ("n_leaves", "coded_uses", "plain_uses", "saving"):
            assert key in output

    def test_butterfly_json_halves_the_shared_link(self):
        import json as _json

        summary = _json.loads(
            run(["mesh", "--topology", "butterfly", "--smoke", "--rounds", "1",
                  "--json"])
        )
        assert summary["topology"] == "butterfly"
        assert summary["delivered_coded"] == 1.0
        assert summary["shared_link_saving"] >= 0.4

    def test_telemetry_stream_writes_a_validated_directory(self, tmp_path):
        from repro.obs import validate_directory

        directory = tmp_path / "meshtel"
        main(
            ["mesh", "--smoke", "--rounds", "2", "--json",
             "--telemetry", str(directory), "--telemetry-stream"]
        )
        assert (directory / "spans.part.jsonl").exists()
        assert validate_directory(directory) == []

    def test_stream_without_directory_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mesh", "--smoke", "--json", "--telemetry-stream"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["repro mesh: error: --telemetry-stream requires --telemetry DIR"]
