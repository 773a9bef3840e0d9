"""Tests for the CLI entry points and the ASCII plot helper."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.utils.asciiplot import ascii_plot


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
        output = main(["list"])
        for name in ("rate", "figure2", "transport", "k-sweep", "puncturing"):
            assert name in output

    def test_list_markdown_is_a_table(self):
        output = main(["list", "--markdown"])
        assert output.startswith("| Experiment |")
        assert "| `rate` |" in output

    def test_run_smoke_persists_and_reports(self, tmp_path):
        out_dir = str(tmp_path / "results")
        output = main(["run", "rate", "--smoke", "--out", out_dir])
        assert "rate (b/sym)" in output
        assert "1 cells computed, 0 from cache" in output
        run_files = list((tmp_path / "results").glob("rate-*.json"))
        assert len(run_files) == 1
        # Re-running the same spec recomputes nothing.
        again = main(["run", "rate", "--smoke", "--out", out_dir])
        assert "0 cells computed, 1 from cache" in again
        # And the report re-renders the same table from the JSON alone.
        report = main(["report", str(run_files[0])])
        table_lines = [line for line in output.splitlines() if "10.000" in line]
        assert table_lines and all(line in report for line in table_lines)

    def test_run_set_overrides_axis_and_workers_match(self, tmp_path):
        base = [
            "run", "rate", "--smoke", "--set", "snr_db=5,10",
            "--out", str(tmp_path / "a"),
        ]
        serial = main(base)
        parallel = main(
            ["run", "rate", "--smoke", "--set", "snr_db=5,10", "-j", "3",
             "--out", str(tmp_path / "b")]
        )
        strip = lambda text: text.split("saved:")[0]  # noqa: E731
        assert strip(parallel) == strip(serial)
        a_file = next((tmp_path / "a").glob("rate-*.json"))
        b_file = next((tmp_path / "b").glob("rate-*.json"))
        assert a_file.read_bytes() == b_file.read_bytes()

    def test_run_no_save(self, tmp_path):
        output = main(
            ["run", "distance", "--smoke", "--no-save", "--out", str(tmp_path)]
        )
        assert "saved:" not in output
        assert not list(tmp_path.glob("*.json"))

    def test_run_plot(self, tmp_path):
        output = main(
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

    def test_kernel_errors_are_stored_as_error_cells(self, tmp_path):
        output = main(["run", "rate", "--smoke", "--set", "search=ternary",
                       "--out", str(tmp_path)])
        assert "unknown search strategy" in output
        assert len(list(tmp_path.glob("rate-*.json"))) == 1


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
        output = main(
            [
                "rate", "6", "12",
                "--payload-bits", "16", "--k", "4", "--c", "6",
                "--trials", "3", "--beam-width", "8", "--plot",
            ]
        )
        assert "SNR(dB)" in output and "capacity" in output
        assert "bits/symbol" in output  # the ASCII chart legend
        assert capsys.readouterr().out  # printed something

    def test_rate_single_point_skips_plot(self):
        output = main(
            [
                "rate", "12",
                "--payload-bits", "16", "--k", "4", "--c", "6",
                "--trials", "2", "--beam-width", "8", "--plot",
            ]
        )
        assert "SNR(dB)" in output

    def test_bsc(self):
        output = main(
            [
                "bsc", "0.05",
                "--payload-bits", "16", "--k", "4", "--trials", "3", "--beam-width", "8",
            ]
        )
        assert "rate (b/bit)" in output

    def test_rate_with_workers_and_decoder_choice(self):
        base_args = [
            "rate", "10",
            "--payload-bits", "16", "--k", "4", "--c", "6",
            "--trials", "4", "--beam-width", "8",
        ]
        serial = main(base_args)
        parallel = main(base_args + ["--workers", "2"])
        bubble = main(base_args + ["--decoder", "bubble"])
        # Worker count and engine choice are wall-clock knobs only: the
        # rendered measurements must be identical.
        assert parallel == serial
        assert bubble == serial

    def test_figure2_without_ldpc(self):
        output = main(
            ["figure2", "--snr-min", "0", "--snr-max", "20", "--snr-step", "10", "--trials", "3"]
        )
        assert "Shannon" in output and "Spinal" in output

    def test_figure2_decoder_and_workers_knobs(self):
        base = ["figure2", "--snr-min", "10", "--snr-max", "10", "--trials", "2"]
        default = main(base)
        assert main(base + ["--decoder", "bubble"]) == default
        assert main(base + ["-j", "2"]) == default

    def test_ldpc(self):
        output = main(
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
        output = main(base)
        assert "goodput" in output and "selective-repeat" in output
        assert "window size" in output  # the ASCII chart axis label
        # Workers are a wall-clock knob only: rendered output is identical.
        assert main(base + ["--workers", "2"]) == output


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
        output = main(["report", run_file, "--csv"])
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
        table = main(["report", run_file])
        assert "failed cells" in table
        assert "max_symbols must be positive" in table
        csv_text = main(["report", run_file, "--csv"])
        lines = csv_text.splitlines()
        assert lines[1].startswith("10.0,")  # the cell's coordinates survive
        assert lines[1].endswith("[1]")  # ...with a footnote marker
        assert lines[2].startswith("# [1] snr_db=10.0:")
        assert "max_symbols must be positive" in lines[2]

    def test_cell_scaling_report_plots_per_scheduler_curves(self, tmp_path):
        out_dir = str(tmp_path / "results")
        main(["run", "cell-scaling", "--smoke", "--out", out_dir])
        run_file = str(next((tmp_path / "results").glob("cell-scaling-*.json")))
        output = main(["report", run_file, "--plot"])
        for name in ("round-robin", "max-snr", "proportional-fair"):
            assert f"scheduler={name}" in output  # one legend entry per curve
        assert "users in the cell" in output
        csv_text = main(["report", run_file, "--csv"])
        assert csv_text.splitlines()[0].startswith("users,scheduler,")


class TestServeSoakCommand:
    def test_table_reports_the_soak_metrics(self):
        output = main(
            ["serve-soak", "--sessions", "12", "--in-flight", "4"]
        )
        for metric in ("symbols_per_tick", "p99_latency", "peak_in_flight"):
            assert metric in output

    def test_json_summary_is_machine_readable(self):
        import json as _json

        output = main(
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
            main(["serve-soak", "--sessions", "8", "--in-flight", "4", "--json"])
        )
        sequential = _json.loads(
            main(
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

        output = main(["mesh", "--smoke", "--json"])
        summary = _json.loads(output)
        assert summary["topology"] == "two-way"
        assert summary["delivered_coded"] == 1.0
        assert summary["delivered_plain"] == 1.0
        assert summary["coded_uses"] < summary["plain_uses"]
        assert summary["saving"] >= 0.25

    def test_with_af_reports_the_composed_snr(self):
        import json as _json

        summary = _json.loads(main(["mesh", "--smoke", "--with-af", "--json"]))
        assert summary["af_uses"] > 0
        assert summary["af_delivered"] == 1.0
        # Noise accumulates through the relay: strictly below the hop SNR.
        assert summary["af_effective_snr_a_db"] < summary["snr_a_db"]

    def test_tree_topology_table(self):
        output = main(
            ["mesh", "--topology", "tree", "--family", "spinal", "--smoke",
             "--rounds", "1"]
        )
        for key in ("n_leaves", "coded_uses", "plain_uses", "saving"):
            assert key in output

    def test_butterfly_json_halves_the_shared_link(self):
        import json as _json

        summary = _json.loads(
            main(["mesh", "--topology", "butterfly", "--smoke", "--rounds", "1",
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

    def test_stream_without_directory_is_rejected(self):
        with pytest.raises(ValueError, match="--telemetry-stream"):
            main(["mesh", "--smoke", "--json", "--telemetry-stream"])
