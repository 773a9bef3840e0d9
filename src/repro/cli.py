"""Command-line interface over the unified experiment registry.

The registry commands work for *every* experiment in
``repro.experiments`` (see ``repro list``):

* ``list``   — enumerate registered experiments (``--markdown`` emits the
  README catalog table);
* ``run``    — run one experiment (or ``--all``) with declarative axis
  overrides (``--set axis=v1,v2``), process fan-out (``--workers/-j``), and
  persistence to a JSON results store (``--out``, default ``results/``);
  re-running a spec resumes from its cached cells, ``--smoke`` shrinks every
  experiment to a seconds-scale configuration;
* ``report`` — re-render the table (``--csv`` for machine-readable output,
  ``--plot`` for an ASCII chart) of a persisted run file without
  recomputing anything; failed cells render as footnoted rows either way.

Eight aliases are argument spellings over the same registry: each turns its
flags into overrides of one experiment and runs it without a store
(``repro run <name>`` persists the same cells).  ``rate``, ``bsc``,
``ldpc`` (``ldpc-rate``) and ``transport`` print the experiment's table
(``--plot`` adds its registry chart); ``figure2`` prints a composite table
(plus one ``ldpc-rate`` run per LDPC baseline with ``--with-ldpc``).  The
soak spellings ``serve-soak`` (the batched serve engine), ``city-soak``
(``--replicas`` of one multi-cell network, one cell each) and ``mesh``
(network coding: two-way relaying, the butterfly or a multicast tree) print
a metric table, or with ``--json`` the cells' stored trials plus wall-clock
fields timed around the run and never stored.  An alias's ``--smoke``
applies the experiment's smoke configuration over the flags it sets.

``run`` and the soak spellings accept ``--telemetry DIR``: the
bit-transparent sink (``repro.obs``) is installed before the simulation is
constructed and a snapshot is exported to ``DIR`` afterwards (JSONL event
stream, Chrome ``trace_event`` timeline, Prometheus text page);
``--telemetry-stream`` also flushes each span to ``DIR/spans.part.jsonl``
as it closes.  ``obs report`` renders a saved JSONL stream as tables and
ASCII histograms; ``obs check`` validates an exported directory.

Every command is a build step (configs or run plan, which validate
themselves; ``run`` and the aliases build every cell's config) and a run
step.  Bad input fails argument parsing or the build, before the first
cell, and is reported as one ``repro <cmd>: error:`` line with exit status
2.  :func:`run` returns the rendered output; :func:`main`, the ``repro``
console script, returns the exit status.  ``--workers/-j N`` fans
Monte-Carlo work out over worker processes with per-unit seeding, so
results are identical for any worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import NoReturn

import numpy as np

from repro.baselines.ldpc_system import FIGURE2_LDPC_CONFIGS
from repro.experiments import registry
from repro.experiments.metrics import crossover_snr
from repro.experiments.registry import (
    render_run,
    render_run_csv,
    render_run_plot,
    resolve_run,
    run_experiment,
)
from repro.utils.asciiplot import ascii_plot
from repro.utils.results import render_table
from repro.utils.store import RunStore, read_run

__all__ = ["build_parser", "main", "run"]


def _add_telemetry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="record counters/histograms/spans and export them to DIR "
        "(telemetry.jsonl, trace.json, metrics.prom); runs are "
        "bit-identical with or without this flag",
    )
    parser.add_argument(
        "--telemetry-stream",
        action="store_true",
        help="stream each span to DIR/spans.part.jsonl the moment it "
        "closes (requires --telemetry; crash-salvageable, and the final "
        "telemetry.jsonl is byte-identical to a buffered run)",
    )


def _add_soak_output_arguments(parser: argparse.ArgumentParser) -> None:
    """``--json`` and telemetry: the output flags every soak spelling takes."""
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON (the CI artifact format)"
    )
    _add_telemetry_argument(parser)


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by every command that drives the Monte-Carlo runner."""
    parser.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        help="worker processes for the Monte-Carlo trials (results are "
        "identical for any worker count)",
    )


def _add_code_arguments(parser, payload_bits: int, k: int, c: int, beam_width: int) -> None:
    """A spinal code's shape and the base seed, at the command's defaults."""
    parser.add_argument("--payload-bits", type=int, default=payload_bits, help="message bits")
    parser.add_argument("--k", type=int, default=k, help="segment size in bits")
    parser.add_argument("--c", type=int, default=c, help="bits per constellation dimension")
    parser.add_argument("--beam-width", "-B", type=int, default=beam_width, help="beam width")
    parser.add_argument("--seed", type=int, default=20111114, help="base random seed")


def _add_common_spinal_arguments(parser: argparse.ArgumentParser) -> None:
    _add_code_arguments(parser, payload_bits=24, k=8, c=10, beam_width=16)
    parser.add_argument("--trials", type=int, default=20, help="Monte-Carlo trials per point")
    parser.add_argument(
        "--puncturing",
        choices=("none", "symbol", "strided", "tail-first"),
        default="tail-first",
        help="puncturing schedule",
    )
    _add_runner_arguments(parser)
    parser.add_argument("--plot", action="store_true", help="also print an ASCII chart")


class _Parser(argparse.ArgumentParser):
    """Report argparse's own errors like every other bad input: one line, exit 2."""

    def error(self, message: str) -> NoReturn:
        _usage_error(self.prog, ValueError(message))


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = _Parser(
        prog="repro", description="Rateless spinal codes (HotNets 2011) — measurement CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="enumerate the registered experiments")
    list_parser.add_argument("--markdown", action="store_true", help="emit the README catalog")

    run_parser = subparsers.add_parser(
        "run", help="run a registered experiment with persisted, resumable results"
    )
    run_parser.add_argument("name", nargs="?", help="experiment name (see `repro list`)")
    run_parser.add_argument("--all", action="store_true", help="run every registered experiment")
    run_parser.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="NAME=V1[,V2...]",
        help="override an axis's values or a fixed parameter (repeatable)",
    )
    run_parser.add_argument("--trials", type=int, default=None, help="trials per grid cell")
    run_parser.add_argument("--seed", type=int, default=None, help="base random seed")
    _add_runner_arguments(run_parser)
    run_parser.add_argument("--out", default="results", help="results-store directory (results/)")
    run_parser.add_argument("--no-save", action="store_true", help="do not persist (no resume)")
    run_parser.add_argument(
        "--smoke", action="store_true", help="run the experiment's seconds-scale smoke config"
    )
    run_parser.add_argument("--plot", action="store_true", help="also print an ASCII chart")
    _add_telemetry_argument(run_parser)

    report = subparsers.add_parser("report", help="re-render a persisted run file")
    report.add_argument("run_file", help="path to a results-store JSON file")
    report.add_argument("--plot", action="store_true", help="also print an ASCII chart")
    report.add_argument(
        "--csv", action="store_true", help="emit CSV (error cells become footnoted rows)"
    )

    rate = subparsers.add_parser("rate", help="spinal rate over AWGN at given SNRs")
    rate.add_argument("snrs", type=float, nargs="+", help="SNR values in dB")
    _add_common_spinal_arguments(rate)

    bsc = subparsers.add_parser("bsc", help="bit-mode spinal rate over a BSC")
    bsc.add_argument("crossovers", type=float, nargs="+", help="crossover probabilities")
    _add_common_spinal_arguments(bsc)

    figure2 = subparsers.add_parser("figure2", help="regenerate a coarse Figure 2")
    figure2.add_argument("--snr-min", type=float, default=-10.0)
    figure2.add_argument("--snr-max", type=float, default=40.0)
    figure2.add_argument("--snr-step", type=float, default=5.0)
    figure2.add_argument("--trials", type=int, default=15)
    _add_runner_arguments(figure2)
    figure2.add_argument("--with-ldpc", action="store_true", help="include the LDPC baselines")
    figure2.add_argument("--ldpc-frames", type=int, default=20)
    figure2.add_argument("--plot", action="store_true")

    transport = subparsers.add_parser(
        "transport", help="measured goodput of the sliding-window ARQ transport"
    )
    transport.add_argument("--snr", type=float, default=8.0, help="first-hop SNR in dB")
    transport.add_argument(
        "--snr-step", type=float, default=-2.0, help="SNR change per extra hop in dB (default -2)"
    )
    transport.add_argument("--hops", type=int, nargs="+", default=[1, 2], help="relay hop counts")
    transport.add_argument(
        "--protocol",
        choices=("go-back-n", "selective-repeat", "both"),
        default="both",
        help="ARQ protocol(s) to sweep",
    )
    transport.add_argument("--window", type=int, nargs="+", default=[1, 2, 4], help="windows")
    transport.add_argument(
        "--ack-delay", type=int, nargs="+", default=[0, 8, 32], help="feedback RTTs in symbols"
    )
    transport.add_argument("--ack-loss", type=float, default=0.0, help="reverse-channel ACK loss")
    transport.add_argument("--packets", type=int, default=8, help="packets per simulation")
    _add_code_arguments(transport, payload_bits=24, k=8, c=10, beam_width=16)
    transport.add_argument("--max-symbols", type=int, default=4096, help="per-packet budget")
    _add_runner_arguments(transport)
    transport.add_argument("--plot", action="store_true", help="also print an ASCII chart")

    serve = subparsers.add_parser(
        "serve-soak", help="N concurrent spinal sessions through the batched decode engine"
    )
    serve.add_argument("--sessions", type=int, default=256, help="total requests to serve")
    serve.add_argument("--in-flight", type=int, default=64, help="backpressure: transmissions")
    serve.add_argument(
        "--arrival-spacing", type=int, default=0, help="request gap in symbol-times (0: all at 0)"
    )
    serve.add_argument("--snr", type=float, default=8.0, help="AWGN SNR in dB")
    _add_code_arguments(serve, payload_bits=16, k=4, c=6, beam_width=8)
    serve.add_argument("--max-symbols", type=int, default=512, help="per-session budget")
    serve.add_argument(
        "--no-batching", action="store_true", help="decode sessions one at a time (the baseline)"
    )
    serve.add_argument("--smoke", action="store_true", help="32 sessions, 16 in flight")
    _add_soak_output_arguments(serve)

    city = subparsers.add_parser(
        "city-soak", help="replicas of one multi-cell SINR network with mobility and handoff"
    )
    city.add_argument("--cells", type=int, default=4, help="base stations in the grid")
    city.add_argument("--users", type=int, default=16, help="mobile users in the city")
    city.add_argument("--packets-per-user", type=int, default=2, help="packets per user")
    city.add_argument("--scheduler", default="round-robin", help="MAC discipline (e.g. max-snr)")
    city.add_argument("--code", default="spinal", help="code family for every uplink")
    city.add_argument(
        "--tier", default="flow", choices=("exact", "flow"), help="bit-exact or calibrated flow"
    )
    city.add_argument("--max-symbols", type=int, default=512, help="per-packet abort budget")
    city.add_argument("--cell-radius", type=float, default=150.0, help="cell radius in meters")
    city.add_argument("--reference-snr", type=float, default=18.0, help="SNR in dB near a tower")
    city.add_argument(
        "--epoch-symbols", type=int, default=128, help="mobility epoch (0 = static users)"
    )
    city.add_argument(
        "--no-interference", action="store_true", help="ignore other-cell transmit activity"
    )
    city.add_argument("--replicas", type=int, default=1, help="seed-independent replicas")
    city.add_argument("--workers", "-j", type=int, default=1, help="replica workers")
    city.add_argument("--seed", type=int, default=20111114, help="base random seed")
    _add_soak_output_arguments(city)

    mesh = subparsers.add_parser(
        "mesh", help="network coding over rateless links: coded vs plain medium uses"
    )
    mesh.add_argument(
        "--topology", choices=("two-way", "butterfly", "tree"), default="two-way"
    )
    mesh.add_argument("--family", default="spinal", help="rateless code family")
    mesh.add_argument("--snr", type=float, default=33.0, help="link SNR in dB")
    mesh.add_argument(
        "--snr-offset", type=float, default=0.0, help="SNR offset of the B link or bottleneck, dB"
    )
    mesh.add_argument("--rounds", type=int, default=4, help="payload exchanges to simulate")
    mesh.add_argument("--depth", type=int, default=2, help="tree depth (topology=tree)")
    mesh.add_argument("--branching", type=int, default=2, help="children per tree node")
    mesh.add_argument("--max-symbols", type=int, default=4096, help="per-stream budget")
    mesh.add_argument("--seed", type=int, default=20111114, help="base random seed")
    mesh.add_argument("--smoke", action="store_true", help="smoke-scale codes")
    mesh.add_argument(
        "--with-af", action="store_true", help="add the two-way amplify-and-forward baseline"
    )
    _add_soak_output_arguments(mesh)

    obs = subparsers.add_parser("obs", help="inspect and validate exported telemetry")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser("report", help="render a telemetry.jsonl stream")
    obs_report.add_argument("jsonl_file", help="path to a telemetry.jsonl export")
    obs_check = obs_sub.add_parser("check", help="validate a telemetry directory")
    obs_check.add_argument("directory", help="directory written by --telemetry")

    ldpc = subparsers.add_parser("ldpc", help="achieved rate of one LDPC configuration")
    ldpc.add_argument("snrs", type=float, nargs="+", help="SNR values in dB")
    ldpc.add_argument("--rate", default="1/2", help="code rate (1/2, 2/3, 3/4, 5/6)")
    ldpc.add_argument(
        "--modulation", choices=("BPSK", "QAM-4", "QAM-16", "QAM-64"), default="QAM-16"
    )
    ldpc.add_argument("--frames", type=int, default=40)
    ldpc.add_argument("--iterations", type=int, default=40)
    ldpc.add_argument("--seed", type=int, default=20111114)

    return parser


# -- telemetry ----------------------------------------------------------------


class _TelemetryScope:
    """Install the live sink for one command, export on success.

    :func:`run` enters the scope between a command's build and run steps,
    *before* the run constructs any engine, network or session: instrumented
    classes capture the process-global sink at construction.  ``note()``
    names the written files, and ``__exit__`` always restores the previous
    sink.  ``stream=True`` spills each span to ``DIR/spans.part.jsonl`` as
    it closes (the export is byte-identical either way) and needs a
    directory.
    """

    def __init__(self, directory: str | None, stream: bool = False) -> None:
        if stream and directory is None:
            raise ValueError("--telemetry-stream requires --telemetry DIR")
        self.directory = directory
        self.stream = stream
        self.telemetry = None
        self._previous = None
        self._paths: dict[str, str] = {}

    def __enter__(self) -> "_TelemetryScope":
        if self.directory is not None:
            from pathlib import Path

            from repro.obs.telemetry import Telemetry, set_current

            if self.stream:
                directory = Path(self.directory)
                directory.mkdir(parents=True, exist_ok=True)
                self.telemetry = Telemetry(span_spill=directory / "spans.part.jsonl")
            else:
                self.telemetry = Telemetry()
            self._previous = set_current(self.telemetry)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.telemetry is not None:
            from repro.obs.exporters import write_all
            from repro.obs.telemetry import set_current

            set_current(self._previous)
            if exc_type is None:
                self._paths = write_all(self.telemetry, self.directory)
            self.telemetry.close()
        return False

    def note(self) -> str:
        if not self._paths:
            return ""
        return "\ntelemetry: " + " ".join(
            str(self._paths[kind]) for kind in ("jsonl", "trace", "prom")
        )


# -- commands -----------------------------------------------------------------
#
# Each command is a build step, ``args -> plan`` (raising on bad input), and
# a run step, ``(args, plan) -> output``.


def _echo(args: argparse.Namespace, text: str) -> str:
    """The run step of a command whose build step already rendered it."""
    return text


def _with_chart(text: str, experiment: registry.Experiment, record) -> str:
    chart = render_run_plot(experiment, record)
    return text + "\n\n" + chart if chart else text


def _metric_table(summary: dict) -> str:
    return render_table(["metric", "value"], list(summary.items()))


def _build_obs(args: argparse.Namespace) -> str:
    if args.obs_command == "report":
        from repro.obs.report import render_report

        return render_report(args.jsonl_file)
    from repro.obs.exporters import validate_directory

    problems = validate_directory(args.directory)
    if len(problems) == 1:
        raise SystemExit(f"telemetry validation failed: {problems[0]}")
    if problems:
        raise SystemExit(
            "telemetry validation failed:\n" + "\n".join(f"  - {p}" for p in problems)
        )
    return f"ok: {args.directory} (telemetry.jsonl, trace.json, metrics.prom)"


# -- registry commands --------------------------------------------------------


def _parse_scalar(current, text: str):
    """Parse one override token using the current value as the type witness."""
    if text.lower() in ("none", "null"):
        return None
    if isinstance(current, bool):
        return text.lower() in ("1", "true", "yes")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if current is None:
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                continue
        return text
    return text


def _parse_overrides(experiment: registry.Experiment, tokens: list[str]) -> dict:
    """Translate ``--set name=v1,v2`` tokens into engine overrides."""
    overrides: dict = {}
    spec = experiment.spec
    for token in tokens:
        name, separator, text = token.partition("=")
        if not separator:
            raise ValueError(f"--set expects NAME=VALUES, got {token!r}")
        if name in spec.axis_names:
            axis = spec.axis(name)
            overrides[name] = tuple(axis.parse(part) for part in text.split(","))
        elif name in spec.fixed:
            current = spec.fixed[name]
            if isinstance(current, (list, tuple)):
                witness = current[0] if current else None
                overrides[name] = tuple(
                    _parse_scalar(witness, part) for part in text.split(",")
                )
            else:
                overrides[name] = _parse_scalar(current, text)
        elif name in ("n_trials", "seed"):
            overrides[name] = int(text)
        else:
            raise ValueError(
                f"unknown parameter {name!r} for experiment {experiment.name!r}; "
                f"valid: {sorted(spec.known_names)}"
            )
    return overrides


def _build_list(args: argparse.Namespace) -> str:
    return registry.catalog_markdown() if args.markdown else registry.catalog()


def _build_run(args: argparse.Namespace) -> list:
    """Return a ``run`` invocation's ``(experiment, overrides)`` pairs.

    Every requested experiment is resolved up front — every cell through its
    experiment's ``cell_config`` — so a bad name, override, trial count or
    cell fails before the first cell is computed.
    """
    if args.all == bool(args.name):
        raise ValueError("run expects exactly one of <name> or --all")
    if args.all and args.sets:
        raise ValueError("--set cannot be combined with --all")
    plan = []
    for name in registry.names() if args.all else [args.name]:
        experiment = registry.get(name)
        overrides = _parse_overrides(experiment, args.sets)
        resolve_run(
            experiment, overrides, n_trials=args.trials, seed=args.seed, smoke=args.smoke
        )
        plan.append((experiment, overrides))
    return plan


def _run_run(args: argparse.Namespace, plan: list) -> str:
    store = None if args.no_save else RunStore(args.out)
    pieces = []
    for experiment, overrides in plan:
        outcome = run_experiment(
            experiment,
            overrides=overrides,
            n_workers=args.workers,
            n_trials=args.trials,
            seed=args.seed,
            store=store,
            smoke=args.smoke,
        )
        text = f"== {experiment.name}: {experiment.description}\n\n" + outcome.table()
        if args.plot:
            text = _with_chart(text, experiment, outcome.record)
        if outcome.path is not None:
            text += (
                f"\n\nsaved: {outcome.path} "
                f"({outcome.n_cells_computed} cells computed, "
                f"{outcome.n_cells_cached} from cache)"
            )
        pieces.append(text)
    return "\n\n".join(pieces)


def _build_report(args: argparse.Namespace) -> str:
    if args.csv and args.plot:
        raise ValueError("--csv cannot be combined with --plot")
    record = read_run(args.run_file)
    experiment = registry.get(record["experiment"])
    if args.csv:
        return render_run_csv(experiment, record)
    header = (
        f"{record['experiment']}: {record.get('description', experiment.description)}\n"
        f"spec hash {record['spec_hash']} · seed {record['seed']} · "
        f"{record['n_trials']} trials/cell\n\n"
    )
    text = header + render_run(experiment, record)
    return _with_chart(text, experiment, record) if args.plot else text


# -- aliases -----------------------------------------------------------------


def _spinal_overrides(args: argparse.Namespace) -> dict:
    return {
        "payload_bits": args.payload_bits,
        "k": args.k,
        "beam_width": args.beam_width,
        "puncturing": args.puncturing,
        "n_trials": args.trials,
        "seed": args.seed,
    }


def _transport_overrides(args: argparse.Namespace) -> dict:
    protocols = (
        ("go-back-n", "selective-repeat") if args.protocol == "both" else (args.protocol,)
    )
    return {
        "hops": tuple(args.hops),
        "protocol": protocols,
        "window": tuple(args.window),
        "ack_delay": tuple(args.ack_delay),
        "payload_bits": args.payload_bits,
        "k": args.k,
        "c": args.c,
        "beam_width": args.beam_width,
        "snr_db": args.snr,
        "snr_step_db": args.snr_step,
        "n_packets": args.packets,
        "ack_loss": args.ack_loss,
        "max_symbols": args.max_symbols,
        "seed": args.seed,
    }


def _serve_soak_overrides(args: argparse.Namespace) -> dict:
    return {
        "n_sessions": args.sessions,
        "max_in_flight": args.in_flight,
        "arrival_spacing": args.arrival_spacing,
        "snr_db": args.snr,
        "payload_bits": args.payload_bits,
        "k": args.k,
        "c": args.c,
        "beam_width": args.beam_width,
        "max_symbols": args.max_symbols,
        "batching": not args.no_batching,
        "seed": args.seed,
    }


#: Most replicas ``city-soak`` runs; every replica is a whole city simulation.
_CITY_SOAK_MAX_REPLICAS = 1000


def _city_soak_overrides(args: argparse.Namespace) -> dict:
    # Check the count before building the axis: a huge one would otherwise
    # materialize that many cells first.
    if args.replicas < 1:
        raise ValueError(f"--replicas must be at least 1, got {args.replicas}")
    if args.replicas > _CITY_SOAK_MAX_REPLICAS:
        raise ValueError(
            f"--replicas {args.replicas} exceeds the cap of {_CITY_SOAK_MAX_REPLICAS} replicas"
        )
    return {
        "replica": tuple(range(args.replicas)),
        "n_cells": args.cells,
        "n_users": args.users,
        "packets_per_user": args.packets_per_user,
        "scheduler": args.scheduler,
        "code": args.code,
        "tier": args.tier,
        "max_symbols": args.max_symbols,
        "cell_radius": args.cell_radius,
        "reference_snr_db": args.reference_snr,
        "epoch_symbols": args.epoch_symbols,
        "interference": not args.no_interference,
        "seed": args.seed,
    }


def _mesh_overrides(args: argparse.Namespace) -> dict:
    return {
        "topology": args.topology,
        "family": args.family,
        "snr_db": args.snr,
        "snr_offset_db": args.snr_offset,
        "rounds": args.rounds,
        "depth": args.depth,
        "branching": args.branching,
        "max_symbols": args.max_symbols,
        "with_af": args.with_af,
        "seed": args.seed,
    }


#: Each alias: its registry experiment and its flags-to-overrides map.
_ALIASES = {
    "rate": (
        "rate",
        lambda args: {**_spinal_overrides(args), "c": args.c, "snr_db": tuple(args.snrs)},
    ),
    "bsc": ("bsc", lambda args: {**_spinal_overrides(args), "p": tuple(args.crossovers)}),
    "ldpc": (
        "ldpc-rate",
        lambda args: {
            "snr_db": tuple(args.snrs),
            "rate": args.rate,
            "modulation": args.modulation,
            "frames": args.frames,
            "iterations": args.iterations,
            "seed": args.seed,
        },
    ),
    "transport": ("transport", _transport_overrides),
    "serve-soak": ("serve-soak", _serve_soak_overrides),
    "city-soak": ("city-soak", _city_soak_overrides),
    "mesh": ("mesh", _mesh_overrides),
}


def _build_alias(args: argparse.Namespace) -> tuple:
    name, overrides_from_args = _ALIASES[args.command]
    experiment = registry.get(name)
    overrides = overrides_from_args(args)
    smoke = getattr(args, "smoke", False)
    if smoke:  # the experiment's smoke configuration wins over the flags it sets
        overrides = {k: v for k, v in overrides.items() if k not in experiment.smoke}
    resolve_run(experiment, overrides, smoke=smoke)
    return experiment, overrides, smoke


def _run_alias(args: argparse.Namespace, plan: tuple) -> str:
    experiment, overrides, smoke = plan
    # ``ldpc`` has neither --workers nor --plot.
    outcome = run_experiment(
        experiment, overrides=overrides, n_workers=getattr(args, "workers", 1), smoke=smoke
    )
    if getattr(args, "plot", False):
        return _with_chart(outcome.table(), experiment, outcome.record)
    return outcome.table()


def _run_soak(args: argparse.Namespace, plan: tuple) -> str:
    """Print a soak spelling's summary: its cells' trials plus wall-clock rates.

    The stored trials keep booleans as booleans; ``elapsed_s`` and the rates
    derived from it are timed here, around the run, and never stored.
    """
    experiment, overrides, smoke = plan
    start = time.perf_counter()
    outcome = run_experiment(
        experiment, overrides=overrides, n_workers=getattr(args, "workers", 1), smoke=smoke
    )
    elapsed = time.perf_counter() - start
    trials = [cell["trials"][0] for _key, _params, cell in outcome.successful_cells()]
    summary = _SOAK_SUMMARIES[args.command](args, trials, elapsed)
    if args.json:
        return json.dumps(summary, indent=2, sort_keys=True)
    # A city's table is its aggregate block; --json adds every replica.
    return _metric_table(summary.get("aggregate", summary))


def _serve_soak_summary(args: argparse.Namespace, trials: list, elapsed: float) -> dict:
    (summary,) = trials
    rate = summary["total_symbols"] / elapsed if elapsed > 0 else 0.0
    return {**summary, "elapsed_s": elapsed, "symbols_per_second": rate}


def _city_soak_summary(args: argparse.Namespace, replicas: list, elapsed: float) -> dict:
    aggregate: dict = {
        "scheduler": args.scheduler,
        "code": args.code,
        "tier": args.tier,
        "n_replicas": len(replicas),
        "elapsed_s": elapsed,
        "users_per_second": len(replicas) * args.users / elapsed if elapsed else 0.0,
    }
    for key, value in replicas[0].items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            aggregate[f"mean_{key}"] = sum(replica[key] for replica in replicas) / len(replicas)
    return {"aggregate": aggregate, "replicas": replicas}


#: Each soak spelling's printed summary, from its cells' trials and the run's wall clock.
_SOAK_SUMMARIES = {
    "serve-soak": _serve_soak_summary,
    "city-soak": _city_soak_summary,
    "mesh": lambda args, trials, elapsed: trials[0],
}


#: Most SNR points ``figure2`` runs; every point is a whole Monte-Carlo cell.
_FIGURE2_MAX_POINTS = 1000


def _build_figure2(args: argparse.Namespace) -> tuple:
    for option, value in (("--snr-min", args.snr_min), ("--snr-max", args.snr_max)):
        if not math.isfinite(value):
            raise ValueError(f"{option} must be a finite number of dB, got {value}")
    if not args.snr_step > 0:
        raise ValueError(f"--snr-step must be positive, got {args.snr_step}")
    if args.snr_min > args.snr_max:
        raise ValueError(
            f"--snr-min ({args.snr_min}) must not exceed --snr-max ({args.snr_max})"
        )
    # Count the points before building the list: a tiny step over a finite
    # range would otherwise ask for an unbounded one.  The 1e-9 slack keeps
    # an --snr-max that float steps land just short of.
    span = (args.snr_max - args.snr_min + 1e-9) / args.snr_step
    if span >= _FIGURE2_MAX_POINTS:
        raise ValueError(
            f"--snr-step {args.snr_step} over [{args.snr_min}, {args.snr_max}] dB "
            f"gives more than the cap of {_FIGURE2_MAX_POINTS} SNR points"
        )
    snrs = [
        round(args.snr_min + index * args.snr_step, 6)
        for index in range(math.floor(span) + 1)
    ]
    spinal = {"snr_db": tuple(snrs), "n_trials": args.trials}
    resolve_run(registry.get("figure2"), spinal)
    ldpc = {}
    if args.with_ldpc:
        for config in FIGURE2_LDPC_CONFIGS:
            ldpc[config.label] = {
                "snr_db": tuple(snrs),
                "rate": str(config.code_rate),
                "modulation": config.modulation,
                "frames": args.ldpc_frames,
            }
            resolve_run(registry.get("ldpc-rate"), ldpc[config.label])
    return snrs, spinal, ldpc


def _run_figure2(args: argparse.Namespace, plan: tuple) -> str:
    snrs, spinal_overrides, ldpc_overrides = plan
    cells = run_experiment(
        registry.get("figure2"), overrides=spinal_overrides, n_workers=args.workers
    ).successful_cells()
    shannon = [cell["aggregate"]["shannon"] for _key, _params, cell in cells]
    fixed_block = [cell["aggregate"]["fixed_block"] for _key, _params, cell in cells]
    spinal = [cell["aggregate"]["rate"] for _key, _params, cell in cells]
    columns = {"Shannon": shannon, "FixedBlk": fixed_block, "Spinal": spinal}
    for label, overrides in ldpc_overrides.items():
        outcome = run_experiment(
            registry.get("ldpc-rate"), overrides=overrides, n_workers=args.workers
        )
        columns[label] = [
            cell["aggregate"]["achieved_rate"]
            for _key, _params, cell in outcome.successful_cells()
        ]
    output = render_table(["SNR(dB)", *columns], zip(snrs, *columns.values()))
    crossover = crossover_snr(np.array(snrs), np.array(spinal), np.array(fixed_block))
    if crossover is not None:
        output += f"\nspinal beats the n=24 fixed-block bound up to {crossover:.1f} dB"
    if args.plot:
        output += "\n\n" + ascii_plot(
            snrs,
            {"Shannon": shannon, "spinal": spinal},
            x_label="SNR (dB)",
            y_label="bits/symbol",
        )
    return output


#: Every command's ``(build, run)`` pair.
_COMMANDS = {
    "list": (_build_list, _echo),
    "run": (_build_run, _run_run),
    "report": (_build_report, _echo),
    "rate": (_build_alias, _run_alias),
    "bsc": (_build_alias, _run_alias),
    "ldpc": (_build_alias, _run_alias),
    "transport": (_build_alias, _run_alias),
    "figure2": (_build_figure2, _run_figure2),
    "serve-soak": (_build_alias, _run_soak),
    "city-soak": (_build_alias, _run_soak),
    "mesh": (_build_alias, _run_soak),
    "obs": (_build_obs, _echo),
}


def _usage_error(prog: str, exc: Exception) -> NoReturn:
    """Report bad input as one ``<prog>: error:`` line and exit 2."""
    if isinstance(exc, OSError):
        message = f"cannot read {exc.filename}: {exc.strerror}"
    else:
        message = exc.args[0]
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2) from None


def run(argv: list[str] | None = None) -> str:
    """Run one command; returns the rendered output (also printed to stdout).

    Bad input fails argument parsing or the command's build step, before
    anything runs, and is reported here for every command: one ``repro
    <cmd>: error:`` line on stderr and exit status 2.
    """
    args = build_parser().parse_args(argv)
    build, execute = _COMMANDS[args.command]
    try:
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise ValueError(f"--workers must be at least 1, got {workers}")
        scope = _TelemetryScope(
            getattr(args, "telemetry", None), stream=getattr(args, "telemetry_stream", False)
        )
        plan = build(args)
    except (ValueError, KeyError, OSError) as exc:
        _usage_error(f"repro {args.command}", exc)
    with scope:
        output = execute(args, plan)
    if not getattr(args, "json", False):
        output += scope.note()
    print(output)
    return output


def main(argv: list[str] | None = None) -> int:
    """The ``repro`` console entry point: run one command, exit status 0."""
    run(argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
