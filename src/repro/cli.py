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

The historical commands remain as thin back-compat aliases over the same
registry:

* ``rate``      — measure the spinal rate at one or more AWGN SNRs;
* ``bsc``       — measure the bit-mode spinal rate at one or more crossover
  probabilities;
* ``figure2``   — regenerate a coarse Figure 2 (spinal + bounds, optional LDPC);
* ``ldpc``      — measure one fixed-rate LDPC configuration across SNRs;
* ``transport`` — simulate the sliding-window ARQ transport and report
  measured goodput over the protocol grid.

``serve-soak`` drives the async session service (``repro.serve``): N
concurrent spinal sessions through one event loop with batched decoding and
bounded-admission backpressure, reporting throughput, latency percentiles
and queue metrics (``--json`` emits the machine-readable summary the CI
smoke job archives).

``city-soak`` drives the multi-cell network simulator (``repro.net``): a
grid of SINR-coupled cells with mobile users, hysteresis handoff and a
choice of fidelity tier (bit-exact PHY or the calibrated flow fast path),
optionally fanning seed-independent replicas across worker processes
(``--json`` emits the machine-readable summary the CI smoke job archives).

``mesh`` drives the network-coding subsystem (``repro.netcode`` and the DAG
layer of ``repro.link.topology``): a two-way XOR relay exchange, the
butterfly DAG, or a multicast tree, reporting coded-vs-plain medium uses
(``--json`` emits the machine-readable summary the CI smoke job archives).

``run``, ``serve-soak``, ``city-soak`` and ``mesh`` accept ``--telemetry
DIR``: the bit-transparent sink (``repro.obs``) is installed before the
simulation is constructed and a snapshot is exported to ``DIR`` afterwards
(JSONL event stream, Chrome ``trace_event`` timeline, Prometheus text
page).  Adding ``--telemetry-stream`` flushes each span to
``DIR/spans.part.jsonl`` the moment it closes — crash-salvageable, with a
byte-identical final export.  ``obs report`` renders a saved JSONL stream
as tables and ASCII histograms; ``obs check`` validates the three exporter
files in a directory.

Every command prints a plain-text table (and optionally an ASCII chart), so
the CLI is usable over ssh on a machine with nothing but this package and
numpy/scipy installed.  ``--workers/-j N`` fans Monte-Carlo work out over
worker processes with per-unit seeding, so results are identical for any
worker count.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import registry
from repro.experiments.figure2 import figure2_table
from repro.experiments.registry import (
    render_run,
    render_run_csv,
    render_run_plot,
    resolve_run,
    run_experiment,
)
from repro.experiments.transport_sweep import (
    TransportSweepConfig,
    run_transport_sweep,
    transport_sweep_table,
)
from repro.core.params import SpinalParams
from repro.utils.asciiplot import ascii_plot
from repro.utils.results import render_table
from repro.utils.store import RunStore, read_run

__all__ = ["build_parser", "main"]


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


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by every command that drives the Monte-Carlo runner."""
    parser.add_argument(
        "--decoder",
        choices=("incremental", "vectorized", "bubble"),
        default="incremental",
        help="decoding engine: stateful incremental, whole-beam vectorized, "
        "or from-scratch bubble (identical results, different speed)",
    )
    parser.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        help="worker processes for the Monte-Carlo trials (results are "
        "identical for any worker count)",
    )


def _add_common_spinal_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--payload-bits", type=int, default=24, help="message size in bits")
    parser.add_argument("--k", type=int, default=8, help="segment size in bits")
    parser.add_argument("--c", type=int, default=10, help="bits per constellation dimension")
    parser.add_argument("--beam-width", "-B", type=int, default=16, help="decoder beam width")
    parser.add_argument("--trials", type=int, default=20, help="Monte-Carlo trials per point")
    parser.add_argument("--seed", type=int, default=20111114, help="base random seed")
    parser.add_argument(
        "--puncturing",
        choices=("none", "symbol", "strided", "tail-first"),
        default="tail-first",
        help="puncturing schedule",
    )
    _add_runner_arguments(parser)
    parser.add_argument("--plot", action="store_true", help="also print an ASCII chart")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rateless spinal codes (HotNets 2011) — measurement CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="enumerate the registered experiments"
    )
    list_parser.add_argument(
        "--markdown", action="store_true", help="emit the README catalog table"
    )

    run = subparsers.add_parser(
        "run", help="run a registered experiment with persisted, resumable results"
    )
    run.add_argument("name", nargs="?", help="experiment name (see `repro list`)")
    run.add_argument("--all", action="store_true", help="run every registered experiment")
    run.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="NAME=V1[,V2...]",
        help="override an axis's values or a fixed parameter (repeatable)",
    )
    run.add_argument("--trials", type=int, default=None, help="trials per grid cell")
    run.add_argument("--seed", type=int, default=None, help="base random seed")
    run.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        help="worker processes (results are identical for any count)",
    )
    run.add_argument(
        "--out", default="results", help="results-store directory (default: results/)"
    )
    run.add_argument(
        "--no-save", action="store_true", help="do not persist (disables resume)"
    )
    run.add_argument(
        "--smoke",
        action="store_true",
        help="shrink to the experiment's seconds-scale smoke configuration",
    )
    run.add_argument("--plot", action="store_true", help="also print an ASCII chart")
    _add_telemetry_argument(run)

    report = subparsers.add_parser(
        "report", help="re-render a persisted run file without recomputation"
    )
    report.add_argument("run_file", help="path to a results-store JSON file")
    report.add_argument("--plot", action="store_true", help="also print an ASCII chart")
    report.add_argument(
        "--csv",
        action="store_true",
        help="emit CSV instead of the table (error cells become footnoted rows)",
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
        "transport",
        help="measured goodput of the sliding-window ARQ transport over a relay chain",
    )
    transport.add_argument("--snr", type=float, default=8.0, help="first-hop SNR in dB")
    transport.add_argument(
        "--snr-step",
        type=float,
        default=-2.0,
        help="SNR change per additional hop in dB (default: each hop 2 dB worse)",
    )
    transport.add_argument(
        "--hops", type=int, nargs="+", default=[1, 2], help="relay hop counts to sweep"
    )
    transport.add_argument(
        "--protocol",
        choices=("go-back-n", "selective-repeat", "both"),
        default="both",
        help="ARQ protocol(s) to sweep",
    )
    transport.add_argument(
        "--window", type=int, nargs="+", default=[1, 2, 4], help="sender window sizes"
    )
    transport.add_argument(
        "--ack-delay",
        type=int,
        nargs="+",
        default=[0, 8, 32],
        help="feedback RTTs in symbol-times",
    )
    transport.add_argument(
        "--ack-loss", type=float, default=0.0, help="reverse-channel ACK loss probability"
    )
    transport.add_argument("--packets", type=int, default=8, help="packets per simulation")
    transport.add_argument("--payload-bits", type=int, default=24, help="payload bits per packet")
    transport.add_argument("--k", type=int, default=8, help="segment size in bits")
    transport.add_argument("--c", type=int, default=10, help="bits per constellation dimension")
    transport.add_argument("--beam-width", "-B", type=int, default=16, help="decoder beam width")
    transport.add_argument("--seed", type=int, default=20111114, help="base random seed")
    transport.add_argument(
        "--max-symbols",
        type=int,
        default=4096,
        help="per-packet abort budget in channel uses",
    )
    _add_runner_arguments(transport)
    transport.add_argument("--plot", action="store_true", help="also print an ASCII chart")

    serve = subparsers.add_parser(
        "serve-soak",
        help="soak the async session service: N concurrent spinal sessions "
        "through the batched decode engine",
    )
    serve.add_argument("--sessions", type=int, default=256, help="total requests to serve")
    serve.add_argument(
        "--in-flight",
        type=int,
        default=64,
        help="backpressure bound: concurrent transmissions holding a symbol buffer",
    )
    serve.add_argument(
        "--arrival-spacing",
        type=int,
        default=0,
        help="request inter-arrival gap in symbol-times (0 = all at tick 0)",
    )
    serve.add_argument("--snr", type=float, default=8.0, help="AWGN SNR in dB")
    serve.add_argument("--payload-bits", type=int, default=16, help="message size in bits")
    serve.add_argument("--k", type=int, default=4, help="segment size in bits")
    serve.add_argument("--c", type=int, default=6, help="bits per constellation dimension")
    serve.add_argument("--beam-width", "-B", type=int, default=8, help="decoder beam width")
    serve.add_argument(
        "--max-symbols", type=int, default=512, help="per-session abort budget"
    )
    serve.add_argument("--seed", type=int, default=20111114, help="base random seed")
    serve.add_argument(
        "--no-batching",
        action="store_true",
        help="decode sessions one at a time (the sequential driver the soak "
        "benchmark compares against)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics summary as JSON (the CI artifact format)",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="shrink to a seconds-scale soak (32 sessions, 16 in flight) "
        "for CI smoke jobs",
    )
    _add_telemetry_argument(serve)

    city = subparsers.add_parser(
        "city-soak",
        help="soak the city-scale network simulator: SINR-coupled cells, "
        "mobility, handoff, replicas across workers",
    )
    city.add_argument("--cells", type=int, default=4, help="base stations in the grid")
    city.add_argument("--users", type=int, default=16, help="mobile users in the city")
    city.add_argument(
        "--packets-per-user", type=int, default=2, help="backlogged packets per user"
    )
    city.add_argument(
        "--scheduler",
        type=str,
        default="round-robin",
        help="MAC discipline in every cell (round-robin, max-snr, proportional-fair)",
    )
    city.add_argument(
        "--code", type=str, default="spinal", help="code family for every uplink"
    )
    city.add_argument(
        "--tier",
        type=str,
        default="flow",
        choices=("exact", "flow"),
        help="fidelity tier: bit-exact PHY or calibrated flow fast path",
    )
    city.add_argument(
        "--max-symbols", type=int, default=512, help="per-packet abort budget"
    )
    city.add_argument(
        "--cell-radius", type=float, default=150.0, help="cell radius in meters"
    )
    city.add_argument(
        "--reference-snr",
        type=float,
        default=18.0,
        help="SNR in dB at the reference distance from a tower",
    )
    city.add_argument(
        "--epoch-symbols",
        type=int,
        default=128,
        help="mobility epoch length in symbol-times (0 = static users)",
    )
    city.add_argument(
        "--no-interference",
        action="store_true",
        help="ignore other-cell transmit activity (pure path-loss SNR)",
    )
    city.add_argument(
        "--replicas", type=int, default=1, help="seed-independent replicas of the city"
    )
    city.add_argument(
        "--workers", "-j", type=int, default=1, help="worker processes for replicas"
    )
    city.add_argument("--seed", type=int, default=20111114, help="base random seed")
    city.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics summary as JSON (the CI artifact format)",
    )
    _add_telemetry_argument(city)

    mesh = subparsers.add_parser(
        "mesh",
        help="network coding over rateless links: two-way XOR relaying, the "
        "butterfly DAG, or a multicast tree, with medium-use accounting "
        "against the uncoded baseline",
    )
    mesh.add_argument(
        "--topology",
        choices=("two-way", "butterfly", "tree"),
        default="two-way",
        help="two-way relay exchange, butterfly DAG, or multicast tree",
    )
    mesh.add_argument(
        "--family", type=str, default="spinal", help="rateless code family"
    )
    mesh.add_argument("--snr", type=float, default=33.0, help="link SNR in dB")
    mesh.add_argument(
        "--snr-offset",
        type=float,
        default=0.0,
        help="SNR offset of the weak side (the B link, or the butterfly "
        "bottleneck edge) in dB",
    )
    mesh.add_argument(
        "--rounds", type=int, default=4, help="payload exchanges to simulate"
    )
    mesh.add_argument(
        "--depth", type=int, default=2, help="tree depth (topology=tree)"
    )
    mesh.add_argument(
        "--branching", type=int, default=2, help="children per node (topology=tree)"
    )
    mesh.add_argument(
        "--max-symbols", type=int, default=4096, help="per-stream abort budget"
    )
    mesh.add_argument("--seed", type=int, default=20111114, help="base random seed")
    mesh.add_argument(
        "--smoke", action="store_true", help="smoke-scale codes for CI jobs"
    )
    mesh.add_argument(
        "--with-af",
        action="store_true",
        help="also run the amplify-and-forward two-way baseline "
        "(two-way topology, symbol-domain families only)",
    )
    mesh.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics summary as JSON (the CI artifact format)",
    )
    _add_telemetry_argument(mesh)

    obs = subparsers.add_parser(
        "obs", help="inspect and validate exported telemetry"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render a telemetry.jsonl stream as tables and charts"
    )
    obs_report.add_argument("jsonl_file", help="path to a telemetry.jsonl export")
    obs_check = obs_sub.add_parser(
        "check", help="validate the exporter files in a telemetry directory"
    )
    obs_check.add_argument("directory", help="directory written by --telemetry")

    ldpc = subparsers.add_parser("ldpc", help="achieved rate of one LDPC configuration")
    ldpc.add_argument("snrs", type=float, nargs="+", help="SNR values in dB")
    ldpc.add_argument("--rate", type=str, default="1/2", help="code rate (1/2, 2/3, 3/4, 5/6)")
    ldpc.add_argument(
        "--modulation",
        choices=("BPSK", "QAM-4", "QAM-16", "QAM-64"),
        default="QAM-16",
    )
    ldpc.add_argument("--frames", type=int, default=40)
    ldpc.add_argument("--iterations", type=int, default=40)
    ldpc.add_argument("--seed", type=int, default=20111114)

    return parser


# -- telemetry ----------------------------------------------------------------


class _TelemetryScope:
    """Install the live sink for one command, export on success.

    Installation happens in ``__enter__`` — *before* the command constructs
    any engine/network/session, because instrumented classes capture the
    process-global sink once at construction time.  ``note()`` returns a
    one-line trailer naming the written files (empty when ``--telemetry``
    was not given), and ``__exit__`` always restores the previous sink so
    in-process callers (tests) never leak an enabled registry.

    With ``stream=True`` (``--telemetry-stream``) spans are written to
    ``DIR/spans.part.jsonl`` incrementally as they close instead of being
    buffered; the exported ``telemetry.jsonl`` is byte-identical either
    way, and the spill file is left behind as the crash-salvage artifact.
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


def _command_obs(args: argparse.Namespace) -> str:
    if args.obs_command == "report":
        from repro.obs.report import render_report

        return render_report(args.jsonl_file)
    from repro.obs.exporters import validate_directory

    problems = validate_directory(args.directory)
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


def _command_list(args: argparse.Namespace) -> str:
    registry.load_all()
    return registry.catalog_markdown() if args.markdown else registry.catalog()


def _plan_runs(args: argparse.Namespace) -> list:
    """Validate a ``run`` invocation; return its ``(experiment, overrides)`` pairs.

    Every requested experiment is resolved up front, so a bad name, override,
    worker count or trial count fails before the first cell is computed.
    """
    if args.all == bool(args.name):
        raise ValueError("run expects exactly one of <name> or --all")
    if args.all and args.sets:
        raise ValueError("--set cannot be combined with --all")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    plan = []
    for name in registry.names() if args.all else [args.name]:
        experiment = registry.get(name)
        overrides = _parse_overrides(experiment, args.sets)
        resolve_run(
            experiment, overrides, n_trials=args.trials, seed=args.seed, smoke=args.smoke
        )
        plan.append((experiment, overrides))
    return plan


def _command_run(args: argparse.Namespace) -> str:
    registry.load_all()
    try:
        plan = _plan_runs(args)
    except (ValueError, KeyError) as exc:
        # One line and exit status 2, like argparse's own usage errors.
        print(f"repro run: error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None
    store = None if args.no_save else RunStore(args.out)
    pieces = []
    with _TelemetryScope(args.telemetry, stream=args.telemetry_stream) as scope:
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
                chart = render_run_plot(experiment, outcome.record)
                if chart:
                    text += "\n\n" + chart
            if outcome.path is not None:
                text += (
                    f"\n\nsaved: {outcome.path} "
                    f"({outcome.n_cells_computed} cells computed, "
                    f"{outcome.n_cells_cached} from cache)"
                )
            pieces.append(text)
    return "\n\n".join(pieces) + scope.note()


def _command_report(args: argparse.Namespace) -> str:
    registry.load_all()
    record = read_run(args.run_file)
    experiment = registry.get(record["experiment"])
    if args.csv:
        if args.plot:
            raise ValueError("--csv cannot be combined with --plot")
        return render_run_csv(experiment, record)
    header = (
        f"{record['experiment']}: {record.get('description', experiment.description)}\n"
        f"spec hash {record['spec_hash']} · seed {record['seed']} · "
        f"{record['n_trials']} trials/cell\n\n"
    )
    text = header + render_run(experiment, record)
    if args.plot:
        chart = render_run_plot(experiment, record)
        if chart:
            text += "\n\n" + chart
    return text


# -- back-compat aliases ------------------------------------------------------


def _spinal_overrides_from_args(args: argparse.Namespace, bit_mode: bool) -> dict:
    overrides = {
        "payload_bits": args.payload_bits,
        "k": args.k,
        "beam_width": args.beam_width,
        "puncturing": args.puncturing,
        "decoder": args.decoder,
    }
    if not bit_mode:
        overrides["c"] = args.c
    return overrides


def _command_rate(args: argparse.Namespace) -> str:
    outcome = run_experiment(
        registry.get("rate"),
        overrides={
            **_spinal_overrides_from_args(args, bit_mode=False),
            "snr_db": tuple(float(s) for s in args.snrs),
        },
        n_trials=args.trials,
        seed=args.seed,
        n_workers=args.workers,
    )
    rows = [
        (params["snr_db"], agg["capacity"], agg["rate"], agg["rate_stderr"])
        for _key, params, cell in outcome.successful_cells()
        for agg in (cell["aggregate"],)
    ]
    output = render_table(["SNR(dB)", "capacity", "rate (b/sym)", "stderr"], rows)
    if args.plot and len(args.snrs) >= 2:
        output += "\n\n" + ascii_plot(
            args.snrs,
            {"capacity": [r[1] for r in rows], "spinal": [r[2] for r in rows]},
            x_label="SNR (dB)",
            y_label="bits/symbol",
        )
    return output


def _command_bsc(args: argparse.Namespace) -> str:
    outcome = run_experiment(
        registry.get("bsc"),
        overrides={
            **_spinal_overrides_from_args(args, bit_mode=True),
            "p": tuple(float(p) for p in args.crossovers),
        },
        n_trials=args.trials,
        seed=args.seed,
        n_workers=args.workers,
    )
    rows = [
        (params["p"], agg["capacity"], agg["rate"], agg["rate_stderr"])
        for _key, params, cell in outcome.successful_cells()
        for agg in (cell["aggregate"],)
    ]
    output = render_table(["p", "capacity", "rate (b/bit)", "stderr"], rows)
    if args.plot and len(args.crossovers) >= 2:
        output += "\n\n" + ascii_plot(
            args.crossovers,
            {"capacity": [r[1] for r in rows], "spinal": [r[2] for r in rows]},
            x_label="crossover probability",
            y_label="bits/channel bit",
        )
    return output


def _command_figure2(args: argparse.Namespace) -> str:
    from repro.experiments.runner import SpinalRunConfig

    snrs = []
    snr = args.snr_min
    while snr <= args.snr_max + 1e-9:
        snrs.append(round(snr, 6))
        snr += args.snr_step
    config = SpinalRunConfig(
        n_trials=args.trials, decoder=args.decoder, n_workers=args.workers
    )
    data = figure2_table(
        snr_values_db=snrs,
        spinal_config=config,
        include_ldpc=args.with_ldpc,
        ldpc_frames=args.ldpc_frames,
    )
    output = data.as_table()
    crossover = data.spinal_beats_fixed_block_until_db()
    if crossover is not None:
        output += f"\nspinal beats the n=24 fixed-block bound up to {crossover:.1f} dB"
    if args.plot:
        output += "\n\n" + ascii_plot(
            snrs,
            {
                "Shannon": data.shannon.mean_rates(),
                "spinal": data.spinal.mean_rates(),
            },
            x_label="SNR (dB)",
            y_label="bits/symbol",
        )
    return output


def _command_transport(args: argparse.Namespace) -> str:
    protocols = (
        ("go-back-n", "selective-repeat") if args.protocol == "both" else (args.protocol,)
    )
    config = TransportSweepConfig(
        payload_bits=args.payload_bits,
        params=SpinalParams(k=args.k, c=args.c),
        beam_width=args.beam_width,
        snr_db=args.snr,
        snr_step_db=args.snr_step,
        n_packets=args.packets,
        protocols=protocols,
        windows=tuple(args.window),
        ack_delays=tuple(args.ack_delay),
        hop_counts=tuple(args.hops),
        ack_loss=args.ack_loss,
        max_symbols=args.max_symbols,
        seed=args.seed,
        decoder=args.decoder,
        n_workers=args.workers,
    )
    rows = run_transport_sweep(config)
    output = transport_sweep_table(rows)
    if args.plot and len(config.windows) >= 2:
        # Goodput vs window size, one curve per protocol, at the first
        # (hops, ack delay) grid point — the sweep's headline trade-off.
        hops0, delay0 = config.hop_counts[0], config.ack_delays[0]
        curves = {}
        for protocol in protocols:
            curves[protocol] = [
                row.goodput
                for row in rows
                if row.hops == hops0 and row.protocol == protocol and row.ack_delay == delay0
            ]
        output += "\n\n" + ascii_plot(
            list(config.windows),
            curves,
            x_label=f"window size (hops={hops0}, ack delay={delay0})",
            y_label="goodput",
        )
    return output


def _command_serve_soak(args: argparse.Namespace) -> str:
    import json
    import time

    from repro.serve import SoakConfig, SoakEngine

    n_sessions, max_in_flight = args.sessions, args.in_flight
    if args.smoke:
        n_sessions, max_in_flight = 32, 16
    try:
        config = SoakConfig(
            n_sessions=n_sessions,
            max_in_flight=max_in_flight,
            arrival_spacing=args.arrival_spacing,
            snr_db=args.snr,
            seed=args.seed,
            payload_bits=args.payload_bits,
            k=args.k,
            c=args.c,
            beam_width=args.beam_width,
            max_symbols=args.max_symbols,
            batching=not args.no_batching,
        )
    except ValueError as exc:
        # One line and exit status 2, like argparse's own usage errors.
        print(f"repro serve-soak: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    with _TelemetryScope(args.telemetry, stream=args.telemetry_stream) as scope:
        engine = SoakEngine(config)
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
    summary = result.summary(elapsed_s=elapsed)
    if args.json:
        return json.dumps(summary, indent=2, sort_keys=True)
    rows = [(key, summary[key]) for key in summary]
    return render_table(["metric", "value"], rows) + scope.note()


def _command_city_soak(args: argparse.Namespace) -> str:
    import json
    import time

    from repro.mac.schedulers import make_scheduler
    from repro.net import NetworkConfig, simulate_network_replicas
    from repro.phy.families import code_family

    try:
        config = NetworkConfig(
            n_cells=args.cells,
            n_users=args.users,
            packets_per_user=args.packets_per_user,
            scheduler=args.scheduler,
            code=args.code,
            tier=args.tier,
            seed=args.seed,
            max_symbols=args.max_symbols,
            cell_radius=args.cell_radius,
            reference_snr_db=args.reference_snr,
            epoch_symbols=args.epoch_symbols,
            interference=not args.no_interference,
        )
        # The geometry, scheduler and code family are otherwise first built
        # inside the simulation (possibly in a worker): reject them here.
        config.geometry()
        make_scheduler(config.scheduler)
        code_family(config.code)
        if args.replicas < 1:
            raise ValueError(f"n_replicas must be at least 1, got {args.replicas}")
    except (ValueError, KeyError) as exc:
        # One line and exit status 2, like argparse's own usage errors.
        print(f"repro city-soak: error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None
    with _TelemetryScope(args.telemetry, stream=args.telemetry_stream) as scope:
        start = time.perf_counter()
        replicas = simulate_network_replicas(
            config, args.replicas, n_workers=args.workers
        )
        elapsed = time.perf_counter() - start
    numeric = [
        key
        for key in replicas[0]
        if isinstance(replicas[0][key], (int, float)) and not isinstance(replicas[0][key], bool)
    ]
    aggregate: dict = {
        "scheduler": config.scheduler,
        "code": config.code,
        "tier": config.tier,
        "n_replicas": len(replicas),
        "elapsed_s": elapsed,
        "users_per_second": len(replicas) * config.n_users / elapsed if elapsed else 0.0,
    }
    for key in numeric:
        aggregate[f"mean_{key}"] = sum(replica[key] for replica in replicas) / len(replicas)
    if args.json:
        return json.dumps(
            {"aggregate": aggregate, "replicas": replicas}, indent=2, sort_keys=True
        )
    rows = [(key, aggregate[key]) for key in aggregate]
    return render_table(["metric", "value"], rows) + scope.note()


def _command_mesh(args: argparse.Namespace) -> str:
    import json

    with _TelemetryScope(args.telemetry, stream=args.telemetry_stream) as scope:
        if args.topology == "tree":
            from repro.netcode import MulticastTreeConfig, run_multicast_tree

            result = run_multicast_tree(
                MulticastTreeConfig(
                    family=args.family,
                    depth=args.depth,
                    branching=args.branching,
                    snr_db=args.snr,
                    rounds=args.rounds,
                    seed=args.seed,
                    smoke=args.smoke,
                    max_symbols=args.max_symbols,
                )
            )
            summary = {
                "topology": "tree",
                "family": args.family,
                "snr_db": args.snr,
                "depth": args.depth,
                "branching": args.branching,
                "n_leaves": result.n_leaves,
                "rounds": args.rounds,
                "coded_uses": result.broadcast_total,
                "plain_uses": result.unicast_total,
                "saving": result.medium_use_saving,
                "delivered_coded": result.delivery_rate,
            }
        elif args.topology == "butterfly":
            from repro.experiments.network_coding_gain import _butterfly_point

            summary = {
                "topology": "butterfly",
                "family": args.family,
                "snr_db": args.snr,
                "snr_offset_db": args.snr_offset,
                "rounds": args.rounds,
                **_butterfly_point(
                    {
                        "family": args.family,
                        "snr_db": args.snr,
                        "snr_offset_db": args.snr_offset,
                        "rounds": args.rounds,
                        "seed": args.seed,
                        "smoke_codes": args.smoke,
                        "max_symbols": args.max_symbols,
                    }
                ),
            }
        else:
            from repro.netcode import TwoWayConfig, run_two_way_exchange

            config = TwoWayConfig(
                family=args.family,
                snr_a_db=args.snr,
                snr_b_db=args.snr + args.snr_offset,
                rounds=args.rounds,
                seed=args.seed,
                smoke=args.smoke,
                max_symbols=args.max_symbols,
            )
            result = run_two_way_exchange(config)
            summary = {
                "topology": "two-way",
                "family": args.family,
                "snr_a_db": config.snr_a_db,
                "snr_b_db": config.snr_b_db,
                "rounds": args.rounds,
                "coded_uses": result.xor_total_uses,
                "plain_uses": result.baseline_total_uses,
                "saving": result.medium_use_saving,
                "downlink_saving": result.downlink_saving,
                "delivered_coded": result.xor_delivery_rate,
                "delivered_plain": result.baseline_delivery_rate,
            }
            if args.with_af:
                from repro.netcode import run_two_way_af_exchange

                af = run_two_way_af_exchange(config)
                summary.update(
                    {
                        "af_uses": af.total_uses,
                        "af_effective_snr_a_db": af.effective_snr_a_db,
                        "af_effective_snr_b_db": af.effective_snr_b_db,
                        "af_delivered": af.delivery_rate,
                    }
                )
    if args.json:
        return json.dumps(summary, indent=2, sort_keys=True)
    rows = [(key, summary[key]) for key in summary]
    return render_table(["metric", "value"], rows) + scope.note()


def _command_ldpc(args: argparse.Namespace) -> str:
    outcome = run_experiment(
        registry.get("ldpc-rate"),
        overrides={
            "snr_db": tuple(float(s) for s in args.snrs),
            "rate": args.rate,
            "modulation": args.modulation,
            "frames": args.frames,
            "iterations": args.iterations,
        },
        seed=args.seed,
    )
    rows = [
        (params["snr_db"], agg["nominal_rate"], agg["fer"], agg["achieved_rate"])
        for _key, params, cell in outcome.successful_cells()
        for agg in (cell["aggregate"],)
    ]
    return render_table(
        ["SNR(dB)", "nominal rate", "FER", "achieved rate"], rows
    )


def main(argv: list[str] | None = None) -> str:
    """Entry point; returns the rendered output (also printed to stdout)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "list": _command_list,
        "run": _command_run,
        "report": _command_report,
        "rate": _command_rate,
        "bsc": _command_bsc,
        "figure2": _command_figure2,
        "ldpc": _command_ldpc,
        "transport": _command_transport,
        "serve-soak": _command_serve_soak,
        "city-soak": _command_city_soak,
        "mesh": _command_mesh,
        "obs": _command_obs,
    }
    output = commands[args.command](args)
    print(output)
    return output


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    main()
