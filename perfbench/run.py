"""The repo benchmark: one command, three workloads, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload relay-fig2 --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's closed loop for ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` runs a fixed number of job
pairs (one untraced, one traced, same inputs) and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (manifest,
per-job work counters, and for traced runs the spans) are written to
``.perfbench_out/`` under the repository root.  The command exits 1 when any
output fails its correctness check and 2 on a usage error.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("relay-fig2", "serve-soak", "city-flow")
#: Either variable silently changes the decoder engine the numbers describe.
GUARDED_ENV = ("REPRO_SPINAL_DECODER", "REPRO_NJIT")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Shortest stretch of consecutive jobs between two reference timings.
STRETCH_S = 2.0
#: What ``reference_s`` takes on the idle 2-core host the bounds were set on;
#: every time is rescaled to a host on which the reference takes this long.
REFERENCE_NOMINAL_S = 0.2


class UsageError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        raise UsageError(f"--seconds must be positive, got {args.seconds}")
    return args


def check_environment() -> None:
    for name in GUARDED_ENV:
        if name in os.environ:
            raise UsageError(f"{name} is set; unset it so the library defaults are measured")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise UsageError(f"no library source at {SRC / 'repro'}; run from a full checkout")


def library_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def manifest(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pin_to_one_cpu() -> None:
    """Keep this process and its probes on one CPU, the one the reference times.

    The shared host slows each of its CPUs independently, so a reference
    timing describes only the CPU it ran on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_s() -> float:
    """Seconds this CPU takes, right now, for a fixed piece of work.

    The work mixes what the workloads do — interpreter-bound heap and dict
    traffic like the event loops, and numpy random draws and cumulative sums
    like the walks and the channel — and calls nothing in ``repro``, so a
    library change cannot move it.  Other tenants of the shared host slow
    it down as they slow the jobs next to it.
    """
    start = time.perf_counter()
    for _ in range(2):
        heap, counts = [], {}
        for i in range(60000):
            heapq.heappush(heap, ((i * 7919) % 1000, i))
            counts[i % 512] = counts.get(i % 512, 0) + i
        while heap:
            heapq.heappop(heap)
        rng = np.random.default_rng(0)
        for _ in range(30):
            walk = rng.standard_normal((1000, 50)).cumsum(axis=1)
            np.clip(walk, -3.0, 3.0, out=walk)
    return time.perf_counter() - start


def host_scale(ref_before: float, ref_after: float) -> float:
    """Factor that rescales a time measured between two reference timings."""
    return REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2)


def measure_setup(workload: str, seed: int, env: dict) -> list[tuple[float, float]]:
    """``setup_s`` samples: interpreter start to the probe's ``ready`` line.

    Each sample is ``(seconds, host scale)``, the scale from reference
    timings just before and after the probe.
    """
    samples = []
    ref_before = reference_s()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        _, err = proc.communicate(timeout=170)
        if proc.returncode != 0 or line.strip() != "ready":
            tail = err.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError(f"set-up probe failed: {tail[0]}")
        ref_after = reference_s()
        samples.append((seconds, host_scale(ref_before, ref_after)))
        ref_before = ref_after
    return samples


def run_job(workload, job):
    """One timed public call; an exception fails every packet of the job.

    Earlier jobs' cyclic garbage is collected first, outside the timing, so
    that neither the call's time nor the peak memory depends on when the
    collector last ran.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        output = workload.call(job)
    except Exception as exc:  # the job boundary: record it and keep going
        seconds = time.perf_counter() - start
        from workloads import JobRecord

        record = JobRecord(job["index"], 0, workload.packets_per_job, 0, seconds=seconds,
                           errors=[f"job {job['index']}: {type(exc).__name__}: {exc}"])
        return None, record
    seconds = time.perf_counter() - start
    record = workload.account(job, output)
    record.seconds = seconds
    return output, record


def closed_loop(workload, state, seconds: float) -> tuple[list, list]:
    """Back-to-back jobs until ``seconds`` have passed (at least one job).

    The jobs are cut into stretches of at least ``STRETCH_S`` seconds of
    timed calls, with a reference timing before the first stretch and after
    each one.  Returns the job records and, per stretch, ``(first job, end
    job, host scale)``.
    """
    records, stretches = [], []
    deadline = time.perf_counter() + seconds
    ref_before = reference_s()
    first, stretch_s = 0, 0.0
    index = 0
    while True:
        job = state.pop("first") if index == 0 else workload.prepare(state, index)
        output, record = run_job(workload, job)
        records.append(record)
        stretch_s += record.seconds
        done = time.perf_counter() >= deadline
        if stretch_s >= STRETCH_S or done:
            ref_after = reference_s()
            stretches.append((first, index + 1, host_scale(ref_before, ref_after)))
            ref_before, first, stretch_s = ref_after, index + 1, 0.0
        # Reference timings stay next to the jobs they describe, so the
        # untimed oracle runs after one and, at a stretch's start, before one.
        if output is not None and index % workload.oracle_stride == 0:
            record.errors += workload.oracle(state, job, output)
            if first == index + 1 and not done:
                ref_before = reference_s()
        del job, output
        index += 1
        if done:
            return records, stretches


def traced_pairs(workload, state, tracer, instrument) -> tuple[list, list, set]:
    """Run each trace job untraced and traced, alternating which goes first.

    Tracing must not change what the library computes, so a job whose work
    counters differ between the two runs is failed.
    """
    plain, traced, missing = [], [], set()
    for index in range(workload.trace_jobs):
        by_mode = {}
        for mode in ((False, True) if index % 2 == 0 else (True, False)):
            job = workload.prepare(state, index)
            installed = None
            if mode:
                tracer.job = index
                installed = instrument(tracer)
                missing.update(installed.missing)
            try:
                _, record = run_job(workload, job)
            finally:
                if installed is not None:
                    installed.undo()
            by_mode[mode] = record
            del job
        if by_mode[False].work != by_mode[True].work:
            by_mode[True].errors.append(f"job {index}: work counters differ with tracing on")
        plain.append(by_mode[False])
        traced.append(by_mode[True])
    return plain, traced, missing


def failures(records) -> int:
    return sum(min(r.attempted, r.attempted - r.ok + len(r.errors)) for r in records)


def rescaled_rate(records, stretches, amount) -> float:
    """``amount`` per second of timed calls, each stretch's time host-rescaled.

    Other tenants of the shared host slow its CPU by up to a factor of two,
    in spells of seconds to minutes; the reference timings on either side of
    a stretch slow down with it, so the rescaled rate repeats across runs
    where the raw one does not.
    """
    seconds = sum(
        sum(r.seconds for r in records[first:end]) * scale for first, end, scale in stretches
    )
    return sum(amount(r) for r in records) / seconds


def end_to_end(records, stretches, setup_samples) -> dict:
    return {
        "setup_s": (statistics.median(s * scale for s, scale in setup_samples), "s"),
        "symbols_per_s": (rescaled_rate(records, stretches, lambda r: r.symbols), "symbols/s"),
        "packets_per_s": (rescaled_rate(records, stretches, lambda r: r.ok), "packets/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(args, workload, state, env) -> tuple[dict, list, list, list]:
    """Per-layer metrics, the job records, idle-layer flags and the spans."""
    from tracing import IDLE_LAYERS, Instrumentation, Tracer, import_times, layer_metrics

    imports = import_times(ROOT, env)
    tracer = Tracer()
    plain, traced, missing = traced_pairs(workload, state, tracer, Instrumentation)
    traced_s = sum(r.seconds for r in traced)
    plain_s = sum(r.seconds for r in plain)
    busy = [layer for layer in IDLE_LAYERS[args.workload] if tracer.calls[layer]]
    metrics = {name: (value, "s") for name, value in imports.items()}
    metrics["net.fastpath.calibrate_s"] = (state.get("calibrate_s", 0.0), "s")
    metrics["serve.engine.build_s"] = (state["first"].get("build_s", 0.0), "s")
    metrics.update(layer_metrics(tracer))
    metrics["trace.jobs"] = (len(traced), "count")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.unattributed_s"] = (traced_s - tracer.root_s, "s")
    metrics["trace.overhead_frac"] = (1.0 - plain_s / traced_s, "ratio")
    metrics["trace.idle_layers_busy"] = (len(busy), "count")
    metrics["trace.missing_seams"] = (len(missing), "count")
    flags = [f"idle layer {layer} did work on {args.workload}" for layer in busy]
    flags += [f"seam {name} not found; its layer is undercounted" for name in sorted(missing)]
    return metrics, plain + traced, flags, tracer.spans


def write_details(args, info, setup_samples, records, stretches, metrics, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    path = OUT_DIR / f"{stem}.json"
    body = {
        "manifest": info,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "setup_samples": [{"seconds": s, "host_scale": scale} for s, scale in setup_samples],
        "stretches": [{"first_job": a, "end_job": b, "host_scale": scale} for a, b, scale in stretches],
        "jobs": [
            {"index": r.index, "seconds": r.seconds, "attempted": r.attempted, "ok": r.ok,
             "work": r.work, "errors": r.errors}
            for r in records
        ],
    }
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    if spans:
        with gzip.open(OUT_DIR / f"{stem}-spans.jsonl.gz", "wt") as handle:
            handle.write(json.dumps(["id", "parent", "job", "layer", "op", "start", "end"]) + "\n")
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        check_environment()
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = library_env()
    sys.path.insert(0, str(SRC))
    info = manifest(args)
    print("manifest: " + json.dumps(info, sort_keys=True))

    if not args.trace:
        pin_to_one_cpu()
        reference_s()  # warm-up: the first call pays numpy's first-use costs
    try:
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, env)
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        state = workload.setup(args.seed)
    except Exception as exc:  # a library that no longer builds: one line, no result
        print(f"perfbench: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    spans, flags, stretches = [], [], []
    if args.trace:
        metrics, records, flags, spans = per_layer(args, workload, state, env)
    else:
        records, stretches = closed_loop(workload, state, args.seconds)
        metrics = end_to_end(records, stretches, setup_samples)

    attempted = sum(r.attempted for r in records)
    failed = failures(records)
    errors = [e for r in records for e in r.errors]
    details = write_details(args, info, setup_samples, records, stretches, metrics, spans)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    for flag in flags:
        print(f"flag: {flag}")
    print(f"jobs: {len(records)}  attempted: {attempted}  failed: {failed}  "
          f"fail_frac: {failed / attempted:.6g}  details: {details.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    if failed:
        print(f"perfbench: {failed} of {attempted} packets failed; first: "
              f"{(errors or ['undelivered within budget'])[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
