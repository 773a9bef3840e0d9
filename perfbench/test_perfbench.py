"""The benchmark's own checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

The work counters of a job are a pure function of its seed, so they must
repeat exactly across runs and with tracing on; the traced layers' self
times plus the unattributed time must add up to the traced wall-clock; and
the command must refuse to run (exit non-zero, no result line) when the
environment would change the engine or the library source is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import Instrumentation, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def prepared(request):
    workload = WORKLOADS[request.param]
    return workload, workload.setup(SEED)


def _traced_job(workload, state, tracer):
    installed = Instrumentation(tracer)
    try:
        return run.run_job(workload, workload.prepare(state, 0))[1]
    finally:
        installed.undo()


def test_work_counters_repeat_exactly(prepared):
    workload, state = prepared
    plain = run.run_job(workload, workload.prepare(state, 0))[1]
    first, second = Tracer(), Tracer()
    traced = [_traced_job(workload, state, tracer) for tracer in (first, second)]
    assert plain.errors == [] and plain.ok == plain.attempted
    assert plain.work == traced[0].work == traced[1].work
    assert dict(first.counts) == dict(second.counts)
    assert dict(first.calls) == dict(second.calls)


def test_self_times_account_for_wall_clock():
    workload = WORKLOADS["relay-fig2"]
    state = workload.setup(SEED)
    tracer = Tracer()
    record = _traced_job(workload, state, tracer)
    covered = sum(tracer.self_s.values())
    assert covered == pytest.approx(tracer.root_s, rel=1e-9)
    assert 0.0 <= record.seconds - tracer.root_s < 0.01 * record.seconds


def _command(cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relay-fig2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", run.GUARDED_ENV)
def test_engine_environment_is_refused(name):
    proc = _command(ROOT, dict(os.environ, **{name: "1"}))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1 and name in proc.stderr


def test_missing_library_source_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _command(tmp_path, env)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
