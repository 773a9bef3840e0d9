"""Shared fixtures for the benchmark harness.

Every benchmark module times one layer of the stack (codec kernels,
sessions, registry sweeps, the MAC cell, the serve reactor, city networks,
network coding) and reports a summary table through the session-scoped
``reporter`` fixture.  Tables are printed to stdout (visible with
``pytest benchmarks/bench_<name>.py --benchmark-only -s``) **and** written to
``benchmark_tables.txt`` at the repository root.  The paper's figures and
claims are registry experiments, regenerated with ``repro run`` (README,
"Unified experiment registry" and "Experiments catalog").

The pytest-benchmark fixture wraps each benchmark's computational kernel,
so the harness doubles as a performance regression test.  Fidelity knobs
(environment variables) are documented in ``_bench_utils.py``.
"""

from __future__ import annotations

import pathlib

import pytest

_TABLES_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmark_tables.txt"


class _Reporter:
    """Collects, prints, and persists the tables produced by benchmarks."""

    def __init__(self, output_path: pathlib.Path) -> None:
        self.sections: list[tuple[str, str]] = []
        self.output_path = output_path
        self.output_path.write_text(
            "Tables regenerated by `pytest benchmarks/ --benchmark-only`\n"
            "(one section per benchmark table)\n"
        )

    def add(self, title: str, table: str) -> None:
        self.sections.append((title, table))
        section = f"\n===== {title} =====\n{table}\n"
        print(section)
        with self.output_path.open("a") as handle:
            handle.write(section)


@pytest.fixture(scope="session")
def reporter() -> _Reporter:
    return _Reporter(_TABLES_PATH)
