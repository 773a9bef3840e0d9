"""Exporters and schema checks for a :class:`~repro.obs.telemetry.Telemetry` snapshot.

Three formats, one snapshot:

* **JSONL** (``telemetry.jsonl``) — one self-describing JSON object per
  line (``kind`` in ``meta`` / ``counter`` / ``gauge`` / ``histogram`` /
  ``span``), the machine-readable event stream ``repro obs report`` renders.
* **Chrome trace** (``trace.json``) — the ``trace_event`` format: every
  span becomes a complete (``"ph": "X"``) event with microsecond wall-clock
  ``ts``/``dur`` and the symbol-time endpoints in ``args``.  Open it at
  ``chrome://tracing`` or https://ui.perfetto.dev.
* **Prometheus text** (``metrics.prom``) — a scrape-style snapshot:
  counters and gauges verbatim, histograms as cumulative ``_bucket{le=}``
  series plus ``_sum`` / ``_count``, names sanitised ``.`` → ``_``.

All three are byte-deterministic given a fixed ``wall_clock`` source on the
``Telemetry`` (entries are emitted in sorted key order; spans in record
order).  The ``validate_*`` functions are the schema checks behind
``repro obs check`` and the CI ``cli-smoke`` job: each returns a list of
human-readable problems, empty when the file conforms.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

__all__ = [
    "JSONL_SCHEMA",
    "span_line",
    "export_jsonl",
    "export_chrome_trace",
    "export_prometheus",
    "write_all",
    "validate_jsonl",
    "validate_chrome_trace",
    "validate_prometheus",
    "validate_directory",
]

#: Schema tag stamped on the JSONL header line; bump on layout changes.
JSONL_SCHEMA = "repro.obs/1"

#: Required keys per JSONL record kind (the validator's contract).
_REQUIRED_KEYS = {
    "meta": {"kind", "schema"},
    "counter": {"kind", "name", "labels", "value"},
    "gauge": {"kind", "name", "labels", "value"},
    "histogram": {"kind", "name", "labels", "buckets", "count", "sum"},
    "span": {"kind", "name", "labels", "ts_us", "dur_us", "t_sym", "t_sym_end"},
}


def _dump(obj: dict) -> str:
    # allow_nan covers the +inf histogram top edge: encode it explicitly.
    return json.dumps(_finitize(obj), sort_keys=True, separators=(",", ":"))


def _finitize(obj):
    """Replace non-finite floats with JSON-safe strings (``"inf"``)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {key: _finitize(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finitize(value) for value in obj]
    return obj


def span_line(span: dict) -> str:
    """The canonical JSONL line for one span record (no trailing newline).

    Single source of truth shared by the buffered exporter and the
    streaming span spill (:class:`~repro.obs.telemetry.Telemetry` with
    ``span_spill=``), which is what makes the two modes byte-identical.
    """
    return _dump({"kind": "span", **span})


def export_jsonl(telemetry, path: str | Path) -> Path:
    """Write the snapshot as one JSON object per line; return the path.

    If ``telemetry`` streams spans to a spill file
    (``telemetry.span_spill_path``), the aggregate lines are emitted from
    memory and the spill is appended verbatim — every spill line is exactly
    :func:`span_line` output, so the result is byte-identical to a buffered
    run's export.
    """
    spill = getattr(telemetry, "span_spill_path", None)
    snapshot = telemetry.aggregates() if spill is not None else telemetry.snapshot()
    lines = [_dump({"kind": "meta", "schema": JSONL_SCHEMA})]
    for kind in ("counter", "gauge", "histogram"):
        for entry in snapshot[kind + "s"]:
            lines.append(_dump({"kind": kind, **entry}))
    path = Path(path)
    if spill is not None:
        telemetry.flush_spans()
        path.write_text("\n".join(lines) + "\n" + Path(spill).read_text())
    else:
        lines.extend(span_line(span) for span in snapshot["spans"])
        path.write_text("\n".join(lines) + "\n")
    return path


def export_chrome_trace(telemetry, path: str | Path) -> Path:
    """Write spans as a Chrome ``trace_event`` timeline; return the path."""
    events = [
        {
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "ts": span["ts_us"],
            "dur": span["dur_us"],
            "pid": 0,
            "tid": 0,
            "args": {
                **span["labels"],
                "t_sym": span["t_sym"],
                "t_sym_end": span["t_sym_end"],
            },
        }
        for span in telemetry.snapshot()["spans"]
    ]
    path = Path(path)
    path.write_text(
        json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )
    return path


def _prom_name(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_labels(labels: dict, extra: dict | None = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(f'{_prom_name(k)}="{v}"' for k, v in sorted(items.items()))
    return "{" + body + "}"


def _prom_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def export_prometheus(telemetry, path: str | Path) -> Path:
    """Write a Prometheus-style text snapshot; return the path."""
    snapshot = telemetry.snapshot()
    out: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            out.append(f"# TYPE {name} {kind}")

    for entry in snapshot["counters"]:
        name = _prom_name(entry["name"])
        type_line(name, "counter")
        out.append(f"{name}{_prom_labels(entry['labels'])} {_prom_value(entry['value'])}")
    for entry in snapshot["gauges"]:
        name = _prom_name(entry["name"])
        type_line(name, "gauge")
        out.append(f"{name}{_prom_labels(entry['labels'])} {_prom_value(entry['value'])}")
    for entry in snapshot["histograms"]:
        name = _prom_name(entry["name"])
        type_line(name, "histogram")
        cumulative = 0
        for bucket in entry["buckets"]:
            cumulative += bucket["count"]
            le = _prom_value(float(bucket["le"]))
            labels = _prom_labels(entry["labels"], {"le": le})
            out.append(f"{name}_bucket{labels} {cumulative}")
        out.append(f"{name}_sum{_prom_labels(entry['labels'])} {_prom_value(entry['sum'])}")
        out.append(f"{name}_count{_prom_labels(entry['labels'])} {entry['count']}")
    path = Path(path)
    path.write_text("\n".join(out) + "\n")
    return path


def write_all(telemetry, directory: str | Path) -> dict[str, Path]:
    """Export every format into ``directory`` (created if missing).

    Returns ``{"jsonl": ..., "trace": ..., "prom": ...}`` — the layout the
    CLI's ``--telemetry <dir>`` flag produces and ``repro obs check``
    validates.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return {
        "jsonl": export_jsonl(telemetry, directory / "telemetry.jsonl"),
        "trace": export_chrome_trace(telemetry, directory / "trace.json"),
        "prom": export_prometheus(telemetry, directory / "metrics.prom"),
    }


# -- schema checks -----------------------------------------------------------
def validate_jsonl(path: str | Path) -> list[str]:
    """Schema-check a ``telemetry.jsonl`` file; return problems (empty = ok)."""
    problems: list[str] = []
    lines = Path(path).read_text().splitlines()
    if not lines:
        return ["file is empty"]
    for i, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {i}: not JSON ({exc})")
            continue
        kind = record.get("kind")
        required = _REQUIRED_KEYS.get(kind)
        if required is None:
            problems.append(f"line {i}: unknown kind {kind!r}")
        elif not required.issubset(record):
            missing = sorted(required - set(record))
            problems.append(f"line {i}: {kind} record missing keys {missing}")
    first = json.loads(lines[0]) if not problems else {}
    if not problems and (
        first.get("kind") != "meta" or first.get("schema") != JSONL_SCHEMA
    ):
        problems.append(f"line 1: expected meta header with schema {JSONL_SCHEMA!r}")
    if not problems and len(lines) == 1:
        problems.append("no records after the meta header")
    return problems


def validate_chrome_trace(path: str | Path) -> list[str]:
    """Schema-check a ``trace.json`` file; return problems (empty = ok)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        return [f"not JSON ({exc})"]
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["missing traceEvents array"]
    problems = []
    for i, event in enumerate(data["traceEvents"]):
        missing = sorted({"name", "ph", "ts", "dur", "pid", "tid"} - set(event))
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
        elif event["ph"] != "X":
            problems.append(f"event {i}: expected complete event ph='X', got {event['ph']!r}")
    return problems


_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ((-|\+)?(Inf|[0-9eE+.-]+))$"
)


def validate_prometheus(path: str | Path) -> list[str]:
    """Schema-check a ``metrics.prom`` file; return problems (empty = ok)."""
    problems = []
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line or line.startswith("# TYPE "):
            continue
        if line.startswith("#"):
            continue  # other comments are legal exposition-format lines
        if not _PROM_LINE.match(line):
            problems.append(f"line {i}: not a valid sample line: {line!r}")
    return problems


def validate_directory(directory: str | Path) -> list[str]:
    """Validate the full ``--telemetry`` output layout in ``directory``."""
    directory = Path(directory)
    checks = {
        "telemetry.jsonl": validate_jsonl,
        "trace.json": validate_chrome_trace,
        "metrics.prom": validate_prometheus,
    }
    problems = []
    for filename, check in checks.items():
        target = directory / filename
        if not target.exists():
            problems.append(f"{filename}: missing")
            continue
        problems.extend(f"{filename}: {p}" for p in check(target))
    return problems
