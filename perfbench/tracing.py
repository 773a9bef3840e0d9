"""The traced run: spans around the library's public calls, recorded from outside.

Nothing here edits ``src/``.  :class:`Instrumentation` replaces the functions and
methods listed in :func:`seams` with wrappers that open a span, call the
original, run a counting hook and close the span; :meth:`Instrumentation.undo`
puts the originals back.  A span is ``(id, parent id, job, layer, op, start,
end)``; spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the part its child spans cover, so the self
times of all layers plus ``trace.unattributed_s`` add up to the traced jobs'
wall-clock.
"""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "IDLE_LAYERS",
    "Instrumentation",
    "Tracer",
    "import_times",
    "layer_metrics",
]

#: Layers each workload is designed to leave idle (README.md, "Workloads").
IDLE_LAYERS = {
    "relay-fig2": ("mac", "net.network", "serve.engine"),
    "serve-soak": ("link.transport", "mac", "net.network"),
    "city-flow": (
        "core.hashing",
        "core.constellation",
        "core.encoder",
        "core.decoder",
        "phy.session",
        "link.transport",
        "serve.engine",
    ),
}


class Tracer:
    """Span recorder with online self-time accounting (single thread)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[list] = []  # [id, layer, start, child_seconds]
        self._next_id = 0
        self._open = defaultdict(int)  # layer -> open span count
        self.calls = defaultdict(int)  # layer -> spans closed
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.op_s = defaultdict(float)  # (layer, op) -> inclusive seconds
        self.root_s = 0.0  # seconds covered by spans with no parent
        self.counts = defaultdict(float)  # hook counters, by metric name

    def open(self, layer: str) -> None:
        self._stack.append([self._next_id, layer, time.perf_counter(), 0.0])
        self._next_id += 1
        self._open[layer] += 1

    def close(self, layer: str, op: str) -> None:
        end = time.perf_counter()
        span_id, _, start, child = self._stack.pop()
        self._open[layer] -= 1
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        self.op_s[layer, op] += duration
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            self.root_s += duration
            parent_id = -1
        self.spans.append((span_id, parent_id, self.job, layer, op, start, end))

    def inside(self, layer: str) -> bool:
        return self._open[layer] > 0


@dataclass
class _Seam:
    attr: str
    layer: str | None  # None: count-only (no span)
    op: str
    pre: object = None
    post: object = None


def _wrap(tracer: Tracer, seam: _Seam, fn):
    layer, op, pre, post = seam.layer, seam.op, seam.pre, seam.post
    if layer is None:

        def counted(*args, **kwargs):
            token = pre(tracer, args, kwargs) if pre else None
            result = fn(*args, **kwargs)
            post(tracer, args, kwargs, result, token)
            return result

        return counted

    def spanned(*args, **kwargs):
        tracer.open(layer)
        try:
            token = pre(tracer, args, kwargs) if pre else None
            result = fn(*args, **kwargs)
            if post:
                post(tracer, args, kwargs, result, token)
        finally:
            tracer.close(layer, op)
        return result

    return spanned


# -- counting hooks ------------------------------------------------------------


def _elements(name):
    def post(tracer, args, kwargs, result, token):
        tracer.counts[name] += getattr(result, "size", 1)

    return post


def _decoded_one(tracer, args, kwargs, result, token):
    tracer.counts["core.decoder.sessions_decoded"] += 1
    tracer.counts["core.decoder.candidates"] += result.candidates_explored


def _decoded_batch(tracer, args, kwargs, result, token):
    tracer.counts["core.decoder.sessions_decoded"] += len(result)
    tracer.counts["core.decoder.candidates"] += sum(r.candidates_explored for r in result)


def _opened(tracer, args, kwargs, result, token):
    tracer.counts["phy.session.packets"] += 1


def _sent(tracer, args, kwargs, result, token):
    if tracer.inside("link.transport"):
        tracer.counts["link.transport.blocks_sent"] += 1


def _tx_before(tracer, args, kwargs):
    tx = args[0]
    return tx.decoded, tx.decode_attempts


def _tx_after(tracer, args, kwargs, result, token):
    tx = args[0]
    was_decoded, attempts = token
    tracer.counts["phy.session.attempts"] += tx.decode_attempts - attempts
    if tx.decoded and not was_decoded:
        tracer.counts["phy.session.terminations"] += 1
        tracer.counts["phy.session.symbols_to_decode"] += tx.symbols_delivered


def _relay_done(tracer, args, kwargs, result, token):
    for hop in result.hops:
        tracer.counts["link.transport.symbols_needed"] += float(hop.symbols_needed.sum())
        tracer.counts["link.transport.symbols_spent"] += float(hop.symbols_spent.sum())


def _granted(tracer, args, kwargs, result, token):
    n_symbols = args[2] if len(args) > 2 else kwargs["n_symbols"]
    tracer.counts["mac.grants"] += 1
    tracer.counts["mac.grant_symbols"] += n_symbols


def _sinr(tracer, args, kwargs, result, token):
    tracer.counts["net.network.sinr_evals"] += 1


def _network_ran(tracer, args, kwargs, result, token):
    tracer.counts["net.network.epochs"] += args[0].epoch
    tracer.counts["net.network.handoffs"] += result.n_handoffs


def _soak_ran(tracer, args, kwargs, result, token):
    tracer.counts["serve.engine.ticks"] += result.makespan
    tracer.counts["serve.engine.decode_batches"] += result.n_decode_batches
    tracer.counts["serve.engine.queue_wait_ticks"] += sum(d.queue_wait for d in result.deliveries)
    tracer.counts["serve.engine.sessions"] += len(result.deliveries)


def _events_before(tracer, args, kwargs):
    return args[0].n_processed


def _events_after(tracer, args, kwargs, result, token):
    tracer.counts["work.events"] += args[0].n_processed - token


def _owner(path: str):
    """``"module:Class"`` (or ``"module:"``) to the object, or None if gone."""
    module, _, qualname = path.partition(":")
    try:
        obj = importlib.import_module(module)
        for part in filter(None, qualname.split(".")):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj


def seams() -> list[tuple[str, object, _Seam]]:
    """Every wrapped call as ``(where, owner or None, seam)``, by layer."""
    table = [
        ("repro.core.constellation:Constellation", "map_values", "core.constellation", "map_values",
         None, _elements("core.constellation.elements")),
        ("repro.core.encoder:SpinalEncoder", "spine", "core.encoder", "spine", None, None),
        ("repro.core.encoder:SpinalEncoder", "values_from_spines", "core.encoder",
         "values_from_spines", None, None),
        ("repro.core.decoder_vectorized:BatchDecoder", "decode_subset", "core.decoder",
         "decode_subset", None, _decoded_batch),
        ("repro.phy.session:CodecSession", "open_transmission", "phy.session", "open", None, _opened),
        ("repro.phy.session:CodecTransmission", "send_next_block", "phy.session", "send", None, _sent),
        *[("repro.phy.session:CodecTransmission", attr, "phy.session", attr, _tx_before, _tx_after)
          for attr in ("deliver", "record_status", "best_effort_decode")],
        *[(where, "simulate_relay_transport", "link.transport", "relay", None, _relay_done)
          for where in ("repro.link:", "repro.link.topology:")],
        # The grant and block handlers are where the cell does its per-grant
        # work; with the public seams alone it would count as event-loop time.
        *[("repro.mac.cell:MacCell", attr, "mac", attr, None, None)
          for attr in ("_on_grant", "_on_block", "detach_user", "attach_state")],
        ("repro.net.mobility:MobilityModel", "walks", "net.network", "walks", None, None),
        ("repro.net.network:CellNetwork", "__init__", "net.network", "build", None, None),
        ("repro.net.network:CellNetwork", "run", "net.network", "run", None, _network_ran),
        ("repro.net.network:CellNetwork", "sinr_db", "net.network", "sinr_db", None, _sinr),
        ("repro.net.fastpath:FlowLink", "open", "net.network", "flow_open", None, None),
        *[("repro.net.fastpath:FlowTransmission", attr, "net.network", f"flow_{attr}", None, None)
          for attr in ("send_next_block", "deliver")],
        ("repro.serve.engine:SoakEngine", "run", "serve.engine", "run", None, _soak_ran),
        *[("repro.link.events:EventScheduler", attr, None, attr, _events_before, _events_after)
          for attr in ("run", "run_until")],
    ]
    # Kernel functions are module globals looked up by their callers, so
    # every loaded repro module that bound the original by name is patched.
    hashing = _owner("repro.core.hashing:")
    for name in ("hash_spine_keyed", "symbol_word_keyed"):
        original = getattr(hashing, name, None)
        modules = [key for key, m in list(sys.modules.items())
                   if key.startswith("repro") and original is not None
                   and getattr(m, name, None) is original]
        for key in modules or ["repro.core.hashing"]:
            table.append((f"{key}:", name, "core.hashing", name, None,
                          _elements("core.hashing.elements")))
    engines = getattr(_owner("repro.core.decoder_vectorized:"), "DECODER_ENGINES", {})
    for cls in dict.fromkeys(engines.values()):
        table.append((f"{cls.__module__}:{cls.__qualname__}", "decode", "core.decoder", "decode",
                      None, _decoded_one))
    scheduler = _owner("repro.mac.schedulers:Scheduler")
    for cls in (scheduler, *scheduler.__subclasses__()) if scheduler else ():
        for attr in ("pick", "on_grant"):
            if attr in vars(cls):
                table.append((f"{cls.__module__}:{cls.__qualname__}", attr, "mac", attr, None,
                              _granted if attr == "on_grant" else None))
    return [(f"{where}{attr}" if where.endswith(":") else f"{where}.{attr}", _owner(where),
             _Seam(attr, layer, op, pre, post))
            for where, attr, layer, op, pre, post in table]


class Instrumentation:
    """Installs every seam's wrapper; :meth:`undo` restores the originals.

    A seam whose owner or attribute no longer exists is skipped and named in
    :attr:`missing`, so a renamed library call shows up as a flag rather than
    as a silently idle layer.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        for where, owner, seam in seams():
            raw = None if owner is None else vars(owner).get(seam.attr)
            if raw is None:
                self.missing.append(where)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(tracer, seam, raw.__func__))
            else:
                patched = _wrap(tracer, seam, raw)
            self._saved.append((owner, seam.attr, raw))
            setattr(owner, seam.attr, patched)

    def undo(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one tracer's spans and counters."""
    c, calls, self_s = tracer.counts, tracer.calls, tracer.self_s
    decoded = c["core.decoder.sessions_decoded"]
    packets = c["phy.session.packets"]
    return {
        "core.hashing.calls": (calls["core.hashing"], "count"),
        "core.hashing.elements": (c["core.hashing.elements"], "count"),
        "core.hashing.self_s": (self_s["core.hashing"], "s"),
        "core.hashing.ns_per_elem": (
            1e9 * _ratio(self_s["core.hashing"], c["core.hashing.elements"]), "ns"),
        "core.constellation.calls": (calls["core.constellation"], "count"),
        "core.constellation.elements": (c["core.constellation.elements"], "count"),
        "core.constellation.self_s": (self_s["core.constellation"], "s"),
        "core.encoder.calls": (calls["core.encoder"], "count"),
        "core.encoder.self_s": (self_s["core.encoder"], "s"),
        "core.decoder.calls": (calls["core.decoder"], "count"),
        "core.decoder.sessions_decoded": (decoded, "count"),
        "core.decoder.batch_width_mean": (_ratio(decoded, calls["core.decoder"]), "count"),
        "core.decoder.candidates": (c["core.decoder.candidates"], "count"),
        "core.decoder.self_s": (self_s["core.decoder"], "s"),
        "core.decoder.useful_ratio": (_ratio(c["phy.session.terminations"], decoded), "ratio"),
        "phy.session.packets": (packets, "count"),
        "phy.session.attempts": (c["phy.session.attempts"], "count"),
        "phy.session.attempts_per_packet": (_ratio(c["phy.session.attempts"], packets), "count"),
        "phy.session.symbols_to_decode_mean": (
            _ratio(c["phy.session.symbols_to_decode"], c["phy.session.terminations"]), "symbols"),
        "phy.session.self_s": (self_s["phy.session"], "s"),
        "link.transport.blocks_sent": (c["link.transport.blocks_sent"], "count"),
        "link.transport.symbol_efficiency": (
            _ratio(c["link.transport.symbols_needed"], c["link.transport.symbols_spent"]), "ratio"),
        "link.transport.self_s": (self_s["link.transport"], "s"),
        "mac.grants": (c["mac.grants"], "count"),
        "mac.grant_symbols": (c["mac.grant_symbols"], "count"),
        "mac.self_s": (self_s["mac"], "s"),
        "net.network.build_s": (tracer.op_s["net.network", "build"], "s"),
        "net.network.sinr_evals": (c["net.network.sinr_evals"], "count"),
        "net.network.handoffs": (c["net.network.handoffs"], "count"),
        "net.network.epochs": (c["net.network.epochs"], "count"),
        "net.network.self_s": (self_s["net.network"], "s"),
        "serve.engine.ticks": (c["serve.engine.ticks"], "count"),
        "serve.engine.decode_batches": (c["serve.engine.decode_batches"], "count"),
        "serve.engine.queue_wait_ticks_mean": (
            _ratio(c["serve.engine.queue_wait_ticks"], c["serve.engine.sessions"]), "ticks"),
        "serve.engine.self_s": (self_s["serve.engine"], "s"),
        "work.events": (c["work.events"], "count"),
    }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| *(\S+)")


def import_times(root, env) -> dict[str, float]:
    """Parse ``python -X importtime -c "import repro"`` run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    self_us = defaultdict(int)
    total_us = 0
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        own, cumulative, module = match.groups()
        top = module.split(".")[0]
        self_us[top] += int(own)
        if module == "repro":
            total_us = int(cumulative)
    return {
        "import.total_s": total_us / 1e6,
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.numpy_s": self_us["numpy"] / 1e6,
        "import.repro_self_s": self_us["repro"] / 1e6,
    }
