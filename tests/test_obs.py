"""The telemetry layer's contracts: bit-transparency, exporters, acceptance.

Three claims carry the observability layer:

* **Bit-transparency** — enabling telemetry changes *nothing* about a run:
  serve delivery logs, cell results, city summaries, and persisted
  experiment store files are byte-identical with the sink on and off,
  because the registry never draws randomness, never schedules events, and
  only reads the scheduler clock through its read-only accessor;
* **Deterministic exporters** — given an injected wall clock, the JSONL,
  Chrome-trace and Prometheus outputs are reproducible byte for byte and
  pass their own validators;
* **Acceptance against the result dataclasses** — the
  ``phy.symbols_to_decode`` histogram at the paper's Figure 2 operating
  point (24-bit payload, k=8, c=10, B=16, tail-first puncturing) is
  exactly recoverable from the per-trial ``CodecResult`` values, so the
  telemetry path reports the same statistic the experiments already
  measure.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import (
    JSONL_SCHEMA,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    current,
    default_buckets,
    export_jsonl,
    load_jsonl,
    render_report,
    set_current,
    span_line,
    validate_directory,
    write_all,
)

SEED = 20111114


@pytest.fixture(autouse=True)
def _restore_sink():
    """No test may leak an enabled process-global sink."""
    yield
    set_current(None)


class _FakeWall:
    """Deterministic wall clock: advances 1 ms per reading."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1e-3
        return self.t


# -- registry ------------------------------------------------------------------


class TestRegistry:
    def test_counters_accumulate_per_label_set(self):
        tel = Telemetry(wall_clock=_FakeWall())
        tel.counter("link.blocks_sent", hop=0)
        tel.counter("link.blocks_sent", hop=0)
        tel.counter("link.blocks_sent", hop=1)
        tel.counter("link.blocks_sent", 5, hop=1)
        assert tel.counter_value("link.blocks_sent", hop=0) == 2
        assert tel.counter_value("link.blocks_sent", hop=1) == 6
        assert tel.counter_value("link.blocks_sent", hop=2) == 0

    def test_gauge_keeps_last_value(self):
        tel = Telemetry(wall_clock=_FakeWall())
        tel.gauge("serve.queue_depth", 3)
        tel.gauge("serve.queue_depth", 7)
        ((key, value),) = tel.gauges.items()
        assert key == ("serve.queue_depth", ())
        assert value == 7

    def test_histogram_le_semantics(self):
        # A value exactly on an upper edge lands in that edge's bucket
        # (Prometheus ``le``), and every value lands somewhere (+inf top).
        tel = Telemetry(wall_clock=_FakeWall())
        tel.set_buckets("x", (1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 100.0):
            tel.observe("x", value)
        counts = tel.histogram_counts("x")
        assert counts == {1.0: 2, 2.0: 1, 4.0: 1, float("inf"): 1}
        hist = tel.histograms[("x", ())]
        assert hist.count == 5
        assert hist.min == 0.5 and hist.max == 100.0

    def test_set_buckets_rejects_non_increasing(self):
        tel = Telemetry(wall_clock=_FakeWall())
        with pytest.raises(ValueError, match="increasing"):
            tel.set_buckets("x", (1.0, 1.0, 2.0))

    def test_default_buckets_by_unit_suffix(self):
        assert default_buckets("decoder.decode_s")[0] == pytest.approx(1e-6)
        assert -30.0 in default_buckets("net.sinr_db")
        assert 65536.0 in default_buckets("phy.symbols_to_decode")
        for name in ("a_s", "b_db", "c"):
            bounds = default_buckets(name)
            assert bounds[-1] == float("inf")
            assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_span_records_wall_and_symbol_time(self):
        tel = Telemetry(wall_clock=_FakeWall())

        class Clock:
            now = 17

        tel.bind_clock(Clock())
        with tel.span("serve.decode_batch", width=4):
            pass
        (span,) = tel.spans
        assert span["name"] == "serve.decode_batch"
        assert span["labels"] == {"width": "4"}
        assert span["dur_us"] == pytest.approx(1e3)
        assert span["t_sym"] == 17 and span["t_sym_end"] == 17

    def test_unbound_clock_stamps_minus_one(self):
        tel = Telemetry(wall_clock=_FakeWall())
        assert tel.symbol_time() == -1
        with tel.span("x"):
            pass
        assert tel.spans[0]["t_sym"] == -1

    def test_null_sink_is_inert_and_shared(self):
        assert current() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.counter("x")
        NULL_TELEMETRY.gauge("x", 1)
        NULL_TELEMETRY.observe("x", 1)
        with NULL_TELEMETRY.span("x"):
            pass
        assert NULL_TELEMETRY.symbol_time() == -1
        assert NULL_TELEMETRY.now_s() == 0.0
        assert not hasattr(NULL_TELEMETRY, "__dict__")  # __slots__: no state

    def test_set_current_returns_previous(self):
        tel = Telemetry(wall_clock=_FakeWall())
        previous = set_current(tel)
        assert previous is NULL_TELEMETRY
        assert current() is tel
        assert set_current(None) is tel
        assert current() is NULL_TELEMETRY

    def test_snapshot_is_deterministically_ordered(self):
        tel = Telemetry(wall_clock=_FakeWall())
        tel.counter("b.second", hop=1)
        tel.counter("a.first")
        tel.counter("b.second", hop=0)
        snap = tel.snapshot()
        names = [(c["name"], tuple(c["labels"].items())) for c in snap["counters"]]
        assert names == sorted(names)


# -- exporters -----------------------------------------------------------------


def _populated_telemetry() -> Telemetry:
    tel = Telemetry(wall_clock=_FakeWall())

    class Clock:
        now = 3

    tel.bind_clock(Clock())
    tel.counter("link.blocks_sent", 4, hop=0)
    tel.gauge("serve.queue_depth", 2)
    tel.observe("phy.symbols_to_decode", 48)
    tel.observe("decoder.decode_s", 3.2e-4)
    with tel.span("serve.decode_batch", width=2):
        pass
    return tel


class TestExporters:
    def test_write_all_passes_validation(self, tmp_path):
        write_all(_populated_telemetry(), tmp_path)
        assert validate_directory(tmp_path) == []

    def test_outputs_are_deterministic_given_the_clock(self, tmp_path):
        write_all(_populated_telemetry(), tmp_path / "a")
        write_all(_populated_telemetry(), tmp_path / "b")
        for name in ("telemetry.jsonl", "trace.json", "metrics.prom"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_jsonl_header_and_kinds(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        export_jsonl(_populated_telemetry(), path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"kind": "meta", "schema": JSONL_SCHEMA}
        assert {line["kind"] for line in lines[1:]} == {
            "counter", "gauge", "histogram", "span",
        }

    def test_load_round_trips_the_stream(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        export_jsonl(_populated_telemetry(), path)
        records = load_jsonl(path)
        (counter,) = records["counter"]
        assert counter["name"] == "link.blocks_sent"
        assert counter["value"] == 4
        hist_names = {h["name"] for h in records["histogram"]}
        assert hist_names == {"phy.symbols_to_decode", "decoder.decode_s"}

    def test_chrome_trace_shape(self, tmp_path):
        paths = write_all(_populated_telemetry(), tmp_path)
        trace = json.loads(paths["trace"].read_text())
        (event,) = trace["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "serve.decode_batch"
        assert event["args"]["width"] == "2"
        assert event["dur"] > 0

    def test_prometheus_page_has_types_and_buckets(self, tmp_path):
        paths = write_all(_populated_telemetry(), tmp_path)
        page = paths["prom"].read_text()
        assert '# TYPE link_blocks_sent counter' in page
        assert 'link_blocks_sent{hop="0"} 4' in page
        assert 'le="+Inf"' in page
        assert "phy_symbols_to_decode_count 1" in page

    def test_validators_flag_corruption(self, tmp_path):
        paths = write_all(_populated_telemetry(), tmp_path)
        paths["jsonl"].write_text('{"kind": "mystery"}\n')
        paths["trace"].write_text('{"not": "a trace"}')
        paths["prom"].write_text("??? not prometheus\n")
        problems = validate_directory(tmp_path)
        assert len(problems) >= 3

    def test_check_fails_on_an_export_with_no_records(self, tmp_path, capsys):
        """A meta-header-only export (nothing was recorded) is not ``ok``."""
        from repro.cli import main

        paths = write_all(Telemetry(wall_clock=_FakeWall()), tmp_path)
        assert len(paths["jsonl"].read_text().splitlines()) == 1
        assert validate_directory(tmp_path) == [
            "telemetry.jsonl: no records after the meta header"
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "check", str(tmp_path)])
        assert excinfo.value.code  # nonzero
        assert str(excinfo.value).splitlines() == [
            "telemetry validation failed: telemetry.jsonl: no records after the meta header"
        ]
        assert "ok:" not in capsys.readouterr().out

    def test_report_renders_counters_and_histograms(self, tmp_path):
        paths = write_all(_populated_telemetry(), tmp_path)
        text = render_report(paths["jsonl"])
        assert "link.blocks_sent" in text
        assert "phy.symbols_to_decode" in text
        assert "serve.decode_batch" in text


# -- bit-transparency ----------------------------------------------------------


def _with_telemetry(fn):
    """Run ``fn`` with a live sink installed; return (result, telemetry)."""
    tel = Telemetry()
    previous = set_current(tel)
    try:
        return fn(), tel
    finally:
        set_current(previous)


class TestBitTransparency:
    def test_serve_delivery_log_is_byte_identical(self):
        from repro.serve import SoakConfig, run_soak

        config = SoakConfig(n_sessions=24, max_in_flight=6, seed=SEED)
        off = run_soak(config)
        on, tel = _with_telemetry(lambda: run_soak(config))
        assert off.delivery_log_json() == on.delivery_log_json()
        assert off.queue_depth_series == on.queue_depth_series
        assert off.summary(elapsed_s=1.0) == on.summary(elapsed_s=1.0)
        # ... and the run really was observed.
        assert tel.counter_value("serve.sessions", outcome="delivered") == 24
        batches = tel.counter_value("decoder.batch_decodes")
        assert batches > 0
        # Sessions admitted as others finish are at other puncturing
        # stages, so some flushes split into several lock-step partitions.
        assert tel.counter_value("decoder.batch_partitions") > batches

    def test_cell_result_is_identical(self):
        from repro.link.topology import build_relay_sessions
        from repro.experiments.runner import SpinalRunConfig
        from repro.core.params import SpinalParams
        from repro.mac.cell import CellUser, RatelessLink, simulate_cell, spread_snrs
        from repro.utils.bitops import random_message_bits
        from repro.utils.rng import spawn_rng

        run_config = SpinalRunConfig(
            payload_bits=16,
            params=SpinalParams(k=4, c=6, seed=31),
            beam_width=8,
            search="sequential",
            max_symbols=512,
        )

        def build_users():
            return [
                CellUser(
                    RatelessLink(build_relay_sessions(run_config, [snr])[0]),
                    [random_message_bits(16, spawn_rng(901, "cell", u, i)) for i in range(2)],
                )
                for u, snr in enumerate(spread_snrs(12.0, 8.0, 3))
            ]

        off = simulate_cell(build_users(), "max-snr", seed=3)
        on, tel = _with_telemetry(lambda: simulate_cell(build_users(), "max-snr", seed=3))
        assert off == on
        assert tel.counter_value("mac.grants", scheduler="max-snr") > 0
        assert tel.counter_value("mac.packets", outcome="delivered") == off.n_delivered

    def test_network_summary_is_identical(self):
        from repro.net import NetworkConfig, simulate_network

        config = NetworkConfig(
            n_cells=2,
            n_users=4,
            packets_per_user=1,
            tier="exact",
            max_symbols=256,
            epoch_symbols=64,
            seed=SEED,
        )
        off = simulate_network(config)
        on, tel = _with_telemetry(lambda: simulate_network(config))
        assert off.summary() == on.summary()
        assert tel.counter_value("net.epochs") > 0

    def test_walking_flow_city_summary_is_identical(self):
        """Nine interfering cells, walking users, immediate and deferred handoffs."""
        from repro.net import NetworkConfig, simulate_network
        from repro.net.fastpath import SymbolCountModel

        model = SymbolCountModel(
            family="spinal",
            payload_bits=32,
            max_symbols=256,
            block_symbols=16,
            snr_grid_db=(-5.0, 5.0, 15.0),
            samples=((96, 256), (48, 64), (32,)),
        )
        config = NetworkConfig(
            n_cells=9,
            n_users=24,
            packets_per_user=2,
            tier="flow",
            seed=SEED,
            max_symbols=256,
            cell_radius=100.0,
            reference_snr_db=16.0,
            epoch_symbols=16,
            mobility_step=80.0,
        )
        off = simulate_network(config, model=model)
        on, tel = _with_telemetry(lambda: simulate_network(config, model=model))
        assert off.summary() == on.summary()
        assert (off.handoffs_by_user, off.final_serving) == (
            on.handoffs_by_user,
            on.final_serving,
        )
        assert off.n_handoffs > 0 and off.n_deferred_handoffs > 0
        assert tel.counter_value("net.handoffs") == off.n_handoffs
        assert tel.counter_value("net.handoffs_deferred") == off.n_deferred_handoffs
        assert sum(tel.histogram_counts("net.sinr_db").values()) > 0  # interfered reads

    def test_persisted_store_files_are_byte_identical(self, tmp_path):
        from repro.experiments import registry
        from repro.experiments.registry import run_experiment
        from repro.utils.store import RunStore

        registry.load_all()
        experiment = registry.get("rate")

        def run(directory):
            outcome = run_experiment(
                experiment,
                overrides={"snr_db": (10.0,)},
                n_trials=3,
                seed=SEED,
                store=RunStore(directory),
                smoke=True,
            )
            return outcome.path.read_bytes()

        off_bytes = run(tmp_path / "off")
        on_bytes, _tel = _with_telemetry(lambda: run(tmp_path / "on"))
        assert off_bytes == on_bytes


# -- acceptance against the result dataclasses ---------------------------------


class TestFigure2Histogram:
    def test_symbols_to_decode_matches_codec_results(self):
        """The paper's core statistic, cross-checked against CodecResult.

        At the Figure 2 operating point every sent symbol is delivered
        (single hop, no erasures) and transmission stops at decode, so the
        ``phy.symbols_to_decode`` histogram must be exactly the histogram
        of ``CodecResult.symbols_sent`` over the successful trials.
        """
        from repro.phy import make_codec_session
        from repro.utils.rng import spawn_rng

        n_trials = 25
        def run_trials():
            results = []
            for trial in range(n_trials):
                session = make_codec_session("spinal", snr_db=10.0, seed=SEED)
                rng = spawn_rng(SEED, "fig2-obs", trial)
                payload = rng.integers(0, 2, size=session.payload_bits, dtype=np.uint8)
                results.append(session.run(payload, rng))
            return results

        results, tel = _with_telemetry(run_trials)
        successes = [r for r in results if r.success]
        assert successes, "smoke config must decode at least once"

        bounds = default_buckets("phy.symbols_to_decode")
        expected = {bound: 0 for bound in bounds}
        for result in successes:
            expected[min(b for b in bounds if result.symbols_sent <= b)] += 1
        assert tel.histogram_counts("phy.symbols_to_decode") == expected

        hist = tel.histograms[("phy.symbols_to_decode", ())]
        assert hist.count == len(successes)
        assert hist.sum == sum(r.symbols_sent for r in successes)
        assert tel.counter_value("phy.decode_attempts") == sum(
            r.decode_attempts for r in results
        )


# -- streaming span spill -------------------------------------------------------


def _exercise(tel: Telemetry) -> Telemetry:
    """The same workload for a buffered and a streaming sink."""

    class Clock:
        now = 3

    tel.bind_clock(Clock())
    tel.counter("link.blocks_sent", 4, hop=0)
    tel.gauge("serve.queue_depth", 2)
    tel.observe("phy.symbols_to_decode", 48)
    with tel.span("serve.decode_batch", width=2):
        pass
    with tel.span("netcode.exchange", round=0):
        with tel.span("netcode.broadcast"):
            pass
    return tel


class TestStreamingSpill:
    def test_streaming_export_is_byte_identical_to_buffered(self, tmp_path):
        buffered = _exercise(Telemetry(wall_clock=_FakeWall()))
        streaming = _exercise(
            Telemetry(
                wall_clock=_FakeWall(), span_spill=tmp_path / "s" / "spans.part.jsonl"
            )
        )
        write_all(buffered, tmp_path / "b")
        write_all(streaming, tmp_path / "s")
        streaming.close()
        for name in ("telemetry.jsonl", "trace.json", "metrics.prom"):
            assert (tmp_path / "s" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        assert validate_directory(tmp_path / "s") == []

    def test_spans_spill_incrementally_not_in_memory(self, tmp_path):
        spill = tmp_path / "spans.part.jsonl"
        tel = Telemetry(wall_clock=_FakeWall(), span_spill=spill)
        with tel.span("serve.decode_batch", width=2):
            pass
        # Already on disk before any export, and not held in memory.
        assert tel.spans == []
        lines = spill.read_text().splitlines()
        assert len(lines) == 1
        record = dict(json.loads(lines[0]))
        assert record.pop("kind") == "span"
        assert span_line(record) == lines[0]
        with tel.span("netcode.exchange", round=1):
            pass
        assert len(spill.read_text().splitlines()) == 2
        tel.close()

    def test_iter_spans_round_trips_the_spill(self, tmp_path):
        buffered = _exercise(Telemetry(wall_clock=_FakeWall()))
        streaming = _exercise(
            Telemetry(wall_clock=_FakeWall(), span_spill=tmp_path / "spans.part.jsonl")
        )
        streaming.close()
        assert list(streaming.iter_spans()) == list(buffered.iter_spans())
        assert streaming.snapshot() == buffered.snapshot()
        # close() is idempotent and iter_spans still re-reads the file.
        streaming.close()
        assert list(streaming.iter_spans()) == buffered.spans

    def test_cli_stream_flag_requires_a_directory(self):
        from repro.cli import _TelemetryScope

        with pytest.raises(ValueError, match="--telemetry-stream"):
            _TelemetryScope(None, stream=True)

    def test_cli_scope_streaming_matches_buffered(self, tmp_path):
        from repro.cli import _TelemetryScope

        def run(directory, stream):
            with _TelemetryScope(directory, stream=stream) as scope:
                _exercise(scope.telemetry)
            return directory

        buffered = run(tmp_path / "b", False)
        streaming = run(tmp_path / "s", True)
        assert (streaming / "spans.part.jsonl").exists()
        assert validate_directory(streaming) == []
        # Wall-clock durations differ across runs; the span *stream* shape
        # (header, kinds, names) and the aggregates must match exactly.
        kinds_b = [json.loads(l)["kind"] for l in (buffered / "telemetry.jsonl").read_text().splitlines()]
        kinds_s = [json.loads(l)["kind"] for l in (streaming / "telemetry.jsonl").read_text().splitlines()]
        assert kinds_b == kinds_s
