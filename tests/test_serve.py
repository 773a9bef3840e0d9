"""The serve engine's contracts: determinism, backpressure, and parity.

Three claims carry the serving-at-scale layer:

* **Byte-identical delivery logs** — same seed and admission schedule must
  produce the identical log string regardless of how the batched decode is
  chunked (``max_stack_elements``) and regardless of batching at all
  (``batching=False`` is the one-session-at-a-time driver);
* **Backpressure** — the in-flight session count never exceeds the
  admission bound, and admission is FIFO;
* **Parity with the plain session loop** — every per-session outcome
  (symbols, attempts, success, correctness) equals a solo
  ``CodecSession.run`` of the same packet with the same derived streams.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import (
    SoakConfig,
    SoakEngine,
    run_sequential_baseline,
    run_soak,
)

SEED = 20111114

#: Small but non-trivial: backlog deeper than the window, several flushes.
_BASE = SoakConfig(n_sessions=24, max_in_flight=6, seed=SEED)


def _replace(config: SoakConfig, **kw) -> SoakConfig:
    from dataclasses import replace

    return replace(config, **kw)


class TestDeliveryLogDeterminism:
    def test_rerun_is_byte_identical(self):
        engine = SoakEngine(_BASE)
        assert engine.run().delivery_log_json() == engine.run().delivery_log_json()

    def test_fresh_engine_is_byte_identical(self):
        assert (
            SoakEngine(_BASE).run().delivery_log_json()
            == SoakEngine(_BASE).run().delivery_log_json()
        )

    @pytest.mark.parametrize("max_stack_elements", [1, 64, 4096])
    def test_chunking_never_changes_the_log(self, max_stack_elements):
        reference = run_soak(_BASE).delivery_log_json()
        chunked = run_soak(
            _replace(_BASE, max_stack_elements=max_stack_elements)
        ).delivery_log_json()
        assert chunked == reference

    def test_sequential_driver_matches_batched_log(self):
        batched = run_soak(_BASE)
        sequential = run_soak(_replace(_BASE, batching=False))
        assert batched.delivery_log_json() == sequential.delivery_log_json()
        # The drivers really did differ in batching, not just in name.
        assert batched.max_batch_sessions > 1
        assert sequential.max_batch_sessions == 1

    def test_log_round_trips_as_json(self):
        log = json.loads(run_soak(_BASE).delivery_log_json())
        assert len(log) == _BASE.n_sessions
        assert {d["session"] for d in log} == set(range(_BASE.n_sessions))


class TestBaselineParity:
    def test_outcomes_match_solo_codec_sessions(self):
        result = run_soak(_BASE)
        solo = run_sequential_baseline(_BASE)
        assert result.outcomes() == [
            (r.symbols_sent, r.symbols_sent, r.decode_attempts, r.success,
             r.payload_correct)
            for r in solo
        ]

    def test_outcomes_independent_of_admission_window(self):
        """The window changes *when* sessions run, never how they decode."""
        narrow = run_soak(_replace(_BASE, max_in_flight=2))
        wide = run_soak(_replace(_BASE, max_in_flight=24))
        assert narrow.outcomes() == wide.outcomes()


class TestBackpressure:
    @pytest.mark.parametrize(
        "n_sessions,max_in_flight,arrival_spacing",
        [(24, 1, 0), (24, 5, 0), (24, 24, 0), (16, 3, 4), (9, 2, 11)],
    )
    def test_in_flight_never_exceeds_bound(
        self, n_sessions, max_in_flight, arrival_spacing
    ):
        config = _replace(
            _BASE,
            n_sessions=n_sessions,
            max_in_flight=max_in_flight,
            arrival_spacing=arrival_spacing,
        )
        result = run_soak(config)
        assert result.peak_in_flight <= max_in_flight
        assert result.peak_queue_depth <= n_sessions
        assert len(result.deliveries) == n_sessions
        for d in result.deliveries:
            assert d.arrival <= d.admitted <= d.completed
            assert d.queue_wait >= 0

    @pytest.mark.parametrize(
        "n_sessions,max_in_flight,arrival_spacing",
        [(24, 1, 0), (24, 5, 0), (16, 3, 4)],
    )
    def test_queue_depth_series_peak_matches_scalar(
        self, n_sessions, max_in_flight, arrival_spacing
    ):
        """The time series is the scalar's provenance: peak == max(series)."""
        result = run_soak(
            _replace(
                _BASE,
                n_sessions=n_sessions,
                max_in_flight=max_in_flight,
                arrival_spacing=arrival_spacing,
            )
        )
        series = result.queue_depth_series
        assert series, "every soak with queued arrivals records samples"
        assert result.peak_queue_depth == max(d for _, d in series)
        ticks = [t for t, _ in series]
        assert ticks == sorted(ticks)
        assert all(0 <= depth <= n_sessions for _, depth in series)
        # The queue always drains by the end of the soak.
        assert series[-1][1] == 0

    def test_admission_is_fifo(self):
        """Arrival order (session index at spacing 0) is admission order."""
        result = run_soak(_replace(_BASE, max_in_flight=3))
        by_session = sorted(result.deliveries, key=lambda d: d.session)
        admitted = [d.admitted for d in by_session]
        assert admitted == sorted(admitted)

    def test_arrivals_follow_the_spacing(self):
        result = run_soak(_replace(_BASE, arrival_spacing=7))
        by_session = sorted(result.deliveries, key=lambda d: d.session)
        assert [d.arrival for d in by_session] == [
            7 * i for i in range(_BASE.n_sessions)
        ]

    def test_batch_size_never_exceeds_the_window(self):
        result = run_soak(_replace(_BASE, max_in_flight=4))
        assert result.max_batch_sessions <= 4


class TestExhaustionPath:
    def test_starved_sessions_fail_cleanly(self):
        """Hopeless SNR: every session exhausts, accounting stays coherent."""
        config = _replace(_BASE, n_sessions=6, snr_db=-25.0, max_symbols=24)
        result = run_soak(config)
        assert len(result.deliveries) == 6
        for d in result.deliveries:
            assert not d.success
            assert d.symbols_sent >= config.max_symbols
            assert d.symbols_delivered == d.symbols_sent
            assert d.decode_attempts >= 1  # the best-effort decode ran
        # The latency sentinels follow the cell-metrics convention.
        assert result.n_delivered == 0
        assert result.mean_latency == 0.0
        assert result.latency_percentile(99.0) == 0.0
        # Exhaustion outcomes match the solo loop too.
        solo = run_sequential_baseline(config)
        assert result.outcomes() == [
            (r.symbols_sent, r.symbols_sent, r.decode_attempts, r.success,
             r.payload_correct)
            for r in solo
        ]


class TestConfigAndSummary:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_sessions": 0},
            {"max_in_flight": 0},
            {"arrival_spacing": -1},
            {"max_symbols": 0},
            {"payload_bits": 0},
            {"k": 0},
            {"k": 17},
            {"c": 1},
            {"beam_width": 0},
        ],
    )
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ValueError):
            _replace(_BASE, **kw)

    def test_summary_is_json_ready_and_consistent(self):
        result = run_soak(_BASE)
        summary = json.loads(json.dumps(result.summary(elapsed_s=1.0)))
        assert summary["delivered"] == result.n_delivered
        assert summary["total_symbols"] == result.total_symbols
        assert summary["symbols_per_second"] == result.total_symbols
        assert summary["peak_in_flight"] <= _BASE.max_in_flight
        deterministic = result.summary()
        assert "elapsed_s" not in deterministic
        assert "symbols_per_second" not in deterministic

    def test_smoke_soak_meets_its_symbol_time_floors(self):
        """32 sessions, 8 in flight, 8 dB: all deliver, >= 4 symbols/tick, p99 <= 64.

        Symbol-time metrics are pure functions of the config; the margins
        (it reads 7.3 symbols/tick and a p99 of 26 ticks) absorb tie-break
        drift across numpy versions.
        """
        summary = run_soak(_replace(_BASE, n_sessions=32, max_in_flight=8)).summary()
        assert summary["delivered_fraction"] == 1.0
        assert summary["symbols_per_tick"] >= 4.0
        assert summary["p99_latency"] <= 64.0
