"""The soak engine: thousands of concurrent rateless sessions, one event loop.

This is the "serving at scale" layer the ROADMAP's async item calls for: a
deterministic streaming engine that multiplexes many concurrent in-flight
:class:`~repro.phy.session.CodecTransmission` packets over one
:class:`~repro.link.events.EventScheduler` clock, batches same-tick decode
work across sessions into :class:`~repro.core.decoder_vectorized.BatchDecoder`
kernels, and applies explicit backpressure (bounded in-flight admission with
FIFO queueing and queue-depth accounting).

Architecture — one tick of the shared symbol-time clock:

1. **Block arrivals** (``PRIORITY_BLOCK``): each in-flight session's current
   subpass block lands ``n_symbols`` ticks after it was sent (the block's
   air time).  Arrivals only *stage* the block and its received values.
2. **The flush** (``PRIORITY_ACK``): one coalesced event per tick absorbs
   every staged block into its session's observation store without decoding
   (``deliver(..., attempt=False)``), then decodes *all* gate-open sessions
   of the tick in one ragged :meth:`BatchDecoder.decode_subset` call and
   feeds each result back through
   :meth:`~repro.phy.session.CodecTransmission.record_status` — so per-
   session accounting and genie termination are exactly the sequential
   session loop's, while the decode work is amortised across the batch.
3. **Send decisions and admissions** (``PRIORITY_SEND``): undecoded sessions
   immediately send their next block (continuous streaming with immediate
   feedback, the same protocol :meth:`CodecSession.run` models) from the
   spinal code's own sender, exactly as any spinal session does; finished
   sessions free an in-flight slot and the FIFO backlog admits the next
   request.

Determinism: all randomness is derived per session from the config seed
(payload and noise streams via :func:`~repro.utils.rng.spawn_rng`), the
event order is a pure function of the config, and the batched decode is
bit-exact per session regardless of batch composition or kernel chunking —
so the delivery log is byte-identical for any ``max_stack_elements`` and
identical between the batched and the one-session-at-a-time drivers
(``batching=False``).  Per-session outcomes also match a plain
``CodecSession.run`` of the same packet (everything except decoder ``work``,
whose unit is engine-specific); :func:`run_sequential_baseline` exposes that
anchor.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.core.decoder_vectorized import BatchDecoder, VectorizedBubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.core.puncturing import TailFirstPuncturing
from repro.link.events import (
    EventScheduler,
    PRIORITY_ACK,
    PRIORITY_BLOCK,
    PRIORITY_SEND,
)
from repro.obs.telemetry import current as current_telemetry
from repro.phy.protocol import DecodeStatus
from repro.phy.session import CodecResult, CodecSession, CodecTransmission
from repro.phy.spinal import SpinalCode, spinal_status
from repro.utils.bitops import random_message_bits
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.units import check_snr_db

__all__ = [
    "SoakConfig",
    "SoakEngine",
    "SoakResult",
    "SessionDelivery",
    "run_soak",
    "run_sequential_baseline",
]


@dataclass(frozen=True)
class SoakConfig:
    """One soak workload: N spinal sessions through one bounded engine.

    All sessions share the code *shape* (``payload_bits``, ``k``, ``c``,
    ``beam_width`` — the :class:`BatchDecoder` requirement) but use
    independent per-session hash seeds and noise streams.  ``max_in_flight``
    is the backpressure bound: at most that many transmissions may be in
    flight concurrently, the rest wait in a FIFO backlog.
    ``arrival_spacing`` is the request inter-arrival gap in symbol-times
    (0 = all requests arrive at tick 0).  ``batching=False`` selects the
    one-session-at-a-time sequential decode driver (same event schedule,
    same kernels, batch groups of one) — the baseline the soak benchmark
    compares against.  ``max_stack_elements`` caps the stacked kernel chunk
    (``None`` = the library default) and must never change any outcome.
    """

    n_sessions: int = 256
    max_in_flight: int = 64
    arrival_spacing: int = 0
    snr_db: float = 8.0
    seed: int = 20111114
    payload_bits: int = 16
    k: int = 4
    c: int = 6
    beam_width: int = 8
    max_symbols: int = 512
    batching: bool = True
    max_stack_elements: int | None = None

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError(f"n_sessions must be at least 1, got {self.n_sessions}")
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be at least 1, got {self.max_in_flight}"
            )
        if self.arrival_spacing < 0:
            raise ValueError(
                f"arrival_spacing must be non-negative, got {self.arrival_spacing}"
            )
        if self.max_symbols < 1:
            raise ValueError(f"max_symbols must be at least 1, got {self.max_symbols}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be at least 1, got {self.beam_width}")
        check_snr_db("snr_db", self.snr_db)
        # The code shape is checked by the objects the engine builds from it,
        # so a bad k, c or payload size fails here rather than mid-build.
        SpinalParams(k=self.k, c=self.c)
        Framer(payload_bits=self.payload_bits, k=self.k)


@dataclass(frozen=True)
class SessionDelivery:
    """One line of the delivery log: a session's complete serving record.

    Times are ticks of the engine's symbol-time clock.  ``latency``
    (``completed - arrival``) includes both the backlog wait
    (``admitted - arrival``) and the air/decode time; ``success`` is genie
    termination, ``payload_correct`` compares the decoded payload bits.
    """

    session: int
    arrival: int
    admitted: int
    completed: int
    success: bool
    payload_correct: bool
    symbols_sent: int
    symbols_delivered: int
    decode_attempts: int
    work: int

    @property
    def latency(self) -> int:
        return self.completed - self.arrival

    @property
    def queue_wait(self) -> int:
        return self.admitted - self.arrival


@dataclass(frozen=True)
class SoakResult:
    """Everything one soak run measured, on the deterministic event clock."""

    config: SoakConfig
    #: Per-session records in completion (event) order — the delivery log.
    deliveries: tuple[SessionDelivery, ...]
    #: Tick of the last event (the soak's makespan in symbol-times).
    makespan: int
    #: Highest concurrent in-flight count observed (must be <= the bound).
    peak_in_flight: int
    #: Deepest the FIFO backlog ever got.
    peak_queue_depth: int
    #: Coalesced flush events (one per tick with block arrivals).
    n_flushes: int
    #: Flushes that ran a decode stage (>= 1 gate-open session).
    n_decode_batches: int
    #: Sessions decoded across all decode stages (sum of batch sizes).
    batched_sessions: int
    #: Largest single decode batch.
    max_batch_sessions: int
    #: ``(tick, backlog depth)`` after every FIFO length change — the full
    #: queue-depth trajectory behind :attr:`peak_queue_depth` (whose value
    #: must equal the series maximum; pinned in ``tests/test_serve.py``).
    queue_depth_series: tuple[tuple[int, int], ...] = ()

    # -- aggregates ----------------------------------------------------------
    @property
    def n_delivered(self) -> int:
        return sum(1 for d in self.deliveries if d.success)

    @property
    def delivered_fraction(self) -> float:
        return self.n_delivered / len(self.deliveries)

    @property
    def total_symbols(self) -> int:
        """Channel uses spent by all sessions (the throughput numerator)."""
        return sum(d.symbols_sent for d in self.deliveries)

    def latencies(self) -> np.ndarray:
        """Arrival-to-completion latencies of *successful* sessions."""
        return np.array(
            [d.latency for d in self.deliveries if d.success], dtype=np.int64
        )

    @property
    def mean_latency(self) -> float:
        """Mean delivery latency in symbol-times (0.0 if nothing delivered)."""
        latencies = self.latencies()
        if latencies.size == 0:
            return 0.0
        return float(latencies.mean())

    def latency_percentile(self, q: float) -> float:
        """``q``-th percentile delivery latency (0.0 if nothing delivered)."""
        latencies = self.latencies()
        if latencies.size == 0:
            return 0.0
        return float(np.percentile(latencies, q))

    @property
    def mean_batch_sessions(self) -> float:
        """Average decode-batch size (1.0 in the sequential driver)."""
        if self.n_decode_batches == 0:
            return 0.0
        return self.batched_sessions / self.n_decode_batches

    # -- determinism surface -------------------------------------------------
    def outcomes(self) -> list[tuple[int, int, int, bool, bool]]:
        """Per-session decode outcomes in session order (work excluded).

        The tuple ``(symbols_sent, symbols_delivered, decode_attempts,
        success, payload_correct)`` is the engine-independent outcome a plain
        ``CodecSession.run`` of the same packet must reproduce exactly.
        """
        by_session = sorted(self.deliveries, key=lambda d: d.session)
        return [
            (d.symbols_sent, d.symbols_delivered, d.decode_attempts, d.success,
             d.payload_correct)
            for d in by_session
        ]

    def delivery_log_json(self) -> str:
        """The canonical byte-exact delivery log (completion order).

        Same seed + same admission schedule must yield the identical string
        regardless of batch-group chunking or batching on/off — the
        determinism contract ``tests/test_serve.py`` pins.
        """
        return json.dumps(
            [
                {
                    "session": d.session,
                    "arrival": d.arrival,
                    "admitted": d.admitted,
                    "completed": d.completed,
                    "success": d.success,
                    "payload_correct": d.payload_correct,
                    "symbols_sent": d.symbols_sent,
                    "symbols_delivered": d.symbols_delivered,
                    "decode_attempts": d.decode_attempts,
                    "work": d.work,
                }
                for d in self.deliveries
            ],
            sort_keys=True,
            separators=(",", ":"),
        )

    def summary(self, elapsed_s: float | None = None) -> dict:
        """Flat JSON-ready metrics dict (the CLI table and CI artifact body).

        Everything except the two wall-clock entries (``elapsed_s``,
        ``symbols_per_second``, present only when ``elapsed_s`` is given) is
        deterministic on the symbol-time clock, so floors and ceilings over
        these numbers can be asserted even on noisy CI machines.
        """
        config = self.config
        data = {
            "n_sessions": config.n_sessions,
            "max_in_flight": config.max_in_flight,
            "arrival_spacing": config.arrival_spacing,
            "snr_db": config.snr_db,
            "payload_bits": config.payload_bits,
            "beam_width": config.beam_width,
            "batching": config.batching,
            "seed": config.seed,
            "delivered": self.n_delivered,
            "delivered_fraction": self.delivered_fraction,
            "total_symbols": self.total_symbols,
            "makespan": self.makespan,
            "symbols_per_tick": (
                self.total_symbols / self.makespan if self.makespan else 0.0
            ),
            "mean_latency": self.mean_latency,
            "p50_latency": self.latency_percentile(50.0),
            "p99_latency": self.latency_percentile(99.0),
            "peak_in_flight": self.peak_in_flight,
            "peak_queue_depth": self.peak_queue_depth,
            "n_flushes": self.n_flushes,
            "n_decode_batches": self.n_decode_batches,
            "mean_batch_sessions": self.mean_batch_sessions,
            "max_batch_sessions": self.max_batch_sessions,
        }
        if elapsed_s is not None:
            data["elapsed_s"] = elapsed_s
            data["symbols_per_second"] = (
                self.total_symbols / elapsed_s if elapsed_s > 0 else 0.0
            )
        return data


class _Flight:
    """Mutable per-session serving state (one request through the engine)."""

    __slots__ = (
        "index", "tx", "payload", "arrival", "admitted", "completed",
        "block", "received",
    )

    def __init__(self, index: int, arrival: int) -> None:
        self.index = index
        self.arrival = arrival
        self.tx: CodecTransmission | None = None
        self.payload: np.ndarray | None = None
        self.admitted = -1
        self.completed = -1
        self.block = None
        self.received: np.ndarray | None = None


class SoakEngine:
    """Serve ``config.n_sessions`` concurrent spinal sessions to completion.

    The engine is reusable: :meth:`run` builds fresh per-request state every
    call and returns a :class:`SoakResult`, so running it twice (or building
    a second engine from the same config) yields byte-identical delivery
    logs.  Construction builds the shared pieces once — per-session encoders
    with derived hash seeds, the shared framer and stateless AWGN channel,
    and one :class:`BatchDecoder` registered over every session.
    """

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self._tel = current_telemetry()
        params = SpinalParams(k=config.k, c=config.c)
        self.framer = Framer(payload_bits=config.payload_bits, k=config.k)
        self.channel = AWGNChannel(
            snr_db=config.snr_db, signal_power=params.average_power
        )
        factory = partial(VectorizedBubbleDecoder, beam_width=config.beam_width)
        self.sessions: list[CodecSession] = []
        for i in range(config.n_sessions):
            encoder = SpinalEncoder(
                params.with_(seed=derive_seed(config.seed, "serve", "code", i)),
                puncturing=TailFirstPuncturing(),
            )
            code = SpinalCode(encoder, factory, self.framer)
            self.sessions.append(
                CodecSession(
                    code,
                    self.channel,
                    termination="genie",
                    max_symbols=config.max_symbols,
                )
            )
        self.batch = BatchDecoder(
            [session.code.encoder for session in self.sessions],
            beam_width=config.beam_width,
            max_stack_elements=config.max_stack_elements,
        )

    # ------------------------------------------------------------------
    def run(self) -> SoakResult:
        config = self.config
        clock = EventScheduler()
        tel = self._tel
        tel.bind_clock(clock)
        pending: deque[_Flight] = deque()
        staged: list[_Flight] = []
        deliveries: list[SessionDelivery] = []
        queue_series: list[tuple[int, int]] = []
        state = {
            "in_flight": 0,
            "peak_in_flight": 0,
            "peak_queue": 0,
            "flush_scheduled": False,
            "n_flushes": 0,
            "n_batches": 0,
            "batched": 0,
            "max_batch": 0,
        }

        def admit_ready() -> None:
            while pending and state["in_flight"] < config.max_in_flight:
                flight = pending.popleft()
                queue_series.append((clock.now, len(pending)))
                flight.admitted = clock.now
                state["in_flight"] += 1
                state["peak_in_flight"] = max(
                    state["peak_in_flight"], state["in_flight"]
                )
                open_transmission(flight)
                send(flight)

        def open_transmission(flight: _Flight) -> None:
            i = flight.index
            flight.payload = random_message_bits(
                config.payload_bits, spawn_rng(config.seed, "serve", "payload", i)
            )
            flight.tx = self.sessions[i].open_transmission(
                flight.payload, spawn_rng(config.seed, "serve", "packet", i)
            )

        def arrive(flight: _Flight) -> None:
            pending.append(flight)
            queue_series.append((clock.now, len(pending)))
            state["peak_queue"] = max(state["peak_queue"], len(pending))
            if tel.enabled:
                tel.gauge("serve.queue_depth", len(pending))
                tel.observe("serve.queue_depth_samples", len(pending))
            admit_ready()

        def send(flight: _Flight) -> None:
            flight.block, flight.received = flight.tx.send_next_block()
            clock.schedule(
                clock.now + flight.block.n_symbols,
                PRIORITY_BLOCK,
                lambda: on_block(flight),
            )

        def on_block(flight: _Flight) -> None:
            staged.append(flight)
            if not state["flush_scheduled"]:
                state["flush_scheduled"] = True
                clock.schedule(clock.now, PRIORITY_ACK, flush)

        def flush() -> None:
            arrived, staged[:] = list(staged), []
            state["flush_scheduled"] = False
            state["n_flushes"] += 1
            if tel.enabled:
                tel.counter("serve.flushes")
                tel.observe("serve.flush_blocks", len(arrived))
            attempters: list[_Flight] = []
            for flight in arrived:
                flight.tx.deliver(flight.block, flight.received, attempt=False)
                flight.block, flight.received = None, None
                if flight.tx.attempt_ready:
                    attempters.append(flight)
                elif flight.tx.exhausted:
                    # Budget spent before the decode gate ever opened (a
                    # starved configuration): same terminal step as the
                    # sequential loop — one best-effort decode, then fail.
                    flight.tx.best_effort_decode()
                    finish(flight, success=False)
                else:
                    resend(flight)
            if attempters:
                statuses = decode_stage(attempters)
                for flight, status in zip(attempters, statuses):
                    if flight.tx.record_status(status):
                        finish(flight, success=True)
                    elif flight.tx.exhausted:
                        # The flush attempt above already recorded a status,
                        # so this is the sequential loop's idempotent
                        # best-effort no-op, kept for exact step parity.
                        flight.tx.best_effort_decode()
                        finish(flight, success=False)
                    else:
                        resend(flight)

        def decode_stage(attempters: list[_Flight]) -> list[DecodeStatus]:
            stores = [f.tx.decoder.observations for f in attempters]
            members = [f.index for f in attempters]
            with tel.span("serve.decode_batch", width=len(members)):
                if config.batching:
                    results = self.batch.decode_subset(
                        self.framer.framed_bits, stores, members
                    )
                    state["n_batches"] += 1
                    state["batched"] += len(members)
                    state["max_batch"] = max(state["max_batch"], len(members))
                else:
                    # The sequential driver: identical kernels and event
                    # schedule, but every session decodes in its own batch of
                    # one — the baseline that isolates the batching win.
                    results = [
                        self.batch.decode_subset(
                            self.framer.framed_bits, [store], [member]
                        )[0]
                        for store, member in zip(stores, members)
                    ]
                    state["n_batches"] += len(members)
                    state["batched"] += len(members)
                    state["max_batch"] = max(state["max_batch"], 1)
            if tel.enabled:
                tel.observe("serve.batch_width", len(members))
            return [spinal_status(self.framer, result) for result in results]

        def resend(flight: _Flight) -> None:
            clock.schedule(clock.now, PRIORITY_SEND, lambda: send(flight))

        def finish(flight: _Flight, success: bool) -> None:
            flight.completed = clock.now
            state["in_flight"] -= 1
            tx = flight.tx
            decoded = tx.decoded_payload() if tx.last_status is not None else None
            correct = decoded is not None and bool(
                np.array_equal(decoded, flight.payload)
            )
            deliveries.append(
                SessionDelivery(
                    session=flight.index,
                    arrival=flight.arrival,
                    admitted=flight.admitted,
                    completed=flight.completed,
                    success=success,
                    payload_correct=correct,
                    symbols_sent=tx.symbols_sent,
                    symbols_delivered=tx.symbols_delivered,
                    decode_attempts=tx.decode_attempts,
                    work=tx.work,
                )
            )
            if tel.enabled:
                tel.counter(
                    "serve.sessions", outcome="delivered" if success else "failed"
                )
                tel.observe("serve.latency", flight.completed - flight.arrival)
            admit_ready()

        for i in range(config.n_sessions):
            flight = _Flight(i, i * config.arrival_spacing)
            clock.schedule(flight.arrival, PRIORITY_SEND, lambda f=flight: arrive(f))

        # Liveness budget: every block costs <= 3 events (send, arrival, at
        # most one coalesced flush) and a session sends at most max_symbols
        # blocks, plus one arrival event per request.
        clock.run(max_events=64 + config.n_sessions * (4 + 4 * config.max_symbols))
        assert clock.next_time() is None and not pending and state["in_flight"] == 0

        return SoakResult(
            config=config,
            deliveries=tuple(deliveries),
            makespan=clock.now,
            peak_in_flight=state["peak_in_flight"],
            peak_queue_depth=state["peak_queue"],
            n_flushes=state["n_flushes"],
            n_decode_batches=state["n_batches"],
            batched_sessions=state["batched"],
            max_batch_sessions=state["max_batch"],
            queue_depth_series=tuple(queue_series),
        )


def run_soak(config: SoakConfig) -> SoakResult:
    """Build a fresh engine for ``config`` and serve it to completion."""
    return SoakEngine(config).run()


def run_sequential_baseline(config: SoakConfig) -> list[CodecResult]:
    """The engine-free anchor: each session run alone via ``CodecSession.run``.

    Uses the same derived payload and noise streams as the engine, so the
    per-session outcomes (symbols, attempts, success, correctness) must
    match the soak's :meth:`SoakResult.outcomes` exactly.  Only decoder
    ``work`` differs: each session's :class:`VectorizedBubbleDecoder` counts
    the tree nodes its attempt history needs (the unit is defined in
    :mod:`repro.core.decoder_vectorized`), while the engine's batch decodes
    count from-scratch candidates.
    """
    engine = SoakEngine(config)
    results = []
    for i, session in enumerate(engine.sessions):
        payload = random_message_bits(
            config.payload_bits, spawn_rng(config.seed, "serve", "payload", i)
        )
        results.append(
            session.run(payload, spawn_rng(config.seed, "serve", "packet", i))
        )
    return results
