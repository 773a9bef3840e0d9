"""Event-driven multi-user cell: N uplink sessions sharing one medium.

The cell generalises the single-link transport of :mod:`repro.link.transport`
one layer up: instead of one sender owning the channel, N users — each with
a private channel realisation, packet queue and per-packet random streams —
contend for a single shared medium, and a MAC scheduler
(:mod:`repro.mac.schedulers`) decides, every time the medium frees up, whose
next subpass block is transmitted.  Time is the same integer symbol-time
clock the link transport uses (:mod:`repro.link.events`), so cell goodput
divides directly into the bits/symbol numbers of the rest of the library.

Model
-----
* The scheduling quantum is one *block*: a rateless user's next subpass
  (:class:`~repro.phy.session.CodecTransmission`) or an adaptive user's
  next fixed-rate pass (:class:`~repro.mac.adaptive.AdaptiveCodecTransmission`).
  The medium carries one block at a time; the base station's decode attempt
  and the grant decision both happen at the block boundary (decode before
  grant, via the event priorities).
* Feedback within the cell is the paper's methodology: the base station
  knows immediately when a user's packet decodes (the same "receiver
  informs the sender as soon as it is able to decode" assumption Figure 2
  uses), so the measured differences between schedulers and between
  rateless/adaptive modes are MAC and PHY effects, not ARQ artifacts —
  those are priced separately by :mod:`repro.link.transport`.
* Each user's per-packet noise streams reuse the transport's per-hop
  convention with *hop ≡ user* (:func:`cell_packet_rng`), which is what
  makes a single-user round-robin cell bit-identical to the single-hop
  transport — the PR-2 equivalence discipline extended one layer up, pinned
  by the test suite.  A cell derives every packet's stream at construction,
  in one :func:`~repro.utils.rng.spawn_seeds` batch, and builds each
  packet's generator (exactly its :func:`cell_packet_rng`) when the packet
  opens.
* Channels whose state evolves with *wall-clock* time (a
  :class:`~repro.channels.awgn.TimeVaryingAWGNChannel` pinned to the cell
  clock via ``set_time``) make scheduling genuinely matter: an opportunistic
  scheduler rides each user's crests.  Static channels make per-packet
  symbol counts schedule-invariant, so every work-conserving discipline
  yields the same aggregate goodput — a useful null result the tests also
  pin.
* Optional per-user latency ``deadline``: a packet not delivered within the
  deadline of its arrival is dropped, mid-flight if necessary.  Deadline
  timers are armed at arrival and disarmed on delivery — the cancellable
  event handles of :class:`~repro.link.events.EventScheduler` exist for
  exactly this.

Grant cost
----------
A grant costs work in the users whose state changed since the last grant,
not in the users queued.  Each cell keeps a sorted index of *eligible*
users (a resolved head packet each) and a set of *dirty* users whose head
must be resolved again before the next pick: an arrival, a head that
finished (delivered, aborted or expired) and a user that just attached.
Nothing else can change a resolved head:

* the granted user's block lands before the next grant, and landing either
  finishes the head or leaves it sendable;
* a deadline timer is armed when its packet arrives, so at its tick it
  fires before every grant scheduled after the head was last resolved; the
  one grant that can precede it (pending since before the arrival) finds
  the user dirty and expires the head itself.

A head change always reaches the cell that holds the user *now*, so
arrival and deadline events armed before a handoff land in the new cell.
The scheduler receives the eligible index and a lazy ``view(user)``
accessor (:meth:`~repro.mac.schedulers.Scheduler.pick`), so a CSI-blind
discipline never reads a channel.  Heads open at the same grant tick as a
full rescan of every queue would open them, which the golden scenarios in
``tests/golden/mac_grant.json`` pin.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.phy.session import CodecSession, CodecTransmission
from repro.link.events import (
    PRIORITY_BLOCK,
    PRIORITY_SEND,
    EventHandle,
    EventScheduler,
)
from repro.link.transport import packet_rng
from repro.mac.metrics import CellResult, PacketOutcome
from repro.obs.telemetry import current as current_telemetry
from repro.mac.schedulers import Scheduler, UserView, make_scheduler
from repro.utils.rng import spawn_seeds

__all__ = [
    "CellUser",
    "Link",
    "MacCell",
    "RatelessLink",
    "cell_packet_rng",
    "default_csi",
    "packet_outcomes",
    "simulate_cell",
    "spread_snrs",
]


def cell_packet_rng(seed: int, user: int, index: int) -> np.random.Generator:
    """Per-(user, packet) generator for a user's forward-channel noise.

    Deliberately the transport's :func:`~repro.link.transport.packet_rng`
    with *hop ≡ user*: a one-user cell then derives exactly the streams of
    the one-hop transport, so the two simulators are comparable symbol for
    symbol (the equivalence test relies on this).
    """
    return packet_rng(seed, user, index)


def _packet_labels(user: int, index: int) -> tuple:
    """The labels :func:`cell_packet_rng` derives its stream from."""
    return ("transport", "hop", user, "packet", index)


def spread_snrs(center_db: float, spread_db: float, n_users: int) -> list[float]:
    """Evenly spaced per-user SNRs spanning ``spread_db`` around the center.

    User 0 gets the worst channel.  ``spread_db = 0`` (or one user) gives
    everyone the center SNR.
    """
    if n_users < 1:
        raise ValueError(f"n_users must be at least 1, got {n_users}")
    if spread_db < 0:
        raise ValueError(f"spread_db must be non-negative, got {spread_db}")
    if n_users == 1:
        return [float(center_db)]
    low = center_db - spread_db / 2.0
    step = spread_db / (n_users - 1)
    return [float(low + u * step) for u in range(n_users)]


def default_csi(channel) -> Callable[[int], float]:
    """Channel-state information the scheduler observes, derived per channel.

    * a per-symbol SNR trace (``snr_trace_db``) is read at the *cell* time,
      so opportunistic schedulers can ride it;
    * a static SNR (``snr_db``) or a fading channel's mean
      (``average_snr_db``) reports as a constant — private fading
      realisations are not leaked to the scheduler.
    """
    trace = getattr(channel, "snr_trace_db", None)
    if trace is not None:
        trace = np.asarray(trace, dtype=np.float64)

        def from_trace(now: int, trace=trace) -> float:
            return float(trace[now % trace.size])

        return from_trace
    for attribute in ("snr_db", "average_snr_db"):
        value = getattr(channel, attribute, None)
        if value is not None:
            constant = float(value)
            return lambda now, constant=constant: constant
    raise ValueError(
        f"cannot derive CSI from channel {channel!r}; pass an explicit csi callable"
    )


class Link(Protocol):
    """What the cell needs from a user's PHY: a channel, a budget, a factory."""

    channel: object
    payload_bits: int
    max_symbols: int

    def open(
        self,
        payload: np.ndarray,
        rng: np.random.Generator,
        observe: Callable[[], float],
    ):  # pragma: no cover - protocol stub
        ...


@dataclass(frozen=True)
class RatelessLink:
    """A user running a rateless session (no rate selection).

    The session is a :class:`~repro.phy.session.CodecSession` over any
    registered code family — the cell only drives the pausable-transmission
    interface.
    """

    session: CodecSession

    @property
    def channel(self):
        return self.session.channel

    @property
    def payload_bits(self) -> int:
        return self.session.payload_bits

    @property
    def max_symbols(self) -> int:
        return self.session.max_symbols

    def open(
        self,
        payload: np.ndarray,
        rng: np.random.Generator,
        observe: Callable[[], float],
    ) -> CodecTransmission:
        # A rateless sender needs no CSI: ``observe`` is part of the link
        # interface only because the adaptive baseline must pre-commit.
        return self.session.open_transmission(payload, rng)


@dataclass(frozen=True)
class CellUser:
    """One uplink user: a link, its traffic, and what the scheduler may see.

    ``arrivals`` optionally gives each packet's arrival time (symbol-times;
    default: all backlogged at 0).  ``deadline`` optionally drops packets
    not delivered within that many symbol-times of arrival.  ``uid``
    optionally assigns the user a stable identity distinct from its position
    in the cell's user list — the multi-cell network layer uses this so a
    user keeps its scheduler-visible index and per-packet RNG streams across
    handoffs; standalone cells leave it ``None`` (identity = position).
    """

    link: Link
    payloads: Sequence[np.ndarray]
    csi: Callable[[int], float] | None = None
    arrivals: Sequence[int] | None = None
    deadline: int | None = None
    uid: int | None = None

    def __post_init__(self) -> None:
        if self.arrivals is not None and len(self.arrivals) != len(self.payloads):
            raise ValueError(
                f"{len(self.arrivals)} arrival times for {len(self.payloads)} payloads"
            )
        if self.deadline is not None and self.deadline < 1:
            raise ValueError(f"deadline must be at least 1, got {self.deadline}")


class _CellPacket:
    """Mutable bookkeeping for one packet inside the simulation."""

    __slots__ = (
        "user",
        "index",
        "arrival",
        "payload",
        "payload_bits",
        "seed",
        "tx",
        "finished",
        "delivered",
        "completed",
        "deadline_handle",
    )

    def __init__(
        self,
        user: int,
        index: int,
        arrival: int,
        payload: np.ndarray,
        payload_bits: int,
        seed: ISeedSequence,
    ) -> None:
        self.user = user
        self.index = index
        self.arrival = arrival
        self.payload = payload
        self.payload_bits = payload_bits
        self.seed = seed
        self.tx = None
        self.finished = False
        self.delivered = False
        self.completed = -1
        self.deadline_handle: EventHandle | None = None


class _UserState:
    """Mutable per-user simulation state.

    ``cell`` is the cell holding the user now (``None`` once detached and
    not yet re-attached); events armed in one cell reach the user's head
    through it after a handoff.
    """

    __slots__ = (
        "index",
        "config",
        "csi",
        "queue",
        "symbols_granted",
        "bits_delivered",
        "cell",
    )

    def __init__(self, index: int, config: CellUser) -> None:
        self.index = index
        self.config = config
        self.csi = config.csi if config.csi is not None else default_csi(config.link.channel)
        self.queue: deque[_CellPacket] = deque()
        self.symbols_granted = 0
        self.bits_delivered = 0
        self.cell: MacCell | None = None


class MacCell:
    """The cell simulation: users, scheduler, and the shared medium clock.

    Construct, then :meth:`run` to completion (every packet delivered,
    aborted, or expired) — or step with :meth:`run_until` and inspect
    :meth:`result` between epochs.  The scheduler instance is owned by the
    cell for the duration of the run (its internal state is mutated).
    """

    def __init__(
        self,
        users: Sequence[CellUser],
        scheduler: Scheduler | str,
        seed: int = 20111114,
        max_events: int | None = None,
        *,
        clock: EventScheduler | None = None,
        allow_empty: bool = False,
    ) -> None:
        if not users and not allow_empty:
            raise ValueError("a cell needs at least one user")
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.seed = int(seed)
        self.max_events = max_events
        # ``clock`` lets many cells share one symbol-time clock (the
        # multi-cell network); a standalone cell owns a private one.
        self.clock = clock if clock is not None else EventScheduler()
        self.busy_until = 0
        self.closed_at = 0
        self._grant_pending = False
        self._on_air: _CellPacket | None = None
        self._tel = current_telemetry()
        # Member users by id; the eligible index holds the ids with a
        # resolved head, ascending, and ``_heads`` those heads.
        self._users: dict[int, _UserState] = {}
        self._eligible: list[int] = []
        self._heads: dict[int, _CellPacket] = {}
        self._dirty: set[int] = set()
        for index, config in enumerate(users):
            state = _UserState(config.uid if config.uid is not None else index, config)
            if state.index in self._users:
                raise ValueError(f"duplicate user id {state.index}")
            self._users[state.index] = state
            state.cell = self
        self.packets: list[_CellPacket] = []
        seeds = iter(
            spawn_seeds(
                self.seed,
                [
                    _packet_labels(state.index, index)
                    for state in self._users.values()
                    for index in range(len(state.config.payloads))
                ],
            )
        )
        for state in self._users.values():
            state.config.link.channel.reset()
            arrivals = state.config.arrivals
            for index, payload in enumerate(state.config.payloads):
                arrival = 0 if arrivals is None else int(arrivals[index])
                if arrival < 0:
                    raise ValueError(f"arrival times must be non-negative, got {arrival}")
                packet = _CellPacket(
                    state.index,
                    index,
                    arrival,
                    np.asarray(payload),
                    state.config.link.payload_bits,
                    next(seeds),
                )
                self.packets.append(packet)
                if arrival == 0:
                    self._enqueue(state, packet)
                else:
                    self.clock.schedule(
                        arrival,
                        PRIORITY_BLOCK,
                        lambda state=state, packet=packet: self._enqueue(state, packet),
                    )

    # -- intake --------------------------------------------------------------
    def _enqueue(self, state: _UserState, packet: _CellPacket) -> None:
        state.queue.append(packet)
        deadline = state.config.deadline
        if deadline is not None:
            # PRIORITY_SEND so that a block delivering the packet at the
            # same tick wins (delivery disarms the timer), and the expiry
            # still precedes the grant decision it frees the queue for.
            packet.deadline_handle = self.clock.schedule(
                packet.arrival + deadline,
                PRIORITY_SEND,
                lambda: self._finish(state, packet, delivered=False),
            )
        if state.cell is not None:
            state.cell._head_changed(state)

    def _head_changed(self, state: _UserState) -> None:
        """Re-resolve ``state``'s head at the next grant, and make sure one comes."""
        self._dirty.add(state.index)
        self._kick(self.clock.now)

    # -- the medium ----------------------------------------------------------
    def _kick(self, time: int) -> None:
        if self._grant_pending:
            return
        self._grant_pending = True
        self.clock.schedule(max(time, self.busy_until), PRIORITY_SEND, self._on_grant)

    def _resolve_head(self, state: _UserState) -> None:
        """Open the head packet's transmission; abort unstartable packets.

        A packet whose transmission is exhausted the moment it opens (an
        adaptive user whose most robust frame does not fit the budget) is
        aborted here, at grant time — nothing of it ever reaches the air.
        A packet whose deadline has been reached is likewise expired here:
        a grant event scheduled *before* the packet arrived can fire ahead
        of the deadline timer at the same tick (FIFO among equal
        priorities), and the medium must not be handed to a doomed packet.
        The user enters or leaves the eligible index with the outcome.
        """
        user = state.index
        deadline = state.config.deadline
        while state.queue:
            packet = state.queue[0]
            if deadline is not None and self.clock.now >= packet.arrival + deadline:
                self._finish(state, packet, delivered=False)
                continue
            if packet.tx is None:
                packet.tx = state.config.link.open(
                    packet.payload,
                    np.random.default_rng(packet.seed),
                    lambda state=state: float(state.csi(self.clock.now)),
                )
            if packet.tx.exhausted and not packet.tx.decoded:
                self._finish(state, packet, delivered=False)
                continue
            if user not in self._heads:
                bisect.insort(self._eligible, user)
            self._heads[user] = packet
            return
        if self._heads.pop(user, None) is not None:
            del self._eligible[bisect.bisect_left(self._eligible, user)]

    def _on_grant(self) -> None:
        self._grant_pending = False
        now = self.clock.now
        if now < self.busy_until:
            # Reachable: aborting/expiring a head packet *during* a grant
            # re-kicks at the same tick, and if that grant then put a block
            # on the air, the queued same-tick grant fires while the medium
            # is busy.  Defer it to the block boundary.
            self._kick(self.busy_until)
            return
        if self._dirty:
            # Resolving can finish a head, which marks its user dirty again;
            # the loop has already resolved that user to its next head.
            for user in sorted(self._dirty):
                self._resolve_head(self._users[user])
            self._dirty.clear()
        if not self._eligible:
            return  # idle; a future arrival will kick the medium again
        views: dict[int, UserView] = {}

        def view(user: int) -> UserView:
            seen = views.get(user)
            if seen is None:
                state = self._users[user]
                seen = views[user] = UserView(
                    user=user,
                    csi_db=float(state.csi(now)),
                    backlog=len(state.queue),
                    symbols_granted=state.symbols_granted,
                    bits_delivered=state.bits_delivered,
                )
            return seen

        choice = self.scheduler.pick(now, self._eligible, view)
        packet = self._heads.get(choice)
        if packet is None:
            raise ValueError(
                f"scheduler {self.scheduler.name!r} picked user {choice}, "
                f"eligible: {self._eligible}"
            )
        state = self._users[choice]
        channel = state.config.link.channel
        set_time = getattr(channel, "set_time", None)
        if set_time is not None:
            set_time(now)  # pin wall-clock channels to the shared cell clock
        block, received = packet.tx.send_next_block()
        state.symbols_granted += block.n_symbols
        self.scheduler.on_grant(choice, block.n_symbols, now)
        if self._tel.enabled:
            self._tel.counter("mac.grants", scheduler=self.scheduler.name)
            self._tel.observe("mac.grant_symbols", block.n_symbols)
            # Only a scheduler that looked at the granted user's CSI reports
            # it; a NaN report (a trace gap) has no histogram bucket.
            chosen = views.get(choice)
            if chosen is not None and chosen.csi_db == chosen.csi_db:
                self._tel.observe("mac.granted_csi_db", chosen.csi_db)
        arrival = now + block.n_symbols
        self.busy_until = arrival
        self._on_air = packet
        self.clock.schedule(
            arrival,
            PRIORITY_BLOCK,
            lambda: self._on_block(state, packet, block, received),
        )
        self._kick(arrival)

    def _on_block(self, state: _UserState, packet: _CellPacket, block, received) -> None:
        if self._on_air is packet:
            self._on_air = None
        if packet.finished:
            return  # expired while the block was in flight
        if packet.tx.deliver(block, received):
            self._finish(state, packet, delivered=True)
        elif packet.tx.exhausted:
            self._finish(state, packet, delivered=False)

    def _finish(self, state: _UserState, packet: _CellPacket, delivered: bool) -> None:
        """Resolve ``packet`` in the cell whose event resolved it.

        That cell records the completion time and credits its scheduler;
        the head change goes to the cell holding the user now.
        """
        packet.finished = True
        packet.delivered = delivered
        packet.completed = self.clock.now
        if packet.deadline_handle is not None:
            packet.deadline_handle.cancel()
        if state.queue and state.queue[0] is packet:
            state.queue.popleft()
        else:
            state.queue.remove(packet)
        self.closed_at = max(self.closed_at, self.clock.now)
        if self._tel.enabled:
            self._tel.counter(
                "mac.packets", outcome="delivered" if delivered else "dropped"
            )
        if delivered:
            bits = state.config.link.payload_bits
            state.bits_delivered += bits
            self.scheduler.on_delivered(state.index, bits, self.clock.now)
        if state.cell is not None:
            state.cell._head_changed(state)

    # -- handoff (multi-cell networks) ---------------------------------------
    @property
    def on_air_user(self) -> int | None:
        """The user whose block occupies the medium right now, if any.

        ``None`` whenever the medium is free at the current clock tick —
        including the instant a block lands (``busy_until == now``).  The
        network layer reads this to defer handoffs that would tear a block
        off the air; its uplink interference sum (a cell radiates from its
        transmitting user's position) reads the same two fields in place.
        """
        if self._on_air is not None and self.busy_until > self.clock.now:
            return self._on_air.user
        return None

    def detach_user(self, index: int) -> _UserState:
        """Remove a user (queue and in-flight transmission state intact).

        The returned state object is exactly what :meth:`attach_state`
        accepts: a handoff is ``detach_user`` on the old cell followed by
        ``attach_state`` on the new one, under one shared clock.  Packets
        already resolved in this cell stay in its history; a partially
        transmitted head packet migrates with its transmission (symbols
        sent so far are neither lost nor re-sent).  Detaching the user
        whose block is on the air is refused — land the block first.
        """
        if index not in self._users:
            raise ValueError(f"no user {index} in this cell")
        if self.on_air_user == index:
            raise RuntimeError(
                f"user {index} has a block on the air until t={self.busy_until}; "
                "defer the handoff to the block boundary"
            )
        state = self._users.pop(index)
        state.cell = None
        self._dirty.discard(index)
        if self._heads.pop(index, None) is not None:
            del self._eligible[bisect.bisect_left(self._eligible, index)]
        return state

    def attach_state(self, state: _UserState) -> None:
        """Adopt a user migrated from another cell and contend it immediately."""
        if state.index in self._users:
            raise ValueError(f"user {state.index} already in this cell")
        self._users[state.index] = state
        state.cell = self
        if state.queue:
            self._head_changed(state)

    # -- driving -------------------------------------------------------------
    def _event_budget(self) -> int:
        budgets = sum(
            state.config.link.max_symbols * len(state.config.payloads)
            for state in self._users.values()
        )
        return 64 + 16 * len(self.packets) + 8 * budgets

    def run(self) -> CellResult:
        """Simulate until every packet is resolved; return the metrics."""
        self.clock.run(
            max_events=self.max_events if self.max_events is not None else self._event_budget()
        )
        return self.result()

    def run_until(self, time: int) -> CellResult:
        """Advance the cell to ``time`` and return the metrics so far."""
        self.clock.run_until(
            time,
            max_events=self.max_events if self.max_events is not None else self._event_budget(),
        )
        return self.result()

    def result(self) -> CellResult:
        return CellResult(
            scheduler=self.scheduler.name,
            n_users=len(self._users),
            packets=packet_outcomes(self.packets),
            makespan=self.closed_at,
        )


def packet_outcomes(packets) -> tuple[PacketOutcome, ...]:
    """Each packet's outcome, in ``(user, index)`` order.

    The one result loop of :class:`MacCell` and of a network of cells, whose
    packets roam between cells.
    """
    outcomes = []
    for packet in sorted(packets, key=lambda p: (p.user, p.index)):
        tx = packet.tx
        outcomes.append(
            PacketOutcome(
                user=packet.user,
                index=packet.index,
                arrival=packet.arrival,
                completed=packet.completed,
                delivered=packet.delivered,
                symbols_sent=0 if tx is None else int(tx.symbols_sent),
                symbols_needed=int(tx.symbols_delivered) if packet.delivered else 0,
                payload_bits=packet.payload_bits,
            )
        )
    return tuple(outcomes)


def simulate_cell(
    users: Sequence[CellUser],
    scheduler: Scheduler | str,
    seed: int = 20111114,
    max_events: int | None = None,
) -> CellResult:
    """Build and run one cell to completion (the one-call entry point)."""
    return MacCell(users, scheduler, seed=seed, max_events=max_events).run()
