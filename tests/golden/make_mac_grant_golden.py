"""Regenerate ``mac_grant.json``: packet outcomes of seeded two-cell MAC scenarios.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_mac_grant_golden.py

The committed file was generated at the commit *before* ``MacCell`` moved
from rescanning every queued user at every grant to an event-driven index
of eligible users, so it captures the rescan loop's behaviour.
``tests/test_mac_grant_golden.py`` replays the same scenarios through
today's cell and asserts identical outcomes; running this script must leave
the file byte-unchanged.

Each scenario puts one to six users into two :class:`~repro.mac.cell.MacCell`
instances sharing one :class:`~repro.link.events.EventScheduler`, and draws
from a per-scenario generator:

* the scheduler (scenarios cycle through all three disciplines);
* per user, a link: a small rateless spinal session, or a stub link whose
  block count is fixed at open time from the CSI it observes (so opening a
  head at a different tick changes the outcome) and whose budget may be
  too small to open at all (an at-open abort) or to finish (an abort after
  the last block lands);
* per user, a static AWGN channel or a time-varying trace pinned to the
  cell clock through ``set_time``;
* staggered arrivals or a full backlog at t=0, and deadlines on or off;
* a list of handoff instants at which a random user moves to the other
  cell.  A user still waiting for a packet to arrive is not moved: the
  rescan loop enqueued a migrated user's later arrivals at its origin cell
  (``tests/test_mac_cell.py`` pins the corrected behaviour separately).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.channels.awgn import AWGNChannel, TimeVaryingAWGNChannel
from repro.channels.traces import sinusoidal_trace
from repro.core.params import SpinalParams
from repro.experiments.runner import SpinalRunConfig
from repro.link.events import PRIORITY_ACK, EventScheduler
from repro.mac.cell import CellUser, MacCell, RatelessLink
from repro.mac.schedulers import SCHEDULER_NAMES
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

GOLDEN_PATH = Path(__file__).parent / "mac_grant.json"
SEED = 20111114
N_SCENARIOS = 54

_RUN_CONFIG = SpinalRunConfig(
    payload_bits=16,
    params=SpinalParams(k=4, c=6, seed=31),
    beam_width=8,
    search="sequential",
    max_symbols=512,
)


class _StubTransmission:
    """Fixed-size blocks; decodes after ``blocks_needed``, gives up after ``budget``."""

    def __init__(self, block_symbols: int, blocks_needed: int, budget: int) -> None:
        self.block_symbols = block_symbols
        self.blocks_needed = blocks_needed
        self.budget = budget
        self.symbols_sent = 0
        self.symbols_delivered = 0
        self.decoded = False

    @property
    def exhausted(self) -> bool:
        return self.symbols_sent >= self.budget * self.block_symbols

    def send_next_block(self):
        self.symbols_sent += self.block_symbols
        return _StubBlock(self.block_symbols), None

    def deliver(self, block, received) -> bool:
        self.symbols_delivered += block.n_symbols
        if self.symbols_delivered >= self.blocks_needed * self.block_symbols:
            self.decoded = True
        return self.decoded


class _StubBlock:
    def __init__(self, n_symbols: int) -> None:
        self.n_symbols = n_symbols


class _StubLink:
    """A link whose per-packet work depends on the CSI seen when the packet opens."""

    payload_bits = 16

    def __init__(self, channel, block_symbols: int, budget: int) -> None:
        self.channel = channel
        self.block_symbols = block_symbols
        self.budget = budget
        self.max_symbols = max(1, budget) * block_symbols

    def open(self, payload, rng, observe):
        blocks = 1 + int(rng.integers(0, 3)) + (1 if observe() < 10.0 else 0)
        return _StubTransmission(self.block_symbols, blocks, self.budget)


def _channel(rng: np.random.Generator, traced: bool):
    snr_db = float(rng.uniform(4.0, 16.0))
    if not traced:
        return AWGNChannel(snr_db, adc_bits=14)
    period = int(rng.integers(24, 96))
    trace = sinusoidal_trace(snr_db, 6.0, period, period, phase=float(rng.uniform(0, 6.28)))
    return TimeVaryingAWGNChannel(trace, adc_bits=14)


def build_scenario(number: int):
    """Scenario ``number``: ``(cells, clock, handoffs)``, ready to run.

    ``handoffs`` is a list of ``(time, user)``; :func:`run_scenario` applies
    them.  Everything is drawn from one generator keyed on ``number``.
    """
    rng = np.random.default_rng([SEED, number])
    scheduler = SCHEDULER_NAMES[number % len(SCHEDULER_NAMES)]
    n_users = int(rng.integers(1, 7))
    staggered = bool(rng.integers(2))
    deadlines = bool(rng.integers(2))
    traced = bool(rng.integers(2))
    users_by_cell: list[list[CellUser]] = [[], []]
    for user in range(n_users):
        channel = _channel(rng, traced)
        if rng.integers(2):
            max_symbols = int(rng.choice([96, 192, 512]))
            link = RatelessLink(_RUN_CONFIG.build_session(channel, max_symbols))
        else:
            link = _StubLink(
                channel, int(rng.integers(8, 40)), int(rng.choice([0, 2, 3, 5, 8]))
            )
        n_packets = int(rng.integers(1, 4))
        payloads = [
            random_message_bits(16, spawn_rng(SEED, "mac-grant", number, user, i))
            for i in range(n_packets)
        ]
        arrivals = (
            tuple(int(t) for t in np.sort(rng.integers(0, 120, n_packets)))
            if staggered
            else None
        )
        deadline = int(rng.integers(30, 400)) if deadlines and rng.integers(4) else None
        users_by_cell[int(rng.integers(2))].append(
            CellUser(link, payloads, arrivals=arrivals, deadline=deadline, uid=user)
        )
    clock = EventScheduler()
    cells = [
        MacCell(users, scheduler, seed=SEED + number, clock=clock, allow_empty=True)
        for users in users_by_cell
    ]
    n_handoffs = int(rng.integers(0, 9)) if number % 4 else 0
    handoffs = sorted(
        (int(rng.integers(1, 240)), int(rng.integers(n_users))) for _ in range(n_handoffs)
    )
    return cells, clock, handoffs


def run_scenario(number: int) -> dict:
    """Run scenario ``number`` to completion; return its outcomes as plain data."""
    cells, clock, handoffs = build_scenario(number)
    serving, last_arrival = {}, {}
    for index, cell in enumerate(cells):
        for packet in cell.packets:
            serving[packet.user] = index
            last_arrival[packet.user] = max(last_arrival.get(packet.user, 0), packet.arrival)
    moved = []

    def handoff(user: int) -> None:
        source = cells[serving[user]]
        if source.on_air_user == user or last_arrival[user] > clock.now:
            return
        target = 1 - serving[user]
        cells[target].attach_state(source.detach_user(user))
        serving[user] = target
        moved.append([clock.now, user, target])

    for time, user in handoffs:
        clock.schedule(time, PRIORITY_ACK, lambda user=user: handoff(user))
    clock.run(max_events=100_000)
    return {
        "packets": [
            [
                p.user,
                p.index,
                p.arrival,
                p.completed,
                p.delivered,
                p.symbols_sent,
                p.symbols_needed,
                p.payload_bits,
            ]
            for cell in cells
            for p in cell.result().packets
        ],
        "makespans": [cell.closed_at for cell in cells],
        "handoffs": moved,
    }


def main() -> None:
    # One scenario per line keeps the file diffable.
    rows = ",\n".join(json.dumps(run_scenario(number)) for number in range(N_SCENARIOS))
    GOLDEN_PATH.write_text(f'{{"seed": {SEED}, "scenarios": [\n{rows}\n]}}\n')
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
