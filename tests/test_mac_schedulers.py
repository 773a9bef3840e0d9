"""Tests for the MAC scheduling disciplines.

Unit behaviour first (deterministic picks, tie-breaks, state hooks), then
the physics: on channels whose state evolves with wall-clock time, an
opportunistic scheduler must extract strictly more full-buffer throughput
than channel-blind round-robin — the gain that motivates channel-aware
MACs, reproduced here over rateless spinal sessions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.awgn import TimeVaryingAWGNChannel
from repro.channels.traces import sinusoidal_trace
from repro.core.params import SpinalParams
from repro.experiments.runner import SpinalRunConfig
from repro.mac.cell import CellUser, MacCell, RatelessLink, simulate_cell
from repro.mac.schedulers import (
    MaxSnrScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    Scheduler,
    UserView,
    make_scheduler,
)
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

_RUN_CONFIG = SpinalRunConfig(
    payload_bits=16,
    params=SpinalParams(k=4, c=6, seed=31),
    beam_width=8,
    search="sequential",
    max_symbols=512,
)


def _view(user, csi_db, backlog=1):
    return UserView(
        user=user, csi_db=csi_db, backlog=backlog, symbols_granted=0, bits_delivered=0
    )


class TestRoundRobin:
    def test_cycles_through_eligible_users(self):
        scheduler = RoundRobinScheduler()
        views = [_view(0, 5.0), _view(1, 25.0), _view(2, 10.0)]
        picks = [scheduler.pick(t, views) for t in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_users_without_backlog(self):
        scheduler = RoundRobinScheduler()
        assert scheduler.pick(0, [_view(0, 5.0), _view(2, 5.0)]) == 0
        assert scheduler.pick(1, [_view(0, 5.0), _view(2, 5.0)]) == 2
        # User 1 shows up again: the rotation resumes after the cursor (2).
        assert scheduler.pick(2, [_view(0, 5.0), _view(1, 5.0)]) == 0
        assert scheduler.pick(3, [_view(0, 5.0), _view(1, 5.0)]) == 1


class TestMaxSnr:
    def test_picks_highest_observed_snr(self):
        scheduler = MaxSnrScheduler()
        assert scheduler.pick(0, [_view(0, 5.0), _view(1, 25.0), _view(2, 10.0)]) == 1

    def test_ties_break_to_lowest_user(self):
        scheduler = MaxSnrScheduler()
        assert scheduler.pick(0, [_view(1, 10.0), _view(2, 10.0)]) == 1


class TestProportionalFair:
    def test_unserved_users_win_at_equal_snr(self):
        scheduler = ProportionalFairScheduler(half_life=64)
        views = [_view(0, 10.0), _view(1, 10.0)]
        assert scheduler.pick(0, views) == 0  # tie: lowest index
        scheduler.on_delivered(0, 16, 0)
        assert scheduler.pick(1, views) == 1  # user 0 now has throughput history

    def test_served_history_decays_back_to_parity(self):
        scheduler = ProportionalFairScheduler(half_life=8)
        scheduler.on_delivered(0, 16, 0)
        views = [_view(0, 10.0), _view(1, 5.0)]
        # Immediately after service the worse channel wins on fairness...
        assert scheduler.pick(1, views) == 1
        scheduler.on_delivered(1, 16, 1)
        # ...and far in the future both histories have decayed: rate wins.
        assert scheduler.pick(10_000, views) == 0

    def test_rejects_bad_half_life(self):
        with pytest.raises(ValueError, match="half_life"):
            ProportionalFairScheduler(half_life=0)


class TestFactoryAndProtocol:
    def test_make_scheduler_builds_each_discipline(self):
        assert make_scheduler("round-robin").name == "round-robin"
        assert make_scheduler("max-snr").name == "max-snr"
        assert make_scheduler("proportional-fair").name == "proportional-fair"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("lottery")

    def test_cell_rejects_ineligible_pick(self):
        class Rogue(Scheduler):
            name = "rogue"

            def pick(self, now, views):
                return 999

        payloads = [random_message_bits(16, spawn_rng(1, "rogue", i)) for i in range(1)]
        from repro.channels.awgn import AWGNChannel

        session = _RUN_CONFIG.build_session(AWGNChannel(10.0, adc_bits=14), 512)
        with pytest.raises(ValueError, match="picked user 999"):
            simulate_cell([CellUser(RatelessLink(session), payloads)], Rogue())


class TestOpportunisticGain:
    """Channel-aware scheduling must pay off on wall-clock-varying channels."""

    HORIZON = 400

    def _users(self):
        users = []
        for u in range(2):
            # Anti-phase sinusoidal SNR traces pinned to the cell clock:
            # whenever one user fades the other peaks, the textbook setting
            # for multi-user diversity.
            trace = sinusoidal_trace(10.0, 9.0, 64, 64, phase=np.pi * u)
            channel = TimeVaryingAWGNChannel(trace, adc_bits=14)
            session = _RUN_CONFIG.build_session(channel, 512)
            payloads = [
                random_message_bits(16, spawn_rng(9, "tv", u, i)) for i in range(80)
            ]
            users.append(CellUser(RatelessLink(session), payloads))
        return users

    def _throughput(self, scheduler_name):
        cell = MacCell(self._users(), scheduler_name, seed=11)
        result = cell.run_until(self.HORIZON)
        # Full-buffer framing: both queues stay backlogged through the
        # horizon, so delivered bits per horizon tick is the cell
        # throughput (no drain endgame to distort the comparison).
        assert any(not p.finished for p in cell.packets)
        return result.delivered_bits / self.HORIZON

    def test_max_snr_and_pf_beat_round_robin(self):
        round_robin = self._throughput("round-robin")
        max_snr = self._throughput("max-snr")
        proportional_fair = self._throughput("proportional-fair")
        assert max_snr > round_robin
        assert proportional_fair > round_robin

    def test_external_clock_is_what_creates_the_gain(self):
        # Control experiment: identical traces, but left on their default
        # symbols-transmitted clock (no set_time pinning).  Each user's
        # channel then evolves only while that user transmits, there are no
        # crests to ride, and max-SNR degenerates to a static pick.
        class Unpinned(TimeVaryingAWGNChannel):
            def set_time(self, time):  # noqa: ARG002 - deliberately ignore
                pass

        users = []
        for u in range(2):
            trace = sinusoidal_trace(10.0, 9.0, 64, 64, phase=np.pi * u)
            channel = Unpinned(trace, adc_bits=14)
            session = _RUN_CONFIG.build_session(channel, 512)
            payloads = [
                random_message_bits(16, spawn_rng(9, "tv", u, i)) for i in range(80)
            ]
            users.append(CellUser(RatelessLink(session), payloads))
        cell = MacCell(users, "max-snr", seed=11)
        result = cell.run_until(self.HORIZON)
        pinned = self._throughput("max-snr")
        unpinned = result.delivered_bits / self.HORIZON
        assert pinned > unpinned


class TestProportionalFairEdgeCases:
    """PR-7 bugfix sweep: the first-grant metric and degenerate CSI."""

    def test_rejects_non_positive_floor(self):
        with pytest.raises(ValueError, match="floor"):
            ProportionalFairScheduler(floor=0.0)
        with pytest.raises(ValueError, match="floor"):
            ProportionalFairScheduler(floor=-1e-9)

    def test_first_grant_is_well_defined(self):
        """No history at all (every average zero) must not divide by zero."""
        scheduler = ProportionalFairScheduler()
        assert scheduler.pick(0, [_view(0, 10.0), _view(1, 20.0)]) == 1

    def test_nan_csi_user_is_never_preferred(self):
        scheduler = ProportionalFairScheduler()
        assert scheduler.pick(0, [_view(0, float("nan")), _view(1, -10.0)]) == 1
        assert scheduler.pick(0, [_view(3, -10.0), _view(7, float("nan"))]) == 3

    def test_all_nan_csi_still_grants_someone(self):
        """All-NaN views fall back to the lowest-index user, not a crash."""
        scheduler = ProportionalFairScheduler()
        views = [_view(4, float("nan")), _view(9, float("nan"))]
        assert scheduler.pick(0, views) == 4
