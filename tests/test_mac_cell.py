"""Tests for the multi-user cell simulator and the adaptive baseline.

The load-bearing contract is the equivalence discipline extended one layer
up: a single-user round-robin cell must reproduce the single-hop transport
(and therefore the plain rateless session) symbol for symbol, because the
cell derives its per-(user, packet) noise streams from the transport's
per-hop convention with hop ≡ user.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rate_adaptation import RateAdaptationPolicy
from repro.channels.awgn import AWGNChannel
from repro.core.params import SpinalParams
from repro.experiments.runner import SpinalRunConfig
from repro.link.events import PRIORITY_ACK, EventScheduler
from repro.link.topology import build_relay_sessions, simulate_relay_transport
from repro.link.transport import TransportConfig, packet_rng
from repro.mac.adaptive import (
    AdaptiveSpinalLink,
    SpinalRateOption,
    calibrate_spinal_rate_policy,
    spinal_rate_options,
)
from repro.mac.cell import (
    CellUser,
    MacCell,
    RatelessLink,
    cell_packet_rng,
    default_csi,
    simulate_cell,
    spread_snrs,
)
from repro.mac.metrics import jain_fairness_index
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

_RUN_CONFIG = SpinalRunConfig(
    payload_bits=16,
    params=SpinalParams(k=4, c=6, seed=31),
    beam_width=8,
    search="sequential",
    max_symbols=512,
)


def _payloads(n, label="payload", seed=901):
    return [random_message_bits(16, spawn_rng(seed, label, i)) for i in range(n)]


def _session(snr_db=10.0):
    """One rateless session wired exactly like the transport's hop 0."""
    return build_relay_sessions(_RUN_CONFIG, [snr_db])[0]


def _rateless_user(snr_db, payloads, **kwargs):
    return CellUser(RatelessLink(_session(snr_db)), payloads, **kwargs)


class TestSingleUserEquivalence:
    """1-user round-robin cell == single-hop transport == serial session."""

    def test_cell_reproduces_transport_symbol_counts_bit_exactly(self):
        payloads = _payloads(5)
        transport = simulate_relay_transport(
            [_session()],
            payloads,
            TransportConfig(protocol="selective-repeat", window=1, ack_delay=0, seed=41),
        ).hops[0]
        cell = simulate_cell(
            [_rateless_user(10.0, payloads)], "round-robin", seed=41
        )

        assert transport.delivered.all()
        assert all(p.delivered for p in cell.packets)
        assert [p.symbols_needed for p in cell.packets] == transport.symbols_needed.tolist()
        assert [p.symbols_sent for p in cell.packets] == transport.symbols_spent.tolist()
        assert [p.completed for p in cell.packets] == transport.delivery_times.tolist()
        assert cell.makespan == transport.makespan

    def test_cell_reproduces_serial_session_runs(self):
        payloads = _payloads(4)
        session = _session()
        serial = [
            session.run(payload, packet_rng(77, 0, index)).symbols_sent
            for index, payload in enumerate(payloads)
        ]
        cell = simulate_cell([_rateless_user(10.0, payloads)], "round-robin", seed=77)
        assert [p.symbols_sent for p in cell.packets] == serial

    def test_cell_packet_rng_is_the_transport_stream(self):
        a = cell_packet_rng(13, 2, 5).integers(1 << 30, size=4)
        b = packet_rng(13, 2, 5).integers(1 << 30, size=4)
        assert np.array_equal(a, b)

    def test_cell_packets_carry_their_cell_packet_rng(self):
        users = [
            _rateless_user(10.0, _payloads(3), uid=4),
            _rateless_user(10.0, _payloads(2), uid=9),
        ]
        cell = MacCell(users, "round-robin", seed=13)
        assert [(p.user, p.index) for p in cell.packets] == [
            (4, 0), (4, 1), (4, 2), (9, 0), (9, 1)
        ]
        for packet in cell.packets:
            reference = cell_packet_rng(13, packet.user, packet.index)
            stream = np.random.default_rng(packet.seed)
            assert stream.bit_generator.state == reference.bit_generator.state


class TestDeterminism:
    def _cell(self, seed, scheduler="proportional-fair"):
        users = [
            _rateless_user(snr, _payloads(3, label=f"u{u}"))
            for u, snr in enumerate(spread_snrs(11.0, 8.0, 3))
        ]
        return simulate_cell(users, scheduler, seed=seed)

    def test_same_seed_is_bit_identical(self):
        first, second = self._cell(5), self._cell(5)
        assert first.packets == second.packets
        assert first.makespan == second.makespan

    def test_different_seed_differs(self):
        assert self._cell(5).packets != self._cell(6).packets


class TestMultiUserCell:
    def _users(self, n_users=4, packets=3, spread=10.0):
        return [
            _rateless_user(snr, _payloads(packets, label=f"user{u}"))
            for u, snr in enumerate(spread_snrs(12.0, spread, n_users))
        ]

    def test_all_packets_deliver_and_medium_never_idles(self):
        result = simulate_cell(self._users(), "round-robin", seed=3)
        assert result.n_delivered == result.n_packets == 12
        # Everyone is backlogged from t=0 and the medium is work-conserving,
        # so the cell ends exactly when the last symbol has been sent.
        assert result.makespan == result.total_symbols_sent
        assert 0.0 < result.aggregate_goodput
        assert result.mean_latency <= result.makespan

    def test_static_channels_make_aggregate_goodput_scheduler_invariant(self):
        # The null result the module docstring promises: with static SNRs
        # per-packet symbol counts are schedule-invariant, so every
        # work-conserving discipline drains the same backlog in the same
        # total time — only *who waits* changes.
        results = {
            name: simulate_cell(self._users(), name, seed=3)
            for name in ("round-robin", "max-snr", "proportional-fair")
        }
        goodputs = {round(r.aggregate_goodput, 12) for r in results.values()}
        assert len(goodputs) == 1
        # ... but *who waits* changes: the service order differs.
        assert results["max-snr"].packets != results["round-robin"].packets

    def test_fairness_index_bounds(self):
        result = simulate_cell(self._users(), "round-robin", seed=3)
        assert 1.0 / result.n_users <= result.jain_fairness <= 1.0

    def test_jain_fairness_index_values(self):
        assert jain_fairness_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert jain_fairness_index([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            jain_fairness_index([])
        with pytest.raises(ValueError):
            jain_fairness_index([-1.0, 1.0])

    def test_abort_on_budget_exhaustion_advances_the_queue(self):
        # A hopeless head-of-line packet must not wedge the user's queue.
        config = _RUN_CONFIG.with_(max_symbols=8)
        session = build_relay_sessions(config, [-15.0])[0]
        good = _rateless_user(15.0, _payloads(2, label="good"))
        bad = CellUser(RatelessLink(session), _payloads(2, label="bad"))
        result = simulate_cell([bad, good], "round-robin", seed=9)
        by_user = {
            user: [p for p in result.packets if p.user == user] for user in (0, 1)
        }
        assert all(p.delivered for p in by_user[1])
        assert all(not p.delivered for p in by_user[0])
        assert all(p.symbols_sent >= 8 for p in by_user[0])  # budget truly spent
        assert result.n_delivered == 2


class TestArrivalsAndDeadlines:
    def test_staggered_arrivals_idle_then_serve(self):
        user = _rateless_user(12.0, _payloads(2), arrivals=(100, 100))
        result = simulate_cell([user], "round-robin", seed=4)
        assert all(p.delivered for p in result.packets)
        assert all(p.completed > 100 for p in result.packets)
        assert all(p.latency < p.completed for p in result.packets)

    def test_arrival_wakes_an_idle_medium_alongside_busy_users(self):
        early = _rateless_user(12.0, _payloads(1, label="early"))
        late = _rateless_user(12.0, _payloads(1, label="late"), arrivals=(400,))
        result = simulate_cell([early, late], "round-robin", seed=4)
        assert result.n_delivered == 2
        first, second = sorted(result.packets, key=lambda p: p.completed)
        assert second.arrival == 400 and second.completed > 400

    def test_deadline_drops_undeliverable_packets_at_the_deadline(self):
        # At -15 dB the packet cannot decode within 40 symbol-times.
        session = build_relay_sessions(_RUN_CONFIG, [-15.0])[0]
        user = CellUser(RatelessLink(session), _payloads(1), deadline=40)
        result = simulate_cell([user], "round-robin", seed=6)
        (packet,) = result.packets
        assert not packet.delivered
        assert packet.completed == 40  # dropped exactly at the deadline
        assert packet.symbols_sent > 0  # it was mid-flight, not unstarted

    def test_deadline_timer_is_disarmed_by_delivery(self):
        user = _rateless_user(15.0, _payloads(2), deadline=400)
        cell = MacCell([user], "round-robin", seed=6)
        result = cell.run()
        assert all(p.delivered for p in result.packets)
        assert cell.clock.pending == 0  # cancelled timers do not linger

    def test_invalid_configs_are_rejected(self):
        with pytest.raises(ValueError, match="arrival times"):
            CellUser(RatelessLink(_session()), _payloads(2), arrivals=(0,))
        with pytest.raises(ValueError, match="deadline"):
            CellUser(RatelessLink(_session()), _payloads(1), deadline=0)
        with pytest.raises(ValueError, match="at least one user"):
            simulate_cell([], "round-robin")
        with pytest.raises(ValueError, match="non-negative"):
            simulate_cell(
                [CellUser(RatelessLink(_session()), _payloads(1), arrivals=(-1,))],
                "round-robin",
            )


class TestRunUntil:
    def test_stepping_matches_uninterrupted_run(self):
        def users():
            return [
                _rateless_user(snr, _payloads(3, label=f"s{u}"))
                for u, snr in enumerate(spread_snrs(12.0, 6.0, 2))
            ]

        straight = simulate_cell(users(), "round-robin", seed=8)
        stepped_cell = MacCell(users(), "round-robin", seed=8)
        partial = stepped_cell.run_until(20)
        assert partial.makespan <= 20
        assert any(p.completed == -1 for p in partial.packets) or all(
            p.finished for p in stepped_cell.packets
        )
        final = stepped_cell.run()
        assert final.packets == straight.packets
        assert final.makespan == straight.makespan


class TestDefaultCsi:
    def test_constant_for_awgn_and_mean_for_fading(self):
        from repro.channels.fading import RayleighBlockFadingChannel

        assert default_csi(AWGNChannel(7.5))(123) == 7.5
        assert default_csi(RayleighBlockFadingChannel(9.0))(0) == 9.0

    def test_trace_channels_report_by_cell_time(self):
        from repro.channels.awgn import TimeVaryingAWGNChannel

        channel = TimeVaryingAWGNChannel([0.0, 10.0, 20.0])
        csi = default_csi(channel)
        assert csi(1) == 10.0
        assert csi(5) == 20.0  # cyclic

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="cannot derive CSI"):
            default_csi(object())


class TestSpreadSnrs:
    def test_spans_the_spread_evenly(self):
        snrs = spread_snrs(10.0, 6.0, 4)
        assert snrs == [7.0, 9.0, 11.0, 13.0]
        assert spread_snrs(10.0, 6.0, 1) == [10.0]
        assert spread_snrs(10.0, 0.0, 3) == [10.0, 10.0, 10.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            spread_snrs(10.0, -1.0, 2)
        with pytest.raises(ValueError):
            spread_snrs(10.0, 5.0, 0)


# -- the adaptive (rate-adaptation) baseline ----------------------------------

_PARAMS = SpinalParams(k=4, c=6)


def _policy(thresholds: dict[int, float]) -> RateAdaptationPolicy:
    options = spinal_rate_options(4, tuple(thresholds))
    return RateAdaptationPolicy(
        configs=options,
        thresholds={o: thresholds[o.n_passes] for o in options},
    )


class TestSpinalRateOptions:
    def test_menu_is_sorted_and_deduplicated(self):
        options = spinal_rate_options(4, (8, 1, 2, 2))
        assert [o.n_passes for o in options] == [1, 2, 8]
        assert [o.nominal_rate for o in options] == [4.0, 2.0, 0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            spinal_rate_options(4, ())
        with pytest.raises(ValueError):
            SpinalRateOption(0, 1.0)


class TestCalibration:
    def test_thresholds_are_monotone_in_robustness(self):
        rng = spawn_rng(3, "calibration-test")
        policy = calibrate_spinal_rate_policy(
            payload_bits=16,
            params=_PARAMS,
            beam_width=8,
            adc_bits=14,
            pass_choices=(1, 4, 8),
            snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0),
            n_frames=6,
            target_frame_error_rate=0.34,
            rng=rng,
        )
        by_passes = {o.n_passes: policy.thresholds[o] for o in policy.configs}
        # More passes (more robust) must never need a *higher* SNR.
        assert by_passes[8] <= by_passes[4] <= by_passes[1]
        # And the policy picks the fastest usable option.
        best_at_high = policy.select(25.0)
        assert best_at_high.nominal_rate == max(o.nominal_rate for o in policy.configs if policy.thresholds[o] <= 25.0)

    def test_validation(self):
        rng = spawn_rng(3, "calibration-test")
        with pytest.raises(ValueError, match="target FER"):
            calibrate_spinal_rate_policy(16, _PARAMS, 8, None, (1,), (10.0,), 2, 1.5, rng)
        with pytest.raises(ValueError, match="snr_grid_db"):
            calibrate_spinal_rate_policy(16, _PARAMS, 8, None, (1,), (), 2, 0.1, rng)


class TestAdaptiveTransmission:
    def _link(self, policy, snr_db, max_symbols=512):
        return AdaptiveSpinalLink(
            policy=policy,
            channel=AWGNChannel(snr_db, adc_bits=14),
            payload_bits=16,
            params=_PARAMS,
            beam_width=8,
            max_symbols=max_symbols,
        )

    def test_good_channel_delivers_at_the_selected_rate(self):
        policy = _policy({1: 18.0, 2: 10.0, 8: 0.0})
        link = self._link(policy, 25.0)
        user = CellUser(link, _payloads(3, label="adaptive"))
        result = simulate_cell([user], "round-robin", seed=21)
        assert all(p.delivered for p in result.packets)
        # 25 dB clears the 1-pass threshold: each frame is 4 segments.
        assert all(p.symbols_sent % 4 == 0 for p in result.packets)
        assert all(p.symbols_needed == p.symbols_sent for p in result.packets)

    def test_misconfigured_policy_retries_until_budget_then_aborts(self):
        # Only a rate-4 single-pass option, "usable" everywhere: at -5 dB it
        # essentially never decodes, so the sender retransmits whole frames
        # until the budget cannot fit another attempt.
        policy = _policy({1: float("-inf")})
        link = self._link(policy, -5.0, max_symbols=64)
        user = CellUser(link, _payloads(1, label="doomed"))
        result = simulate_cell([user], "round-robin", seed=22)
        (packet,) = result.packets
        assert not packet.delivered
        assert packet.symbols_sent == 64  # 16 whole attempts of 4 symbols
        assert packet.symbols_needed == 0

    def test_unfittable_frame_is_aborted_without_spending_symbols(self):
        # The most robust option needs 8*4 = 32 symbols; the budget is 16.
        policy = _policy({8: float("-inf")})
        link = self._link(policy, 10.0, max_symbols=16)
        good = _rateless_user(15.0, _payloads(1, label="ok"))
        doomed = CellUser(link, _payloads(1, label="nofit"))
        result = simulate_cell([doomed, good], "round-robin", seed=23)
        by_user = {p.user: p for p in result.packets}
        assert not by_user[0].delivered
        assert by_user[0].symbols_sent == 0
        assert by_user[1].delivered

    def test_policy_falls_back_to_most_robust_below_all_thresholds(self):
        policy = _policy({1: 20.0, 4: 10.0})
        assert policy.select(-3.0).n_passes == 4
        assert policy.select(15.0).n_passes == 4
        assert policy.select(20.0).n_passes == 1


class _FixedBlockTransmission:
    """Stub transmission: fixed-size blocks, decodes after a block count."""

    def __init__(self, block_symbols: int, blocks_needed: int) -> None:
        self.block_symbols = block_symbols
        self.blocks_needed = blocks_needed
        self.symbols_sent = 0
        self.symbols_delivered = 0
        self.decoded = False
        self.exhausted = False

    def send_next_block(self):
        self.symbols_sent += self.block_symbols

        class _Block:
            n_symbols = self.block_symbols

        return _Block(), None

    def deliver(self, block, received) -> bool:
        self.symbols_delivered += block.n_symbols
        if self.symbols_delivered >= self.blocks_needed * self.block_symbols:
            self.decoded = True
        return self.decoded


class _FixedBlockLink:
    """Stub link with exact, configurable block timing (for tick arithmetic)."""

    payload_bits = 16
    max_symbols = 10_000

    def __init__(self, block_symbols: int, blocks_needed: int, snr_db: float) -> None:
        self.block_symbols = block_symbols
        self.blocks_needed = blocks_needed
        self.channel = AWGNChannel(snr_db)

    def open(self, payload, rng, observe):
        return _FixedBlockTransmission(self.block_symbols, self.blocks_needed)


class TestDeadlineGrantRace:
    def test_packet_is_not_granted_at_its_expiry_tick(self):
        # Timeline: user 0's single 20-symbol block occupies [0, 20); the
        # next grant at t=20 was scheduled at t=0 (when the block went up).
        # User 1's packet arrives at t=5 with deadline 15, so it expires at
        # exactly t=20 — but its deadline timer was armed *after* the grant
        # event, so the grant fires first at that tick.  The grant must not
        # hand the medium to the expiring packet.
        user0 = CellUser(_FixedBlockLink(20, 1, snr_db=20.0), _payloads(1, label="a"))
        user1 = CellUser(
            _FixedBlockLink(20, 1, snr_db=10.0),
            _payloads(1, label="b"),
            arrivals=(5,),
            deadline=15,
        )
        result = simulate_cell([user0, user1], "round-robin", seed=1)
        by_user = {p.user: p for p in result.packets}
        assert by_user[0].delivered and by_user[0].completed == 20
        assert not by_user[1].delivered
        assert by_user[1].completed == 20  # expired exactly at the deadline
        assert by_user[1].symbols_sent == 0  # and never reached the air
        assert result.makespan == 20

    def test_waiting_head_expires_at_a_grant_tick_without_reaching_the_air(self):
        # Max-SNR grants user 1's 10-symbol blocks at t=0, 10, ..., 40, so
        # user 0's head (arrival 5, deadline 25) is resolved and passed over
        # at t=10 and t=20, then falls due exactly at the t=30 grant.  Its
        # timer was armed before that grant was scheduled, so it fires first.
        user0 = CellUser(
            _FixedBlockLink(10, 1, snr_db=5.0),
            _payloads(1, label="a"),
            arrivals=(5,),
            deadline=25,
        )
        user1 = CellUser(_FixedBlockLink(10, 5, snr_db=20.0), _payloads(1, label="b"))
        result = simulate_cell([user0, user1], "max-snr", seed=1)
        by_user = {p.user: p for p in result.packets}
        assert (by_user[0].completed, by_user[0].delivered) == (30, False)
        assert by_user[0].symbols_sent == 0
        assert (by_user[1].completed, by_user[1].symbols_sent) == (50, 50)


class TestHeadChangesFollowHandoffs:
    """Events armed in one cell reach a migrated user's head in the next."""

    def test_expiry_after_handoff_frees_the_new_cell_for_the_next_packet(self):
        # User 0 arrives in cell A at t=2 and t=9 (deadline 30: due 32 and
        # 39) while A's user 1 holds the medium until t=50.  At t=10 it moves
        # to cell B, where max-SNR keeps granting user 2's 5-symbol blocks
        # until t=35, so user 0's head waits in B until A's deadline timer
        # expires it at t=32.  B's next grant, at t=35, must go to user 0's
        # second packet (3 symbols, delivered at t=38), not the expired head.
        clock = EventScheduler()
        mover = CellUser(
            _FixedBlockLink(3, 1, snr_db=5.0),
            _payloads(2, label="mover"),
            arrivals=(2, 9),
            deadline=30,
            uid=0,
        )
        blocker_a = CellUser(_FixedBlockLink(50, 1, snr_db=20.0), _payloads(1), uid=1)
        blocker_b = CellUser(_FixedBlockLink(5, 7, snr_db=20.0), _payloads(1), uid=2)
        cell_a = MacCell([mover, blocker_a], "max-snr", seed=3, clock=clock)
        cell_b = MacCell([blocker_b], "max-snr", seed=3, clock=clock)
        clock.schedule(10, PRIORITY_ACK, lambda: cell_b.attach_state(cell_a.detach_user(0)))
        clock.run(max_events=1000)
        head, second = cell_a.result().packets[:2]
        assert (head.completed, head.delivered, head.symbols_sent) == (32, False, 0)
        assert (second.completed, second.delivered, second.symbols_sent) == (38, True, 3)
        assert cell_b.result().packets[0].completed == 35
        assert cell_b.closed_at == 38  # B carried the second packet

    def test_arrival_after_handoff_wakes_the_new_cell(self):
        # User 0 leaves cell A with an empty queue for an idle cell B; its
        # packet arriving at t=20 must be granted in B at once.
        clock = EventScheduler()
        mover = CellUser(
            _FixedBlockLink(4, 2, snr_db=10.0), _payloads(1), arrivals=(20,), uid=0
        )
        stayer = CellUser(_FixedBlockLink(8, 1, snr_db=10.0), _payloads(1), uid=1)
        cell_a = MacCell([mover, stayer], "round-robin", seed=3, clock=clock)
        cell_b = MacCell([], "round-robin", seed=3, clock=clock, allow_empty=True)
        clock.schedule(5, PRIORITY_ACK, lambda: cell_b.attach_state(cell_a.detach_user(0)))
        clock.run(max_events=1000)
        packet = cell_a.result().packets[0]
        assert (packet.completed, packet.delivered, packet.symbols_sent) == (28, True, 8)
        assert cell_b.closed_at == 28


class TestCalibrationMemo:
    def test_adaptive_cells_share_one_calibration(self, monkeypatch):
        import repro.experiments.cell_rateless_vs_adaptive as module
        import repro.mac.adaptive as adaptive_module

        calls = []
        original = adaptive_module.calibrate_spinal_rate_policy

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "calibrate_spinal_rate_policy", counting)
        monkeypatch.setattr(module, "_POLICY_CACHE", {})
        from repro.experiments import registry
        from repro.experiments.registry import run_experiment

        outcome = run_experiment(
            registry.get("cell-rateless-vs-adaptive"),
            overrides={"mode": ("adaptive",), "snr_spread_db": (0.0, 4.0, 8.0)},
            smoke=True,
        )
        assert len(outcome.successful_cells()) == 3
        assert len(calls) == 1  # one calibration serves every adaptive cell


class TestEmptyCellMetrics:
    """PR-7 bugfix sweep: latency metrics of cells that delivered nothing.

    Both metrics document a 0.0 sentinel when no packet was delivered, and
    the empty guard must hold even with warnings escalated to errors (a bare
    ``np.mean``/``np.percentile`` of an empty array warns or raises).
    """

    def _empty_result(self):
        from repro.mac.metrics import CellResult

        return CellResult(scheduler="round-robin", n_users=2, packets=(), makespan=0)

    def _undelivered_result(self):
        from repro.mac.metrics import CellResult, PacketOutcome

        packet = PacketOutcome(
            user=0,
            index=0,
            arrival=0,
            completed=40,
            delivered=False,
            symbols_sent=40,
            symbols_needed=0,
            payload_bits=16,
        )
        return CellResult(
            scheduler="round-robin", n_users=1, packets=(packet,), makespan=40
        )

    def test_empty_cell_metrics_are_defined(self):
        import warnings

        result = self._empty_result()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.mean_latency == 0.0
            assert result.latency_percentile(99.0) == 0.0
        assert result.aggregate_goodput == 0.0
        assert result.delivered_fraction == 1.0
        assert result.jain_fairness == 1.0

    def test_all_undelivered_metrics_are_defined(self):
        import warnings

        result = self._undelivered_result()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.mean_latency == 0.0
            assert result.latency_percentile(50.0) == 0.0
        assert result.delivered_fraction == 0.0
        assert result.aggregate_goodput == 0.0
