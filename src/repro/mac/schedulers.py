"""MAC schedulers: who transmits on the shared medium next.

The cell simulator (:mod:`repro.mac.cell`) calls
:meth:`Scheduler.pick` every time the medium frees up, passing the
ascending ids of the users that currently have traffic to send and a lazy
``view(user)`` accessor that builds one :class:`UserView` (the user's
observed CSI among it) on demand.  A discipline reads only what it needs:
round-robin never calls ``view``, so a grant costs it a bisection of the
eligible ids and no channel reads; the CSI-reading disciplines view each
eligible user once.  Three classic disciplines are provided:

* :class:`RoundRobinScheduler` — TDMA: users take turns block by block,
  blind to channel state.  The fairness reference point.
* :class:`MaxSnrScheduler` — pure opportunism: always grant the user whose
  *observed* SNR is highest right now.  Maximises aggregate goodput on
  time-varying channels (ride the crests) at the cost of starving users in
  fades.
* :class:`ProportionalFairScheduler` — the standard compromise: grant the
  user maximising ``instantaneous rate / average throughput``, where the
  average is an exponentially-decayed estimate of the bits the user has
  been delivered.  Users in a relative peak of their own channel win even
  when an absolutely-better user exists.

Schedulers are deliberately deterministic — ties break towards the lowest
user index, and all state updates are driven by the cell's event clock —
so cell results are reproducible and worker-count invariant like every
other measurement in the library.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "UserView",
    "Scheduler",
    "RoundRobinScheduler",
    "MaxSnrScheduler",
    "ProportionalFairScheduler",
    "make_scheduler",
    "SCHEDULER_NAMES",
]


@dataclass(frozen=True)
class UserView:
    """What a scheduler may know about one backlogged user at a grant instant.

    ``csi_db`` is the *observed* channel quality (the user's CSI report),
    which may lag or summarise the true channel; the cell never leaks the
    actual noise realisations to the scheduler.
    """

    user: int
    csi_db: float
    backlog: int
    symbols_granted: int
    bits_delivered: int


class Scheduler:
    """Interface a MAC scheduling discipline implements.

    Only :meth:`pick` is mandatory; the ``on_*`` hooks let stateful
    disciplines (e.g. proportional-fair) observe grants and deliveries
    without the cell knowing their internals.
    """

    #: Registry/report name of the discipline.
    name: str = "scheduler"

    def pick(
        self, now: int, eligible: Sequence[int], view: Callable[[int], UserView]
    ) -> int:
        """Return one of the ``eligible`` user ids to grant the medium.

        ``eligible`` is non-empty, ascending and owned by the cell (read
        it, do not keep or mutate it).  ``view(user)`` builds that eligible
        user's :class:`UserView` at ``now``; call it only for users whose
        state the discipline reads.
        """
        raise NotImplementedError

    def on_grant(self, user: int, n_symbols: int, now: int) -> None:
        """Called when ``user`` is granted ``n_symbols`` starting at ``now``."""

    def on_delivered(self, user: int, bits: int, now: int) -> None:
        """Called when a packet of ``bits`` payload bits completes at ``now``."""


class RoundRobinScheduler(Scheduler):
    """TDMA: cycle through backlogged users, one block each, channel-blind."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = -1

    def pick(
        self, now: int, eligible: Sequence[int], view: Callable[[int], UserView]
    ) -> int:
        # The first eligible user after the last one served, wrapping round;
        # the cursor's own user may have left the index since.
        position = bisect.bisect_right(eligible, self._cursor)
        self._cursor = eligible[position if position < len(eligible) else 0]
        return self._cursor


class MaxSnrScheduler(Scheduler):
    """Pure opportunism: grant the highest observed SNR, ties to lowest index.

    A NaN report never wins a comparison, so it displaces no one.
    """

    name = "max-snr"

    def pick(
        self, now: int, eligible: Sequence[int], view: Callable[[int], UserView]
    ) -> int:
        best = eligible[0]
        best_csi = view(best).csi_db
        for user in eligible:
            csi_db = view(user).csi_db
            if csi_db > best_csi:
                best, best_csi = user, csi_db
        return best


class ProportionalFairScheduler(Scheduler):
    """Grant ``argmax instantaneous_rate / average_throughput``.

    The average throughput of user ``i`` is tracked as an exponentially
    decayed estimate with half-life ``half_life`` symbol-times: every
    delivered packet adds an impulse of ``bits / half_life``, and the
    estimate halves each ``half_life`` ticks of cell time.  A short
    half-life approaches round-robin (everyone's average forgets fast); a
    long one approaches max-SNR (past service barely discounts a good
    channel).  The instantaneous rate is the Shannon rate at the observed
    SNR — the scheduler's estimate of what a grant is worth, not a promise
    the codec must honour.
    """

    name = "proportional-fair"

    def __init__(self, half_life: int = 2048, floor: float = 1e-9) -> None:
        if half_life < 1:
            raise ValueError(f"half_life must be at least 1, got {half_life}")
        # The floor is what keeps the PF metric finite at a user's *first*
        # grant, when their decayed average is exactly zero: the metric
        # becomes ``instantaneous / floor`` (unserved users get near-absolute
        # priority), not a division by zero.  A zero or negative floor would
        # reintroduce the ZeroDivisionError, so reject it up front.
        if not floor > 0.0:
            raise ValueError(f"floor must be strictly positive, got {floor}")
        self.half_life = int(half_life)
        self.floor = float(floor)
        self._average: dict[int, float] = {}
        self._updated: dict[int, int] = {}

    def _decayed_average(self, user: int, now: int) -> float:
        average = self._average.get(user, 0.0)
        if average == 0.0:
            return 0.0
        elapsed = now - self._updated[user]
        return average * 0.5 ** (elapsed / self.half_life)

    def pick(
        self, now: int, eligible: Sequence[int], view: Callable[[int], UserView]
    ) -> int:
        best = None
        best_metric = float("-inf")
        for user in eligible:
            snr_linear = 10.0 ** (view(user).csi_db / 10.0)
            instantaneous = math.log2(1.0 + snr_linear)
            metric = instantaneous / max(self._decayed_average(user, now), self.floor)
            # A NaN CSI report (a tracing gap, a corrupt trace sample) makes
            # the metric NaN, and NaN compares false against everything — a
            # pick over all-NaN views would return no user at all.  Treat
            # NaN as "worst possible" so such a user is never *preferred*,
            # while the ``best is None`` arm still guarantees a valid grant
            # (the lowest-index user, matching the library's tie-break rule).
            if math.isnan(metric):
                metric = float("-inf")
            if best is None or metric > best_metric:
                best, best_metric = user, metric
        return best

    def on_delivered(self, user: int, bits: int, now: int) -> None:
        self._average[user] = (
            self._decayed_average(user, now) + bits / self.half_life
        )
        self._updated[user] = now


#: The disciplines :func:`make_scheduler` (and the cell experiments) accept.
SCHEDULER_NAMES = ("round-robin", "max-snr", "proportional-fair")


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Build a fresh scheduler instance from its experiment-config name."""
    factories = {
        "round-robin": RoundRobinScheduler,
        "max-snr": MaxSnrScheduler,
        "proportional-fair": ProportionalFairScheduler,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {sorted(factories)}"
        ) from None
    return factory(**kwargs)
