"""User mobility: deterministic 2D reflected random walks on an epoch clock.

Positions update at *epoch* boundaries (``epoch_symbols`` symbol-times), not
per symbol: channel coherence at walking speeds is many thousands of symbol
times, so one position per user and epoch is enough.  Each coordinate of
each user is an independent reflected Gaussian walk, bit-identical to
:func:`repro.channels.traces.random_walk_trace` (the walk the time-varying
channels use) reflected at the city bounds, with every stream derived from
``(seed, label, user)`` so a user's path never depends on how many other
users exist or which process simulates it.  The placements and each
axis's walk streams are derived for all users in one
:func:`~repro.utils.rng.spawn_rngs` batch, exactly the streams per-user
:func:`~repro.utils.rng.spawn_rng` calls would give.

Walks are filled lazily.  A walk model keeps only its recipe (initial
placements, step, bounds, seed, horizon) plus the columns read so far; a
read past them grows the filled horizon to at least double and replays
every user's walk from its derived stream up to the new horizon, one
vectorized step across all users per epoch.  Replay is exact: a longer
Gaussian draw from the same stream begins with the shorter draw, and the
reflected walk is a sequential fold over its steps, so the first ``n``
positions of a longer walk are the ``n``-step walk.  A city run that ends
after a few dozen epochs therefore never pays for the worst-case horizon
its network sizes.

Trajectories are finite: a walk of ``n_epochs`` epochs *parks* at its final
position if the simulation outlives it (position reads clamp to the last
epoch).  The network layer sizes ``n_epochs`` from its worst-case makespan
bound and stops scheduling epoch events once everyone is parked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import spawn_rngs

__all__ = ["MobilityModel"]

# Epochs filled by the first read past column 0; later fills double.
_FIRST_FILL = 32


@dataclass(frozen=True)
class _WalkRecipe:
    step: float
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    seed: int


def _reflected_walks(
    starts: np.ndarray, steps: np.ndarray, low: float, high: float
) -> np.ndarray:
    """Row ``u`` is ``random_walk_trace`` from ``starts[u]`` over ``steps[u]``.

    Bit for bit: one add per epoch across all users is the same sequential
    fold the per-user walk's prefix sum makes, and a step that leaves
    ``[low, high]`` reflects exactly as it does there (both reflections
    apply for a step wider than the box).  Vectorizing over users instead
    of epochs is what makes a fill cheap: a walk of a few dozen epochs is
    all per-call overhead when drawn one user at a time.
    """
    walks = np.empty_like(steps)
    current = np.clip(starts, low, high)
    for epoch in range(steps.shape[1]):
        value = current + steps[:, epoch]
        value = np.where(value > high, 2 * high - value, value)
        value = np.where(value < low, 2 * low - value, value)
        current = walks[:, epoch] = np.clip(value, low, high)
    return walks


class MobilityModel:
    """Per-user trajectories sampled on the epoch clock.

    Column 0 is the initial placement, column ``e`` the position during
    epoch ``e``, for ``e`` up to :attr:`n_epochs`.  Built from explicit
    ``xs``/``ys`` arrays of shape ``(n_users, n_epochs + 1)``, or by
    :meth:`walks`, whose columns are computed on first read.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, epoch_symbols: int) -> None:
        if xs.shape != ys.shape or xs.ndim != 2:
            raise ValueError("xs and ys must be equal-shape (n_users, n_epochs+1)")
        if epoch_symbols < 0:
            raise ValueError("epoch_symbols must be non-negative")
        self.epoch_symbols = epoch_symbols
        self._xs = xs
        self._ys = ys
        self._n_epochs = xs.shape[1] - 1
        self._walk: _WalkRecipe | None = None

    @property
    def n_users(self) -> int:
        return self._xs.shape[0]

    @property
    def n_epochs(self) -> int:
        return self._n_epochs

    @property
    def xs(self) -> np.ndarray:
        """Every user's x over the whole horizon, ``(n_users, n_epochs + 1)``."""
        self._column(self._n_epochs)
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """Every user's y over the whole horizon, ``(n_users, n_epochs + 1)``."""
        self._column(self._n_epochs)
        return self._ys

    def position(self, user: int, epoch: int) -> tuple[float, float]:
        """Where ``user`` is during ``epoch`` (parked at the final column)."""
        column = self._column(epoch)
        return float(self._xs[user, column]), float(self._ys[user, column])

    def positions(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """Every user's position during ``epoch`` (the vectorized accessor)."""
        column = self._column(epoch)
        return self._xs[:, column], self._ys[:, column]

    def _column(self, epoch: int) -> int:
        """The column ``epoch`` reads, filled before it is returned."""
        column = min(epoch, self._n_epochs)
        if column >= self._xs.shape[1]:
            self._fill(column)
        return column

    def _fill(self, column: int) -> None:
        """Replay every walk up to a horizon covering ``column``."""
        walk = self._walk
        filled = self._xs.shape[1] - 1
        horizon = min(self._n_epochs, max(column, 2 * filled, _FIRST_FILL))
        tracks = []
        for axis, track, (low, high) in (
            ("x", self._xs, walk.x_range),
            ("y", self._ys, walk.y_range),
        ):
            steps = np.empty((self.n_users, horizon))
            streams = spawn_rngs(
                walk.seed, [("net-walk", user, axis) for user in range(self.n_users)]
            )
            for user, stream in enumerate(streams):
                steps[user] = stream.normal(0.0, walk.step, size=horizon)
            grown = np.empty((self.n_users, horizon + 1))
            grown[:, 0] = track[:, 0]
            grown[:, 1:] = _reflected_walks(track[:, 0], steps, low, high)
            tracks.append(grown)
        self._xs, self._ys = tracks

    @classmethod
    def static(cls, positions: "list[tuple[float, float]] | tuple") -> "MobilityModel":
        """No mobility: every user pinned to its initial position."""
        xs = np.array([[x] for x, _ in positions], dtype=np.float64).reshape(-1, 1)
        ys = np.array([[y] for _, y in positions], dtype=np.float64).reshape(-1, 1)
        return cls(xs=xs, ys=ys, epoch_symbols=0)

    @classmethod
    def walks(
        cls,
        n_users: int,
        n_epochs: int,
        epoch_symbols: int,
        step: float,
        x_range: tuple[float, float],
        y_range: tuple[float, float],
        seed: int,
        initial_positions: "list[tuple[float, float]] | None" = None,
    ) -> "MobilityModel":
        """Independent reflected Gaussian walks for every user.

        ``step`` is the per-epoch standard deviation of each coordinate's
        increment, in meters.  Explicit ``initial_positions`` (tests, staged
        scenarios) replace the uniform placement draw but keep the same walk
        streams.  Only the placements are drawn here; the walks themselves
        are filled as reads reach them.
        """
        if n_users < 0:
            raise ValueError(f"n_users must be non-negative, got {n_users}")
        if n_epochs < 0:
            raise ValueError(f"n_epochs must be non-negative, got {n_epochs}")
        if step < 0:
            raise ValueError(f"step must be non-negative, got {step}")
        if x_range[0] >= x_range[1] or y_range[0] >= y_range[1]:
            raise ValueError(f"empty walk bounds {x_range} x {y_range}")
        if initial_positions is not None and len(initial_positions) != n_users:
            raise ValueError(
                f"{len(initial_positions)} initial positions for {n_users} users"
            )
        x0 = np.empty((n_users, 1), dtype=np.float64)
        y0 = np.empty((n_users, 1), dtype=np.float64)
        if initial_positions is None:
            placements = spawn_rngs(seed, [("net-place", user) for user in range(n_users)])
            for user, placement in enumerate(placements):
                x0[user, 0] = placement.uniform(*x_range)
                y0[user, 0] = placement.uniform(*y_range)
        else:
            for user, (x, y) in enumerate(initial_positions):
                x0[user, 0], y0[user, 0] = x, y
        model = cls(xs=x0, ys=y0, epoch_symbols=int(epoch_symbols))
        model._n_epochs = n_epochs
        model._walk = _WalkRecipe(float(step), x_range, y_range, seed)
        return model
