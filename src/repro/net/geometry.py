"""Cell/user placement geometry and the uplink SINR model.

The network layer works in two spatial primitives: a fixed grid of base
stations and continuous user positions.  Radio quality is a deterministic
log-distance path-loss law, expressed directly as an SNR in dB *at the
receiving base station, in units of that station's noise floor*:

    ``snr_db(d) = reference_snr_db - 10 * alpha * log10(max(d, d_min) / d_ref)``

Every transmitter radiates the same power (the library's unit-energy
constellation convention), so the same law prices both the serving user's
signal and every interfering user's leakage, and SINR composition happens
in linear units of noise power::

    SINR = S / (1 + sum_i I_i)        (S, I_i linear, noise == 1)

Two determinism details matter downstream and are deliberate here:

* all per-cell SNRs are computed by one vectorized code path
  (:meth:`CityGeometry.snrs_db`), so the scalar accessor and the
  association argmax can never disagree by a rounding bit;
* an equidistant user resolves ties toward the lowest cell index
  (``np.argmax`` semantics), which the handoff tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.utils.units import db_to_linear, linear_to_db

__all__ = ["CityGeometry"]


@dataclass(frozen=True)
class CityGeometry:
    """Base-station positions plus the path-loss law (all distances in meters)."""

    cell_x: tuple[float, ...]
    cell_y: tuple[float, ...]
    cell_radius: float
    reference_snr_db: float
    path_loss_exponent: float
    reference_distance: float
    min_distance: float

    def __post_init__(self) -> None:
        if len(self.cell_x) != len(self.cell_y) or not self.cell_x:
            raise ValueError("need matching, non-empty cell coordinate tuples")
        for name in (
            "cell_radius",
            "reference_snr_db",
            "path_loss_exponent",
            "reference_distance",
            "min_distance",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("cell_radius", "reference_distance", "min_distance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")

    @classmethod
    def grid(
        cls,
        n_cells: int,
        cell_radius: float,
        reference_snr_db: float,
        path_loss_exponent: float,
        reference_distance: float,
        min_distance: float,
    ) -> "CityGeometry":
        """A square grid of base stations spaced two cell radii apart."""
        if n_cells < 1:
            raise ValueError(f"n_cells must be at least 1, got {n_cells}")
        columns = math.ceil(math.sqrt(n_cells))
        spacing = 2.0 * cell_radius
        xs = tuple((index % columns) * spacing for index in range(n_cells))
        ys = tuple((index // columns) * spacing for index in range(n_cells))
        return cls(
            cell_x=xs,
            cell_y=ys,
            cell_radius=float(cell_radius),
            reference_snr_db=float(reference_snr_db),
            path_loss_exponent=float(path_loss_exponent),
            reference_distance=float(reference_distance),
            min_distance=float(min_distance),
        )

    @property
    def n_cells(self) -> int:
        return len(self.cell_x)

    def bounds(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The ``((x_min, x_max), (y_min, y_max))`` box users live in."""
        r = self.cell_radius
        return (
            (min(self.cell_x) - r, max(self.cell_x) + r),
            (min(self.cell_y) - r, max(self.cell_y) + r),
        )

    # -- path loss -----------------------------------------------------------
    @cached_property
    def _cells_xy(self) -> tuple[np.ndarray, np.ndarray]:
        # cached_property writes straight into __dict__, which a frozen
        # dataclass permits; the arrays derive from frozen fields.
        return np.asarray(self.cell_x), np.asarray(self.cell_y)

    def snrs_db(self, x: float, y: float) -> np.ndarray:
        """Per-cell received SNR (dB over noise) from a transmitter at (x, y)."""
        cells_x, cells_y = self._cells_xy
        distance = np.maximum(np.hypot(cells_x - x, cells_y - y), self.min_distance)
        return self.reference_snr_db - 10.0 * self.path_loss_exponent * np.log10(
            distance / self.reference_distance
        )

    def snrs_db_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``snrs_db`` for many transmitters at once: shape (len(xs), n_cells).

        Elementwise-identical to calling :meth:`snrs_db` per transmitter —
        broadcasting applies the same float operations in the same order —
        so row ``i`` can seed the scalar path's cache bit-exactly.
        """
        cells_x, cells_y = self._cells_xy
        distance = np.maximum(
            np.hypot(cells_x - np.asarray(xs)[:, None], cells_y - np.asarray(ys)[:, None]),
            self.min_distance,
        )
        return self.reference_snr_db - 10.0 * self.path_loss_exponent * np.log10(
            distance / self.reference_distance
        )

    def snr_db(self, x: float, y: float, cell: int) -> float:
        # Route through the vectorized law so scalar and vector reads of the
        # same geometry can never differ in the last bit.
        return float(self.snrs_db(x, y)[cell])

    def strongest_cell(self, x: float, y: float) -> int:
        """The best serving cell for a user at (x, y); ties → lowest index."""
        return int(np.argmax(self.snrs_db(x, y)))

    @staticmethod
    def sinr_db(signal_db: float, interference_db: list[float]) -> float:
        """Compose a serving signal and interferer powers into an SINR (dB).

        All terms are in dB over the receiving station's noise floor.  With
        no active interferers the serving SNR is returned *unchanged* — not
        round-tripped through linear units — so an interference-free network
        is bit-identical to a plain SNR one (the degeneration tests rely on
        this).
        """
        if not interference_db:
            return signal_db
        total = sum(db_to_linear(term) for term in interference_db)
        return linear_to_db(db_to_linear(signal_db) / (1.0 + total))
