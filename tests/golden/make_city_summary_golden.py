"""Regenerate ``city_summary.json``: seeded city runs and mobility walks.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_city_summary_golden.py

The committed file was generated at the commit *before* the city's random
streams (walk steps, placements, per-packet MAC streams, exact-tier
payloads, flow-model calibration samples) moved from one
:func:`~repro.utils.rng.spawn_rng` call per stream to the batched
:func:`~repro.utils.rng.spawn_rngs`, so it captures the per-stream
derivation.  ``tests/test_city_summary_golden.py`` replays the same
scenarios and asserts identical results; running this script must leave
the file byte-unchanged.

Each scenario is a 9-cell, 60-user walking city with interference on,
small enough to run in a few seconds: round-robin and max-SNR, each on the
calibrated flow tier and the bit-exact tier.  A scenario pins the network
summary plus a digest of every packet's ``(symbols_sent, delivered,
completed)``.  The ``walks`` entry pins a digest of a
:meth:`~repro.net.mobility.MobilityModel.walks` model's ``xs``/``ys``,
read first at an early epoch and then over the whole horizon, so the lazy
fill replays its streams twice.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.net.mobility import MobilityModel
from repro.net.network import CellNetwork, NetworkConfig

GOLDEN_PATH = Path(__file__).parent / "city_summary.json"
SEED = 2024
SCENARIOS = tuple(
    (scheduler, tier)
    for scheduler in ("round-robin", "max-snr")
    for tier in ("flow", "exact")
)


def city_config(scheduler: str, tier: str) -> NetworkConfig:
    return NetworkConfig(
        n_cells=9,
        n_users=60,
        packets_per_user=2,
        scheduler=scheduler,
        tier=tier,
        seed=SEED,
        cell_radius=200.0,
        reference_snr_db=14.0,
        max_symbols=128,
        epoch_symbols=48,
        mobility_step=50.0,
        calibration_samples=12,
    )


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def run_scenario(scheduler: str, tier: str) -> dict:
    """Run one city to completion; return its summary and packet digest."""
    result = CellNetwork(city_config(scheduler, tier)).run()
    outcomes = [[p.symbols_sent, p.delivered, p.completed] for p in result.packets]
    return {
        "scheduler": scheduler,
        "tier": tier,
        "summary": result.summary(),
        "packets_sha256": _digest(json.dumps(outcomes).encode()),
    }


def walks_digest() -> dict:
    """Digest of a walk model's trajectories, filled in two reads."""
    model = MobilityModel.walks(
        60, 100, 48, 50.0, (-300.0, 300.0), (-250.0, 250.0), SEED
    )
    model.positions(5)
    xs = np.ascontiguousarray(model.xs, dtype="<f8")
    ys = np.ascontiguousarray(model.ys, dtype="<f8")
    return {
        "shape": list(xs.shape),
        "xs_sha256": _digest(xs.tobytes()),
        "ys_sha256": _digest(ys.tobytes()),
    }


def main() -> None:
    # One scenario per line keeps the file diffable.
    rows = ",\n".join(json.dumps(run_scenario(*scenario)) for scenario in SCENARIOS)
    GOLDEN_PATH.write_text(
        f'{{"seed": {SEED}, "walks": {json.dumps(walks_digest())}, '
        f'"scenarios": [\n{rows}\n]}}\n'
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
