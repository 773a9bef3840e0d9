"""Experiment E18: the cross-family version of the paper's headline comparison.

Figure 2 compares the spinal code against fixed-rate baselines on a single
link; the ``repro.phy`` redesign makes the comparison three-dimensional:
every registered :class:`~repro.phy.protocol.RatelessCode` family runs in
every network scenario — because they all speak the same session protocol —
and this sweep measures

    code family  ×  scenario {single-hop, 3-hop relay, 8-user cell}  ×  SNR
                 →  goodput, delivered fraction, symbol efficiency.

Scenarios reuse the real simulators, not models: the single hop and the
relay are the sliding-window decode-and-forward chain at one and three
hops (each hop an independent code instance from a hop-derived seed), and
the cell is the shared-medium MAC with round-robin grants.  Per-family channels
are SNR-calibrated to the code's alphabet (complex AWGN for symbol-domain
codes, a BPSK-hard-decision BSC for bit-domain codes), so the x-axis means
the same physical channel for every curve.

Per-packet symbol budgets scale with the family's message size
(``budget_factor`` ideal-payload multiples), so fixed-rate families get the
same multiple of headroom for retransmissions that rateless families get
for extra passes.

Every random stream derives from the injected base seed (``max_trials=1``),
so the sweep is deterministic per cell and worker-count invariant — the CI
``codec-matrix-smoke`` step asserts a re-run resumes 100% from cache.
"""

from __future__ import annotations

import math
from functools import partial

from repro.experiments.registry import Experiment, register
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.link.topology import build_codec_relay_sessions, simulate_relay_transport
from repro.link.transport import TransportConfig
from repro.mac.cell import CellUser, RatelessLink, simulate_cell, spread_snrs
from repro.phy.families import CODE_FAMILY_NAMES, make_code, make_codec_session
from repro.utils.bitops import random_message_bits
from repro.utils.rng import derive_seed, spawn_rng

__all__ = [
    "MATRIX_SCENARIOS",
    "code_family_matrix_point",
    "matrix_budget",
    "matrix_cell_config",
    "CODE_FAMILY_MATRIX_EXPERIMENT",
]

#: The three network scenarios every family is measured in.
MATRIX_SCENARIOS: tuple[str, ...] = ("single-hop", "relay-3", "cell-8")

_RELAY_HOPS = 3
_CELL_USERS = 8


def matrix_budget(budget_factor: float, payload_bits: int) -> int:
    """Per-packet symbol budget: the same payload multiple for every family."""
    return int(budget_factor * payload_bits)


def _matrix_payloads(seed: int, family: str, label: object, count: int, bits: int):
    return [
        random_message_bits(bits, spawn_rng(seed, "matrix-payload", family, label, i))
        for i in range(count)
    ]


def _transport_metrics(n_packets, delivered, goodput, needed, spent, makespan) -> dict:
    spent = float(spent)
    return {
        "goodput": float(goodput),
        "delivered_fraction": delivered / n_packets if n_packets else 0.0,
        "symbol_efficiency": float(needed) / spent if spent else 1.0,
        "symbols_sent": int(spent),
        "makespan": int(makespan),
        "n_packets": int(n_packets),
    }


def _run_path(n_hops, label, params, family, snr_db, smoke, max_symbols, seed) -> dict:
    sessions = build_codec_relay_sessions(
        family,
        [snr_db] * n_hops,
        seed=derive_seed(seed, "matrix-code", family, snr_db),
        smoke=smoke,
        max_symbols=max_symbols,
    )
    payloads = _matrix_payloads(
        seed, family, label, int(params["packets"]), sessions[0].payload_bits
    )
    result = simulate_relay_transport(
        sessions,
        payloads,
        TransportConfig(seed=derive_seed(seed, "matrix-transport", family, snr_db)),
    )
    needed = sum(float(hop.symbols_needed.sum()) for hop in result.hops)
    spent = sum(float(hop.symbols_spent.sum()) for hop in result.hops)
    return _transport_metrics(
        result.n_packets,
        result.n_delivered,
        result.end_to_end_goodput,
        needed,
        spent,
        result.makespan,
    )


def _run_cell(params, family, snr_db, smoke, max_symbols, seed) -> dict:
    snrs = spread_snrs(snr_db, float(params["cell_snr_spread_db"]), _CELL_USERS)
    packets_per_user = int(params["cell_packets_per_user"])
    users = []
    for user, user_snr in enumerate(snrs):
        session = make_codec_session(
            family,
            user_snr,
            seed=derive_seed(seed, "matrix-user", family, snr_db, user),
            smoke=smoke,
            max_symbols=max_symbols,
        )
        payloads = _matrix_payloads(
            seed, family, ("cell", user), packets_per_user, session.payload_bits
        )
        users.append(
            CellUser(
                RatelessLink(session),
                payloads,
                csi=lambda now, snr=float(user_snr): snr,
            )
        )
    result = simulate_cell(users, "round-robin", seed=derive_seed(seed, "matrix-cell"))
    needed = sum(p.symbols_needed for p in result.packets)
    spent = sum(p.symbols_sent for p in result.packets)
    return _transport_metrics(
        result.n_packets,
        result.n_delivered,
        result.aggregate_goodput,
        needed,
        spent,
        result.makespan,
    )


_SCENARIO_RUNNERS = {
    "single-hop": partial(_run_path, 1, "single-hop"),
    "relay-3": partial(_run_path, _RELAY_HOPS, "relay"),
    "cell-8": _run_cell,
}


def matrix_cell_config(params) -> tuple[int, int]:
    """A cell's ``(payload_bits, max_symbols)``; raises on a cell no scenario can run.

    Builds the family's probe code for its payload size, so a budget that
    cannot carry one symbol fails before the first cell instead of
    becoming error cells.
    """
    scenario = str(params["scenario"])
    if scenario not in _SCENARIO_RUNNERS:
        raise ValueError(
            f"unknown scenario {scenario!r}; expected one of {', '.join(MATRIX_SCENARIOS)}"
        )
    budget_factor = float(params["budget_factor"])
    if not (math.isfinite(budget_factor) and budget_factor > 0):
        raise ValueError(f"budget_factor must be positive and finite, got {budget_factor}")
    family = str(params["code"])
    snr_db = float(params["snr_db"])
    probe = make_code(
        family,
        seed=derive_seed(int(params["seed"]), "matrix-code", family, snr_db),
        snr_db=snr_db,
        smoke=str(params["scale"]) == "smoke",
    )
    payload_bits = probe.info.payload_bits
    max_symbols = matrix_budget(budget_factor, payload_bits)
    if max_symbols < 1:
        raise ValueError(
            f"budget_factor {budget_factor} leaves a {payload_bits}-bit {family} "
            "payload no symbol to send"
        )
    return payload_bits, max_symbols


def code_family_matrix_point(params, rng) -> dict:
    """Registry kernel: one (code, scenario, SNR) network simulation.

    Deterministic given the parameters — every stream derives from the
    injected base seed, so the engine-provided ``rng`` is unused.
    """
    payload_bits, max_symbols = matrix_cell_config(params)
    metrics = _SCENARIO_RUNNERS[str(params["scenario"])](
        params,
        str(params["code"]),
        float(params["snr_db"]),
        str(params["scale"]) == "smoke",
        max_symbols,
        int(params["seed"]),
    )
    metrics["payload_bits"] = payload_bits
    metrics["max_symbols"] = max_symbols
    return metrics


CODE_FAMILY_MATRIX_EXPERIMENT = register(
    Experiment(
        name="code-family-matrix",
        description=(
            "E18: every code family × {single-hop, 3-hop relay, 8-user cell} × SNR "
            "— goodput/overhead through the code-agnostic PHY session API"
        ),
        spec=SweepSpec(
            axes=(
                Axis("code", CODE_FAMILY_NAMES, "str"),
                Axis("scenario", MATRIX_SCENARIOS, "str"),
                Axis("snr_db", (0.0, 4.0, 8.0, 12.0), "float"),
            ),
            fixed={
                "scale": "full",
                "packets": 6,
                "cell_packets_per_user": 2,
                "cell_snr_spread_db": 6.0,
                "budget_factor": 8.0,
            },
        ),
        run_point=code_family_matrix_point,
        cell_config=matrix_cell_config,
        columns=(
            Column("code", "code"),
            Column("scenario", "scenario"),
            Column("SNR(dB)", "snr_db"),
            Column("goodput (b/sym-t)", "goodput"),
            Column("delivered", "delivered_fraction"),
            Column("efficiency", "symbol_efficiency"),
            Column("symbols", "symbols_sent"),
        ),
        n_trials=1,
        max_trials=1,  # every stream derives from the base seed
        smoke={
            "scale": "smoke",
            "packets": 2,
            "cell_packets_per_user": 1,
            "snr_db": (8.0,),
        },
        plot=PlotSpec(
            x="snr_db",
            y="goodput",
            series="code",
            x_label="SNR (dB)",
            y_label="goodput (bits/symbol-time)",
        ),
    )
)
