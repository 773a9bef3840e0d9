"""Experiment E20: medium uses saved by XOR network coding vs link asymmetry.

Two coded topologies, one question — how much airtime does re-encoding XOR
combinations at a relay save over plain store-and-forward, and how fast does
that gain erode as the links become asymmetric?

* ``two-way`` — endpoints A and B swap payloads through a relay
  (:func:`repro.netcode.run_two_way_exchange`): the XOR scheme replaces the
  baseline's two unicast downlinks with *one* broadcast both endpoints
  un-XOR, so the ideal saving is 25% of total uses (one of four equal-cost
  phases).  ``snr_offset_db`` detunes the B-side link; the broadcast must
  run until the *weaker* endpoint decodes, so asymmetry eats the gain.
* ``butterfly`` — the classic network-coding example as a validated DAG
  (:func:`repro.link.topology.butterfly`) under the shared event clock:
  both sources reach both sinks, the middle edge is the bottleneck, and
  XOR-ing at the relay sends one combination per round where plain
  forwarding sends two payloads.  ``snr_offset_db`` detunes the bottleneck
  edge.

Columns: total coded/plain medium uses, the overall saving, the saving on
the shared link alone (the broadcast downlink / the bottleneck edge), and
per-scheme delivery rates.  Kernels are deterministic functions of the
injected base seed — every noise and payload stream derives from it via
labels — so cells are worker-count invariant (``max_trials = 1``) and the
engine-provided ``rng`` is unused.  Codes run at smoke scale (the same
economy as ``city-scaling``); the full-code operating point (30 dB) is
pinned in ``tests/test_netcode.py``.

The ``mesh`` experiment (``repro mesh``) runs one operating point through
the same two kernels, or a multicast ``tree``, and can add the two-way
amplify-and-forward baseline (``with_af``).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import Experiment, register
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.link.topology import build_dag_sessions, butterfly, simulate_dag_transport
from repro.link.transport import TransportConfig
from repro.netcode import (
    MulticastTreeConfig,
    TwoWayConfig,
    amplify_codes,
    run_multicast_tree,
    run_two_way_af_exchange,
    run_two_way_exchange,
)
from repro.utils.rng import spawn_rng

__all__ = [
    "mesh_config",
    "mesh_point",
    "network_coding_config",
    "network_coding_point",
    "MESH_EXPERIMENT",
    "NETWORK_CODING_GAIN_EXPERIMENT",
]


#: The coded topologies a cell can run.
_TOPOLOGIES: tuple[str, ...] = ("two-way", "butterfly")


def network_coding_config(params) -> TwoWayConfig:
    """The cell's operating point; for the butterfly, B is the bottleneck edge."""
    topology = str(params["topology"])
    if topology not in _TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; expected one of {', '.join(_TOPOLOGIES)}"
        )
    return TwoWayConfig(
        family=str(params["family"]),
        snr_a_db=float(params["snr_db"]),
        snr_b_db=float(params["snr_db"]) + float(params["snr_offset_db"]),
        rounds=int(params["rounds"]),
        seed=int(params["seed"]),
        smoke=bool(params["smoke_codes"]),
        max_symbols=int(params["max_symbols"]),
    )


def _two_way_point(config: TwoWayConfig) -> dict:
    result = run_two_way_exchange(config)
    return {
        "coded_uses": result.xor_total_uses,
        "plain_uses": result.baseline_total_uses,
        "saving": result.medium_use_saving,
        "shared_link_saving": result.downlink_saving,
        "delivered_coded": result.xor_delivery_rate,
        "delivered_plain": result.baseline_delivery_rate,
    }


def _butterfly_delivery_rate(result, expected) -> float:
    """Fraction of (sink, round) slots where both sources' payloads resolve."""
    sinks = result.topology.sinks
    total = len(sinks) * result.n_rounds
    good = 0
    for sink in sinks:
        resolved = result.recovered(sink)
        for rnd in range(result.n_rounds):
            if all(
                (rnd, src) in resolved
                and np.array_equal(resolved[(rnd, src)], expected[(rnd, src)])
                for src in ("src-a", "src-b")
            ):
                good += 1
    return good / total if total else 0.0


def _butterfly_point(config: TwoWayConfig) -> dict:
    seed = config.seed
    rounds = config.rounds
    topology = butterfly(snr_db=config.snr_a_db, bottleneck_snr_db=config.snr_b_db)
    # Each run drives its own fresh sessions, as a standalone simulation would.
    sessions = {
        label: build_dag_sessions(
            config.family,
            topology,
            seed=seed,
            smoke=config.smoke,
            max_symbols=config.max_symbols,
        )
        for label in ("coded", "plain")
    }
    payload_bits = sessions["coded"][0].payload_bits
    payloads = {
        src: [
            spawn_rng(seed, "netcode-gain", "payload", src, rnd)
            .integers(0, 2, size=payload_bits)
            .astype(np.uint8)
            for rnd in range(rounds)
        ]
        for src in topology.sources
    }
    expected = {
        (rnd, src): payloads[src][rnd]
        for src in topology.sources
        for rnd in range(rounds)
    }
    transport = TransportConfig(seed=seed)
    coded, plain = (
        simulate_dag_transport(
            topology, sessions[label], payloads, transport, xor_nodes=xor_nodes
        )
        for label, xor_nodes in (("coded", ("relay",)), ("plain", ()))
    )
    bottleneck_coded = coded.symbols_on_edge("relay", "spread")
    bottleneck_plain = plain.symbols_on_edge("relay", "spread")
    return {
        "coded_uses": coded.total_symbols_sent,
        "plain_uses": plain.total_symbols_sent,
        "saving": (
            1.0 - coded.total_symbols_sent / plain.total_symbols_sent
            if plain.total_symbols_sent
            else 0.0
        ),
        "shared_link_saving": (
            1.0 - bottleneck_coded / bottleneck_plain if bottleneck_plain else 0.0
        ),
        "delivered_coded": _butterfly_delivery_rate(coded, expected),
        "delivered_plain": _butterfly_delivery_rate(plain, expected),
    }


def network_coding_point(params, rng) -> dict:
    """Registry kernel: one (offset, family, topology) network-coding cell.

    Deterministic given the parameters — every stream derives from the
    injected base seed, so the engine-provided ``rng`` is unused.
    """
    config = network_coding_config(params)
    if str(params["topology"]) == "two-way":
        return _two_way_point(config)
    return _butterfly_point(config)


NETWORK_CODING_GAIN_EXPERIMENT = register(
    Experiment(
        name="network-coding-gain",
        description=(
            "E20: medium uses saved by XOR network coding (two-way relay "
            "and butterfly) vs SNR asymmetry × code family"
        ),
        spec=SweepSpec(
            axes=(
                Axis("snr_offset_db", (0.0, -4.0, -8.0, -12.0), "float"),
                Axis("family", ("spinal", "lt"), "str"),
                Axis("topology", _TOPOLOGIES, "str"),
            ),
            fixed={
                "snr_db": 33.0,
                "rounds": 4,
                "max_symbols": 4096,
                "smoke_codes": True,
            },
        ),
        run_point=network_coding_point,
        cell_config=network_coding_config,
        columns=(
            Column("offset (dB)", "snr_offset_db"),
            Column("family", "family"),
            Column("topology", "topology"),
            Column("coded uses", "coded_uses"),
            Column("plain uses", "plain_uses"),
            Column("saving", "saving"),
            Column("shared-link saving", "shared_link_saving"),
            Column("delivered (coded)", "delivered_coded"),
            Column("delivered (plain)", "delivered_plain"),
        ),
        n_trials=1,
        max_trials=1,  # every stream derives from the base seed
        smoke={
            "snr_offset_db": (0.0, -8.0),
            "family": ("spinal", "lt"),
            "topology": _TOPOLOGIES,
            "rounds": 4,
        },
        plot=PlotSpec(
            x="snr_offset_db",
            y="saving",
            series="topology",
            x_label="SNR offset on the weak link (dB)",
            y_label="medium-use saving",
        ),
    )
)


#: The topologies one ``mesh`` run can take: the coded two plus a multicast tree.
_MESH_TOPOLOGIES: tuple[str, ...] = (*_TOPOLOGIES, "tree")


def mesh_config(params) -> TwoWayConfig | MulticastTreeConfig:
    """The mesh run's config: a multicast tree, or a network-coding operating point.

    ``with_af`` adds the two-way amplify-and-forward baseline, so it needs
    the two-way topology and a symbol-domain code family.
    """
    topology = str(params["topology"])
    if topology not in _MESH_TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; expected one of {', '.join(_MESH_TOPOLOGIES)}"
        )
    if params["with_af"] and topology != "two-way":
        raise ValueError(
            "with_af runs the two-way amplify-and-forward baseline; "
            f"topology {topology!r} has none"
        )
    if topology == "tree":
        return MulticastTreeConfig(
            family=str(params["family"]),
            depth=int(params["depth"]),
            branching=int(params["branching"]),
            snr_db=float(params["snr_db"]),
            rounds=int(params["rounds"]),
            seed=int(params["seed"]),
            smoke=bool(params["smoke_codes"]),
            max_symbols=int(params["max_symbols"]),
        )
    config = network_coding_config(params)
    if params["with_af"]:
        amplify_codes(config)  # refuses a bit-domain family before anything runs
    return config


def mesh_point(params, rng) -> dict:
    """Registry kernel: one mesh run, labelled with its operating point.

    Deterministic given the parameters — every stream derives from the
    injected base seed, so the engine-provided ``rng`` is unused.
    """
    config = mesh_config(params)
    topology = str(params["topology"])
    if topology == "tree":
        result = run_multicast_tree(config)
        return {
            "topology": topology,
            "family": config.family,
            "snr_db": config.snr_db,
            "depth": config.depth,
            "branching": config.branching,
            "n_leaves": result.n_leaves,
            "rounds": config.rounds,
            "coded_uses": result.broadcast_total,
            "plain_uses": result.unicast_total,
            "saving": result.medium_use_saving,
            "delivered_coded": result.delivery_rate,
        }
    if topology == "butterfly":
        return {
            "topology": topology,
            "family": config.family,
            "snr_db": config.snr_a_db,
            "snr_offset_db": float(params["snr_offset_db"]),
            "rounds": config.rounds,
            **_butterfly_point(config),
        }
    summary = {
        "topology": topology,
        "family": config.family,
        "snr_a_db": config.snr_a_db,
        "snr_b_db": config.snr_b_db,
        "rounds": config.rounds,
    }
    # On the two-way exchange the shared link is the broadcast downlink.
    for key, value in _two_way_point(config).items():
        summary["downlink_saving" if key == "shared_link_saving" else key] = value
    if params["with_af"]:
        af = run_two_way_af_exchange(config)
        summary.update(
            af_uses=af.total_uses,
            af_effective_snr_a_db=af.effective_snr_a_db,
            af_effective_snr_b_db=af.effective_snr_b_db,
            af_delivered=af.delivery_rate,
        )
    return summary


MESH_EXPERIMENT = register(
    Experiment(
        name="mesh",
        description=(
            "network coding over rateless links: one two-way relay exchange "
            "(optionally with amplify-and-forward), butterfly or multicast "
            "tree, coded vs plain medium uses"
        ),
        spec=SweepSpec(
            fixed={
                "topology": "two-way",
                "family": "spinal",
                "snr_db": 33.0,
                "snr_offset_db": 0.0,
                "rounds": 4,
                "depth": 2,
                "branching": 2,
                "max_symbols": 4096,
                "smoke_codes": False,
                "with_af": False,
            },
        ),
        run_point=mesh_point,
        cell_config=mesh_config,
        columns=(
            Column("topology", "topology"),
            Column("family", "family"),
            Column("coded uses", "coded_uses"),
            Column("plain uses", "plain_uses"),
            Column("saving", "saving"),
            Column("delivered (coded)", "delivered_coded"),
            Column("AF uses", "af_uses"),
        ),
        n_trials=1,
        max_trials=1,  # every stream derives from the base seed
        smoke={"smoke_codes": True},
    )
)
