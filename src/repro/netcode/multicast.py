"""Multicast over rateless codes: one stream, many receivers.

The wireless broadcast advantage is the reason network coding pays off: a
transmitted symbol costs the medium *once* no matter how many receivers
hear it.  Rateless codes compose perfectly with that — the sender simply
keeps streaming coded symbols until the *slowest* receiver has decoded, so
the medium cost of reaching ``N`` receivers is ``max`` (not ``sum``) of
their individual symbol requirements.  Fountain/LT codes were designed for
exactly this setting, but :func:`broadcast_transmission` is code-agnostic:
any registered :class:`~repro.phy.protocol.RatelessCode` family works.

Each receiver has its own channel (its own SNR) and its own private noise
generator, so a broadcast receiver *is* the same receiver on a unicast
link: :func:`broadcast_transmission` runs one
:class:`~repro.phy.session.CodecSession` per receiver and changes only the
medium accounting.  Receivers that have decoded stop listening; the stream
ends when all have decoded or the symbol budget is spent.

:func:`run_multicast_tree` composes broadcasts down a
:func:`~repro.link.topology.multicast_tree`: every interior node decodes
its parent's stream, then re-encodes (fresh seed) and broadcasts once to
all of its children, versus the baseline of one unicast session per child.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.link.topology import multicast_tree
from repro.obs.telemetry import current as current_telemetry
from repro.phy.families import channel_for_code, code_family, make_code
from repro.phy.protocol import RatelessCode
from repro.phy.session import CodecSession
from repro.utils.rng import derive_seed, spawn_rng
from repro.utils.units import check_snr_db

__all__ = [
    "MulticastResult",
    "MulticastTreeConfig",
    "MulticastTreeResult",
    "broadcast_transmission",
    "run_multicast_tree",
]


@dataclass(frozen=True)
class MulticastResult:
    """Outcome of one rateless broadcast to ``n_receivers`` listeners.

    ``symbols_sent`` is the *medium* cost: every block is charged once,
    regardless of how many receivers were still listening.
    ``symbols_to_decode[i]`` is what receiver ``i`` had heard when it
    decoded (``-1`` if it never did).
    """

    n_receivers: int
    symbols_sent: int
    decoded: np.ndarray
    symbols_to_decode: np.ndarray
    decode_attempts: np.ndarray
    payloads: tuple

    @property
    def all_decoded(self) -> bool:
        return bool(self.decoded.all())

    @property
    def unicast_equivalent_symbols(self) -> int:
        """What the same deliveries would have cost as per-receiver unicasts.

        Lower-bound accounting: each receiver is charged exactly the symbols
        it actually needed from *this* stream (undecoded receivers charge
        the full broadcast length), so the broadcast-vs-unicast gap isolates
        the medium-sharing gain from code/noise variation.
        """
        per_receiver = np.where(
            self.decoded, self.symbols_to_decode, self.symbols_sent
        )
        return int(per_receiver.sum())


def broadcast_transmission(
    code: RatelessCode,
    payload: np.ndarray,
    channels,
    rngs,
    max_symbols: int = 4096,
    termination: str = "genie",
) -> MulticastResult:
    """Stream one rateless encoding until every receiver decodes (or budget).

    ``channels[i]`` and ``rngs[i]`` belong to receiver ``i``.  The sender's
    block stream is a pure function of the payload and every receiver draws
    its noise from its own generator, so receiver ``i`` is exactly the solo
    run ``CodecSession(code, channels[i], termination, max_symbols).run(
    payload, rngs[i])``.  The stream lasts as long as the longest of those
    runs, and the sender is charged that length once.
    """
    if len(channels) != len(rngs) or not channels:
        raise ValueError("need one channel and one rng per receiver (at least one)")
    runs = [
        CodecSession(code, channel, termination, max_symbols).run(payload, rng)
        for channel, rng in zip(channels, rngs)
    ]
    symbols_sent = max(run.symbols_sent for run in runs)
    tel = current_telemetry()
    if tel.enabled:
        tel.counter("netcode.broadcast_symbols", symbols_sent)
        for run in runs:
            if run.success:
                tel.observe("netcode.broadcast_symbols_to_decode", run.symbols_sent)
    return MulticastResult(
        n_receivers=len(runs),
        symbols_sent=symbols_sent,
        decoded=np.array([run.success for run in runs], dtype=bool),
        symbols_to_decode=np.array(
            [run.symbols_sent if run.success else -1 for run in runs], dtype=np.int64
        ),
        decode_attempts=np.array([run.decode_attempts for run in runs], dtype=np.int64),
        payloads=tuple(run.decoded_payload for run in runs),
    )


@dataclass(frozen=True)
class MulticastTreeConfig:
    """One rateless multicast down a ``branching``-ary tree of ``depth`` levels."""

    family: str = "lt"
    depth: int = 2
    branching: int = 2
    snr_db: float = 12.0
    rounds: int = 2
    seed: int = 20111114
    smoke: bool = False
    max_symbols: int = 4096

    def __post_init__(self) -> None:
        code_family(self.family)
        multicast_tree(self.depth, self.branching)  # raises on a shape it refuses
        check_snr_db("snr_db", self.snr_db)
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.max_symbols < 1:
            raise ValueError(f"max_symbols must be at least 1, got {self.max_symbols}")


@dataclass(frozen=True)
class MulticastTreeResult:
    """Broadcast-vs-unicast medium accounting for a multicast tree."""

    config: MulticastTreeConfig
    n_leaves: int
    broadcast_symbols: np.ndarray
    unicast_symbols: np.ndarray
    rounds_delivered: np.ndarray

    @property
    def broadcast_total(self) -> int:
        return int(self.broadcast_symbols.sum())

    @property
    def unicast_total(self) -> int:
        return int(self.unicast_symbols.sum())

    @property
    def medium_use_saving(self) -> float:
        """Fraction of unicast medium uses the broadcast tree avoided."""
        if self.unicast_total == 0:
            return 0.0
        return 1.0 - self.broadcast_total / self.unicast_total

    @property
    def delivery_rate(self) -> float:
        return float(self.rounds_delivered.mean()) if self.rounds_delivered.size else 0.0


def run_multicast_tree(config: MulticastTreeConfig) -> MulticastTreeResult:
    """Push payloads from the root to every leaf, broadcast vs unicast.

    Interior nodes decode-and-forward: each broadcasts *one* stream to all
    of its children (fresh code seed per node), costing ``max`` of the
    children's symbol needs; the unicast baseline runs one independent
    session per child with the same code and channels, costing ``sum``.
    Everything derives from ``config.seed`` via labels, so results are
    identical in any process or worker layout.
    """
    topology = multicast_tree(config.depth, config.branching, config.snr_db)
    seed = config.seed
    tel = current_telemetry()
    broadcast_symbols = np.zeros(config.rounds, dtype=np.int64)
    unicast_symbols = np.zeros(config.rounds, dtype=np.int64)
    rounds_delivered = np.zeros(config.rounds, dtype=bool)

    codes = {
        node: make_code(
            config.family,
            seed=derive_seed(seed, "netcode", "tree-code", node),
            snr_db=config.snr_db,
            smoke=config.smoke,
        )
        for node in topology.nodes
        if topology.out_edges(node)
    }
    payload_bits = next(iter(codes.values())).info.payload_bits

    for rnd in range(config.rounds):
        with tel.span("netcode.multicast_round", round=rnd):
            root_payload = (
                spawn_rng(seed, "netcode", "tree-payload", rnd)
                .integers(0, 2, size=payload_bits)
                .astype(np.uint8)
            )
            # estimates[node] = what the node believes the payload is
            estimates = {"root": root_payload}
            baseline_estimates = {"root": root_payload}
            for node in topology.topological_order:
                out = topology.out_edges(node)
                if not out or node not in estimates:
                    continue
                code = codes[node]
                children = [topology.edges[e].dst for e in out]
                channels = [channel_for_code(code, topology.edges[e].snr_db) for e in out]
                rngs = [
                    spawn_rng(seed, "netcode", "tree-bcast", rnd, node, child)
                    for child in children
                ]
                outcome = broadcast_transmission(
                    code,
                    estimates[node],
                    channels,
                    rngs,
                    max_symbols=config.max_symbols,
                )
                broadcast_symbols[rnd] += outcome.symbols_sent
                for child, ok, got in zip(children, outcome.decoded, outcome.payloads):
                    if ok and got is not None:
                        estimates[child] = np.asarray(got, dtype=np.uint8)
                # Baseline: one unicast stream per child, same code, same SNRs.
                base_payload = baseline_estimates.get(node)
                if base_payload is not None:
                    for channel, child in zip(channels, children):
                        unicast = CodecSession(
                            code, channel, max_symbols=config.max_symbols
                        ).run(
                            base_payload,
                            spawn_rng(seed, "netcode", "tree-ucast", rnd, node, child),
                        )
                        unicast_symbols[rnd] += unicast.symbols_sent
                        if unicast.success and unicast.decoded_payload is not None:
                            baseline_estimates[child] = np.asarray(
                                unicast.decoded_payload, dtype=np.uint8
                            )
            rounds_delivered[rnd] = all(
                leaf in estimates
                and np.array_equal(estimates[leaf], root_payload)
                for leaf in topology.sinks
            )
    return MulticastTreeResult(
        config=config,
        n_leaves=len(topology.sinks),
        broadcast_symbols=broadcast_symbols,
        unicast_symbols=unicast_symbols,
        rounds_delivered=rounds_delivered,
    )
