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
generator, and applies the standard PR-1 decode gate
(``min_symbols_to_attempt``), so a broadcast receiver behaves exactly like
the same receiver on a unicast link — the only difference is the medium
accounting.  Receivers that have decoded stop listening; the stream ends
when all have decoded or the symbol budget is spent.

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

    ``channels[i]`` and ``rngs[i]`` belong to receiver ``i``: every receiver
    hears every transmitted block through its own channel with its own
    private noise stream, so results are independent of receiver order.
    The sender is charged one medium use per transmitted symbol, once.
    """
    if len(channels) != len(rngs) or not channels:
        raise ValueError("need one channel and one rng per receiver (at least one)")
    if termination not in ("genie", "self"):
        raise ValueError(f"unknown termination rule {termination!r}")
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.size != code.info.payload_bits:
        raise ValueError(
            f"expected a payload of {code.info.payload_bits} bits, got {payload.size}"
        )
    tel = current_telemetry()
    n = len(channels)
    source = code.new_encoder(payload)
    decoders = [code.new_decoder() for _ in range(n)]
    reference = code.reference(payload) if termination == "genie" else None
    min_attempt = code.min_symbols_to_attempt()

    symbols_sent = 0
    delivered = np.zeros(n, dtype=np.int64)
    decoded = np.zeros(n, dtype=bool)
    symbols_to_decode = np.full(n, -1, dtype=np.int64)
    attempts = np.zeros(n, dtype=np.int64)
    statuses = [None] * n

    while not decoded.all() and symbols_sent < max_symbols:
        block = source.next_block()
        symbols_sent += block.n_symbols
        if tel.enabled:
            tel.counter("netcode.broadcast_blocks")
            tel.counter("netcode.broadcast_symbols", int(block.n_symbols))
        for i in range(n):
            if decoded[i]:
                continue
            received = channels[i].transmit(block.values, rngs[i])
            attempt = (
                block.n_symbols > 0
                and delivered[i] + block.n_symbols >= min_attempt
            )
            status = decoders[i].absorb(block, received, attempt=attempt)
            delivered[i] += block.n_symbols
            if not attempt:
                continue
            attempts[i] += 1
            statuses[i] = status
            if termination == "genie":
                done = status.estimate is not None and bool(
                    np.array_equal(status.estimate, reference)
                )
            else:
                done = bool(status.verified)
            if done:
                decoded[i] = True
                symbols_to_decode[i] = delivered[i]
                if tel.enabled:
                    tel.observe("netcode.broadcast_symbols_to_decode", delivered[i])

    for i in range(n):
        if statuses[i] is None:
            statuses[i] = decoders[i].decode_now()
            attempts[i] += 1

    return MulticastResult(
        n_receivers=n,
        symbols_sent=symbols_sent,
        decoded=decoded,
        symbols_to_decode=symbols_to_decode,
        decode_attempts=attempts,
        payloads=tuple(s.payload for s in statuses),
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
                    for e, child in zip(out, children):
                        unicast = broadcast_transmission(
                            code,
                            base_payload,
                            [channel_for_code(code, topology.edges[e].snr_db)],
                            [spawn_rng(seed, "netcode", "tree-ucast", rnd, node, child)],
                            max_symbols=config.max_symbols,
                        )
                        unicast_symbols[rnd] += unicast.symbols_sent
                        if unicast.decoded[0] and unicast.payloads[0] is not None:
                            baseline_estimates[child] = np.asarray(
                                unicast.payloads[0], dtype=np.uint8
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
