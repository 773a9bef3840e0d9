"""Relay chains and validated DAG/mesh topologies over rateless links.

Section 6 of the paper motivates rateless codes for links whose quality the
sender cannot know in advance; a relay chain is the simplest topology where
that uncertainty compounds — each hop has its own channel and SNR, and a
fixed-rate code would have to be provisioned for the worst hop.  With
decode-and-forward relaying each hop runs its *own* rateless session: the
relay fully decodes a packet, then re-encodes it with a **fresh hash seed**
(a different spinal code) for the next hop, so per-hop symbol counts adapt
to per-hop conditions independently.

All hops share one global event clock but transmit on independent channels
(different frequencies/links), so the chain pipelines: hop ``h+1`` starts
serving a packet the moment hop ``h`` delivers it, while hop ``h`` moves on
to the next packet.  Each hop runs the full sliding-window ARQ machinery of
:mod:`repro.link.transport` with its own reverse channel.

A 1-hop "relay" is the direct link: hop 0 keeps the caller's hash seed,
and ``simulate_relay_transport([session], ...).hops[0]`` is how every
single-link transport runs.

Beyond chains, :class:`DagTopology` generalises the layer to arbitrary
validated DAGs: explicit node/edge specs with per-edge SNRs, structural
validation with typed errors (:class:`TopologyError`), and
:func:`simulate_dag_transport` running every edge as an independent
:class:`~repro.link.transport.HopTransport` under one shared event clock.
Interior nodes decode-and-forward; nodes named in ``xor_nodes`` instead
XOR-combine the payloads of one round from all of their in-edges into a
single packet — the classic network-coding move that lets the butterfly's
bottleneck edge carry one coded packet where plain forwarding needs two.
A 2-node path DAG is by construction exactly the 1-hop chain (same packet
seeds, same event sequence), an equivalence the test suite pins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.phy.session import CodecSession
from repro.link.events import EventScheduler
from repro.link.transport import HopTransport, TransportConfig, TransportResult
from repro.obs.telemetry import current as current_telemetry
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (experiments -> link)
    from repro.experiments.runner import SpinalRunConfig

__all__ = [
    "DagDelivery",
    "DagEdge",
    "DagTopology",
    "DagTransportResult",
    "RelayTransportResult",
    "TopologyError",
    "build_codec_relay_sessions",
    "build_dag_sessions",
    "build_relay_sessions",
    "butterfly",
    "multicast_tree",
    "path_dag",
    "relay_hop_params",
    "simulate_dag_transport",
    "simulate_relay_transport",
]


def relay_hop_params(config: "SpinalRunConfig", hop: int):
    """Spinal parameters for one hop: hop 0 is the original code.

    Later hops re-encode with a fresh hash-family seed derived from the
    code's own seed, so the per-hop codes are independent (a decoding
    pathology on one hop cannot correlate with the next) while remaining
    reproducible.
    """
    if hop == 0:
        return config.params
    return config.params.with_(seed=derive_seed(config.params.seed, "relay-hop", hop))


def build_relay_sessions(
    config: "SpinalRunConfig", hop_snrs_db: Sequence[float]
) -> list[CodecSession]:
    """One rateless session per hop, each with its own AWGN channel and code."""
    if len(hop_snrs_db) == 0:
        raise ValueError("a relay path needs at least one hop")
    sessions = []
    for hop, snr_db in enumerate(hop_snrs_db):
        params = relay_hop_params(config, hop)
        hop_config = config.with_(params=params)
        channel = AWGNChannel(
            snr_db=float(snr_db),
            signal_power=params.average_power,
            adc_bits=config.adc_bits,
        )
        sessions.append(hop_config.build_session(channel))
    return sessions


def build_codec_relay_sessions(
    family: str,
    hop_snrs_db: Sequence[float],
    seed: int = 0,
    smoke: bool = False,
    max_symbols: int = 4096,
    termination: str = "genie",
) -> list[CodecSession]:
    """One code-agnostic session per hop, for any registered code family.

    The sessions of :func:`path_dag` over ``hop_snrs_db`` (see
    :func:`build_dag_sessions`): hop 0 keeps ``seed`` and every later hop
    re-encodes from a hop-derived seed (the "fresh hash seed per hop"
    discipline, generalised — an LT hop re-draws its neighbourhoods, a
    spinal hop its hash family) with its own SNR-calibrated channel.
    """
    return build_dag_sessions(
        family,
        path_dag(hop_snrs_db),
        seed=seed,
        smoke=smoke,
        max_symbols=max_symbols,
        termination=termination,
    )


def _event_budget(config: TransportConfig, n_packets: int, budgets: Sequence[int]) -> int:
    """Generous liveness bound: a few events per possible channel symbol."""
    if config.max_events is not None:
        return config.max_events
    return 64 + 16 * n_packets + 8 * int(np.sum(np.asarray(budgets, dtype=np.int64)))


@dataclass(frozen=True)
class RelayTransportResult:
    """End-to-end outcome of a decode-and-forward relay transport."""

    hops: tuple[TransportResult, ...]
    n_packets: int
    payload_bits_per_packet: int
    delivered: np.ndarray
    delivery_times: np.ndarray
    makespan: int

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def n_delivered(self) -> int:
        return int(self.delivered.sum())

    @property
    def total_symbols_sent(self) -> int:
        """Channel uses summed over every hop (the chain's energy/airtime)."""
        return int(sum(hop.total_symbols_sent for hop in self.hops))

    @property
    def end_to_end_goodput(self) -> float:
        """Delivered payload bits per symbol-time of pipelined wall-clock."""
        if self.makespan == 0:
            return 0.0
        return self.n_delivered * self.payload_bits_per_packet / self.makespan

    @property
    def symbol_efficiency(self) -> float:
        """Summed needed-over-spent ratio across hops (1.0 = ideal feedback)."""
        spent = sum(float(hop.symbols_spent.sum()) for hop in self.hops)
        if spent == 0:
            return 1.0
        needed = sum(float(hop.symbols_needed.sum()) for hop in self.hops)
        return needed / spent


def simulate_relay_transport(
    sessions: Sequence[CodecSession],
    payloads: Sequence[np.ndarray],
    config: TransportConfig,
) -> RelayTransportResult:
    """Run the full chain under one event clock and return per-hop + e2e results.

    Hop ``h``'s in-order deliveries are enqueued at hop ``h+1`` at the
    moment of delivery; the final hop's deliveries are the end-to-end
    outcome.  A packet aborted at any hop never reaches later hops and is
    reported undelivered.
    """
    sessions = list(sessions)
    if not sessions:
        raise ValueError("a relay path needs at least one hop session")
    if len({s.payload_bits for s in sessions}) != 1:
        raise ValueError("all hops must share one framing (payload size) configuration")
    scheduler = EventScheduler()
    n_packets = len(payloads)
    delivered = np.zeros(n_packets, dtype=bool)
    delivery_times = np.full(n_packets, -1, dtype=np.int64)

    hops: list[HopTransport] = []
    for hop_index, session in enumerate(sessions):
        session.channel.reset()
        hops.append(
            HopTransport(scheduler, session, config, hop_index=hop_index)
        )

    def forward_to(next_hop: HopTransport):
        def deliver(orig_index: int, payload: np.ndarray, _time: int) -> None:
            next_hop.enqueue(payload, orig_index=orig_index)

        return deliver

    def final_delivery(orig_index: int, _payload: np.ndarray, time: int) -> None:
        delivered[orig_index] = True
        delivery_times[orig_index] = time

    for hop_index, hop in enumerate(hops[:-1]):
        hop.on_deliver = forward_to(hops[hop_index + 1])
    hops[-1].on_deliver = final_delivery

    for index, payload in enumerate(payloads):
        hops[0].enqueue(payload, orig_index=index)
    scheduler.run(
        max_events=_event_budget(
            config,
            n_packets * len(sessions),
            [s.max_symbols for s in sessions for _ in range(n_packets)],
        )
    )
    hop_results = tuple(hop.result() for hop in hops)
    return RelayTransportResult(
        hops=hop_results,
        n_packets=n_packets,
        payload_bits_per_packet=sessions[0].payload_bits,
        delivered=delivered,
        delivery_times=delivery_times,
        makespan=max((hop.makespan for hop in hop_results), default=0),
    )


# -- validated DAG topologies --------------------------------------------------


class TopologyError(ValueError):
    """A structural problem in a topology spec, tagged with a ``kind``.

    ``kind`` is a stable machine-readable slug (``"cycle"``, ``"self-loop"``,
    ``"duplicate-edge"``, ``"unknown-node"``, ``"duplicate-node"``,
    ``"no-nodes"``, ``"no-edges"``, ``"unreachable"``, ``"too-large"``) so tests and callers
    can assert *which* validation fired without string-matching messages.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class DagEdge:
    """One directed link: source node, destination node, and its SNR."""

    src: str
    dst: str
    snr_db: float = 10.0


@dataclass(frozen=True)
class DagTopology:
    """An explicit, validated directed acyclic graph of rateless links.

    Construction validates the spec eagerly (typed :class:`TopologyError`
    for every structural defect) and fixes the edge order, which downstream
    code treats as the canonical per-edge index: sessions, packet seeds and
    results all align with ``edges``.  Validation and the topological order
    are pure functions of the spec — no randomness, no ambient state — so
    building the same topology in any process yields the same object.
    """

    nodes: tuple[str, ...]
    edges: tuple[DagEdge, ...]

    def __post_init__(self) -> None:
        nodes = tuple(str(n) for n in self.nodes)
        edges = tuple(
            e if isinstance(e, DagEdge) else DagEdge(*e) for e in self.edges
        )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        if not nodes:
            raise TopologyError("no-nodes", "a topology needs at least one node")
        if len(set(nodes)) != len(nodes):
            dupes = sorted({n for n in nodes if nodes.count(n) > 1})
            raise TopologyError("duplicate-node", f"duplicate node names: {dupes}")
        if not edges:
            raise TopologyError("no-edges", "a topology needs at least one edge")
        known = set(nodes)
        seen_pairs: set[tuple[str, str]] = set()
        for index, edge in enumerate(edges):
            for endpoint in (edge.src, edge.dst):
                if endpoint not in known:
                    raise TopologyError(
                        "unknown-node",
                        f"edge {index} ({edge.src!r} -> {edge.dst!r}) references "
                        f"undeclared node {endpoint!r}",
                    )
            if edge.src == edge.dst:
                raise TopologyError(
                    "self-loop", f"edge {index} is a self-loop on {edge.src!r}"
                )
            pair = (edge.src, edge.dst)
            if pair in seen_pairs:
                raise TopologyError(
                    "duplicate-edge",
                    f"edge {index} duplicates {edge.src!r} -> {edge.dst!r}",
                )
            seen_pairs.add(pair)
        order = self._kahn_order()
        if len(order) != len(nodes):
            stuck = sorted(set(nodes) - set(order))
            raise TopologyError("cycle", f"topology has a cycle through {stuck}")
        object.__setattr__(self, "_topo_order", tuple(order))
        endpoints = {e.src for e in edges} | {e.dst for e in edges}
        isolated = [n for n in nodes if n not in endpoints]
        if isolated:
            raise TopologyError(
                "unreachable",
                f"nodes {isolated} have no edges: they are sinks unreachable "
                f"from any source",
            )

    def _kahn_order(self) -> list[str]:
        """Kahn's algorithm in linear time, ties broken by declaration order.

        Each node's successors are listed in edge order and nodes become
        ready in first-in, first-out order.
        """
        indegree = {n: 0 for n in self.nodes}
        successors: dict[str, list[str]] = {n: [] for n in self.nodes}
        for edge in self.edges:
            indegree[edge.dst] += 1
            successors[edge.src].append(edge.dst)
        ready = deque(n for n in self.nodes if indegree[n] == 0)
        order: list[str] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for dst in successors[node]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        return order

    # -- structure accessors ---------------------------------------------------
    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def topological_order(self) -> tuple[str, ...]:
        """Every node, sources first (ties broken by declaration order)."""
        return self._topo_order

    @property
    def sources(self) -> tuple[str, ...]:
        """Nodes with no in-edges, in declaration order."""
        dsts = {e.dst for e in self.edges}
        return tuple(n for n in self.nodes if n not in dsts)

    @property
    def sinks(self) -> tuple[str, ...]:
        """Nodes with no out-edges, in declaration order."""
        srcs = {e.src for e in self.edges}
        return tuple(n for n in self.nodes if n not in srcs)

    def in_edges(self, node: str) -> tuple[int, ...]:
        """Indices of the edges arriving at ``node``, in edge order."""
        return tuple(i for i, e in enumerate(self.edges) if e.dst == node)

    def out_edges(self, node: str) -> tuple[int, ...]:
        """Indices of the edges leaving ``node``, in edge order."""
        return tuple(i for i, e in enumerate(self.edges) if e.src == node)

    def edge_index(self, src: str, dst: str) -> int:
        """The index of the ``src -> dst`` edge (raises if absent)."""
        for i, e in enumerate(self.edges):
            if e.src == src and e.dst == dst:
                return i
        raise KeyError(f"no edge {src!r} -> {dst!r}")


def path_dag(hop_snrs_db: Sequence[float], names: Sequence[str] | None = None) -> DagTopology:
    """A linear chain expressed as a DAG: ``n0 -> n1 -> ... -> nK``.

    Edge ``h`` carries ``hop_snrs_db[h]``, so a path DAG's edge indices are
    exactly the relay chain's hop indices — the bridge that makes the
    2-node path bit-exact against the 1-hop transport.
    """
    snrs = [float(s) for s in hop_snrs_db]
    if not snrs:
        raise TopologyError("no-edges", "a path needs at least one hop SNR")
    if names is None:
        names = tuple(f"n{i}" for i in range(len(snrs) + 1))
    names = tuple(names)
    if len(names) != len(snrs) + 1:
        raise TopologyError(
            "unknown-node",
            f"a {len(snrs)}-hop path needs {len(snrs) + 1} names, got {len(names)}",
        )
    edges = tuple(
        DagEdge(names[i], names[i + 1], snrs[i]) for i in range(len(snrs))
    )
    return DagTopology(nodes=names, edges=edges)


def butterfly(snr_db: float = 10.0, bottleneck_snr_db: float | None = None) -> DagTopology:
    """The classic network-coding butterfly.

    Two sources each reach their *near* sink directly, and both sinks want
    *both* payloads; the only route for the cross payloads is the shared
    ``relay -> spread`` bottleneck.  With plain forwarding the bottleneck
    carries two packets per round; with ``xor_nodes={"relay"}`` it carries
    one XOR packet that each sink resolves using its direct copy::

        src-a ──────────────► sink-a
          └──► relay            ▲
                 │ (bottleneck) │
                 ▼              │
               spread ──────────┤
                 │              ▼
          ┌──► relay ──┘     sink-b
        src-b ──────────────► sink-b

    All edges run at ``snr_db``; the bottleneck may be set separately.
    """
    bn = snr_db if bottleneck_snr_db is None else bottleneck_snr_db
    return DagTopology(
        nodes=("src-a", "src-b", "relay", "spread", "sink-a", "sink-b"),
        edges=(
            DagEdge("src-a", "relay", snr_db),
            DagEdge("src-b", "relay", snr_db),
            DagEdge("src-a", "sink-a", snr_db),
            DagEdge("src-b", "sink-b", snr_db),
            DagEdge("relay", "spread", bn),
            DagEdge("spread", "sink-a", snr_db),
            DagEdge("spread", "sink-b", snr_db),
        ),
    )


#: Most leaves (and levels) :func:`multicast_tree` builds.  One codec session
#: runs per edge; the examples and CLI smoke runs use at most eight leaves.
MAX_TREE_LEAVES = 1024


def multicast_tree(depth: int, branching: int, snr_db: float = 10.0) -> DagTopology:
    """A rooted multicast tree: one source, ``branching**depth`` leaf sinks.

    Nodes are named ``root``, then ``d{level}.{index}`` in breadth-first
    order; edges are emitted in the same order, so edge indices (and their
    derived seeds) are a pure function of ``(depth, branching)``.  A tree
    over :data:`MAX_TREE_LEAVES` leaves (or that deep) is refused before
    anything is built.
    """
    if depth < 1:
        raise TopologyError("no-edges", f"depth must be at least 1, got {depth}")
    if branching < 1:
        raise TopologyError("no-edges", f"branching must be at least 1, got {branching}")
    # depth bounds the exponent first, so the power stays a small integer.
    if depth > MAX_TREE_LEAVES or branching**depth > MAX_TREE_LEAVES:
        raise TopologyError(
            "too-large",
            f"a tree of depth {depth} and branching {branching} exceeds the cap "
            f"of {MAX_TREE_LEAVES} leaves or levels",
        )
    nodes: list[str] = ["root"]
    edges: list[DagEdge] = []
    previous = ["root"]
    for level in range(1, depth + 1):
        current = []
        for parent_i, parent in enumerate(previous):
            for child_i in range(branching):
                child = f"d{level}.{parent_i * branching + child_i}"
                nodes.append(child)
                edges.append(DagEdge(parent, child, snr_db))
                current.append(child)
        previous = current
    return DagTopology(nodes=tuple(nodes), edges=tuple(edges))


def build_dag_sessions(
    family: str,
    topology: DagTopology,
    seed: int = 0,
    smoke: bool = False,
    max_symbols: int = 4096,
    termination: str = "genie",
) -> list[CodecSession]:
    """One code-agnostic session per edge, seeds derived from the edge index.

    Edge 0 keeps the caller's seed and edge ``e > 0`` uses
    ``derive_seed(seed, "relay-hop", e)``;
    :func:`build_codec_relay_sessions` is this over a :func:`path_dag`, so a
    path DAG's sessions are the relay chain's.
    """
    from repro.phy.families import make_codec_session

    return [
        make_codec_session(
            family,
            snr_db=float(edge.snr_db),
            seed=seed if e == 0 else derive_seed(seed, "relay-hop", e),
            smoke=smoke,
            max_symbols=max_symbols,
            termination=termination,
        )
        for e, edge in enumerate(topology.edges)
    ]


@dataclass(frozen=True)
class DagDelivery:
    """One payload arriving at one node: which round, combined from whom."""

    round: int
    sources: tuple[str, ...]
    payload: np.ndarray
    time: int


@dataclass(frozen=True)
class DagTransportResult:
    """Per-edge transport results plus every node's delivery log."""

    topology: DagTopology
    n_rounds: int
    payload_bits_per_packet: int
    edge_results: tuple[TransportResult, ...]
    deliveries: Mapping[str, tuple[DagDelivery, ...]]
    makespan: int

    @property
    def total_symbols_sent(self) -> int:
        """Channel uses summed over every edge (the mesh's airtime)."""
        return int(sum(r.total_symbols_sent for r in self.edge_results))

    def symbols_on_edge(self, src: str, dst: str) -> int:
        """Channel uses spent on one named edge."""
        return int(
            self.edge_results[self.topology.edge_index(src, dst)].total_symbols_sent
        )

    def recovered(
        self, node: str, known: Mapping[tuple[int, str], np.ndarray] | None = None
    ) -> dict[tuple[int, str], np.ndarray]:
        """Per-source payloads a node can resolve, ``(round, source) -> bits``.

        Singleton deliveries are known outright; XOR-combined deliveries are
        peeled by Gaussian-elimination-style substitution (a combination with
        exactly one unknown member resolves it), iterated to a fixpoint.
        ``known`` seeds extra a-priori knowledge — e.g. a source node knows
        its own payloads.
        """
        resolved: dict[tuple[int, str], np.ndarray] = dict(known or {})
        pending: list[DagDelivery] = []
        for d in self.deliveries.get(node, ()):
            if len(d.sources) == 1:
                resolved[(d.round, d.sources[0])] = d.payload
            else:
                pending.append(d)
        progressed = True
        while pending and progressed:
            progressed = False
            remaining = []
            for d in pending:
                unknown = [s for s in d.sources if (d.round, s) not in resolved]
                if len(unknown) == 1:
                    acc = np.array(d.payload, dtype=np.uint8)
                    for s in d.sources:
                        if s != unknown[0]:
                            acc = np.bitwise_xor(acc, resolved[(d.round, s)])
                    resolved[(d.round, unknown[0])] = acc
                    progressed = True
                elif unknown:
                    remaining.append(d)
            pending = remaining
        return resolved


def _dag_flow_bound(topology: DagTopology, xor_nodes: frozenset) -> dict[int, int]:
    """Packets each edge carries per round (XOR nodes emit one per round)."""
    per_node: dict[str, int] = {}
    for node in topology.topological_order:
        in_edges = topology.in_edges(node)
        if not in_edges:
            per_node[node] = 1
        elif node in xor_nodes:
            per_node[node] = 1
        else:
            per_node[node] = sum(
                per_node[topology.edges[e].src] for e in in_edges
            )
    return {
        e: per_node[edge.src] for e, edge in enumerate(topology.edges)
    }


def simulate_dag_transport(
    topology: DagTopology,
    sessions: Sequence[CodecSession],
    source_payloads: Mapping[str, Sequence[np.ndarray]],
    config: TransportConfig,
    xor_nodes: Sequence[str] = (),
) -> DagTransportResult:
    """Run a mesh of rateless links under one event clock.

    Every edge is an independent :class:`HopTransport` (its own ARQ window,
    ACK channel, and per-packet noise streams keyed by the edge index);
    interior nodes forward each decoded payload onto all of their out-edges
    the moment it is delivered, so the whole mesh pipelines in topological
    order.  Nodes in ``xor_nodes`` instead wait for one payload per in-edge
    of a round and emit the XOR of all of them as a single packet.

    Per-edge packet sequence numbers count arrivals at that edge in delivery
    order (for sources: enqueue order), which for a path DAG makes packet
    noise streams identical to the relay chain's.  A packet aborted on any
    edge never reaches downstream edges; an XOR node missing one in-edge
    payload of a round never emits that round's combination.
    """
    sessions = list(sessions)
    if len(sessions) != topology.n_edges:
        raise ValueError(
            f"need one session per edge: {topology.n_edges} edges, "
            f"{len(sessions)} sessions"
        )
    if len({s.payload_bits for s in sessions}) > 1:
        raise ValueError("all edges must share one framing (payload size) configuration")
    xor_set = frozenset(str(n) for n in xor_nodes)
    for node in sorted(xor_set):
        if node not in topology.nodes:
            raise TopologyError("unknown-node", f"xor node {node!r} is not in the topology")
        if len(topology.in_edges(node)) < 2 or not topology.out_edges(node):
            raise TopologyError(
                "unreachable",
                f"xor node {node!r} needs at least two in-edges and one out-edge",
            )
    sources = topology.sources
    if set(source_payloads) != set(sources):
        raise ValueError(
            f"source_payloads keys {sorted(source_payloads)} must be exactly "
            f"the topology sources {sorted(sources)}"
        )
    round_counts = {len(source_payloads[s]) for s in sources}
    if len(round_counts) != 1:
        raise ValueError("every source must supply the same number of round payloads")
    n_rounds = round_counts.pop()

    tel = current_telemetry()
    scheduler = EventScheduler()
    hops: list[HopTransport] = []
    for e, session in enumerate(sessions):
        session.channel.reset()
        hops.append(HopTransport(scheduler, session, config, hop_index=e))

    packet_meta: list[list[tuple[int, frozenset]]] = [[] for _ in hops]
    deliveries: dict[str, list[DagDelivery]] = {n: [] for n in topology.nodes}
    xor_pending: dict[tuple[str, int], list[tuple[frozenset, np.ndarray]]] = {}

    def enqueue_on(e: int, rnd: int, srcs: frozenset, payload: np.ndarray) -> None:
        meta = packet_meta[e]
        index = len(meta)
        meta.append((rnd, srcs))
        hops[e].enqueue(payload, orig_index=index)

    def arrive(node: str, rnd: int, srcs: frozenset, payload: np.ndarray, time: int) -> None:
        deliveries[node].append(
            DagDelivery(round=rnd, sources=tuple(sorted(srcs)), payload=payload, time=time)
        )
        out = topology.out_edges(node)
        if node in xor_set:
            pending = xor_pending.setdefault((node, rnd), [])
            pending.append((srcs, payload))
            if len(pending) == len(topology.in_edges(node)):
                combined_srcs = frozenset()
                combined = None
                for part_srcs, part_payload in pending:
                    combined_srcs = combined_srcs.symmetric_difference(part_srcs)
                    part = np.array(part_payload, dtype=np.uint8)
                    combined = part if combined is None else np.bitwise_xor(combined, part)
                del xor_pending[(node, rnd)]
                if tel.enabled:
                    tel.counter("link.xor_combines", node=node)
                for e in out:
                    enqueue_on(e, rnd, combined_srcs, combined)
        else:
            for e in out:
                enqueue_on(e, rnd, srcs, payload)

    def make_on_deliver(e: int):
        dst = topology.edges[e].dst

        def deliver(orig_index: int, payload: np.ndarray, time: int) -> None:
            rnd, srcs = packet_meta[e][orig_index]
            arrive(dst, rnd, srcs, payload, time)

        return deliver

    for e in range(topology.n_edges):
        hops[e].on_deliver = make_on_deliver(e)

    for node in sources:
        for rnd, payload in enumerate(source_payloads[node]):
            for e in topology.out_edges(node):
                enqueue_on(e, rnd, frozenset({node}), np.asarray(payload, dtype=np.uint8))

    flow = _dag_flow_bound(topology, xor_set)
    budgets = [
        sessions[e].max_symbols
        for e in range(topology.n_edges)
        for _ in range(n_rounds * flow[e])
    ]
    scheduler.run(max_events=_event_budget(config, len(budgets), budgets))

    edge_results = tuple(hop.result() for hop in hops)
    return DagTransportResult(
        topology=topology,
        n_rounds=n_rounds,
        payload_bits_per_packet=sessions[0].payload_bits,
        edge_results=edge_results,
        deliveries={n: tuple(d) for n, d in deliveries.items()},
        makespan=max((r.makespan for r in edge_results), default=0),
    )
