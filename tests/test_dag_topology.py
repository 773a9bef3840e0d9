"""Validated DAG topologies: structured errors, constructors, chain pins.

Three layers of guarantees:

* **Validation** — every structural defect raises :class:`TopologyError`
  with a stable machine-readable ``kind``, checked per defect class and
  property-style over seeded random layered DAGs;
* **Constructors** — ``path_dag``/``butterfly``/``multicast_tree`` produce
  the documented shapes, deterministically (pure functions of their
  arguments, no ambient state);
* **Chain equivalence (pinned)** — a 2-node path DAG run through
  :func:`simulate_dag_transport` is bit-exact against the 1-hop relay
  chain (the direct link), and a 3-hop path DAG is bit-exact against the
  equivalent relay chain — the DAG layer strictly generalises the existing
  topology code, it does not fork it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.link.topology import (
    DagEdge,
    DagTopology,
    TopologyError,
    build_codec_relay_sessions,
    build_dag_sessions,
    butterfly,
    multicast_tree,
    path_dag,
    simulate_dag_transport,
    simulate_relay_transport,
)
from repro.link.transport import TransportConfig
from repro.utils.rng import spawn_rng

SEED = 20111114


def _payloads(n_bits: int, n: int, seed: int = 901) -> list[np.ndarray]:
    return [
        spawn_rng(seed, "dag-payload", i).integers(0, 2, size=n_bits).astype(np.uint8)
        for i in range(n)
    ]


# -- validation ----------------------------------------------------------------


class TestValidation:
    def _raises(self, kind: str, nodes, edges) -> None:
        with pytest.raises(TopologyError) as err:
            DagTopology(nodes=tuple(nodes), edges=tuple(edges))
        assert err.value.kind == kind

    def test_topology_error_is_a_value_error(self):
        assert issubclass(TopologyError, ValueError)

    def test_no_nodes(self):
        self._raises("no-nodes", (), ())

    def test_no_edges(self):
        self._raises("no-edges", ("a", "b"), ())

    def test_duplicate_node(self):
        self._raises("duplicate-node", ("a", "b", "a"), (DagEdge("a", "b"),))

    def test_unknown_node(self):
        self._raises("unknown-node", ("a", "b"), (DagEdge("a", "ghost"),))

    def test_self_loop(self):
        self._raises("self-loop", ("a", "b"), (DagEdge("a", "b"), DagEdge("b", "b")))

    def test_duplicate_edge(self):
        self._raises(
            "duplicate-edge",
            ("a", "b"),
            (DagEdge("a", "b", 10.0), DagEdge("a", "b", 12.0)),
        )

    def test_cycle(self):
        self._raises(
            "cycle",
            ("a", "b", "c"),
            (DagEdge("a", "b"), DagEdge("b", "c"), DagEdge("c", "a")),
        )

    def test_isolated_node_is_unreachable(self):
        self._raises("unreachable", ("a", "b", "island"), (DagEdge("a", "b"),))

    def test_xor_node_must_exist(self):
        topo = butterfly()
        sessions = build_dag_sessions("spinal", topo, seed=SEED, smoke=True)
        with pytest.raises(TopologyError) as err:
            simulate_dag_transport(
                topo,
                sessions,
                {
                    "src-a": _payloads(16, 1),
                    "src-b": _payloads(16, 1, seed=902),
                },
                TransportConfig(),
                xor_nodes=("ghost",),
            )
        assert err.value.kind == "unknown-node"

    def test_xor_node_needs_fan_in_and_an_out_edge(self):
        topo = path_dag([10.0, 12.0])
        sessions = build_dag_sessions("spinal", topo, seed=SEED, smoke=True)
        with pytest.raises(TopologyError) as err:
            simulate_dag_transport(
                topo, sessions, {"n0": _payloads(16, 1)}, TransportConfig(),
                xor_nodes=("n1",),
            )
        assert err.value.kind == "unreachable"

    @pytest.mark.parametrize("seed", range(8))
    def test_random_layered_dags_validate_and_order(self, seed):
        """Forward-only random graphs build; a closing back edge is a cycle."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        nodes = tuple(f"n{i}" for i in range(n))
        # A spanning path keeps every node connected, plus random forward
        # chords — always a valid DAG.
        edges = [DagEdge(nodes[i], nodes[i + 1], 10.0) for i in range(n - 1)]
        pairs = {(i, i + 1) for i in range(n - 1)}
        for _ in range(int(rng.integers(0, 6))):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            if (int(i), int(j)) not in pairs:
                pairs.add((int(i), int(j)))
                edges.append(DagEdge(nodes[int(i)], nodes[int(j)], 10.0))
        topo = DagTopology(nodes=nodes, edges=tuple(edges))
        position = {node: k for k, node in enumerate(topo.topological_order)}
        assert all(position[e.src] < position[e.dst] for e in topo.edges)
        assert topo.sources and topo.sinks
        with pytest.raises(TopologyError) as err:
            DagTopology(
                nodes=nodes, edges=tuple(edges) + (DagEdge(nodes[-1], nodes[0]),)
            )
        assert err.value.kind == "cycle"


# -- constructors --------------------------------------------------------------


class TestConstructors:
    def test_path_dag_maps_hops_to_edges(self):
        topo = path_dag([12.0, 9.0, 15.0])
        assert topo.nodes == ("n0", "n1", "n2", "n3")
        assert [e.snr_db for e in topo.edges] == [12.0, 9.0, 15.0]
        assert topo.sources == ("n0",) and topo.sinks == ("n3",)
        assert topo.topological_order == topo.nodes

    def test_path_dag_validates_names_and_hops(self):
        with pytest.raises(TopologyError) as err:
            path_dag([])
        assert err.value.kind == "no-edges"
        with pytest.raises(TopologyError) as err:
            path_dag([10.0], names=("only",))
        assert err.value.kind == "unknown-node"

    def test_butterfly_shape(self):
        topo = butterfly(snr_db=10.0, bottleneck_snr_db=7.0)
        assert len(topo.nodes) == 6 and topo.n_edges == 7
        assert set(topo.sources) == {"src-a", "src-b"}
        assert set(topo.sinks) == {"sink-a", "sink-b"}
        assert topo.edges[topo.edge_index("relay", "spread")].snr_db == 7.0
        assert all(
            e.snr_db == 10.0 for e in topo.edges if (e.src, e.dst) != ("relay", "spread")
        )
        assert len(topo.in_edges("relay")) == 2 and len(topo.out_edges("relay")) == 1

    def test_multicast_tree_shape(self):
        topo = multicast_tree(depth=2, branching=2)
        assert len(topo.nodes) == 7 and topo.n_edges == 6
        assert topo.sources == ("root",)
        assert len(topo.sinks) == 4
        wide = multicast_tree(depth=1, branching=3)
        assert len(wide.sinks) == 3
        for depth, branching in ((0, 2), (2, 0)):
            with pytest.raises(TopologyError) as err:
                multicast_tree(depth=depth, branching=branching)
            assert err.value.kind == "no-edges"
        for depth, branching in ((11, 2), (30, 2), (1025, 1), (2, 10**9)):
            with pytest.raises(TopologyError, match="cap of 1024 leaves") as err:
                multicast_tree(depth=depth, branching=branching)
            assert err.value.kind == "too-large"
        assert len(multicast_tree(depth=10, branching=2).sinks) == 1024

    def test_construction_is_deterministic(self):
        assert butterfly(11.0, 8.0) == butterfly(11.0, 8.0)
        assert multicast_tree(3, 2, 9.0) == multicast_tree(3, 2, 9.0)
        assert path_dag([10.0, 12.0]) == path_dag([10.0, 12.0])

    def test_edge_index_raises_on_missing_edge(self):
        with pytest.raises(KeyError):
            butterfly().edge_index("src-a", "sink-b")


# -- chain equivalence (pinned) ------------------------------------------------


def _scan_kahn_order(nodes, edges) -> list[str]:
    """Kahn's algorithm scanning every edge for each node it pops.

    The quadratic spelling the topology's order is checked against: ready
    nodes are taken first in, first out, so declaration order breaks ties.
    """
    indegree = {n: 0 for n in nodes}
    for edge in edges:
        indegree[edge.dst] += 1
    ready = [n for n in nodes if indegree[n] == 0]
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for edge in edges:
            if edge.src == node:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
    return order


def _random_dag(seed: int) -> tuple[list[str], list[DagEdge]]:
    """A connected random DAG with shuffled node and edge declarations."""
    rng = spawn_rng(seed, "random-dag")
    n = int(rng.integers(2, 40))
    rank = [f"n{i}" for i in rng.permutation(n)]  # a hidden topological order
    pairs = {(int(rng.integers(0, j)), j) for j in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    edges = [DagEdge(rank[i], rank[j], 10.0) for i, j in sorted(pairs)]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    nodes = [rank[i] for i in rng.permutation(n)]
    return nodes, edges


class TestTopologicalOrder:
    @pytest.mark.parametrize("seed", range(25))
    def test_order_equals_the_edge_scanning_kahn(self, seed):
        nodes, edges = _random_dag(seed)
        topo = DagTopology(nodes=tuple(nodes), edges=tuple(edges))
        assert list(topo.topological_order) == _scan_kahn_order(nodes, edges)

    def test_largest_tree_builds_in_milliseconds(self):
        """2,047 nodes, the 1024-leaf cap, build in linear time.

        It takes about 10 ms; an edge scan per node took about 0.4 s on the
        same host, and the suite's per-test timeout is 300 s.
        """
        start = time.perf_counter()
        topo = multicast_tree(depth=10, branching=2)
        elapsed = time.perf_counter() - start
        assert len(topo.nodes) == 2047
        assert topo.topological_order == topo.nodes  # breadth-first declaration
        assert elapsed < 0.25


class TestChainEquivalence:
    def test_two_node_path_dag_is_the_direct_link(self):
        """The pinned bridge: path DAG == 1-hop relay, the direct link."""
        config = TransportConfig(seed=41)
        payloads = _payloads(16, 4)

        relay = simulate_relay_transport(
            build_codec_relay_sessions("spinal", [10.0], seed=SEED, smoke=True),
            payloads,
            config,
        )
        topo = path_dag([10.0])
        dag = simulate_dag_transport(
            topo,
            build_dag_sessions("spinal", topo, seed=SEED, smoke=True),
            {"n0": payloads},
            config,
        )

        (edge,) = dag.edge_results
        (hop,) = relay.hops
        assert np.array_equal(edge.delivered, hop.delivered)
        assert np.array_equal(edge.symbols_spent, hop.symbols_spent)
        assert np.array_equal(edge.symbols_needed, hop.symbols_needed)
        assert np.array_equal(edge.delivery_times, hop.delivery_times)
        assert dag.makespan == hop.makespan == relay.makespan
        assert dag.total_symbols_sent == relay.total_symbols_sent
        got = dag.recovered("n1")
        assert sorted(got) == [(r, "n0") for r in range(len(payloads))]
        for rnd, payload in enumerate(payloads):
            assert np.array_equal(got[(rnd, "n0")], payload)

    def test_three_hop_path_dag_matches_the_relay_chain(self):
        snrs = [12.0, 9.0, 15.0]
        config = TransportConfig(seed=5)
        payloads = _payloads(16, 3)

        relay = simulate_relay_transport(
            build_codec_relay_sessions("spinal", snrs, seed=SEED, smoke=True),
            payloads,
            config,
        )
        topo = path_dag(snrs)
        dag = simulate_dag_transport(
            topo,
            build_dag_sessions("spinal", topo, seed=SEED, smoke=True),
            {"n0": payloads},
            config,
        )

        assert dag.makespan == relay.makespan
        assert dag.total_symbols_sent == relay.total_symbols_sent
        for edge_result, hop_result in zip(dag.edge_results, relay.hops):
            assert np.array_equal(edge_result.symbols_spent, hop_result.symbols_spent)
            assert np.array_equal(edge_result.delivery_times, hop_result.delivery_times)
        sink_times = np.array(
            [d.time for d in sorted(dag.deliveries["n3"], key=lambda d: d.round)]
        )
        assert np.array_equal(sink_times, relay.delivery_times)


# -- mesh transport ------------------------------------------------------------


class TestDagTransport:
    def _butterfly_run(self, xor: bool, rounds: int = 2):
        topo = butterfly(snr_db=12.0)
        sessions = build_dag_sessions("spinal", topo, seed=SEED, smoke=True)
        payloads = {
            "src-a": _payloads(16, rounds, seed=901),
            "src-b": _payloads(16, rounds, seed=902),
        }
        return payloads, simulate_dag_transport(
            topo,
            sessions,
            payloads,
            TransportConfig(seed=7),
            xor_nodes=("relay",) if xor else (),
        )

    def test_butterfly_xor_relieves_the_bottleneck(self):
        payloads, plain = self._butterfly_run(xor=False)
        _, coded = self._butterfly_run(xor=True)
        bottleneck_plain = plain.symbols_on_edge("relay", "spread")
        bottleneck_coded = coded.symbols_on_edge("relay", "spread")
        assert bottleneck_coded < bottleneck_plain
        # Both sinks resolve both payloads of every round in both schemes —
        # XOR deliveries peel against the direct copy.
        for result in (plain, coded):
            for sink in ("sink-a", "sink-b"):
                got = result.recovered(sink)
                for rnd in range(2):
                    for src in ("src-a", "src-b"):
                        assert np.array_equal(got[(rnd, src)], payloads[src][rnd])

    def test_rerun_is_bit_identical(self):
        _, first = self._butterfly_run(xor=True, rounds=1)
        _, second = self._butterfly_run(xor=True, rounds=1)
        assert first.total_symbols_sent == second.total_symbols_sent
        assert first.makespan == second.makespan
        for node in first.topology.nodes:
            a, b = first.deliveries[node], second.deliveries[node]
            assert len(a) == len(b)
            for da, db in zip(a, b):
                assert (da.round, da.sources, da.time) == (db.round, db.sources, db.time)
                assert np.array_equal(da.payload, db.payload)

    def test_input_validation(self):
        topo = butterfly()
        sessions = build_dag_sessions("spinal", topo, seed=SEED, smoke=True)
        with pytest.raises(ValueError, match="one session per edge"):
            simulate_dag_transport(
                topo, sessions[:-1], {"src-a": [], "src-b": []}, TransportConfig()
            )
        with pytest.raises(ValueError, match="exactly"):
            simulate_dag_transport(
                topo, sessions, {"src-a": _payloads(16, 1)}, TransportConfig()
            )
        with pytest.raises(ValueError, match="same number of round payloads"):
            simulate_dag_transport(
                topo,
                sessions,
                {"src-a": _payloads(16, 1), "src-b": _payloads(16, 2)},
                TransportConfig(),
            )
