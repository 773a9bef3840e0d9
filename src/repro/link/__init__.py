"""Link-layer machinery around the rateless code.

The paper's evaluation assumes "the receiver informs the sender as soon as it
is able to fully decode the data", and lists "developing a feedback
link-layer protocol for rateless spinal codes" as future work (Section 6).
This package models that feedback at two levels of fidelity:

* :mod:`repro.link.feedback` — closed-form feedback models (perfect,
  delayed, per-block) that convert the number of symbols a decoder *needed*
  into the number the sender actually *transmits*;
* :mod:`repro.link.session` — packet-level throughput/latency accounting for
  a stream of rateless transmissions under a feedback model;
* :mod:`repro.link.events` — the deterministic discrete-event scheduler
  (symbol-time clock) underlying the transport simulator;
* :mod:`repro.link.transport` — a simulated sliding-window ARQ protocol
  (go-back-N / selective-repeat, lossy delayed ACKs) whose feedback
  overhead is *measured* from protocol dynamics instead of assumed;
* :mod:`repro.link.topology` — multi-hop decode-and-forward relay chains
  (each hop re-encoding with a fresh hash seed on its own channel) and,
  generalising them, validated DAG topologies — explicit node/edge specs
  with cycle/reachability checking, butterfly and multicast-tree
  constructors, and a pipelined mesh transport under one event clock with
  optional XOR network coding at interior nodes.
"""

from repro.link.events import EventScheduler
from repro.link.feedback import (
    BlockFeedback,
    DelayedFeedback,
    FeedbackModel,
    PerfectFeedback,
)
from repro.link.session import LinkSessionResult, simulate_link_session
from repro.link.topology import (
    DagDelivery,
    DagEdge,
    DagTopology,
    DagTransportResult,
    RelayTransportResult,
    TopologyError,
    build_codec_relay_sessions,
    build_dag_sessions,
    build_relay_sessions,
    butterfly,
    multicast_tree,
    path_dag,
    relay_hop_params,
    simulate_dag_transport,
    simulate_relay_transport,
)
from repro.link.transport import HopTransport, TransportConfig, TransportResult

__all__ = [
    "FeedbackModel",
    "PerfectFeedback",
    "DelayedFeedback",
    "BlockFeedback",
    "simulate_link_session",
    "LinkSessionResult",
    "EventScheduler",
    "TransportConfig",
    "TransportResult",
    "HopTransport",
    "RelayTransportResult",
    "build_codec_relay_sessions",
    "build_relay_sessions",
    "relay_hop_params",
    "simulate_relay_transport",
    "DagDelivery",
    "DagEdge",
    "DagTopology",
    "DagTransportResult",
    "TopologyError",
    "build_dag_sessions",
    "butterfly",
    "multicast_tree",
    "path_dag",
    "simulate_dag_transport",
]
