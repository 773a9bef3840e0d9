"""Network coding over rateless links: two-way relaying, broadcast, AF.

The paper's composability pitch — any link can "just keep sending symbols
until decoded" — extends beyond point-to-point links.  This package builds
the classic physical-layer network-coding constructions on top of the
code-agnostic :class:`~repro.phy.protocol.RatelessCode` protocol:

* :mod:`repro.netcode.twoway` — two-way relay exchanges where the relay
  XOR-combines the decoded payloads and broadcasts *one* rateless stream
  both endpoints un-XOR, with per-phase medium-use accounting against the
  4-phase one-way baseline;
* :mod:`repro.netcode.multicast` — the broadcast primitive (one stream,
  many receivers, medium charged once per symbol) and multicast trees;
* :mod:`repro.netcode.amplify` — amplify-and-forward composite channels
  (soft symbols forwarded without decoding, noise accumulating) including
  the analog-network-coding two-way variant.

Mesh topologies themselves (validated DAGs, the butterfly, XOR forwarding
under the shared event clock) live in :mod:`repro.link.topology`; the
``network-coding-gain`` registry experiment and ``repro mesh`` CLI sweep
both layers.
"""

from repro.netcode.amplify import (
    AmplifyForwardChannel,
    TwoWayAmplifyChannel,
    TwoWayAmplifyResult,
    amplify_codes,
    run_two_way_af_exchange,
)
from repro.netcode.multicast import (
    MulticastResult,
    MulticastTreeConfig,
    MulticastTreeResult,
    broadcast_transmission,
    run_multicast_tree,
)
from repro.netcode.twoway import TwoWayConfig, TwoWayResult, run_two_way_exchange

__all__ = [
    "AmplifyForwardChannel",
    "MulticastResult",
    "MulticastTreeConfig",
    "MulticastTreeResult",
    "TwoWayAmplifyChannel",
    "TwoWayAmplifyResult",
    "TwoWayConfig",
    "TwoWayResult",
    "amplify_codes",
    "broadcast_transmission",
    "run_multicast_tree",
    "run_two_way_af_exchange",
    "run_two_way_exchange",
]
