"""Multi-user shared-medium (cellular uplink) simulation layer.

The paper's headline argument is *network-level*: because spinal codes are
rateless, a wireless cell no longer needs an explicit rate-adaptation loop,
and the win shows up as aggregate goodput and fairness across many users
with different and time-varying SNRs.  This package provides the first
multi-user piece of the library:

* :mod:`repro.mac.cell` — a deterministic event-driven cell: N uplink users
  with private channels and packet queues contend for one shared medium,
  granted one subpass block at a time by a MAC scheduler;
* :mod:`repro.mac.schedulers` — round-robin TDMA, opportunistic max-SNR and
  proportional-fair schedulers behind one :class:`~repro.mac.schedulers.Scheduler`
  interface;
* :mod:`repro.mac.adaptive` — the network-level "status quo" baseline: each
  user runs threshold rate adaptation over *fixed-rate* spinal frames
  instead of a rateless session, so the paper's "rateless removes rate
  adaptation" claim can be measured at the cell level;
* :mod:`repro.mac.metrics` — aggregate/per-user goodput, Jain fairness and
  packet-latency statistics of a cell run.
"""

from repro.mac.adaptive import (
    AdaptiveCodecTransmission,
    AdaptiveSpinalLink,
    SpinalRateOption,
    calibrate_spinal_rate_policy,
    spinal_rate_options,
)
from repro.mac.cell import CellUser, MacCell, RatelessLink, simulate_cell, spread_snrs
from repro.mac.metrics import CellResult, PacketOutcome, jain_fairness_index
from repro.mac.schedulers import (
    MaxSnrScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    Scheduler,
    UserView,
    make_scheduler,
)

__all__ = [
    "AdaptiveCodecTransmission",
    "AdaptiveSpinalLink",
    "CellResult",
    "CellUser",
    "SpinalRateOption",
    "calibrate_spinal_rate_policy",
    "spinal_rate_options",
    "MacCell",
    "MaxSnrScheduler",
    "PacketOutcome",
    "ProportionalFairScheduler",
    "RatelessLink",
    "RoundRobinScheduler",
    "Scheduler",
    "UserView",
    "jain_fairness_index",
    "make_scheduler",
    "simulate_cell",
    "spread_snrs",
]
