"""City-scale multi-cell network simulation.

The network layer composes many :class:`~repro.mac.cell.MacCell`\\ s under a
single symbol-time clock, replacing each user's standalone SNR with a live
uplink **SINR** (serving-cell path-loss signal over interfering cells'
transmit activity plus noise), walking users through the city
(:mod:`repro.net.mobility`), handing them off between cells, and offering
two fidelity tiers under the same MAC/event machinery:

* ``exact`` — every block goes through a real encoder/channel/decoder
  (:mod:`repro.net.network`);
* ``flow`` — packets sample calibrated symbols-to-decode distributions
  measured off the bit-exact codec (:mod:`repro.net.fastpath`), for
  city-scale user counts.

The ``city-soak`` experiment (:mod:`repro.experiments.city_scaling`) runs
seed-independent replicas of one city through the registry's fan-out.
"""

from repro.net.fastpath import (
    FlowLink,
    FlowTransmission,
    SymbolCountModel,
    cached_symbol_model,
    calibrate_symbol_model,
)
from repro.net.geometry import CityGeometry
from repro.net.mobility import MobilityModel
from repro.net.network import (
    CellNetwork,
    NetworkConfig,
    NetworkResult,
    SinrBitChannel,
    SinrChannel,
    default_symbol_model,
    network_code,
    network_payloads,
    simulate_network,
)

__all__ = [
    "CellNetwork",
    "CityGeometry",
    "FlowLink",
    "FlowTransmission",
    "MobilityModel",
    "NetworkConfig",
    "NetworkResult",
    "SinrBitChannel",
    "SinrChannel",
    "SymbolCountModel",
    "cached_symbol_model",
    "calibrate_symbol_model",
    "default_symbol_model",
    "network_code",
    "network_payloads",
    "simulate_network",
]
