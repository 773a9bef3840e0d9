"""Process fan-out for city simulations, worker-count invariant.

:func:`simulate_network_replicas` runs independent *replicas* of one city
(seed-varied Monte-Carlo over the whole network) across processes, the
scale-out for confidence intervals at any fidelity tier.  It follows the
library's ``stride_map``/``spawn_rng`` convention: randomness derives from
seed labels, never from worker assignment, so any ``n_workers`` reproduces
the serial run byte for byte, over ``json.dumps(summary, sort_keys=True)``
of the returned summaries.
"""

from __future__ import annotations

import dataclasses
from functools import partial

from repro.net.fastpath import SymbolCountModel
from repro.net.network import CellNetwork, NetworkConfig
from repro.utils.parallel import stride_map
from repro.utils.rng import derive_seed

__all__ = ["replica_config", "simulate_network_replicas"]


def replica_config(config: NetworkConfig, replica: int) -> NetworkConfig:
    """Replica ``r``'s config: the same city, an independent derived seed."""
    return dataclasses.replace(
        config, seed=derive_seed(config.seed, "net-replica", replica)
    )


def _replica_batch(
    config: NetworkConfig, model: SymbolCountModel | None, batch: list
) -> list:
    return [
        (index, CellNetwork(replica_config(config, r), model=model).run().summary())
        for index, r in batch
    ]


def simulate_network_replicas(
    config: NetworkConfig,
    n_replicas: int,
    n_workers: int = 1,
    *,
    model: SymbolCountModel | None = None,
) -> list[dict]:
    """Run ``n_replicas`` seed-independent cities; summaries in replica order.

    ``model`` is the flow model every replica uses, as for
    :func:`~repro.net.network.simulate_network`.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be at least 1, got {n_replicas}")
    return stride_map(
        partial(_replica_batch, config, model), list(range(n_replicas)), n_workers
    )
