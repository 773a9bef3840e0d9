"""Order-preserving process fan-out.

The registry engine (:mod:`repro.experiments.registry`) promises that
``n_workers`` is purely a wall-clock knob — every work item derives its
randomness from ``(seed, labels...)`` irrespective of worker assignment, and
results are re-assembled in item order, so any worker count reproduces the
serial run exactly.  This module is the batching/reassembly half of that
contract, the library's one process fan-out seam.

Round-robin (strided) batching is deliberate: adjacent items usually have
similar expected cost (neighbouring trials, grid points or cells), so
striding balances the load across workers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

__all__ = ["stride_map"]


def stride_map(
    batch_fn: Callable[[list[tuple[int, Item]]], list[tuple[int, Result]]],
    items: Sequence[Item],
    n_workers: int,
) -> list[Result]:
    """Map ``batch_fn`` over ``items`` with round-robin process batching.

    ``batch_fn`` receives a list of ``(index, item)`` pairs and returns a
    list of ``(index, result)`` pairs; it must be picklable (a top-level
    function, possibly wrapped in :func:`functools.partial`) so it survives
    any multiprocessing start method.  Results are returned in item order
    regardless of batching, and ``n_workers=1`` (or a single item) runs
    inline with no process pool.
    """
    indexed = list(enumerate(items))
    n_workers = min(n_workers, len(indexed))
    if n_workers <= 1:
        pairs = batch_fn(indexed)
    else:
        batches = [indexed[start::n_workers] for start in range(n_workers)]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(batch_fn, batch) for batch in batches]
            pairs = [pair for future in futures for pair in future.result()]
    pairs = sorted(pairs, key=lambda pair: pair[0])
    return [result for _, result in pairs]
