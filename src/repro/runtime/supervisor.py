"""Supervised process-pool execution for one call.

:func:`supervised_map` runs a work function over a list of items on a
:class:`~repro.runtime.pool.WarmWorkerPool` of its own: it opens the
pool, maps, and closes it.  Every supervision rule — per-attempt
timeouts, bounded retries with backoff, pool rebuild, last-real-error
reporting, workers that exit with their owner — is the pool's
(:meth:`WarmWorkerPool.map <repro.runtime.pool.WarmWorkerPool.map>`).

This module is policy-free: it knows nothing about workloads or caches.
:mod:`repro.analysis.batch` supplies the work function and journaling
policy (on :class:`repro.store.DurableLog`); :mod:`repro.runtime.chaos`
supplies the faults that test it.
"""

from __future__ import annotations

from repro.runtime.pool import ReplicaFailure, SweepError, WarmWorkerPool
from repro.store.durable import JournalMismatch

__all__ = [
    "JournalMismatch",
    "ReplicaFailure",
    "SweepError",
    "supervised_map",
]


def supervised_map(
    fn,
    items,
    *,
    max_workers: int = 1,
    initializer=None,
    initargs: tuple = (),
    timeout_s: float | None = None,
    retries: int = 0,
    backoff_s: float = 0.1,
    jitter: float = 0.0,
    on_result=None,
    on_failure: str = "raise",
):
    """Run ``fn(item, attempt)`` over ``items`` on a pool of
    ``max_workers`` processes that lives for this call only.

    Returns ``(results, failures)``; the supervision arguments and their
    semantics are :meth:`repro.runtime.pool.WarmWorkerPool.map`'s.
    ``initializer(*initargs)`` runs once in each worker process.
    """
    with WarmWorkerPool(
        max_workers=max_workers, initializer=initializer, initargs=initargs
    ) as pool:
        return pool.map(
            fn,
            items,
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            jitter=jitter,
            on_result=on_result,
            on_failure=on_failure,
        )
