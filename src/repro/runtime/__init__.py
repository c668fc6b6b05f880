"""Robust execution runtime: budgets, supervision, fault injection.

Three layers, built to keep long runs alive (docs/ROBUSTNESS.md):

:mod:`repro.runtime.budget`
    :class:`Budget` limits (wall-clock deadline, state cap) threaded
    through every exponential solver; on exhaustion the solver raises
    :class:`BudgetExceeded` carrying a :class:`BoundedResult` interval
    around the exact answer instead of hanging.
:mod:`repro.runtime.pool`
    :class:`WarmWorkerPool` — the one process supervisor: per-attempt
    timeouts, bounded retries with backoff, pool rebuild, health-checked
    recycling, and workers that exit with their owner.  Its
    :meth:`~WarmWorkerPool.map` runs every local sweep and its
    :meth:`~WarmWorkerPool.run_one` every served job.
:mod:`repro.runtime.supervisor`
    :func:`supervised_map` — one :meth:`WarmWorkerPool.map` call on a
    pool that lives for that call only.  The journals that make
    interrupted sweeps resumable are :class:`repro.store.DurableLog`.
:mod:`repro.runtime.chaos`
    Deterministic fault injection (``REPRO_CHAOS``) — worker crashes,
    slow replicas, cache corruption — used to test the other two layers.
:mod:`repro.runtime.breaker`
    :class:`CircuitBreaker` — per-call-class failure isolation
    (CLOSED/OPEN/HALF_OPEN) used by the job service's admission control.
:mod:`repro.runtime.drain`
    :class:`DrainSignal` — SIGTERM/SIGINT to graceful-drain latch for
    long-running serving loops.
"""

from repro.runtime.breaker import CircuitBreaker, CircuitOpen
from repro.runtime.budget import (
    BoundedResult,
    Budget,
    BudgetExceeded,
    cold_start_lower_bound,
    solo_belady_lower_bound,
)
from repro.runtime.chaos import (
    ChaosConfig,
    ChaosCrash,
    chaos_active,
    chaos_config,
)
from repro.runtime.drain import DrainSignal
from repro.runtime.pool import WarmWorkerPool, WorkerJobFailed
from repro.runtime.supervisor import (
    JournalMismatch,
    ReplicaFailure,
    SweepError,
    supervised_map,
)

__all__ = [
    "BoundedResult",
    "Budget",
    "BudgetExceeded",
    "ChaosConfig",
    "ChaosCrash",
    "CircuitBreaker",
    "CircuitOpen",
    "DrainSignal",
    "JournalMismatch",
    "ReplicaFailure",
    "SweepError",
    "WarmWorkerPool",
    "WorkerJobFailed",
    "chaos_active",
    "chaos_config",
    "cold_start_lower_bound",
    "solo_belady_lower_bound",
    "supervised_map",
]
