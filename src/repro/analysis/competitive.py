"""Competitive-ratio experiment harness.

Runs strategies over workloads, computes fault ratios against a reference
(another strategy or a closed-form/offline optimum), and sweeps parameter
grids in process.  Parallel, supervised sweeps of replicas go through
:func:`repro.analysis.batch_run` or :mod:`repro.fleet` instead.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.core.request import Workload
from repro.core.simulator import Simulator

__all__ = ["StrategyResult", "run_strategies", "fault_ratio", "sweep"]


@dataclass(frozen=True)
class StrategyResult:
    """One strategy's outcome on one workload."""

    name: str
    total_faults: int
    faults_per_core: tuple[int, ...]
    makespan: int


def run_strategies(
    workload: Workload,
    cache_size: int,
    tau: int,
    strategies: Sequence,
    **sim_kwargs,
) -> list[StrategyResult]:
    """Run each strategy on ``workload`` and collect results."""
    out = []
    for strategy in strategies:
        res = Simulator(
            workload, cache_size, tau, strategy, **sim_kwargs
        ).run()
        out.append(
            StrategyResult(
                name=strategy.name,
                total_faults=res.total_faults,
                faults_per_core=res.faults_per_core,
                makespan=res.makespan,
            )
        )
    return out


def fault_ratio(
    workload: Workload,
    cache_size: int,
    tau: int,
    algorithm,
    reference,
) -> tuple[float, int, int]:
    """``(ratio, alg_faults, ref_faults)`` of two strategies.

    ``reference`` may be a strategy or an int/float (a precomputed optimum,
    e.g. from :func:`repro.offline.optimal_static_partition` or the DP).
    """
    alg = Simulator(workload, cache_size, tau, algorithm).run().total_faults
    if isinstance(reference, (int, float)):
        ref = reference
    else:
        ref = (
            Simulator(workload, cache_size, tau, reference).run().total_faults
        )
    ratio = alg / ref if ref else float("inf")
    return ratio, alg, int(ref)


def sweep(points: Iterable, fn: Callable) -> list[tuple]:
    """Evaluate ``fn(point)`` over ``points``.

    Returns ``[(point, result), ...]`` in input order.
    """
    return [(pt, fn(pt)) for pt in points]
