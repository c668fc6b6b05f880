"""Specialised simulation kernels and the ``simulate_fast`` dispatcher.

The general :class:`~repro.core.simulator.Simulator` pays for its
generality — strategy dispatch, policy objects, legality checks — on
every request.  Profiling (``tools/profile_hotspots.py``) shows the
experiment suite spends most of its time simulating a handful of fixed
strategy/policy combinations, so each of those gets a hand-inlined,
allocation-light *kernel*:

===========================  ==============================================
kernel                       equivalent strategy
===========================  ==============================================
``fast_shared_lru``          ``SharedStrategy(LRUPolicy)``
``fast_shared_fifo``         ``SharedStrategy(FIFOPolicy)``
``fast_shared_marking``      ``SharedStrategy(MarkingPolicy)``
``fast_shared_fwf``          ``FlushWhenFullStrategy()``
``fast_shared_fitf``         ``SharedStrategy(GlobalFITFPolicy())``
``fast_partitioned_lru``     ``StaticPartitionStrategy(B, LRUPolicy)``
===========================  ==============================================

The first three run compiled C (:mod:`.compiled`), built on first use,
with their pure-python twins in :mod:`.shared` as the fallback.

:func:`simulate_fast` dispatches a strategy (instance, factory/class or
CLI spec string) to its kernel and *transparently falls back* to the
general simulator when no kernel matches or non-default simulator
options are requested — callers never need to know whether a fast path
exists.  Exact equivalence of every kernel with the general simulator is
property-tested in ``tests/core/test_kernels.py``.
"""

from __future__ import annotations

from repro.core.kernels.belady import fast_shared_fitf
from repro.core.kernels.compiled import (
    fast_shared_fifo,
    fast_shared_lru,
    fast_shared_marking,
)
from repro.core.kernels.partitioned import fast_partitioned_lru
from repro.core.kernels.shared import fast_shared_fwf
from repro.core.metrics import SimResult
from repro.core.request import Workload
from repro.core.simulator import simulate

__all__ = [
    "KERNELS",
    "fast_partitioned_lru",
    "fast_shared_fifo",
    "fast_shared_fitf",
    "fast_shared_fwf",
    "fast_shared_lru",
    "fast_shared_marking",
    "kernel_for",
    "simulate_fast",
    "simulate_fast_batch",
]


#: Registry of kernels by name (the strategy's ``name`` convention).
KERNELS = {
    "S_LRU": fast_shared_lru,
    "S_FIFO": fast_shared_fifo,
    "S_MARK": fast_shared_marking,
    "S_FWF": fast_shared_fwf,
    "S_FITF": fast_shared_fitf,
    "sP_LRU": fast_partitioned_lru,  # takes an extra ``partition`` argument
}


def _policy_type(policy_arg):
    """The policy class behind a SharedStrategy's policy argument, which
    may be an instance, a class, or an arbitrary zero-arg factory."""
    if isinstance(policy_arg, type):
        return policy_arg
    return type(policy_arg)


def kernel_for(strategy):
    """Return ``(kernel, extra_args)`` for a strategy instance, or ``None``
    if no specialised kernel reproduces it exactly.

    Matching is deliberately conservative: subclasses of a supported
    policy (e.g. ``RandomizedMarkingPolicy``) do *not* match, because a
    kernel hard-codes the exact parent semantics.
    """
    # Imported here (not at module top) so the kernels package stays
    # importable without dragging in every strategy module eagerly.
    from repro.policies.base import EvictionPolicy
    from repro.policies.belady import GlobalFITFPolicy
    from repro.policies.marking import MarkingPolicy
    from repro.policies.recency import FIFOPolicy, LRUPolicy
    from repro.strategies.shared import FlushWhenFullStrategy, SharedStrategy
    from repro.strategies.static import StaticPartitionStrategy

    if type(strategy) is FlushWhenFullStrategy:
        return fast_shared_fwf, ()
    if type(strategy) is SharedStrategy:
        arg = strategy._policy_arg
        cls = _policy_type(arg)
        if cls is LRUPolicy:
            return fast_shared_lru, ()
        if cls is FIFOPolicy:
            return fast_shared_fifo, ()
        if cls is MarkingPolicy:
            return fast_shared_marking, ()
        if cls is GlobalFITFPolicy:
            # Only the default "time" metric is inlined.
            if isinstance(arg, GlobalFITFPolicy) and arg.metric != "time":
                return None
            return fast_shared_fitf, ()
        if isinstance(arg, EvictionPolicy) or isinstance(arg, type):
            return None
        return None
    if type(strategy) is StaticPartitionStrategy:
        if _policy_type(strategy._policy_factory) is LRUPolicy:
            return fast_partitioned_lru, (strategy.partition,)
        return None
    return None


def _resolve_strategy(spec, cache_size: int, num_cores: int):
    """Normalise a spec (Strategy, factory/class, or CLI string) to a
    strategy instance."""
    from repro.core.strategy import Strategy

    if isinstance(spec, Strategy):
        return spec
    if isinstance(spec, str):
        from repro.cli import make_strategy

        return make_strategy(spec, cache_size, num_cores)
    if callable(spec):
        made = spec()
        if not isinstance(made, Strategy):
            raise TypeError(
                f"strategy factory returned {type(made).__name__}, "
                "expected a Strategy"
            )
        return made
    raise TypeError(f"cannot interpret strategy spec {spec!r}")


def simulate_fast(workload, cache_size: int, tau: int, spec, **kwargs) -> SimResult:
    """Simulate ``spec`` on ``workload``, using a specialised kernel when
    one matches and the general :class:`Simulator` otherwise.

    ``spec`` may be a :class:`Strategy` instance, a zero-argument factory
    (class or lambda), or a CLI spec string like ``"S_LRU"``.  Any keyword
    arguments accepted by :class:`Simulator` force the general path (the
    kernels implement only the default options, e.g. they never record a
    trace).  The returned :class:`SimResult` is field-for-field identical
    either way.
    """
    if not isinstance(workload, Workload):
        workload = Workload(workload)
    strategy = _resolve_strategy(spec, cache_size, workload.num_cores)
    if not kwargs:
        match = kernel_for(strategy)
        if match is not None:
            kernel, extra = match
            return kernel(workload, cache_size, tau, *extra)
    return simulate(workload, cache_size, tau, strategy, **kwargs)


def simulate_fast_batch(
    workloads, cache_size: int, tau: int, spec, **kwargs
) -> list[SimResult]:
    """:func:`simulate_fast` over many workloads, in order."""
    return [
        simulate_fast(w, cache_size, tau, spec, **kwargs) for w in workloads
    ]
