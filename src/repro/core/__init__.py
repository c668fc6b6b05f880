"""Core multicore-paging model: request types, cache state, simulator.

This package implements the model of Section 3 of López-Ortiz & Salinger,
"Paging for Multicore Processors" (UW TR CS-2011-12 / SPAA'11).
"""

from repro.core.cache import CacheCell, CacheState
from repro.core.kernels import kernel_for, simulate_fast, simulate_fast_batch
from repro.core.kernels.shared import fast_shared_lru
from repro.core.metrics import SimResult
from repro.core.oracle import FutureOracle
from repro.core.request import RequestSequence, Workload
from repro.core.simulator import SimContext, Simulator, StrategyError, simulate
from repro.core.strategy import Strategy
from repro.core.trace import Trace
from repro.core.trace_io import (
    BinaryTraceWriter,
    iter_trace_binary,
    load_trace,
    load_trace_binary,
    save_trace,
    save_trace_binary,
)
from repro.core.types import AccessEvent, AccessKind, CoreId, Page, PartitionChange, Time

__all__ = [
    "AccessEvent",
    "AccessKind",
    "BinaryTraceWriter",
    "CacheCell",
    "CacheState",
    "CoreId",
    "FutureOracle",
    "Page",
    "PartitionChange",
    "RequestSequence",
    "SimContext",
    "SimResult",
    "Simulator",
    "Strategy",
    "StrategyError",
    "Time",
    "Trace",
    "Workload",
    "fast_shared_lru",
    "iter_trace_binary",
    "kernel_for",
    "load_trace",
    "load_trace_binary",
    "save_trace",
    "save_trace_binary",
    "simulate",
    "simulate_fast",
    "simulate_fast_batch",
]
