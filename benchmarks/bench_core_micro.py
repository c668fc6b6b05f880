"""Microbenchmarks of the library's hot paths.

These are not paper experiments; they track the throughput of the
simulator and the sequential substrate so performance regressions in the
core loops are visible in benchmark history.
"""

from __future__ import annotations

import pytest

from repro import (
    GlobalFITFPolicy,
    LRUPolicy,
    LruMimicDynamicPartition,
    SharedStrategy,
    StaticPartitionStrategy,
    equal_partition,
    simulate,
)
from repro.offline import decide_pif, dp_ftf
from repro.problems import PIFInstance
from repro.sequential import belady_faults, lru_faults_all_sizes
from repro.workloads import uniform_workload, zipf_workload

P, N, K, TAU = 4, 5000, 32, 1


@pytest.fixture(scope="module")
def workload():
    return zipf_workload(P, N, 64, alpha=1.2, seed=0)


def test_simulator_shared_lru(benchmark, workload):
    result = benchmark(
        lambda: simulate(workload, K, TAU, SharedStrategy(LRUPolicy))
    )
    assert result.total_faults + result.total_hits == workload.total_requests


def test_simulator_shared_fitf(benchmark, workload):
    result = benchmark(
        lambda: simulate(workload, K, TAU, SharedStrategy(GlobalFITFPolicy))
    )
    assert result.total_faults > 0


def test_simulator_static_partition(benchmark, workload):
    part = equal_partition(K, P)
    result = benchmark(
        lambda: simulate(workload, K, TAU, StaticPartitionStrategy(part, LRUPolicy))
    )
    assert result.total_faults > 0


def test_simulator_lemma3_mimic(benchmark, workload):
    result = benchmark(
        lambda: simulate(workload, K, TAU, LruMimicDynamicPartition())
    )
    assert result.total_faults > 0


def test_sequential_belady_100k(benchmark):
    seq = list(uniform_workload(1, 100_000, 256, seed=1)[0])
    faults = benchmark(lambda: belady_faults(seq, 64))
    assert faults > 0


def test_sequential_lru_all_sizes_100k(benchmark):
    seq = list(uniform_workload(1, 100_000, 256, seed=2)[0])
    table = benchmark(lambda: lru_faults_all_sizes(seq, 128))
    assert len(table) == 128


def test_dp_ftf_toy(benchmark):
    w = uniform_workload(2, 10, 3, seed=3)
    faults = benchmark(lambda: dp_ftf(w, 3, 1))
    assert faults > 0


def test_dp_pif_toy(benchmark):
    w = uniform_workload(2, 8, 3, seed=4)
    inst = PIFInstance(w, 3, 1, deadline=20, bounds=(6, 6))
    result = benchmark(lambda: decide_pif(inst))
    assert result.feasible in (True, False)


def test_fast_shared_lru(benchmark, workload):
    from repro.core.kernels.shared import fast_shared_lru

    result = benchmark(lambda: fast_shared_lru(workload, K, TAU))
    assert result.total_faults > 0


@pytest.mark.parametrize("spec", ["S_FIFO", "S_MARK", "S_FITF"])
def test_kernel_dispatch(benchmark, workload, spec):
    from repro.core.kernels import simulate_fast

    result = benchmark(lambda: simulate_fast(workload, K, TAU, spec))
    assert result.total_faults + result.total_hits == workload.total_requests


def test_kernel_partitioned_lru(benchmark, workload):
    from repro.core.kernels import fast_partitioned_lru

    part = equal_partition(K, P)
    result = benchmark(lambda: fast_partitioned_lru(workload, K, TAU, part))
    assert result.total_faults > 0


def test_dp_transition_expansion(benchmark):
    """Raw throughput of ``DPSpace.expand_ids`` over every reachable
    state of a small instance — the inner loop of both DPs."""
    from repro.offline.alg_state import DPSpace

    w = uniform_workload(2, 12, 3, seed=5)
    space = DPSpace(w, 3, 1)
    width = space.width

    def sweep():
        seen = {space.initial_pos_id << width}
        frontier = list(seen)
        n = 0
        while frontier:
            nxt = []
            for state in frontier:
                for ncfg, npid, _c, _fv, _s in space.expand_ids(
                    state & ((1 << width) - 1), state >> width, True
                ):
                    n += 1
                    packed = (npid << width) | ncfg
                    if packed not in seen:
                        seen.add(packed)
                        nxt.append(packed)
            frontier = nxt
        return n

    assert benchmark(sweep) > 0


def test_dp_greedy_descent(benchmark):
    """The Belady-flavored descent used as FTF upper bound and PIF
    presolve."""
    from repro.offline.alg_state import DPSpace

    w = uniform_workload(2, 40, 5, seed=6)
    space = DPSpace(w, 4, 1)
    chain = benchmark(lambda: space.greedy_descent())
    assert chain is not None
