"""Exact-equivalence tests: fast_shared_lru vs the general simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LRUPolicy, SharedStrategy, Workload, simulate
from repro.core.kernels.shared import fast_shared_lru
from repro.workloads import (
    lemma4_workload,
    mixed_workload,
    theorem1_workload,
    uniform_workload,
    zipf_workload,
)


def assert_equal_results(workload, K, tau):
    general = simulate(workload, K, tau, SharedStrategy(LRUPolicy))
    fast = fast_shared_lru(workload, K, tau)
    assert fast.faults_per_core == general.faults_per_core
    assert fast.hits_per_core == general.hits_per_core
    assert fast.completion_times == general.completion_times
    assert fast.total_steps == general.total_steps


class TestEquivalence:
    @pytest.mark.parametrize("tau", [0, 1, 4])
    def test_named_workloads(self, tau):
        cases = [
            (uniform_workload(3, 60, 6, seed=1), 8),
            (zipf_workload(2, 80, 10, seed=2), 6),
            (mixed_workload([("scan", 6), ("hotcold", 9)], 70, seed=3), 7),
            (lemma4_workload(8, 2, 100), 8),
            (theorem1_workload(8, 2, 5, tau), 8),
        ]
        for workload, K in cases:
            assert_equal_results(workload, K, tau)

    @given(
        st.lists(
            st.lists(st.tuples(st.just(0), st.integers(0, 4)), max_size=15),
            min_size=1,
            max_size=3,
        ).map(
            lambda seqs: Workload(
                [[(j, page) for _, page in seq] for j, seq in enumerate(seqs)]
            )
            if any(seqs)
            else Workload([[(0, 0)]])
        ),
        st.integers(0, 3),
        st.integers(3, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property(self, workload, tau, K):
        if K < workload.num_cores:
            K = workload.num_cores
        assert_equal_results(workload, K, tau)

    def test_non_disjoint_independent_semantics(self):
        w = uniform_workload(2, 50, 3, shared_pages=2, seed=4)
        assert_equal_results(w, 5, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            fast_shared_lru([[1]], 0, 0)
        with pytest.raises(ValueError):
            fast_shared_lru([[1], [2]], 1, 0)


class TestSpeed:
    def test_faster_than_general_path(self):
        """Not a strict benchmark, but the fast path should win clearly
        on a sizeable run (and must, or it has no reason to exist)."""
        import time

        w = zipf_workload(4, 8000, 64, seed=0)
        t0 = time.perf_counter()
        fast = fast_shared_lru(w, 32, 1)
        fast_dt = time.perf_counter() - t0
        t0 = time.perf_counter()
        general = simulate(w, 32, 1, SharedStrategy(LRUPolicy))
        general_dt = time.perf_counter() - t0
        assert fast.total_faults == general.total_faults
        assert fast_dt < general_dt
