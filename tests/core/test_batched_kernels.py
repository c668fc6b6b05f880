"""The multi-workload entry point ``simulate_fast_batch`` over the compiled
shared-cache kernel.

``simulate_fast_batch`` is a plain loop of :func:`simulate_fast`, which
runs ``S_LRU``, ``S_FIFO`` and ``S_MARK`` on the compiled kernel
(:mod:`repro.core.kernels.compiled`).  Every result must equal the
pure-python kernel's (and hence the general simulator's, whose
equivalence with the python kernels is tested in ``test_kernels.py``)
field for field, across workload families, taus, cache pressures,
dense-id metadata presence and the numpy / no-numpy legs.  Cache
fingerprints are checked end to end: replicas simulated by the compiled
and the python kernels must share ``.repro_cache/`` entries.
"""

import pytest

from repro import FIFOPolicy, LRUPolicy, MarkingPolicy, SharedStrategy, Workload
from repro.analysis.batch import batch_run
from repro.core.kernels import (
    compiled,
    kernel_for,
    shared,
    simulate_fast,
    simulate_fast_batch,
)
from repro.workloads import (
    access_graph_workload,
    cyclic_workload,
    multi_pointer_graph_workload,
    phased_workload,
    uniform_workload,
    zipf_workload,
)

SPECS = ("S_LRU", "S_FIFO", "S_MARK")
TAUS = (0, 1, 3)
PYTHON = {
    "S_LRU": shared.fast_shared_lru,
    "S_FIFO": shared.fast_shared_fifo,
    "S_MARK": shared.fast_shared_marking,
}


def _families(seed):
    yield zipf_workload(4, 80, 9, alpha=1.2, seed=seed)
    yield uniform_workload(3, 60, 7, shared_pages=3, seed=100 + seed)
    yield cyclic_workload(3, 50, 8, stride=1 + seed % 3)
    yield phased_workload(3, 70, 5, 3, seed=200 + seed)
    yield access_graph_workload(2, 60, nodes=16, degree=4, seed=300 + seed)
    yield multi_pointer_graph_workload(2, 60, nodes=16, degree=4, seed=seed)


def _assert_batch_matches_scalar(workloads, K, tau, spec):
    batched = simulate_fast_batch(workloads, K, tau, spec)
    scalar = [PYTHON[spec](w, K, tau) for w in workloads]
    assert batched == scalar


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("tau", TAUS)
def test_batched_matches_scalar_families(spec, tau):
    for seed in range(3):
        workloads = list(_families(seed))
        for w in workloads:
            _assert_batch_matches_scalar([w] * 1, 8, tau, spec)
        # Same-shape multi-seed batches (the real use case).
        for family in range(len(workloads)):
            batch = [list(_families(s))[family] for s in range(5)]
            _assert_batch_matches_scalar(batch, 8, tau, spec)


@pytest.mark.parametrize("spec", SPECS)
def test_batched_matches_scalar_adversarial(spec):
    cases = [
        # String and tuple pages (no dense-id metadata).
        [Workload([["a", "b", "a", ("c", 1)], ["x"] * 5]) for _ in range(4)],
        # Ragged per-core lengths, with an empty core.
        [
            Workload([[1, 2, 3] * (s + 1), [], [4, 5]])
            for s in range(4)
        ],
        # Heterogeneous universes across seeds.
        [
            uniform_workload(2, 30, 3 + s, seed=s) for s in range(6)
        ],
        # Tight cache (K == p) forcing constant eviction pressure.
        [uniform_workload(3, 40, 6, seed=s) for s in range(4)],
    ]
    for K in (3, 6):
        for tau in TAUS:
            for batch in cases:
                if K < batch[0].num_cores:
                    continue
                _assert_batch_matches_scalar(batch, K, tau, spec)


def test_empty_batch():
    assert simulate_fast_batch([], 4, 1, "S_LRU") == []


def test_all_empty_sequences():
    batch = [Workload([[], []]) for _ in range(3)]
    for spec in SPECS:
        _assert_batch_matches_scalar(batch, 4, 1, spec)


@pytest.mark.parametrize("spec", SPECS)
def test_dense_ids_equal_stripped_metadata(spec):
    """Generator-attached dense page ids are a pure accelerator: results
    must be identical with the metadata stripped (``as_lists`` loses
    it), which makes the compiled kernel intern the pages instead."""
    gens = [
        [zipf_workload(3, 90, 11, alpha=1.1, seed=s) for s in range(6)],
        [uniform_workload(2, 70, 9, shared_pages=4, seed=s) for s in range(6)],
        [phased_workload(2, 60, 6, 3, seed=s) for s in range(6)],
    ]
    for batch in gens:
        assert "_dense_page_ids" in batch[0].__dict__
        stripped = [Workload(w.as_lists()) for w in batch]
        for K, tau in ((6, 0), (6, 1), (4, 3)):
            a = simulate_fast_batch(batch, K, tau, spec)
            b = simulate_fast_batch(stripped, K, tau, spec)
            assert a == b


def test_dense_ids_validation():
    w = Workload([[1, 2], [3]])
    with pytest.raises(ValueError):
        w.attach_dense_page_ids(4, [[0, 1]])  # wrong core count
    with pytest.raises(ValueError):
        w.attach_dense_page_ids(4, [[0], [2]])  # wrong length


def test_no_numpy_fallback(monkeypatch):
    """With numpy disabled every kernel behind the batch entry point
    takes its pure-python path — same results, no crash.  S_FITF is the
    kernel that reads the switch; the compiled kernels never needed
    numpy."""
    batch = [uniform_workload(2, 40, 5, seed=s) for s in range(4)]
    specs = ("S_LRU", "S_MARK", "S_FITF")
    want = {s: [simulate_fast(w, 6, 1, s) for w in batch] for s in specs}
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    for spec in specs:
        assert simulate_fast_batch(batch, 6, 1, spec) == want[spec]


def test_batched_kernel_for_is_type_exact():
    class SneakyLRU(LRUPolicy):
        pass

    assert kernel_for(SharedStrategy(LRUPolicy)) == (
        compiled.fast_shared_lru, ()
    )
    assert kernel_for(SharedStrategy(FIFOPolicy)) == (
        compiled.fast_shared_fifo, ()
    )
    assert kernel_for(SharedStrategy(MarkingPolicy)) == (
        compiled.fast_shared_marking, ()
    )
    assert kernel_for(SharedStrategy(SneakyLRU)) is None


def test_verify_oracle_covers_batched_engines(monkeypatch):
    """The cross-engine oracle runs the python twin of each compiled
    kernel as a third engine; a clean case must stay clean and a
    deliberately broken python result must be reported."""
    from repro.core.metrics import SimResult
    from repro.verify.oracle import VerifyCase, check_case

    case = VerifyCase.make([[1, 2, 1, 3], [10, 11, 10]], 4, 1)
    assert check_case(case) == []

    def broken(workload, K, tau):
        good = PYTHON["S_MARK"](workload, K, tau)
        return SimResult(good.faults_per_core, good.hits_per_core,
                         good.completion_times, good.total_steps + 1, None)

    monkeypatch.setattr(shared, "fast_shared_marking", broken)
    found = check_case(case, strategies=["S_MARK"])
    assert [(d.kind, d.strategy) for d in found] == [
        ("kernel_mismatch", "S_MARK_python")
    ]


def _sweep_workload(seed):
    return zipf_workload(2, 60, 8, alpha=1.2, seed=seed)


def test_batch_run_batched_path_matches_scalar(monkeypatch, tmp_path):
    """`batch_run` gives the same aggregates on the compiled and the
    python kernels, and their cache fingerprints are shared both ways (a
    compiled sweep warms the cache for a python one and vice versa)."""
    seeds = range(10)
    run = lambda cache_dir: batch_run(  # noqa: E731
        "lru", _sweep_workload, lambda: SharedStrategy(LRUPolicy),
        6, 1, seeds, cache=True, cache_dir=cache_dir,
    )
    fast = run(tmp_path)
    assert fast.cache_hits == 0
    with monkeypatch.context() as m:
        m.setitem(compiled._state, "lib", None)  # as if the build failed
        slow = run(tmp_path)
        cold = run(tmp_path / "cold")
    # Every replica must be served from the compiled run's cache entries.
    assert slow.cache_hits == len(list(seeds))
    assert slow.faults == fast.faults
    assert slow.makespans == fast.makespans

    # And the reverse: a python cold run warms the cache for compiled.
    assert cold.cache_hits == 0
    assert cold.faults == fast.faults
    assert run(tmp_path / "cold").cache_hits == len(list(seeds))


def test_batch_run_batched_path_no_cache(monkeypatch):
    seeds = range(8)
    run = lambda: batch_run(  # noqa: E731
        "fifo", _sweep_workload, lambda: SharedStrategy(FIFOPolicy),
        6, 1, seeds,
    )
    fast = run()
    monkeypatch.setitem(compiled._state, "lib", None)
    slow = run()
    assert fast.faults == slow.faults
    assert fast.makespans == slow.makespans
    assert fast.seeds == slow.seeds
    assert fast.faults == tuple(
        PYTHON["S_FIFO"](_sweep_workload(s), 6, 1).total_faults
        for s in seeds
    )
