"""The compiled shared-cache kernel: exhaustive equivalence on a small
scope, and its build (fallback, concurrent builds, killed builds).

Every instance of two cores with at most three requests each over three
pages — 275 up to page relabelling — plus the 81 where each core has its
own three pages, under K in {2, 3} and tau in {0, 1, 2}: the compiled
kernel, its python twin and the general ``Simulator`` must agree on
every one, for S_LRU, S_FIFO and S_MARK.  Tiny instances are where the
model's decisions bite: same-step pins, requests to a page in flight,
and the "cache full and every cell busy" refusal.
"""

import os
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import repro
from repro.core.kernels import compiled, shared
from repro.core.request import Workload
from repro.core.simulator import simulate
from repro.verify.oracle import oracle_strategies

ENGINES = {
    "S_LRU": (compiled.fast_shared_lru, shared.fast_shared_lru),
    "S_FIFO": (compiled.fast_shared_fifo, shared.fast_shared_fifo),
    "S_MARK": (compiled.fast_shared_marking, shared.fast_shared_marking),
}
SRC = Path(repro.__file__).resolve().parents[1]


def _canonical(sequences):
    """Relabel pages in order of first appearance."""
    labels: dict = {}
    return tuple(
        tuple(labels.setdefault(page, len(labels)) for page in seq)
        for seq in sequences
    )


def small_scope():
    seqs = [()] + [
        s for n in (1, 2, 3) for s in product(range(3), repeat=n)
    ]
    shared_pages = {_canonical((a, b)) for a in seqs for b in seqs}
    own = sorted({_canonical((s,))[0] for s in seqs})
    disjoint = {(a, tuple(3 + x for x in b)) for a in own for b in own}
    return sorted(shared_pages), sorted(disjoint)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError as exc:
        return ("raised", type(exc), str(exc))


def test_scope_sizes():
    shared_pages, disjoint = small_scope()
    assert (len(shared_pages), len(disjoint)) == (275, 81)


def _agree_on_scope(cache_sizes):
    """Run the three engines on the whole scope; returns how many
    (case, strategy) pairs every engine refused."""
    shared_pages, disjoint = small_scope()
    refusals = 0
    for sequences in shared_pages + disjoint:
        workload = Workload(sequences)
        for K, tau in product(cache_sizes, (0, 1, 2)):
            factories = oracle_strategies(K, 2)
            for name, (fast, python) in ENGINES.items():
                want = _outcome(python, workload, K, tau)
                assert _outcome(fast, workload, K, tau) == want, (
                    name, sequences, K, tau)
                general = _outcome(
                    simulate, workload, K, tau, factories[name]())
                if isinstance(want, tuple):
                    refusals += 1
                    assert isinstance(general, tuple), (name, sequences, K, tau)
                    assert general[:2] == want[:2], (name, sequences, K, tau)
                else:
                    assert general == want, (name, sequences, K, tau)
    return refusals


def test_exhaustive_small_scope():
    # With K >= p a fault always finds a cell that is neither fetching
    # nor pinned, so no valid instance is refused.
    assert _agree_on_scope((2, 3)) == 0


def test_refusals_agree_below_k_equals_p(monkeypatch):
    """The "cache full and every cell busy" refusal needs K < p, which
    every engine rejects up front; with that check switched off, K = 1
    refuses thousands of cases, and all three engines refuse the same
    ones."""
    monkeypatch.setattr(Workload, "validate_against_cache",
                        lambda self, cache_size: None)
    assert _agree_on_scope((1,)) > 1000


def test_numpy_and_list_dense_ids_agree():
    from repro.workloads import zipf_workload

    w = zipf_workload(3, 120, 10, alpha=1.1, seed=4)
    width, ids = w.__dict__["_dense_page_ids"]
    as_lists = Workload(w.as_lists())
    as_lists.attach_dense_page_ids(width, [a.tolist() for a in ids])
    for fast, python in ENGINES.values():
        assert fast(w, 8, 1) == fast(as_lists, 8, 1) == python(w, 8, 1)


def test_out_of_range_ids_fall_back_to_python():
    w = Workload([[1, 2, 1], [3, 3]])
    w.attach_dense_page_ids(2, [[0, 1, 0], [2, 2]])  # 2 is out of range
    for fast, python in ENGINES.values():
        assert fast(w, 2, 1) == python(Workload(w.as_lists()), 2, 1)


def test_nothing_is_built_at_import_or_server_boot(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_CACHE_DIR=str(tmp_path), CC="/nonexistent/cc")
    subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import repro.cli, repro.core.kernels.compiled as c\n"
         "assert c._state == {}\n"
         "from repro.service import JobService, ServiceHTTPServer\n"
         f"service = JobService({str(tmp_path / 'jobs.jsonl')!r}).start()\n"
         "http = ServiceHTTPServer(service).start()\n"
         "http.stop()\n"
         "service.stop()\n"
         "assert c._state == {}\n"],
        env=env, check=True, timeout=120)
    assert not (tmp_path / "kernels").exists()


def test_failed_build_warns_once_and_gives_identical_results(
        monkeypatch, tmp_path):
    from repro.workloads import uniform_workload

    batch = [uniform_workload(2, 40, 5, shared_pages=2, seed=s)
             for s in range(3)]
    monkeypatch.setattr(compiled, "_state", {})
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.warns(RuntimeWarning, match="using the Python kernels"):
        assert compiled.library() is None
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fast, python in ENGINES.values():
            assert [fast(w, 4, 1) for w in batch] == [
                python(w, 4, 1) for w in batch]
    assert not list((tmp_path / "kernels").glob("*.so"))


def test_threads_racing_the_first_call_load_once(monkeypatch):
    import threading
    import time

    loads = []

    def slow_load():
        loads.append(1)
        time.sleep(0.05)
        return object()

    monkeypatch.setattr(compiled, "_state", {})
    monkeypatch.setattr(compiled, "_load", slow_load)
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(compiled.library()))
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(loads) == 1
    assert len(got) == 8 and len({id(lib) for lib in got}) == 1


# -- builds in separate processes ----------------------------------------

_RUN = (
    "from repro.core.kernels import compiled, shared\n"
    "from repro.workloads import zipf_workload\n"
    "assert compiled.library() is not None\n"
    "w = zipf_workload(4, 300, 16, seed=9)\n"
    "assert compiled.fast_shared_marking(w, 16, 2) == "
    "shared.fast_shared_marking(w, 16, 2)\n"
)


def _compiler():
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    return cc


def _wrapper(tmp_path, body: str) -> str:
    """A ``CC`` that runs ``body`` (with ``$out`` set to the ``-o``
    argument) before handing over to the real compiler."""
    script = tmp_path / "cc-wrapper"
    script.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do [ "$prev" = "-o" ] && out=$a; prev=$a; done\n'
        f"{body}\n"
        f'exec {_compiler()} "$@"\n'
    )
    script.chmod(0o755)
    return str(script)


def _spawn(cc: str, cache: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache),
               CC=cc)
    return subprocess.Popen([sys.executable, "-W", "error", "-c", _RUN],
                            env=env, stderr=subprocess.PIPE, text=True)


def test_concurrent_builds_into_one_empty_cache(tmp_path):
    cc = _wrapper(tmp_path, "sleep 0.5")  # both builds overlap
    cache = tmp_path / "cache"
    procs = [_spawn(cc, cache) for _ in range(2)]
    for proc in procs:
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert len(list((cache / "kernels").glob("shared-*.so"))) == 1
    assert not list((cache / "kernels").glob("*.tmp"))


def test_a_build_killed_midway_leaves_nothing_loadable(tmp_path):
    # The first build writes a broken library to its temp file, then
    # SIGKILLs the python process that started it; the next build runs
    # the real compiler.
    marker = tmp_path / "kill-next-build"
    marker.touch()
    cc = _wrapper(
        tmp_path,
        f'if [ -e "{marker}" ]; then rm "{marker}"; '
        'echo "not a library" > "$out"; kill -9 $PPID; exit 1; fi',
    )
    cache = tmp_path / "cache"
    killed = _spawn(cc, cache)
    killed.communicate(timeout=120)
    assert killed.returncode == -9
    assert not list((cache / "kernels").glob("*.so"))
    later = _spawn(cc, cache)
    _out, err = later.communicate(timeout=120)
    assert later.returncode == 0, err
    assert len(list((cache / "kernels").glob("*.so"))) == 1
