"""Warm worker pool: process reuse, recycling, and crash recovery."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.chaos_campaign import (
    _ServeProc,
    alive,
    child_env,
    outliving,
    proc_stat,
)
from repro.runtime.pool import SweepError, WarmWorkerPool, WorkerJobFailed
from repro.service.client import ServiceClient


# Pool work functions must be module-level (picklable).  Transient faults
# are keyed off the attempt number, mirroring chaos injection.


def _pid(item, attempt):
    return os.getpid()


def _square(item, attempt):
    return item * item


def _flaky_first(item, attempt):
    if attempt == 0:
        raise ValueError("transient")
    return item


def _always_raises(item, attempt):
    raise ValueError("distinctive-original-error")


def _hard_crash_first(item, attempt):
    if attempt == 0:
        os._exit(66)
    return item


def _hang_first(pid_path, attempt):
    """Hangs on the first attempt, after writing its pid to ``pid_path``."""
    if attempt == 0:
        with open(pid_path, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
        time.sleep(60)
    return pid_path


def _raise_once_peer_hangs(item, attempt):
    """``("hang", path)`` writes its pid to ``path`` and hangs;
    ``("raise", path)`` raises once that peer is running."""
    kind, path = item
    if kind == "hang":
        with open(f"{path}.tmp", "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
        os.replace(f"{path}.tmp", path)
        time.sleep(60)
    deadline = time.monotonic() + 30
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    raise ValueError("stop the map")


def _signal_actions(item, attempt):
    return (
        str(signal.getsignal(signal.SIGTERM)),
        str(signal.getsignal(signal.SIGINT)),
    )


_INITIALIZED_WITH = None


def _remember(value):
    global _INITIALIZED_WITH
    _INITIALIZED_WITH = value


def _initialized_with(item, attempt):
    return _INITIALIZED_WITH


class TestWarmReuse:
    def test_jobs_share_one_warm_process(self):
        with WarmWorkerPool() as pool:
            pids = {pool.run_one(_pid, i)[0] for i in range(5)}
            assert len(pids) == 1
            stats = pool.stats()
            assert stats["jobs_done"] == 5
            assert stats["generation"] == 1
            assert stats["recycles"] == 0

    def test_returns_value_and_attempts(self):
        with WarmWorkerPool() as pool:
            value, attempts = pool.run_one(_square, 7)
            assert value == 49
            assert attempts == 1


class TestRecycling:
    def test_recycles_after_n_jobs(self):
        with WarmWorkerPool(recycle_after=3) as pool:
            first = pool.run_one(_pid, 0)[0]
            assert pool.run_one(_pid, 1)[0] == first
            assert pool.run_one(_pid, 2)[0] == first  # triggers recycle
            fresh = pool.run_one(_pid, 3)[0]
            assert fresh != first
            stats = pool.stats()
            assert stats["recycles"] == 1
            assert stats["generation"] >= 2

    def test_due_recycle_waits_until_the_result_is_returned(self):
        with WarmWorkerPool(recycle_after=2) as pool:
            first = pool.run_one(_pid, 0)[0]
            # The job that makes the recycle due still gets its value
            # from the old process, before any recycle has run.
            assert pool.run_one(_pid, 1)[0] == first
            assert pool.stats()["recycles"] == 0
            assert pool.recycle_if_due()
            assert pool.stats()["recycles"] == 1
            assert not pool.recycle_if_due()
            assert pool.run_one(_pid, 2)[0] != first

    def test_due_recycle_never_runs_between_two_items_of_one_map(self):
        """A recycle kills in-flight bystanders, so one that falls due
        mid-call waits for the next call."""
        with WarmWorkerPool(recycle_after=2) as pool:
            results, _ = pool.map(_pid, range(5))
            assert len(set(results.values())) == 1
            assert pool.stats()["recycles"] == 0
            assert pool.run_one(_pid, 5)[0] not in results.values()
            assert pool.stats()["recycles"] == 1

    def test_manual_recycle(self):
        with WarmWorkerPool() as pool:
            first = pool.run_one(_pid, 0)[0]
            pool.recycle()
            assert pool.run_one(_pid, 1)[0] != first


class TestFailureModes:
    def test_worker_exception_keeps_the_pool_warm(self):
        with WarmWorkerPool() as pool:
            first = pool.run_one(_pid, 0)[0]
            with pytest.raises(WorkerJobFailed) as exc_info:
                pool.run_one(_always_raises, 1)
            assert "distinctive-original-error" in str(exc_info.value)
            assert exc_info.value.attempts == 1
            # The process survived the exception: same pid, no crash.
            assert pool.run_one(_pid, 2)[0] == first
            assert pool.stats()["crashes"] == 0

    def test_retry_fixes_transient_failures(self):
        with WarmWorkerPool() as pool:
            value, attempts = pool.run_one(
                _flaky_first, 5, retries=1, backoff_s=0.0
            )
            assert value == 5
            assert attempts == 2

    def test_crash_rebuilds_and_retries(self):
        with WarmWorkerPool() as pool:
            value, attempts = pool.run_one(
                _hard_crash_first, 9, retries=1, backoff_s=0.0
            )
            assert value == 9
            assert attempts == 2
            assert pool.stats()["crashes"] == 1

    def test_timeout_kills_and_retries(self, tmp_path):
        pid_path = str(tmp_path / "hung.pid")
        with WarmWorkerPool() as pool:
            value, attempts = pool.run_one(
                _hang_first, pid_path, timeout_s=0.5, retries=1, backoff_s=0.0
            )
            assert value == pid_path
            assert attempts == 2
            # The hung attempt's worker is terminated and reaped, not
            # left sleeping beside its replacement.
            with open(pid_path, encoding="utf-8") as fh:
                hung_pid = int(fh.read())
            assert outliving([hung_pid], time.monotonic() + 2.0) == []

    def test_exhausted_retries_raise_with_the_real_error(self):
        with WarmWorkerPool() as pool:
            with pytest.raises(WorkerJobFailed) as exc_info:
                pool.run_one(_always_raises, 1, retries=1, backoff_s=0.0)
            assert exc_info.value.attempts == 2
            assert "distinctive-original-error" in str(exc_info.value)
            # Still usable afterwards.
            assert pool.run_one(_square, 3)[0] == 9

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_idle_worker_death_costs_the_next_job_no_attempt(self):
        """A worker that dies between jobs breaks the pool at the next
        submit; that job never ran, so the rebuild charges it nothing."""
        with WarmWorkerPool() as pool:
            worker = pool.run_one(_pid, 0)[0]
            os.kill(worker, signal.SIGKILL)
            # The executor marks itself broken before it reaps the dead
            # worker, so once the pid is gone the next submit sees it.
            deadline = time.monotonic() + 10
            while proc_stat(worker) is not None:
                assert time.monotonic() < deadline, "worker never reaped"
                time.sleep(0.01)
            assert pool.run_one(_square, 4, retries=0) == (16, 1)

    def test_map_that_stops_early_kills_its_in_flight_attempts(
        self, tmp_path
    ):
        path = str(tmp_path / "hung.pid")
        with WarmWorkerPool(max_workers=2) as pool:
            with pytest.raises(SweepError, match="stop the map"):
                pool.map(
                    _raise_once_peer_hangs, [("raise", path), ("hang", path)]
                )
            with open(path, encoding="utf-8") as fh:
                hung_pid = int(fh.read())
            assert outliving([hung_pid], time.monotonic() + 2.0) == []
            assert pool.stats()["warm"] is False
            assert pool.run_one(_square, 3)[0] == 9

    def test_crash_then_success_pool_still_counts(self):
        with WarmWorkerPool() as pool:
            with pytest.raises(WorkerJobFailed):
                pool.run_one(_hard_crash_first, 0, retries=0)
            value, _ = pool.run_one(_square, 6)
            assert value == 36
            assert pool.stats()["crashes"] == 1


class TestWorkerSignals:
    def test_workers_take_sigterm_and_leave_sigint_to_the_owner(self):
        """A worker forked while the owner's SIGTERM handler is installed
        (a serving loop's drain latch) still dies on SIGTERM, and ignores
        the Ctrl-C a terminal sends to the whole process group."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with WarmWorkerPool() as pool:
                actions, _ = pool.run_one(_signal_actions, 0)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert actions == (str(signal.SIG_DFL), str(signal.SIG_IGN))

    def test_callers_initializer_still_runs(self):
        with WarmWorkerPool(
            initializer=_remember, initargs=("configured",)
        ) as pool:
            assert pool.run_one(_initialized_with, 0)[0] == "configured"


class TestLifecycle:
    def test_close_is_idempotent_and_run_after_close_fails(self):
        pool = WarmWorkerPool()
        assert pool.run_one(_square, 2)[0] == 4
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.run_one(_square, 2)

    def test_stats_before_first_job(self):
        pool = WarmWorkerPool()
        stats = pool.stats()
        assert stats["warm"] is False
        assert stats["jobs_done"] == 0
        pool.close()


#: Owns a warm pool under the start method named by its argument, prints
#: the pid of the worker that ran one job, then idles until killed.
_OWNER_SCRIPT = """
import multiprocessing, os, sys, time
from repro.runtime.pool import WarmWorkerPool

def worker_pid(item, attempt):
    return os.getpid()

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    # Bound to a name: a collected pool shuts its worker down itself.
    pool = WarmWorkerPool()
    pid, _ = pool.run_one(worker_pid, 0, timeout_s=60)
    print(pid, flush=True)
    time.sleep(120)
"""

#: Runs two items that print their worker's pid and hang, under a
#: ``supervised_map`` of width 2.  Each pid line is one write, so the two
#: workers' lines cannot interleave on the shared pipe.
_MAP_OWNER_SCRIPT = """
import os, time
from repro.runtime.supervisor import supervised_map

def report_and_hang(item, attempt):
    os.write(1, b"%d\\n" % os.getpid())
    time.sleep(120)

if __name__ == "__main__":
    supervised_map(report_and_hang, [0, 1], max_workers=2)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_workers_serve_and_die_with_their_owner_under_every_start_method(
    tmp_path, method
):
    """Whatever start method the owner sets, its pool runs a job and the
    worker exits once the owner is SIGKILLed.  (A ``forkserver`` worker
    is a child of the fork server, which outlives its owner; the pool
    forks its own workers on Linux.)"""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    script = tmp_path / "owner.py"
    script.write_text(_OWNER_SCRIPT)
    owner = subprocess.Popen(
        [sys.executable, str(script), method],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    worker = None
    try:
        line = owner.stdout.readline()
        assert line.strip().isdigit(), f"run_one never returned: {line!r}"
        worker = int(line)
        assert alive(worker)
        owner.kill()
        owner.wait(timeout=30)
        assert outliving([worker], time.monotonic() + 3.0) == []
    finally:
        if owner.poll() is None:
            owner.kill()
            owner.wait(timeout=30)
        owner.stdout.close()
        if worker is not None and alive(worker):
            os.kill(worker, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_sigkilled_supervised_map_owner_leaves_no_worker(tmp_path):
    """``supervised_map`` runs on the warm pool's workers, which exit
    once their owner is gone, even mid-item."""
    script = tmp_path / "map_owner.py"
    script.write_text(_MAP_OWNER_SCRIPT)
    owner = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    workers: list[int] = []
    try:
        for _ in range(2):
            line = owner.stdout.readline()
            assert line.strip().isdigit(), f"item never started: {line!r}"
            workers.append(int(line))
        assert all(alive(pid) for pid in workers)
        owner.kill()
        owner.wait(timeout=30)
        assert outliving(workers, time.monotonic() + 3.0) == []
    finally:
        if owner.poll() is None:
            owner.kill()
            owner.wait(timeout=30)
        owner.stdout.close()
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.service
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_sigkilled_server_leaves_no_pool_worker(tmp_path):
    """``repro serve`` runs one job on a warm-pool worker, then is
    SIGKILLed: the worker notices its parent is gone and exits."""
    server = _ServeProc(tmp_path / "serve.jsonl", "--workers", "3").start()
    workers: list[int] = []
    try:
        record = ServiceClient(server.url).submit_and_wait(
            "replica",
            {"workload": "zipf", "cores": 2, "length": 30,
             "cache_size": 6, "strategy": "S_LRU", "seed": 1},
        )
        assert record["state"] == "DONE"
        workers = server.children()
        assert workers
        server.kill()
        assert outliving(workers, time.monotonic() + 3.0) == []
    finally:
        server.stop()
        for pid in workers:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
