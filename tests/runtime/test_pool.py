"""Warm worker pool: process reuse, recycling, and crash recovery."""

import os
import time

import pytest

from repro.runtime.pool import WarmWorkerPool, WorkerJobFailed


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


def _hang_first(item, attempt):
    if attempt == 0:
        time.sleep(60)
    return item


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

    def test_timeout_kills_and_retries(self):
        with WarmWorkerPool() as pool:
            value, attempts = pool.run_one(
                _hang_first, 4, timeout_s=0.5, retries=1, backoff_s=0.0
            )
            assert value == 4
            assert attempts == 2

    def test_exhausted_retries_raise_with_the_real_error(self):
        with WarmWorkerPool() as pool:
            with pytest.raises(WorkerJobFailed) as exc_info:
                pool.run_one(_always_raises, 1, retries=1, backoff_s=0.0)
            assert exc_info.value.attempts == 2
            assert "distinctive-original-error" in str(exc_info.value)
            # Still usable afterwards.
            assert pool.run_one(_square, 3)[0] == 9

    def test_crash_then_success_pool_still_counts(self):
        with WarmWorkerPool() as pool:
            with pytest.raises(WorkerJobFailed):
                pool.run_one(_hard_crash_first, 0, retries=0)
            value, _ = pool.run_one(_square, 6)
            assert value == 36
            assert pool.stats()["crashes"] == 1


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
