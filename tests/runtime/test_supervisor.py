"""Supervised pool execution and the resumable journal."""

import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runtime import pool
from repro.runtime.supervisor import (
    JournalMismatch,
    SweepError,
    supervised_map,
)
from repro.store import DurableLog


# Pool work functions must be module-level (picklable).  Transient faults
# are keyed off the attempt number, mirroring chaos injection.


def _square(item, attempt):
    return item * item


def _flaky_odd(item, attempt):
    if attempt == 0 and item % 2:
        raise ValueError(f"flaky {item}")
    return item


def _always_fails(item, attempt):
    raise ValueError("permanent")


def _hard_crash_two(item, attempt):
    if attempt == 0 and item == 2:
        os._exit(66)
    return item


def _hang_one(item, attempt):
    if attempt == 0 and item == 1:
        time.sleep(60)
    return item


def _raise_then_hard_crash(item, attempt):
    if attempt == 0:
        raise ValueError("distinctive-original-error")
    os._exit(66)


def _raise_distinctive(item, attempt):
    raise ValueError("distinctive-original-error")


class _DiesBeforeSecondSubmit(ProcessPoolExecutor):
    """The first pool built reports itself broken on its second submit,
    as a pool does when a worker dies between two jobs."""

    built = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).built += 1
        self._doomed = type(self).built == 1
        self._submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self._submits += 1
        if self._doomed and self._submits == 2:
            raise BrokenProcessPool("a worker died between jobs")
        return super().submit(fn, *args, **kwargs)


class TestSupervisedMap:
    def test_pool_broken_at_submit_is_rebuilt_without_charging(
        self, monkeypatch
    ):
        monkeypatch.setattr(_DiesBeforeSecondSubmit, "built", 0)
        monkeypatch.setattr(
            pool, "ProcessPoolExecutor", _DiesBeforeSecondSubmit
        )
        attempts = {}
        results, failures = supervised_map(
            _square,
            range(4),
            on_result=lambda item, value, attempt: attempts.update(
                {item: attempt}
            ),
        )
        assert results == {i: i * i for i in range(4)}
        assert failures == []
        assert attempts == {i: 0 for i in range(4)}
        assert _DiesBeforeSecondSubmit.built == 2

    def test_plain_map_in_input_order(self):
        results, failures = supervised_map(_square, [3, 1, 2], max_workers=2)
        assert list(results.items()) == [(3, 9), (1, 1), (2, 4)]
        assert failures == []

    def test_retry_fixes_transient_failures(self):
        results, failures = supervised_map(
            _flaky_odd, [0, 1, 2, 3], max_workers=2, retries=1, backoff_s=0.0
        )
        assert results == {0: 0, 1: 1, 2: 2, 3: 3}
        assert failures == []

    def test_exhausted_retries_raise_sweep_error(self):
        with pytest.raises(SweepError) as exc_info:
            supervised_map(
                _always_fails, [0], max_workers=1, retries=1, backoff_s=0.0
            )
        (failure,) = exc_info.value.failures
        assert failure.item == 0
        assert failure.attempts == 2
        assert "ValueError" in failure.error

    def test_on_failure_record_finishes_the_sweep(self):
        results, failures = supervised_map(
            _flaky_odd, [0, 1, 2], max_workers=1, retries=0,
            on_failure="record",
        )
        assert results == {0: 0, 2: 2}
        assert [f.item for f in failures] == [1]

    def test_on_failure_validation(self):
        with pytest.raises(ValueError):
            supervised_map(_square, [1], on_failure="ignore")

    def test_on_result_fires_per_completion(self):
        seen = []
        supervised_map(
            _square, [1, 2], max_workers=1,
            on_result=lambda item, value, attempt: seen.append((item, value)),
        )
        assert sorted(seen) == [(1, 1), (2, 4)]

    def test_broken_pool_is_rebuilt_and_item_retried(self):
        results, failures = supervised_map(
            _hard_crash_two, [1, 2, 3], max_workers=2, retries=1,
            backoff_s=0.0,
        )
        assert results == {1: 1, 2: 2, 3: 3}
        assert failures == []

    def test_worker_crash_without_retries_fails_that_item(self):
        results, failures = supervised_map(
            _hard_crash_two, [1, 2, 3], max_workers=1, retries=0,
            on_failure="record",
        )
        assert 2 not in results
        assert {f.item for f in failures} >= {2}
        assert results.get(1) == 1  # completed before the pool broke

    def test_timeout_kills_and_retries(self):
        t0 = time.monotonic()
        results, failures = supervised_map(
            _hang_one, [0, 1], max_workers=2, timeout_s=1.0, retries=1,
            backoff_s=0.0,
        )
        assert results == {0: 0, 1: 1}
        assert failures == []
        assert time.monotonic() - t0 < 30  # did not wait out the hang

    def test_pool_break_does_not_clobber_original_traceback(self):
        """Regression: an item whose *last real* failure was a worker
        exception, followed by a pool-breaking crash on the retry, must
        still surface the original error (with ``timeout_s=None``), not
        just the anonymous "worker process died" from the rebuild path."""
        results, failures = supervised_map(
            _raise_then_hard_crash, [7], max_workers=1, retries=1,
            backoff_s=0.0, timeout_s=None, on_failure="record",
        )
        assert results == {}
        (failure,) = failures
        assert failure.attempts == 2
        assert "worker process died" in failure.error
        assert "distinctive-original-error" in failure.error

    def test_failure_error_carries_remote_traceback(self):
        """Worker exceptions keep their remote traceback text, so the
        recorded ReplicaFailure is diagnosable without re-running."""
        results, failures = supervised_map(
            _raise_distinctive, [0], max_workers=1, retries=0,
            on_failure="record",
        )
        (failure,) = failures
        assert "distinctive-original-error" in failure.error
        assert "Traceback" in failure.error  # the remote traceback string

    def test_jitter_validation_and_accepts_jittered_backoff(self):
        with pytest.raises(ValueError):
            supervised_map(_square, [1], jitter=1.5)
        results, failures = supervised_map(
            _flaky_odd, [0, 1], max_workers=1, retries=1,
            backoff_s=0.01, jitter=0.5,
        )
        assert results == {0: 0, 1: 1}
        assert failures == []

    def test_timeout_without_retries_fails_the_item(self):
        results, failures = supervised_map(
            _hang_one, [0, 1], max_workers=2, timeout_s=1.0, retries=0,
            on_failure="record",
        )
        assert results == {0: 0}
        assert [f.item for f in failures] == [1]
        assert "timed out" in failures[0].error


class TestJournal:
    def test_record_and_resume(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with DurableLog(path, "fp") as journal:
            journal.record(3, {"faults": 7})
            journal.record(4, {"faults": 9})
        resumed = DurableLog(path, "fp")
        assert resumed.completed == {3: {"faults": 7}, 4: {"faults": 9}}
        resumed.record(5, {"faults": 1})
        resumed.close()
        assert DurableLog(path, "fp").completed[5] == {"faults": 1}

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        DurableLog(path, "fp-a").close()
        with pytest.raises(JournalMismatch):
            DurableLog(path, "fp-b")

    def test_truncated_tail_line_is_dropped(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with DurableLog(path, "fp") as journal:
            journal.record(1, {"faults": 2})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": 2, "val')  # crash arrived mid-write
        with pytest.warns(RuntimeWarning, match="partially-written"):
            resumed = DurableLog(path, "fp")
        assert resumed.completed == {1: {"faults": 2}}

    def test_truncated_tail_is_repaired_on_disk(self, tmp_path):
        """The partial tail is physically truncated away, so the journal
        is valid JSONL again and a *second* reload is warning-free."""
        path = tmp_path / "sweep.jsonl"
        with DurableLog(path, "fp") as journal:
            journal.record(1, {"faults": 2})
            journal.record(2, {"faults": 5})
        clean_size = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": 3, "va')  # SIGKILL mid-record()
        with pytest.warns(RuntimeWarning):
            repaired = DurableLog(path, "fp")
        repaired.record(3, {"faults": 9})
        repaired.close()
        assert path.stat().st_size > clean_size
        # No warning this time: the file was repaired, not just tolerated.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = DurableLog(path, "fp")
        assert resumed.completed == {
            1: {"faults": 2}, 2: {"faults": 5}, 3: {"faults": 9}
        }
        resumed.close()

    def test_interior_corruption_refuses_resume(self, tmp_path):
        """A corrupt line *followed by* valid lines is damage, not a
        crash artefact: refuse to resume rather than silently drop it."""
        path = tmp_path / "sweep.jsonl"
        with DurableLog(path, "fp") as journal:
            journal.record(1, {"faults": 2})
            journal.record(2, {"faults": 5})
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # damage a middle line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalMismatch):
            DurableLog(path, "fp")

    def test_close_is_fsynced(self, tmp_path, monkeypatch):
        """DurableLog.close() must fsync before closing the handle."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        path = tmp_path / "sweep.jsonl"
        with DurableLog(path, "fp") as journal:
            journal.record(1, {"faults": 2})
        assert synced  # fsync happened during __exit__ -> close()

    def test_tuple_keys_survive_json_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with DurableLog(path, "fp") as journal:
            journal.record((1, 2), {"x": 0})
        assert DurableLog(path, "fp").completed == {(1, 2): {"x": 0}}

    def test_empty_or_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("")
        with pytest.raises(JournalMismatch):
            DurableLog(path, "fp")
        path.write_text("not json\n")
        with pytest.raises(JournalMismatch):
            DurableLog(path, "fp")

    def test_header_line_format(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        DurableLog(path, "fp").close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"journal": 1, "fingerprint": "fp"}
