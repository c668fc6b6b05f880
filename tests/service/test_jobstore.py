"""The journaled job store: durability, replay, exactly-once, dedup,
and the terminal-state long-poll."""

import threading
import time

import pytest

from repro.service.jobs import JobRecord, JobSpec
from repro.service.jobstore import IllegalTransition, JobStore, UnknownJob


def make_record(kind="simulate", params=None, **kwargs):
    return JobRecord(
        id=kwargs.pop("id", None) or __import__("uuid").uuid4().hex[:8],
        spec=JobSpec(kind, params if params is not None else {}),
        **kwargs,
    )


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "jobs.jsonl"


class TestLifecycle:
    def test_submit_and_transition(self, store_path):
        with JobStore(store_path) as store:
            record = store.submit(make_record(id="j-1"))
            assert record.state == "QUEUED"
            store.transition("j-1", "RUNNING")
            store.transition("j-1", "DONE", result={"faults": 3})
            final = store.get("j-1")
            assert final.state == "DONE"
            assert final.result == {"faults": 3}
            assert final.finished_at is not None
            assert [e["event"] for e in final.events] == [
                "submitted", "running", "done",
            ]

    def test_second_terminal_transition_refused(self, store_path):
        """The exactly-once guard: a job can never complete twice."""
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1"))
            store.transition("j-1", "RUNNING")
            store.transition("j-1", "DONE", result={})
            with pytest.raises(IllegalTransition):
                store.transition("j-1", "DONE", result={})
            with pytest.raises(IllegalTransition):
                store.transition("j-1", "FAILED", error="nope")

    def test_duplicate_submit_refused(self, store_path):
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1"))
            with pytest.raises(IllegalTransition):
                store.submit(make_record(id="j-1"))

    def test_unknown_job(self, store_path):
        with JobStore(store_path) as store:
            with pytest.raises(UnknownJob):
                store.get("j-missing")
            with pytest.raises(UnknownJob):
                store.transition("j-missing", "RUNNING")


class TestWaitTerminal:
    """``wait_terminal`` backs ``GET /jobs/<id>?wait_s=S``."""

    def test_terminal_transition_wakes_the_waiter(self, store_path):
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1"))
            store.transition("j-1", "RUNNING")
            finisher = threading.Timer(
                0.2, store.transition, ("j-1", "DONE"), {"result": {}}
            )
            start = time.monotonic()
            finisher.start()
            record = store.wait_terminal("j-1", 30.0)
            finisher.join()
            assert record.state == "DONE"
            assert time.monotonic() - start < 10.0

    def test_non_terminal_transition_does_not_end_the_wait(self, store_path):
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1"))
            threading.Timer(0.05, store.transition, ("j-1", "RUNNING")).start()
            start = time.monotonic()
            record = store.wait_terminal("j-1", 0.5)
            assert record.state == "RUNNING"
            assert time.monotonic() - start >= 0.5

    def test_zero_timeout_and_unknown_id_answer_at_once(self, store_path):
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1"))
            assert store.wait_terminal("j-1", 0).state == "QUEUED"
            start = time.monotonic()
            with pytest.raises(UnknownJob):
                store.wait_terminal("j-missing", 30.0)
            assert time.monotonic() - start < 1.0

    def test_close_releases_waiters_with_the_current_record(self, store_path):
        store = JobStore(store_path)
        store.submit(make_record(id="j-1"))
        seen = []
        waiter = threading.Thread(
            target=lambda: seen.append(store.wait_terminal("j-1", 30.0))
        )
        start = time.monotonic()
        waiter.start()
        time.sleep(0.2)
        store.close()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert time.monotonic() - start < 10.0
        assert [r.state for r in seen] == ["QUEUED"]
        # A closed store answers at once.
        assert store.wait_terminal("j-1", 30.0).state == "QUEUED"


class TestReplay:
    def test_restart_rebuilds_the_exact_table(self, store_path):
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1", params={"length": 10}))
            store.transition("j-1", "RUNNING")
            store.transition("j-1", "DONE", result={"faults": 7})
            store.submit(make_record(id="j-2"))
            store.transition("j-2", "RUNNING")
            store.submit(make_record(id="j-3"))
            store.log_event("j-3", "custom_note", detail_field=42)

        with JobStore(store_path) as reborn:
            assert reborn.get("j-1").state == "DONE"
            assert reborn.get("j-1").result == {"faults": 7}
            assert reborn.get("j-2").state == "RUNNING"
            assert reborn.get("j-3").state == "QUEUED"
            assert {r.id for r in reborn.non_terminal()} == {"j-2", "j-3"}
            assert any(
                e.get("event") == "custom_note" and e.get("detail_field") == 42
                for e in reborn.get("j-3").events
            )
            assert reborn.counts() == {"DONE": 1, "RUNNING": 1, "QUEUED": 1}

    def test_replayed_store_still_enforces_exactly_once(self, store_path):
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1"))
            store.transition("j-1", "RUNNING")
            store.transition("j-1", "DEGRADED", result={"lower": 1, "upper": 5})
        with JobStore(store_path) as reborn:
            with pytest.raises(IllegalTransition):
                reborn.transition("j-1", "DONE", result={})

    def test_partial_tail_line_is_survivable(self, store_path):
        """A SIGKILL mid-append loses only the line in flight."""
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1"))
            store.transition("j-1", "RUNNING")
        with open(store_path, "a", encoding="utf-8") as fh:
            fh.write('{"key": [99, "state"], "val')  # crash mid-write
        with pytest.warns(RuntimeWarning, match="partially-written"):
            reborn = JobStore(store_path)
        assert reborn.get("j-1").state == "RUNNING"  # j-1 recovers intact
        # and the store keeps working after the repair
        reborn.transition("j-1", "DONE", result={})
        reborn.close()

    def test_sequence_numbers_continue_after_restart(self, store_path):
        with JobStore(store_path) as store:
            store.submit(make_record(id="j-1"))
        with JobStore(store_path) as reborn:
            reborn.submit(make_record(id="j-2"))
        # a third incarnation must see both submissions (no key collisions)
        with JobStore(store_path) as third:
            assert {r.id for r in third.jobs()} == {"j-1", "j-2"}


class TestDedup:
    def test_completed_result_for_matches_fingerprint(self, store_path):
        with JobStore(store_path) as store:
            a = make_record(id="j-1", params={"length": 10})
            store.submit(a)
            store.transition("j-1", "RUNNING")
            store.transition("j-1", "DONE", result={"faults": 4})
            hit = store.completed_result_for(a.spec.fingerprint)
            assert hit is not None and hit.id == "j-1"
            miss = store.completed_result_for("0" * 64)
            assert miss is None

    def test_failed_jobs_do_not_dedupe(self, store_path):
        """FAILED is not a result: identical re-submissions must rerun."""
        with JobStore(store_path) as store:
            a = make_record(id="j-1", params={"length": 10})
            store.submit(a)
            store.transition("j-1", "RUNNING")
            store.transition("j-1", "FAILED", error="worker died")
            assert store.completed_result_for(a.spec.fingerprint) is None

    def test_dedup_index_survives_restart(self, store_path):
        with JobStore(store_path) as store:
            a = make_record(id="j-1", params={"length": 10})
            store.submit(a)
            store.transition("j-1", "RUNNING")
            store.transition("j-1", "DEGRADED", result={"lower": 0, "upper": 9})
        with JobStore(store_path) as reborn:
            hit = reborn.completed_result_for(a.spec.fingerprint)
            assert hit is not None
            assert hit.result == {"lower": 0, "upper": 9}
