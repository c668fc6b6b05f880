"""Job-store journal compaction: bounded replay, intact job table."""

import json

import pytest

from repro.service.jobs import JobRecord, JobSpec
from repro.service.jobstore import JobStore

pytestmark = pytest.mark.service

JOBS = 200
EVERY = 40  # events, i.e. ~13 jobs per snapshot


def run_jobs(path, n=JOBS, *, every=EVERY):
    with JobStore(path, snapshot_every=every) as store:
        for i in range(n):
            job_id = f"j-{i:012d}"
            spec = JobSpec(kind="simulate", params={"i": i})
            store.submit(JobRecord(id=job_id, spec=spec, submitted_at=float(i)))
            store.transition(job_id, "RUNNING", t=float(i))
            store.transition(job_id, "DONE", result={"i": i}, t=float(i))
    return path


def test_replay_is_bounded_and_table_intact(tmp_path):
    path = run_jobs(tmp_path / "jobs.jsonl")
    with JobStore(path, snapshot_every=EVERY) as store:
        stats = store.recovery_stats()
        assert stats["from_snapshot"]
        assert stats["replayed"] <= EVERY  # not the 600 journaled events
        assert stats["jobs"] == JOBS
        assert stats["seq"] == JOBS * 3  # high-water mark survives folding
        for i in (0, JOBS // 2, JOBS - 1):
            record = store.get(f"j-{i:012d}")
            assert record.state == "DONE"
            assert record.result == {"i": i}
            assert record.finished_at == float(i)
        assert not store.non_terminal()


def test_compaction_shrinks_history(tmp_path):
    path = run_jobs(tmp_path / "jobs.jsonl")
    # On-disk record count across the whole family is bounded by state
    # size (two retained snapshots of <= jobs+1 folded items) plus the
    # uncompacted tail — not by the 600 events ever journaled.
    lines = 0
    for member in path.parent.iterdir():
        if member.suffix != ".snap":
            lines += len(member.read_text().splitlines()) - 1  # header
        else:
            lines += len(json.loads(member.read_text())["items"])
    assert lines <= 2 * (JOBS + 1) + 2 * EVERY

    snaps = sorted(path.parent.glob("jobs.jsonl.*.snap"))
    assert len(snaps) == 2
    newest = json.loads(snaps[-1].read_text())
    kinds = {item[1]["type"] for item in newest["items"]}
    assert kinds == {"restore", "seq"}  # folded, not raw event history


def test_dedup_index_survives_compacted_restart(tmp_path):
    path = run_jobs(tmp_path / "jobs.jsonl", 60, every=20)
    with JobStore(path, snapshot_every=20) as store:
        fp = JobSpec(kind="simulate", params={"i": 7}).fingerprint
        hit = store.completed_result_for(fp)
        assert hit is not None and hit.result == {"i": 7}


def test_snapshots_off_keeps_legacy_single_file(tmp_path):
    path = run_jobs(tmp_path / "jobs.jsonl", 20, every=0)
    assert [p.name for p in path.parent.iterdir()] == ["jobs.jsonl"]
    with JobStore(path, snapshot_every=0) as store:
        assert store.recovery_stats()["replayed"] == 60
        assert not store.recovery_stats()["from_snapshot"]


def test_a_terminal_job_changed_after_a_snapshot_is_snapshotted_anew(tmp_path):
    # Terminal jobs are serialised once and reused by later snapshots;
    # an event logged on one afterwards must reach the next snapshot.
    path = run_jobs(tmp_path / "jobs.jsonl", n=30)

    def more_jobs(store, first):
        for i in range(first, first + 20):  # 60 events: one snapshot
            job_id = f"j-{i:012d}"
            spec = JobSpec(kind="simulate", params={"i": i})
            store.submit(
                JobRecord(id=job_id, spec=spec, submitted_at=float(i)))
            store.transition(job_id, "RUNNING", t=float(i))
            store.transition(job_id, "DONE", result={"i": i}, t=float(i))

    with JobStore(path, snapshot_every=EVERY) as store:
        more_jobs(store, 30)  # this snapshot serialises job 3 once
        store.log_event("j-000000000003", "audited", by="test")
        more_jobs(store, 50)
    snaps = sorted(path.parent.glob("jobs.jsonl.*.snap"))
    newest = json.loads(snaps[-1].read_text())
    restored = {
        item[1]["record"]["id"]: item[1]["record"]
        for item in newest["items"]
        if item[1]["type"] == "restore"
    }
    assert restored["j-000000000003"]["events"][-1]["event"] == "audited"
    with JobStore(path, snapshot_every=EVERY) as store:
        assert store.recovery_stats()["from_snapshot"]
        assert store.get("j-000000000003").events[-1]["event"] == "audited"
        assert len(store.jobs()) == 70
        assert not store.non_terminal()
