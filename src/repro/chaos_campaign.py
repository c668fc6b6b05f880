"""Scripted crash-recovery and server campaigns (``repro chaos``).

Each **campaign** is a declarative fault schedule executed against real
subprocesses.  The store campaigns kill a child doing real store work
under a ``REPRO_CHAOS`` schedule at a precise point (the Nth journal
append, a torn byte inside a record, a phase of the snapshot/compaction
state machine), observe the genuine death (exit status 66 —
:data:`repro.runtime.chaos.CRASH_EXIT_STATUS`), and then let a *clean*
child recover the store and report what it found.  The server campaigns
boot real ``repro serve`` and ``repro run`` processes and drive them
through SIGTERM, SIGKILL, overload, wire faults and restarts.  Every
campaign asserts the invariants the durable layer and the service
promise (docs/ROBUSTNESS.md):

* **consistent prefix** — the recovered log holds records ``0..count-1``
  contiguously, with the exact values written: nothing lost before the
  crash point, nothing duplicated, nothing imagined;
* **exactly-once terminal transitions** — no job in a recovered
  :class:`~repro.service.jobstore.JobStore` carries two terminal events,
  and every replica of a disrupted fleet sweep lands exactly once;
* **byte-identical aggregates** — a fleet sweep killed mid-run and then
  resumed, or run across a fleet that loses an endpoint or a link,
  produces the same summary statistics as an undisturbed run;
* **bounded replay** — recovery after a snapshot replays at most one
  snapshot interval of records, however long the history;
* **fsck clean** — after recovery, ``repro fsck`` over every artefact
  the campaign touched exits 0.

Campaigns are deterministic: the chaos seed fixes torn-byte offsets and
workloads, and the Nth-event counters fix *which* operation dies, so a
failing campaign replays identically under the same ``--seed``.

The module doubles as the child-process driver: the parent re-invokes
``python -m repro.chaos_campaign --drive <step> ...`` for every step, so
the dying process is a real, separate interpreter — not a mocked fork.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

from repro.runtime.chaos import CHAOS_ENV, CRASH_EXIT_STATUS

__all__ = ["CAMPAIGNS", "CampaignFailure", "run_campaigns"]

#: Fingerprint for raw-log campaign journals.
LOG_FP = "repro-chaos-campaign-v1"

#: The ``src/`` directory this package was imported from.
_SRC_ROOT = str(Path(__file__).resolve().parents[1])


class CampaignFailure(AssertionError):
    """A recovery invariant did not hold after an injected fault."""


# ---------------------------------------------------------------------------
# subprocess plumbing
# ---------------------------------------------------------------------------


def child_env(chaos: str | None = None) -> dict:
    """The environment for a child interpreter: this one without any
    inherited ``REPRO_CHAOS`` (``chaos`` instead, when given), and with
    the ``src/`` this package came from first on ``PYTHONPATH``, so the
    child runs the same code whether or not the package is installed."""
    env = {k: v for k, v in os.environ.items() if k != CHAOS_ENV}
    if chaos is not None:
        env[CHAOS_ENV] = chaos
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC_ROOT, env.get("PYTHONPATH")])
    )
    return env


def _python(*argv, chaos: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python ARGV...`` in a fresh interpreter to completion."""
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(chaos),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _spawn(step: str, *argv, chaos: str | None = None, expect: int = 0):
    """Run one ``--drive`` step in a fresh interpreter.

    ``expect`` is the required exit status (0 for clean steps, 66 for a
    step scheduled to die).  Returns the parsed JSON the step printed as
    its final stdout line (``None`` when the child died as scheduled).
    """
    proc = _python(
        "-m", "repro.chaos_campaign", "--drive", step, *argv, chaos=chaos
    )
    if proc.returncode != expect:
        raise CampaignFailure(
            f"step {step!r} exited {proc.returncode}, expected {expect}\n"
            f"--- chaos: {chaos!r}\n--- stdout:\n{proc.stdout}\n"
            f"--- stderr:\n{proc.stderr}"
        )
    if expect != 0:
        return None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise CampaignFailure(f"step {step!r} printed no result")
    return json.loads(lines[-1])


def _require(condition: bool, what: str, **context) -> None:
    if not condition:
        detail = ", ".join(f"{k}={v!r}" for k, v in context.items())
        raise CampaignFailure(f"invariant violated: {what} ({detail})")


def _fsck_clean(*journals) -> None:
    """Recovered artefacts must pass fsck with zero issues."""
    from repro.store import fsck_paths

    # Explicit families only: the campaign scratch dir has no cache/runs.
    report = fsck_paths(
        cache_dir=Path(journals[0]).parent / "no-cache",
        runs_dir=Path(journals[0]).parent / "no-runs",
        journals=journals,
    )
    _require(report.ok, "repro fsck found corruption after recovery",
             issues=[i.describe() for i in report.issues])


def _flip_byte(path: Path) -> None:
    """Flip one bit in the middle of a file (simulated media corruption)."""
    raw = bytearray(path.read_bytes())
    mid = len(raw) // 2
    raw[mid] ^= 0x10
    path.write_bytes(bytes(raw))


def _comparable(summary: dict) -> str:
    """A sweep summary as sorted JSON, without the provenance keys that
    legitimately differ between two runs of one task."""
    volatile = ("resumed", "topology", "max_attempts", "hedged")
    return json.dumps(
        {k: v for k, v in summary.items() if k not in volatile},
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# repro serve children, and their processes in /proc
# ---------------------------------------------------------------------------

_URL_RE = re.compile(r"listening on (http://\S+)")


class _ServeProc:
    """One ``python -m repro serve`` child on an ephemeral port.

    ``flags`` are further ``repro serve`` flags and ``chaos`` the
    ``REPRO_CHAOS`` schedule the server runs under (none by default).
    ``lines`` keeps what the server printed up to its URL.
    """

    def __init__(self, journal, *flags: str, chaos: str | None = None):
        self.argv = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--journal", str(journal), *flags,
        ]
        self.chaos = chaos
        self.proc = None
        self.url = None
        self.lines: list[str] = []

    def start(self, timeout_s: float = 60.0) -> "_ServeProc":
        env = child_env(self.chaos)
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line.rstrip())
            match = _URL_RE.search(line)
            if match:
                self.url = match.group(1)
                # Keep draining stdout so the server never blocks on a
                # full pipe once we stop reading.
                threading.Thread(
                    target=self.proc.stdout.read, daemon=True
                ).start()
                return self
        self.kill()
        raise CampaignFailure(
            f"serve subprocess never announced its URL; output: {self.lines}"
        )

    def stop(self) -> int | None:
        """SIGTERM, then wait for the drain: the exit status, or ``None``
        when the server was still up 120 s later (it is SIGKILLed then).
        Safe to call again, and on a server that is gone."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                self.kill()
                return None
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL the server and reap it."""
        self.proc.kill()
        self.proc.wait(timeout=30)

    def children(self) -> list[int]:
        """The server's live child processes: its warm-pool workers."""
        return child_pids(self.proc.pid)


def proc_stat(pid: int) -> list[str] | None:
    """``[state, ppid, ...]`` from /proc/<pid>/stat, or None when gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def alive(pid: int) -> bool:
    """Running, and not a zombie awaiting its reaper."""
    fields = proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def child_pids(pid: int) -> list[int]:
    """Pids of ``pid``'s live child processes, from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and entry != str(pid):
            fields = proc_stat(int(entry))
            if fields and fields[1] == str(pid) and fields[0] != "Z":
                kids.append(int(entry))
    return kids


def outliving(pids, until: float) -> list[int]:
    """Those of ``pids`` still alive at monotonic time ``until``;
    returns early once none is."""
    while time.monotonic() < until and any(alive(pid) for pid in pids):
        time.sleep(0.05)
    return [pid for pid in pids if alive(pid)]


# ---------------------------------------------------------------------------
# store campaigns
# ---------------------------------------------------------------------------


def campaign_crash_at_record(workdir: Path, seed: int) -> dict:
    """SIGKILL-shaped death at the Kth journal append of a JobStore.

    40 jobs (120 events) are loaded with snapshots every 16 events; the
    50th append never happens.  Recovery must yield a job table that is
    a consistent prefix with exactly-once terminal transitions.
    """
    journal = workdir / "jobs.jsonl"
    _spawn(
        "jobs_load", str(journal), "40", "16",
        chaos=f"seed={seed},hard=1,kill=durable.append,kill_at=50",
        expect=CRASH_EXIT_STATUS,
    )
    out = _spawn("jobs_verify", str(journal))
    _require(out["terminal_once"], "a job has two terminal events", **out)
    # 49 events survived; every fully-journaled job must be DONE and the
    # job in flight must be recoverable as non-terminal, never dropped.
    _require(out["jobs"] >= 16, "jobs lost below the crash point", **out)
    _require(out["seq"] == 49, "event count is not the crash prefix", **out)
    _fsck_clean(journal)
    return out


def campaign_torn_final_write(workdir: Path, seed: int) -> dict:
    """Power-cut-shaped torn append: the 13th record is half-written.

    Recovery must truncate the torn tail (warn + repair on disk) and
    land on exactly the 12 durable records.
    """
    log = workdir / "torn.jsonl"
    _spawn(
        "log_append", str(log), "30", "8",
        chaos=f"seed={seed},hard=1,torn=13",
        expect=CRASH_EXIT_STATUS,
    )
    out = _spawn("log_verify", str(log), "8")
    _require(out["count"] == 12, "torn tail not truncated to prefix", **out)
    _require(out["contiguous"], "recovered records not contiguous", **out)
    _require(out["replayed"] <= 8, "replay not bounded by snapshot", **out)
    _fsck_clean(log)
    return out


def campaign_snapshot_bitflip(workdir: Path, seed: int) -> dict:
    """Media corruption inside the newest snapshot.

    A clean run leaves snapshots at records 8 and 16 plus live segments;
    one flipped bit in the newest snapshot must be detected (checksum),
    quarantined, and recovered *around* via the previous snapshot plus
    retained segments — with no data loss at all.
    """
    log = workdir / "bitflip.jsonl"
    _spawn("log_append", str(log), "20", "8")
    snaps = sorted(log.parent.glob(f"{log.name}.*.snap"))
    _require(len(snaps) == 2, "expected two retained snapshots",
             snaps=[s.name for s in snaps])
    _flip_byte(snaps[-1])
    out = _spawn("log_verify", str(log), "8")
    _require(out["count"] == 20, "records lost after snapshot bit-flip", **out)
    _require(out["contiguous"], "recovered records not contiguous", **out)
    _require(out["from_snapshot"], "fallback snapshot not used", **out)
    quarantined = list(log.parent.glob(f"{log.name}.*.snap.corrupt"))
    _require(bool(quarantined), "damaged snapshot not quarantined")
    _fsck_clean(log)
    return out


def campaign_enospc_append(workdir: Path, seed: int) -> dict:
    """Disk-full on the Nth append: the store must roll back the torn
    bytes, surface ``OSError``, and stay fully usable once space frees."""
    journal = workdir / "enospc.jsonl"
    out = _spawn(
        "jobs_enospc", str(journal), "10",
        chaos=f"seed={seed},enospc=12",
    )
    _require(out["enospc_seen"], "injected ENOSPC never surfaced", **out)
    _require(out["recovered_after"], "store unusable after ENOSPC", **out)
    check = _spawn("jobs_verify", str(journal))
    _require(check["terminal_once"], "duplicate terminal transition", **check)
    _require(check["jobs"] == 10, "jobs lost across ENOSPC", **check)
    _fsck_clean(journal)
    return {**out, **check}


def campaign_sigkill_mid_compaction(workdir: Path, seed: int) -> dict:
    """SIGKILL inside every phase of the snapshot/compaction machine.

    For each named kill-point (seal → snap-write → snap-rename → reopen
    → compact), a child dies there during the *second* snapshot of a 30-
    record append (snapshots every 8).  Whatever the on-disk state, a
    clean reopen must land on exactly the 16 records appended before the
    phase began, contiguous, with replay bounded by one snapshot span.
    """
    results = {}
    # The snapshot-lifecycle points fire once per snapshot, so kill_at=2
    # dies during the second snapshot (16 records durable).  The compact
    # point fires per *removal*: nothing is removable at snapshot 1, one
    # segment goes at snapshot 2, and the second removal (an expired
    # snapshot) happens at snapshot 3 — 24 records durable.
    expected = {"seal": 16, "snap-write": 16, "snap-rename": 16,
                "reopen": 16, "compact": 24}
    for phase, count in expected.items():
        log = workdir / f"kill-{phase}.jsonl"
        _spawn(
            "log_append", str(log), "30", "8",
            chaos=f"seed={seed},hard=1,kill=durable.{phase},kill_at=2",
            expect=CRASH_EXIT_STATUS,
        )
        out = _spawn("log_verify", str(log), "8")
        _require(out["count"] == count,
                 f"kill at {phase}: count is not the phase prefix", **out)
        _require(out["contiguous"],
                 f"kill at {phase}: records not contiguous", **out)
        _require(out["replayed"] <= 8,
                 f"kill at {phase}: replay not bounded", **out)
        _fsck_clean(log)
        results[phase] = out
    return results


def campaign_sweep_resume(workdir: Path, seed: int) -> dict:
    """Fleet sweep killed mid-run, resumed, and compared to a clean run.

    The resumed sweep's aggregate statistics must be byte-identical to
    an uninterrupted sweep of the same task (exactly-once replicas: the
    journal neither drops nor double-counts any completed seed).
    """
    journal = workdir / "sweep.jsonl"
    baseline = _spawn("sweep_run", str(workdir / "baseline.jsonl"), str(seed))
    _spawn(
        "sweep_run", str(journal), str(seed),
        chaos=f"seed={seed},hard=1,kill=durable.append,kill_at=4",
        expect=CRASH_EXIT_STATUS,
    )
    resumed = _spawn("sweep_run", str(journal), str(seed))
    _require(resumed["resumed"] >= 3, "no replicas resumed from journal",
             **resumed)
    _require(
        _comparable(baseline) == _comparable(resumed),
        "resumed sweep aggregates differ from a clean run",
        baseline=baseline,
        resumed=resumed,
    )
    _fsck_clean(journal)
    return resumed


def campaign_compaction_gate(workdir: Path, seed: int) -> dict:
    """10k jobs (30k journal records) through a JobStore, then a reopen.

    With snapshots every 250 events, the reopened store must seed itself
    from a snapshot, replay at most 1% of the records from segments,
    keep every job DONE with its result, leave at most four sealed
    segments behind, and pass ``repro fsck``.
    """
    from repro.service.jobstore import JobStore

    jobs, every = 10_000, 250
    records = 3 * jobs  # submit + RUNNING + DONE per job
    replay_budget = records // 100
    journal = workdir / "jobs.jsonl"
    with JobStore(journal, snapshot_every=every) as store:
        _jobs_fill(store, jobs)
    family = sorted(path.name for path in workdir.iterdir())
    _require(any(name.endswith(".snap") for name in family),
             "no snapshot was ever taken", family=family)
    segments = [name for name in family if name.endswith(".seg")]
    _require(len(segments) <= 4, "compaction left sealed segments behind",
             segments=segments)
    with JobStore(journal, snapshot_every=every) as store:
        stats = store.recovery_stats()
        _require(stats["from_snapshot"], "reopen did not seed from a snapshot",
                 **stats)
        _require(stats["replayed"] <= replay_budget,
                 "reopen replayed more than 1% of the records",
                 budget=replay_budget, **stats)
        _require(stats["jobs"] == jobs, "jobs lost across the reopen", **stats)
        spot = store.get(f"j-{jobs - 1:012d}")
        _require(spot.state == "DONE" and spot.result == {"faults": jobs - 1},
                 "spot-checked job came back wrong", job=spot.to_dict())
        bad = [record.id for record in store.jobs() if record.state != "DONE"]
        _require(not bad, "jobs lost their terminal state", jobs=bad[:5])
    _fsck_clean(journal)
    return stats


# ---------------------------------------------------------------------------
# server campaigns
# ---------------------------------------------------------------------------

#: Every job's first attempt sleeps 2 s in the worker: a deterministic
#: backlog without tuning job sizes to the machine's speed.
SERVICE_CHAOS = "seed=5,slow=1.0,slow_s=2.0"


def campaign_service_lifecycle(workdir: Path, seed: int) -> dict:
    """Boot, submit over HTTP, SIGTERM mid-backlog, restart, recover.

    A single-worker ``repro serve`` runs an experiment job to DONE, then
    takes a backlog of slowed simulate jobs and is SIGTERMed: the drain
    must finish the job in flight, checkpoint the queued ones and exit
    0.  A restart on the same journal must announce its recovery,
    re-enqueue and finish every backlog job, answer a resubmitted
    experiment from the journal (a ``deduplicated`` event, not a rerun),
    and drain to exit 0 again.
    """
    from repro.service.client import ServiceClient
    from repro.service.jobs import TERMINAL_STATES

    journal = workdir / "jobs.jsonl"
    sim = {"workload": "zipf", "cores": 2, "length": 50, "cache_size": 8}
    experiment = {"id": "E1", "scale": "small"}
    server = _ServeProc(journal, "--workers", "1", chaos=SERVICE_CHAOS)
    try:
        client = ServiceClient(server.start().url)
        health = client.health()
        _require(health.get("status") == "alive"
                 and bool(health.get("version")),
                 "bad /healthz payload", health=health)
        job = client.submit("experiment", experiment)
        record = client.wait(job["id"], timeout_s=300.0, poll_s=0.5)
        _require(record["state"] == "DONE", "experiment job did not end DONE",
                 state=record["state"], error=record.get("error"))
        backlog = [
            client.submit("simulate", dict(sim, seed=s))["id"]
            for s in range(4)
        ]
        time.sleep(0.5)  # let the worker pick up the first job
        status = server.stop()
        _require(status == 0, "server did not drain and exit 0 on SIGTERM",
                 status=status)
    finally:
        server.stop()

    probe = _ServeProc(journal, "--workers", "1", chaos=SERVICE_CHAOS)
    try:
        client = ServiceClient(probe.start().url)
        states = {job["id"]: job["state"] for job in client.jobs()}
        lost = [job_id for job_id in backlog if job_id not in states]
        _require(not lost, "backlog jobs lost across the restart", lost=lost)
        queued = [j for j in backlog if states[j] not in TERMINAL_STATES]
        _require(bool(queued),
                 "SIGTERM checkpointed no queued job", states=states)
        _require(any("recovered" in line for line in probe.lines),
                 "restarted server did not announce journal recovery",
                 lines=probe.lines)
        for job_id in backlog:
            final = client.wait(job_id, timeout_s=120.0, poll_s=0.5)
            _require(final["state"] == "DONE",
                     "recovered job did not end DONE",
                     job=job_id, state=final["state"])
        redo = client.status(client.submit("experiment", experiment)["id"])
        _require(redo["state"] == "DONE",
                 "resubmitted experiment not served from the journal",
                 record=redo)
        events = [e["event"] for e in redo.get("events", [])]
        _require("deduplicated" in events,
                 "resubmission has no deduplicated event", events=events)
        status = probe.stop()
        _require(status == 0,
                 "restarted server did not drain and exit 0 on SIGTERM",
                 status=status)
    finally:
        probe.stop()
    return {"recovered": len(queued), "backlog": len(backlog)}


def campaign_overload(workdir: Path, seed: int) -> dict:
    """A mixed-priority, multi-tenant flood through a chaosnet proxy.

    One single-worker ``repro serve`` (queue capacity 8, four jobs in
    flight per tenant, every job slowed to 0.4 s) sits behind a
    :class:`repro.chaosnet.ChaosProxy` adding mild seeded latency only,
    so every submission's fate is deterministic.  The overload contract
    of docs/SERVICE.md must hold:

    * **quotas** — a hog tenant bursting past its in-flight quota gets
      429s naming *that tenant*; a polite tenant is never rejected;
    * **no starvation** — on a queue full of ``bulk`` work, incoming
      ``interactive`` jobs are admitted by shedding the newest bulk job:
      no interactive job shed, at least one bulk job shed;
    * **deadline expiry** — jobs whose deadline lapsed while queued end
      ``DEGRADED`` (opt) / ``FAILED`` (others) with a
      ``deadline_expired_in_queue`` event, never dispatched to a worker
      and never lost;
    * **exactly-once** — every admitted job ends in exactly one terminal
      state with exactly one terminal event.
    """
    from repro.chaosnet import ChaosProxy, FaultSchedule
    from repro.service.client import Backpressure, ServiceClient
    from repro.service.jobs import TERMINAL_STATES

    server = _ServeProc(
        workdir / "jobs.jsonl",
        "--workers", "1",
        "--queue-capacity", "8",
        "--tenant-max-inflight", "4",
        # Every job sleeps 0.4 s in the worker, so the queue drains at a
        # machine-independent speed.
        chaos="seed=0,slow=1.0,slow_s=0.4",
    )
    proxy = None
    submitted = []  # (job_id, label)
    try:
        proxy = ChaosProxy(
            server.start().url,
            schedule=FaultSchedule(seed=11, latency_s=0.005, jitter_s=0.01),
        ).start()
        client = ServiceClient(proxy.url, timeout_s=30.0)

        def submit(label, params, *, tenant, priority, kind="simulate",
                   deadline_at=None):
            """The admitted record, or the Backpressure that refused it."""
            try:
                record = client.submit(
                    kind, params, tenant=tenant, priority=priority,
                    deadline_at=deadline_at,
                )
            except Backpressure as busy:
                return busy
            submitted.append((record["id"], label))
            return record

        def fill_queue(seeds) -> bool:
            """Submit bulk jobs until one is refused because the queue is
            full; a refusal for a tenant's quota does not count."""
            for n, job_seed in enumerate(seeds):
                answer = submit("bulk", {"length": 50, "seed": job_seed},
                                tenant=f"bulk-{n % 3}", priority="bulk")
                if (isinstance(answer, Backpressure)
                        and "tenant" not in str(answer)):
                    return True
            return False

        # Phase 1: per-tenant in-flight quota.
        answers = [
            submit("hog", {"length": 50, "seed": 100 + i},
                   tenant="hog", priority="bulk")
            for i in range(6)
        ]
        refused = [a for a in answers if isinstance(a, Backpressure)]
        _require(len(refused) == 2,
                 "hog tenant: not 2 quota rejections out of 6 bursts",
                 rejections=len(refused))
        for busy in refused:
            _require(busy.status == 429 and "'hog'" in str(busy),
                     "quota rejection does not name the hog tenant",
                     rejection=str(busy))
            _require(busy.retry_after_s > 0,
                     "quota rejection without a Retry-After",
                     rejection=str(busy))
        polite = submit("polite", {"length": 50, "seed": 200},
                        tenant="polite", priority="interactive")
        _require(not isinstance(polite, Backpressure),
                 "polite tenant rejected while under quota",
                 rejection=str(polite))

        # Phase 2: fill the queue with bulk work.
        _require(fill_queue(range(300, 330)),
                 "queue never filled: no queue-full 429 after 30 bulk bursts")

        # Phase 3: interactive admission sheds bulk.  The queue is topped
        # back up first, so each interactive submission races a full
        # queue.
        for i in range(3):
            fill_queue(range(400 + 10 * i, 410 + 10 * i))
            answer = submit("interactive", {"length": 50, "seed": 500 + i},
                            tenant=f"int-{i}", priority="interactive")
            _require(not isinstance(answer, Backpressure),
                     "interactive job rejected on a full queue instead of "
                     "shedding bulk", rejection=str(answer))

        # Phase 4: deadlines that lapse while queued.
        lapsed = time.time() - 5.0
        expired = {
            "DEGRADED": submit(
                "expired-opt", {"length": 12, "cores": 2, "cache_size": 4},
                kind="opt", tenant="late", priority="interactive",
                deadline_at=lapsed,
            ),
            "FAILED": submit(
                "expired-sim", {"length": 50, "seed": 600},
                tenant="late", priority="interactive", deadline_at=lapsed,
            ),
        }
        _require(not any(isinstance(answer, Backpressure)
                         for answer in expired.values()),
                 "a lapsed-deadline job was refused at submission",
                 answers=[str(a) for a in expired.values()])

        # Drain.
        drain_deadline = time.monotonic() + 120.0
        while True:
            states = {rec["id"]: rec["state"] for rec in client.jobs()}
            if all(states.get(job_id) in TERMINAL_STATES
                   for job_id, _ in submitted):
                break
            _require(time.monotonic() < drain_deadline,
                     "jobs still non-terminal after the 120 s drain")
            time.sleep(0.25)

        # Verdicts.
        records = {job_id: client.status(job_id) for job_id, _ in submitted}
        labels = dict(submitted)
        _require(len(records) == len(submitted), "jobs lost",
                 submitted=len(submitted), found=len(records))
        shed: dict[str, int] = {}
        for record in records.values():
            if (record.get("error") or "").startswith("shed:"):
                shed[record["priority"]] = shed.get(record["priority"], 0) + 1
        _require(shed.get("interactive", 0) == 0,
                 "interactive jobs were shed", shed=shed)
        _require(shed.get("bulk", 0) >= 1,
                 "no bulk job was ever shed under overload", shed=shed)
        for want_state, answer in expired.items():
            record = records[answer["id"]]
            label = labels[answer["id"]]
            _require(record["state"] == want_state,
                     f"{label}: lapsed job did not end {want_state}",
                     state=record["state"], error=record.get("error"))
            events = [e.get("event", "") for e in record.get("events", [])]
            _require("deadline_expired_in_queue" in events,
                     f"{label}: no deadline_expired_in_queue event",
                     events=events)
            _require(not any(e.upper() == "RUNNING" for e in events),
                     f"{label}: expired job was dispatched to a worker",
                     events=events)
        for job_id, record in records.items():
            _require(record["state"] in TERMINAL_STATES,
                     f"{labels[job_id]} job not terminal",
                     job=job_id, state=record["state"])
            terminal_events = [
                e for e in record.get("events", [])
                if e.get("event", "").upper() in TERMINAL_STATES
            ]
            _require(len(terminal_events) == 1,
                     f"{labels[job_id]} job has not exactly one terminal "
                     "event", job=job_id, terminal_events=len(terminal_events))
    finally:
        if proxy is not None:
            proxy.stop()
        server.stop()
    return {"jobs": len(records), "shed": shed}


#: The replica task of the disrupted fleet sweeps (their ``length`` varies).
_FLEET_TASK = {
    "workload": "zipf",
    "cores": 2,
    "alpha": 1.2,
    "cache_size": 8,
    "tau": 1,
    "strategy": "S_LRU",
}


def _disrupted_fleet_sweep(
    workdir: Path,
    seeds: list,
    *,
    length: int,
    workers: int,
    after: int,
    disrupt,
    schedule=None,
    **fleet_options,
):
    """Sweep ``seeds`` locally, then across two fresh ``repro serve``
    endpoints, disrupting the fleet mid-sweep.

    With a chaosnet ``schedule``, each endpoint sits behind a
    :class:`repro.chaosnet.ChaosProxy` applying it.  Once ``after``
    outcomes have landed, a side thread calls ``disrupt(servers,
    proxies)``.  Requires the disruption to have run, every seed to land
    exactly once and DONE, and the fleet's summary to be byte-identical
    to the undisturbed local one.  Both servers and any proxies are
    stopped before it returns or raises.  Returns ``(fleet sweep,
    servers, proxies)``.
    """
    from repro.chaosnet import ChaosProxy
    from repro.fleet import FleetExecutor, LocalThreadExecutor, run_sweep

    task = dict(_FLEET_TASK, length=length)
    local = LocalThreadExecutor(max_workers=4)
    try:
        baseline = run_sweep(task, seeds, executor=local)
    finally:
        local.close()
    _require(baseline.ok, "undisturbed baseline sweep failed",
             failed=baseline.failed_seeds)

    servers: list[_ServeProc] = []
    proxies: list = []
    delivered: list = []
    landed = threading.Event()
    disrupted = threading.Event()

    def on_outcome(outcome):
        delivered.append(outcome.key)
        if len(delivered) >= after:
            landed.set()

    def trigger():
        if landed.wait(timeout=120):
            disrupt(servers, proxies)
            disrupted.set()

    thread = threading.Thread(target=trigger, daemon=True)
    try:
        for name in ("a", "b"):
            servers.append(_ServeProc(
                workdir / f"{name}.jsonl", "--workers", str(workers)
            ))
            servers[-1].start()
        if schedule is not None:
            for server in servers:
                proxies.append(
                    ChaosProxy(server.url, schedule=schedule).start()
                )
        thread.start()
        executor = FleetExecutor(
            [endpoint.url for endpoint in proxies or servers],
            poll_s=0.05,
            probe_interval_s=0.3,
            breaker_reset_s=0.5,
            **fleet_options,
        )
        try:
            fleet = run_sweep(
                task, seeds, executor=executor, on_outcome=on_outcome
            )
        finally:
            executor.close()
    finally:
        for proxy in proxies:
            proxy.stop()
        for server in servers:
            server.stop()
    thread.join(timeout=5)

    _require(landed.is_set(), "no outcomes landed, so the disruption "
             "never fired", delivered=len(delivered))
    _require(disrupted.is_set(), "the mid-sweep disruption never completed")
    _require(sorted(delivered) == sorted(seeds),
             "replicas not delivered exactly once",
             delivered=sorted(delivered))
    stuck = [o for o in fleet.outcomes.values()
             if o.status not in ("DONE", "ERROR")]
    _require(not stuck, "non-terminal outcomes", outcomes=stuck)
    _require(fleet.ok, "sweep did not survive the disruption",
             failed={s: fleet.outcomes[s].error for s in fleet.failed_seeds})
    _require(_comparable(fleet.summary()) == _comparable(baseline.summary()),
             "fleet aggregates diverged from the local run",
             fleet=fleet.summary(), local=baseline.summary())
    return fleet, servers, proxies


#: How long a SIGKILLed endpoint's warm-pool workers may outlive it.
WORKER_EXIT_S = 3.0


def campaign_fleet_sigkill(workdir: Path, seed: int) -> dict:
    """A fleet sweep whose first endpoint is SIGKILLed mid-run.

    Two real ``repro serve`` endpoints share a 40-replica sweep; the
    moment five results have landed, the first is SIGKILLed.  The sweep
    must finish on the survivor with every replica exactly once and
    aggregates byte-identical to a local run — the fleet moves work
    around, it never changes the numbers — and the killed endpoint's
    warm-pool workers (recorded just before the kill) must all have
    exited within 3 s of it.
    """
    victim_workers: list[int] = []
    killed_at: list[float] = []

    def sigkill_first(servers, proxies):
        victim_workers.extend(servers[0].children())
        servers[0].kill()
        killed_at.append(time.monotonic())

    fleet, servers, _ = _disrupted_fleet_sweep(
        workdir,
        list(range(seed, seed + 40)),
        length=40,
        workers=3,
        after=5,
        disrupt=sigkill_first,
        retries=2,
        hedge_after_s=5.0,
        replica_deadline_s=120.0,
    )
    used = sorted({o.endpoint for o in fleet.outcomes.values()})
    _require(servers[1].url in used, "survivor endpoint served no replicas",
             used=used)
    _require(bool(victim_workers),
             "the killed endpoint had no warm-pool workers to check")
    leftover = outliving(victim_workers, killed_at[0] + WORKER_EXIT_S)
    for pid in leftover:
        os.kill(pid, signal.SIGKILL)
    _require(not leftover,
             f"warm-pool workers outlived their SIGKILLed server by "
             f"{WORKER_EXIT_S}s", workers=leftover)
    return {**fleet.summary(), "victim_workers": victim_workers}


def campaign_chaosnet_sweep(workdir: Path, seed: int) -> dict:
    """Fleet sweep through fault-injecting proxies, partitioned mid-run.

    Two real ``repro serve`` endpoints sit behind two
    :class:`repro.chaosnet.ChaosProxy` instances injecting seeded
    connection drops and latency; once results start landing, one proxy
    is partitioned in both directions, then healed.  Every replica must
    still complete exactly once, and the aggregates must be
    byte-identical to an undisturbed local threads run — wire chaos may
    slow the fleet down, it may never change the numbers.
    """
    from repro.chaosnet import FaultSchedule

    def partition_first(servers, proxies):
        proxies[0].set_partition("both")
        time.sleep(1.5)
        proxies[0].set_partition(None)

    fleet, _, proxies = _disrupted_fleet_sweep(
        workdir,
        list(range(seed, seed + 12)),
        length=80,
        workers=2,
        after=3,
        disrupt=partition_first,
        schedule=FaultSchedule(
            seed=seed, drop_rate=0.15, latency_s=0.01, jitter_s=0.02
        ),
        retries=3,
        hedge_after_s=8.0,
        replica_deadline_s=180.0,
    )
    _fsck_clean(workdir / "a.jsonl", workdir / "b.jsonl")
    faults_seen = {
        k: v
        for k, v in proxies[0].stats().items()
        if k in ("dropped", "partitioned") and v
    }
    return {**fleet.summary(), "wire_faults": faults_seen}


_RUN_ID_RE = re.compile(r"^run ([0-9a-f]{16}): (\w+)", re.MULTILINE)


def campaign_platform_lifecycle(workdir: Path, seed: int) -> dict:
    """``repro run`` / ``repro compare`` through the registry's promises.

    A tiny two-experiment spec runs fresh (exit 0, status ``ran``), then
    again (same run ID, status ``cached``), then into a second registry
    (same run ID, byte-identical metric tables).  Comparing the run with
    itself is empty (exit 0); one ``--set`` parameter change gives a new
    run ID, and comparing against it trips the gate (exit 1) with a
    non-empty diff report (docs/PLATFORM.md).
    """
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({
        "name": "platform-lifecycle",
        "experiments": ["E2", "E7"],
        "scale": "small",
    }))
    runs, runs_b = workdir / "runs", workdir / "runs-b"

    def run(runs_dir: Path, *extra):
        proc = _python("-m", "repro", "run", str(spec),
                       "--runs-dir", str(runs_dir), "--quiet", *extra)
        match = _RUN_ID_RE.search(proc.stdout)
        _require(match is not None, "no run ID in `repro run` output",
                 stdout=proc.stdout, stderr=proc.stderr)
        return proc.returncode, match.group(1), match.group(2)

    def compare(a: str, b: str):
        return _python("-m", "repro", "compare", a, b, "--runs-dir", str(runs))

    code, base_id, status = run(runs)
    _require(code == 0, "fresh run did not exit 0", status=code)
    _require(status == "ran", "fresh run did not report 'ran'",
             reported=status)
    code, again_id, status = run(runs)
    _require(code == 0 and again_id == base_id,
             "rerun changed the run ID or failed",
             status=code, run_id=again_id, want=base_id)
    _require(status == "cached", "rerun did not report 'cached'",
             reported=status)
    code, b_id, _ = run(runs_b)
    _require(code == 0 and b_id == base_id,
             "independent registry produced a different run ID",
             status=code, run_id=b_id, want=base_id)
    metrics_a = runs / base_id / "metrics"
    metrics_b = runs_b / base_id / "metrics"
    names = sorted(os.listdir(metrics_a))
    _require(names == sorted(os.listdir(metrics_b)),
             "metric file sets differ between registries", names=names)
    _, diff, funny = filecmp.cmpfiles(metrics_a, metrics_b, names,
                                      shallow=False)
    _require(not diff and not funny, "metric tables not byte-identical",
             differ=diff + funny)

    same = compare(base_id, base_id)
    _require(same.returncode == 0 and "identical" in same.stdout,
             "self-compare not empty with exit 0",
             status=same.returncode, stdout=same.stdout)
    _, mutated_id, _ = run(runs, "--set", "workload.n=500")
    _require(mutated_id != base_id,
             "--set workload.n=500 did not change the run ID",
             run_id=mutated_id)
    gate = compare(base_id, mutated_id)
    _require(gate.returncode == 1, "regression gate did not exit 1",
             status=gate.returncode, stdout=gate.stdout, stderr=gate.stderr)
    _require("difference(s)" in gate.stdout,
             "gate tripped but the diff report is empty", stdout=gate.stdout)
    return {"run_id": base_id, "mutated_id": mutated_id, "metrics": names}


CAMPAIGNS = {
    "crash_at_record": campaign_crash_at_record,
    "torn_final_write": campaign_torn_final_write,
    "snapshot_bitflip": campaign_snapshot_bitflip,
    "enospc_append": campaign_enospc_append,
    "sigkill_mid_compaction": campaign_sigkill_mid_compaction,
    "sweep_resume": campaign_sweep_resume,
    "compaction_gate": campaign_compaction_gate,
    "service_lifecycle": campaign_service_lifecycle,
    "overload": campaign_overload,
    "fleet_sigkill": campaign_fleet_sigkill,
    "chaosnet_sweep": campaign_chaosnet_sweep,
    "platform_lifecycle": campaign_platform_lifecycle,
}


def run_campaigns(
    which: str = "all",
    *,
    seed: int = 0,
    keep: bool = False,
    quiet: bool = False,
    echo=print,
) -> int:
    """Run one campaign (or ``all``); returns a process exit code.

    A campaign that raises any exception, not only
    :class:`CampaignFailure`, fails on its own line, and the campaigns
    after it still run.
    """
    if which == "all":
        names = list(CAMPAIGNS)
    elif which in CAMPAIGNS:
        names = [which]
    else:
        echo(
            f"unknown campaign {which!r}; choose from "
            f"{', '.join(CAMPAIGNS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    failed = []
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"repro-chaos-{name}-"))
        try:
            CAMPAIGNS[name](workdir, seed)
        except Exception as exc:
            failed.append(name)
            echo(f"FAIL  {name}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CampaignFailure):
                # A crash, not a violated invariant: say where it happened.
                echo(traceback.format_exc().rstrip())
        else:
            if not quiet:
                echo(f"ok    {name}")
        finally:
            if keep:
                echo(f"      scratch kept at {workdir}")
            else:
                _rmtree(workdir)
    verdict = (
        f"{len(names) - len(failed)}/{len(names)} campaign(s) ok"
        if not failed
        else f"{len(failed)} campaign(s) FAILED: {', '.join(failed)}"
    )
    echo(f"chaos: {verdict} (seed={seed})")
    return 1 if failed else 0


def _rmtree(path: Path) -> None:
    import shutil

    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# child-process drive steps
# ---------------------------------------------------------------------------


def _drive_log_append(argv) -> int:
    """``log_append PATH COUNT SNAPSHOT_EVERY`` — append records 0..N-1."""
    from repro.store import DurableLog

    path, count, every = argv[0], int(argv[1]), int(argv[2])
    with DurableLog(path, LOG_FP, snapshot_every=every) as log:
        for i in range(count):
            if i not in log.completed:
                log.record(i, {"v": i * i})
    print(json.dumps({"count": log.count}))
    return 0


def _drive_log_verify(argv) -> int:
    """``log_verify PATH SNAPSHOT_EVERY`` — recover and report shape."""
    import warnings

    from repro.store import DurableLog

    path, every = argv[0], int(argv[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        log = DurableLog(path, LOG_FP, snapshot_every=every)
    keys = sorted(k for k in log.completed)
    contiguous = keys == list(range(log.count)) and all(
        log.completed[k] == {"v": k * k} for k in keys
    )
    print(
        json.dumps(
            {
                "count": log.count,
                "contiguous": contiguous,
                "replayed": log.replayed,
                "from_snapshot": log.recovered_from_snapshot,
            }
        )
    )
    log.close()
    return 0


def _jobs_fill(store, count: int) -> None:
    """Deterministically submit + complete ``count`` jobs."""
    from repro.service.jobs import JobRecord, JobSpec

    for i in range(count):
        job_id = f"j-{i:012d}"
        store.submit(
            JobRecord(
                id=job_id,
                spec=JobSpec(kind="simulate", params={"i": i}),
                submitted_at=float(i),
            )
        )
        store.transition(job_id, "RUNNING", t=float(i) + 0.1)
        store.transition(
            job_id, "DONE", result={"faults": i}, t=float(i) + 0.2
        )


def _drive_jobs_load(argv) -> int:
    """``jobs_load PATH NJOBS SNAPSHOT_EVERY`` — submit/run/complete."""
    from repro.service.jobstore import JobStore

    path, njobs, every = argv[0], int(argv[1]), int(argv[2])
    with JobStore(path, snapshot_every=every) as store:
        _jobs_fill(store, njobs)
        stats = store.recovery_stats()
    print(json.dumps(stats))
    return 0


def _drive_jobs_verify(argv) -> int:
    """``jobs_verify PATH`` — recover the store and audit invariants."""
    import warnings

    from repro.service.jobs import TERMINAL_STATES
    from repro.service.jobstore import JobStore

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        store = JobStore(argv[0])
    terminal_once = True
    states: dict[str, int] = {}
    for record in store.jobs():
        states[record.state] = states.get(record.state, 0) + 1
        terminal_events = [
            e
            for e in record.events
            if e.get("event", "").upper() in TERMINAL_STATES
        ]
        if len(terminal_events) > 1:
            terminal_once = False
    stats = store.recovery_stats()
    store.close()
    print(
        json.dumps(
            {
                "jobs": stats["jobs"],
                "seq": stats["seq"],
                "replayed": stats["replayed"],
                "from_snapshot": stats["from_snapshot"],
                "terminal_once": terminal_once,
                "states": states,
            }
        )
    )
    return 0


def _drive_jobs_enospc(argv) -> int:
    """``jobs_enospc PATH NJOBS`` — absorb one injected disk-full."""
    from repro.service.jobs import JobRecord, JobSpec
    from repro.service.jobstore import JobStore

    path, njobs = argv[0], int(argv[1])
    enospc_seen = False
    with JobStore(path, snapshot_every=16) as store:
        for i in range(njobs):
            job_id = f"j-{i:012d}"
            record = JobRecord(
                id=job_id,
                spec=JobSpec(kind="simulate", params={"i": i}),
                submitted_at=float(i),
            )
            for op in ("submit", "running", "done"):
                while True:
                    try:
                        if op == "submit":
                            store.submit(record)
                        elif op == "running":
                            store.transition(job_id, "RUNNING", t=float(i))
                        else:
                            store.transition(
                                job_id,
                                "DONE",
                                result={"faults": i},
                                t=float(i) + 0.5,
                            )
                        break
                    except OSError:
                        # Disk full mid-append: the store rolled the torn
                        # bytes back; "free space" (the injection fires
                        # once) and retry the same operation.
                        enospc_seen = True
        recovered_after = store.recovery_stats()["jobs"] == njobs
    print(
        json.dumps(
            {"enospc_seen": enospc_seen, "recovered_after": recovered_after}
        )
    )
    return 0


def _drive_sweep_run(argv) -> int:
    """``sweep_run JOURNAL SEED`` — journaled fleet sweep, print summary."""
    from repro.fleet import executor_from_config, run_sweep

    journal, seed = argv[0], int(argv[1])
    task = dict(_FLEET_TASK, length=120)
    executor = executor_from_config({"kind": "threads", "max_workers": 2})
    try:
        sweep = run_sweep(
            task,
            list(range(seed, seed + 8)),
            executor=executor,
            journal=journal,
        )
    finally:
        executor.close()
    print(json.dumps(sweep.summary(), sort_keys=True))
    return 0


_DRIVERS = {
    "log_append": _drive_log_append,
    "log_verify": _drive_log_verify,
    "jobs_load": _drive_jobs_load,
    "jobs_verify": _drive_jobs_verify,
    "jobs_enospc": _drive_jobs_enospc,
    "sweep_run": _drive_sweep_run,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) >= 2 and argv[0] == "--drive":
        step = argv[1]
        if step not in _DRIVERS:
            print(f"unknown drive step {step!r}", file=sys.stderr)
            return 2
        return _DRIVERS[step](argv[2:])
    print(
        "usage: python -m repro.chaos_campaign --drive STEP ARGS...\n"
        "(campaigns are launched via `repro chaos`)",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
