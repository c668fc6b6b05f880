"""Crash-safe, journaled job store (event-sourced on :class:`DurableLog`).

Every mutation — submission, state transition, structured event — is one
JSONL line appended to a :class:`repro.store.DurableLog`
before the in-memory view changes, so the store's durable state is
always at least as new as what callers observed.  A SIGKILL at any point
loses at most the line in flight, which the journal's
truncate-and-warn reload repairs; replaying the surviving lines rebuilds
the exact job table.

That replay is what makes the kill-recover invariant mechanical:

* jobs whose last journaled state is non-terminal (``QUEUED`` /
  ``RUNNING``) are handed back via :meth:`non_terminal` for the service
  to re-enqueue — no job is ever silently lost;
* terminal transitions are refused once a job is already terminal
  (:class:`IllegalTransition`), so no job can complete twice — replay
  cannot duplicate results;
* completed results are indexed by the spec's **content fingerprint**,
  so a re-enqueued job whose work already finished under another id (or
  a resubmission of identical work) is served from the index instead of
  recomputed (:meth:`completed_result_for`).

The journal reuses the runtime fingerprint header, so pointing a store
at some other journal file refuses to load rather than merging foreign
state.

The journal is a :class:`repro.store.DurableLog` with snapshots on
(``snapshot_every``, default 1024 events): every N events the full job
table is folded into one checksummed snapshot (one ``restore`` event
per job — a terminal job's whole submit/state/event stream collapses to
a single record) and older segments are compacted away, so recovery
replays a bounded tail no matter how many jobs the store has ever seen.
The ``restore`` event type is additive — the fingerprint stays
``repro-jobstore-v1`` and pre-snapshot journals open unchanged.

A terminal job never changes again, so the store keeps it once: as the
canonical text of its ``restore`` event, which every snapshot writes as
it is and which :meth:`JobStore.get`, a dedup hit and ``/jobs`` decode
on request.  Per-state counts are kept as jobs move, so ``/readyz`` and
drain logging decode nothing.

:meth:`JobStore.wait_terminal` is the long-poll behind
``GET /jobs/<id>?wait_s=S``: a condition on the store's lock, notified
by every terminal transition and by :meth:`JobStore.close`.
"""

from __future__ import annotations

import threading
import time

from repro.store import DurableLog, Serialized
from repro.service.jobs import TERMINAL_STATES, JobRecord, JobSpec

__all__ = ["IllegalTransition", "JobStore", "UnknownJob"]

#: Journal-header fingerprint: bump when the event schema changes.
STORE_FINGERPRINT = "repro-jobstore-v1"

#: Snapshot + compact the journal after this many events by default.
DEFAULT_SNAPSHOT_EVERY = 1024


def _restore(entry: JobRecord | Serialized) -> Serialized:
    """A job's snapshot item: one ``restore`` event, as canonical text."""
    if isinstance(entry, Serialized):
        return entry
    return Serialized({"type": "restore", "record": entry.to_dict()})


class UnknownJob(KeyError):
    """No job with that id exists in the store."""


class IllegalTransition(RuntimeError):
    """A state change that the job lifecycle forbids (e.g. a second
    terminal transition — the exactly-once guard)."""


class JobStore:
    """See module docstring.  Thread-safe; one lock covers journal+table."""

    def __init__(self, path, *, snapshot_every: int | None = DEFAULT_SNAPSHOT_EVERY):
        self._lock = threading.RLock()
        #: Notified on every terminal transition and on close.
        self._changed = threading.Condition(self._lock)
        self._closed = False
        #: job id -> a live record, or for a terminal job only its
        #: snapshot restore value as canonical text, decoded on request.
        self._jobs: dict[str, JobRecord | Serialized] = {}
        #: state -> number of jobs in it (``/readyz``, drain logging).
        self._counts: dict[str, int] = {}
        #: fingerprint -> job id of a successfully completed job.
        self._completed_by_fingerprint: dict[str, str] = {}
        self._seq = 0
        self._journal = DurableLog(
            path,
            STORE_FINGERPRINT,
            # 0 and None both mean "snapshots off" (legacy behaviour).
            snapshot_every=snapshot_every or None,
            compact_items=self._compact_events,
        )
        self._replay()

    # -- journal plumbing --------------------------------------------------

    def _append(self, event: dict) -> None:
        """Lock held: durably journal one event (flushed line-by-line)."""
        self._seq += 1
        self._journal.record([self._seq, event["type"]], event)

    def _replay(self) -> None:
        for key, event in self._journal.completed.items():
            self._seq = max(self._seq, key[0])
            self._apply(event)

    def _compact_events(self, items):
        """Snapshot compactor: fold the event stream into the job table.

        Called by the durable log (under the store lock — snapshots
        trigger inside :meth:`_append`) when it snapshots.  Instead of
        persisting every historical ``submit``/``state``/``event`` line,
        the snapshot holds one ``restore`` event per job, so a job's
        whole lifecycle costs one snapshot record forever.  A trailing
        ``seq`` marker preserves the sequence high-water mark; event
        keys stay ``[seq, type]`` so replay-over-snapshot ordering and
        the max-seq scan are unchanged.
        """
        del items  # the in-memory table already reflects every event
        compacted = [
            [[i, "restore"], _restore(entry)]
            for i, entry in enumerate(self._jobs.values(), start=1)
        ]
        compacted.append([[self._seq, "seq"], {"type": "seq"}])
        return compacted

    # -- the table ---------------------------------------------------------

    def _put(self, record: JobRecord, was: str | None = None) -> None:
        """Lock held: store ``record`` (live, or as text once terminal)
        and move it from state ``was`` in the counts."""
        if was is not None:
            self._counts[was] -= 1
        self._counts[record.state] = self._counts.get(record.state, 0) + 1
        self._jobs[record.id] = (
            _restore(record) if record.terminal else record
        )
        if record.state in ("DONE", "DEGRADED"):
            self._completed_by_fingerprint[record.spec.fingerprint] = record.id

    def _record(self, job_id: str) -> JobRecord | None:
        """Lock held: the job's record, decoded if terminal."""
        entry = self._jobs.get(job_id)
        if isinstance(entry, Serialized):
            return JobRecord.from_dict(entry.value["record"])
        return entry

    def _apply(self, event: dict) -> None:
        """Apply one journaled event to the in-memory table (no re-journal)."""
        etype = event["type"]
        if etype == "restore":
            self._put(JobRecord.from_dict(event["record"]))
        elif etype == "seq":
            pass  # high-water marker: only its key matters (max-seq scan)
        elif etype == "submit":
            spec = JobSpec.from_dict(event["spec"])
            record = JobRecord(
                id=event["id"], spec=spec, submitted_at=event["t"]
            )
            record.events.append(
                {"t": event["t"], "event": "submitted", "kind": spec.kind}
            )
            self._put(record)
        elif etype == "state":
            record = self._record(event["id"])
            if record is None:  # foreign tail; submit line lost pre-v1 only
                return
            was = record.state
            record.state = event["state"]
            record.result = event.get("result")
            record.error = event.get("error")
            record.attempts = event.get("attempts", record.attempts)
            record.events.append(
                {
                    "t": event["t"],
                    "event": event["state"].lower(),
                    **(
                        {"error": event["error"]}
                        if event.get("error")
                        else {}
                    ),
                }
            )
            if record.terminal:
                record.finished_at = event["t"]
            self._put(record, was)
        elif etype == "event":
            record = self._record(event["id"])
            if record is not None:
                entry = dict(event["detail"])
                entry.setdefault("t", event["t"])
                record.events.append(entry)
                self._put(record, record.state)

    # -- mutations ---------------------------------------------------------

    def submit(self, record: JobRecord) -> JobRecord:
        """Durably register a new QUEUED job."""
        with self._lock:
            if record.id in self._jobs:
                raise IllegalTransition(f"job {record.id} already submitted")
            self._append(
                {
                    "type": "submit",
                    "id": record.id,
                    "t": record.submitted_at,
                    "spec": record.spec.to_dict(),
                }
            )
            record.log_event("submitted", kind=record.spec.kind)
            self._put(record)
            return record

    def transition(
        self,
        job_id: str,
        state: str,
        *,
        result: dict | None = None,
        error: str | None = None,
        attempts: int | None = None,
        t: float | None = None,
    ) -> JobRecord:
        """Durably move a job to ``state`` (journal first, memory second)."""
        with self._lock:
            record = self._record(job_id)
            if record is None:
                raise UnknownJob(job_id)
            if record.state in TERMINAL_STATES:
                raise IllegalTransition(
                    f"job {job_id} is already terminal ({record.state}); "
                    f"refusing transition to {state}"
                )
            stamp = time.time() if t is None else t
            self._append(
                {
                    "type": "state",
                    "id": job_id,
                    "t": stamp,
                    "state": state,
                    "result": result,
                    "error": error,
                    "attempts": record.attempts if attempts is None else attempts,
                }
            )
            was = record.state
            record.state = state
            record.result = result
            record.error = error
            if attempts is not None:
                record.attempts = attempts
            record.log_event(state.lower(), **({"error": error} if error else {}))
            if state in TERMINAL_STATES:
                record.finished_at = stamp
                self._changed.notify_all()
            self._put(record, was)
            return record

    def log_event(self, job_id: str, event: str, **detail) -> None:
        """Append one structured event to a job's durable event log."""
        with self._lock:
            record = self._record(job_id)
            if record is None:
                raise UnknownJob(job_id)
            entry = {"t": round(time.time(), 3), "event": event, **detail}
            self._append(
                {"type": "event", "id": job_id, "t": entry["t"], "detail": entry}
            )
            record.events.append(entry)
            if record.terminal:
                self._put(record, record.state)

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        """The job's record; a terminal job's is decoded afresh, so
        changing it changes nothing in the store."""
        with self._lock:
            record = self._record(job_id)
            if record is None:
                raise UnknownJob(job_id)
            return record

    def wait_terminal(self, job_id: str, timeout_s: float) -> JobRecord:
        """The job's record once it is terminal or ``timeout_s`` has
        passed, whichever comes first; at once if the store is closed.
        An unknown id raises :class:`UnknownJob` without waiting."""
        with self._changed:
            record = self._record(job_id)
            if record is None:
                raise UnknownJob(job_id)
            if timeout_s > 0:
                # A live record is the object a terminal transition
                # updates before the store swaps it for its text.
                self._changed.wait_for(
                    lambda: record.terminal or self._closed, timeout_s
                )
            return record

    def jobs(self) -> list[JobRecord]:
        with self._lock:
            return [self._record(job_id) for job_id in self._jobs]

    def non_terminal(self) -> list[JobRecord]:
        """Jobs the journal says never finished — re-enqueue these."""
        with self._lock:
            return [r for r in self._jobs.values()
                    if isinstance(r, JobRecord)]

    def completed_result_for(self, fingerprint: str) -> JobRecord | None:
        """A completed (DONE/DEGRADED) job carrying identical work, if any."""
        with self._lock:
            job_id = self._completed_by_fingerprint.get(fingerprint)
            return self._record(job_id) if job_id is not None else None

    def recovery_stats(self) -> dict:
        """How much work the last open cost — the compaction gate's
        numbers: segment records replayed, and whether a snapshot seeded
        the table (see the ``compaction_gate`` campaign of
        :mod:`repro.chaos_campaign`)."""
        with self._lock:
            return {
                "replayed": self._journal.replayed,
                "from_snapshot": self._journal.recovered_from_snapshot,
                "jobs": len(self._jobs),
                "seq": self._seq,
            }

    def counts(self) -> dict:
        """State histogram for ``/readyz`` and drain logging."""
        with self._lock:
            return {state: n for state, n in self._counts.items() if n}

    # -- lifecycle ---------------------------------------------------------

    def sync(self) -> None:
        with self._lock:
            self._journal.sync()

    def close(self) -> None:
        """Close the journal and release every :meth:`wait_terminal`."""
        with self._lock:
            self._closed = True
            self._changed.notify_all()
            self._journal.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
