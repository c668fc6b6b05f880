"""Supervised process-pool execution and resumable work journals.

``ProcessPoolExecutor.map`` dies wholesale: one hung replica stalls the
sweep forever, one crashed worker poisons the pool and every outstanding
future raises ``BrokenProcessPool``, and a ``KeyboardInterrupt`` throws
away every completed result.  :func:`supervised_map` wraps the pool with
the supervision a long sweep needs:

* **per-item timeouts** — items are submitted in a sliding window of at
  most ``max_workers`` in-flight jobs (so submission time ≈ start time),
  and an item that exceeds ``timeout_s`` gets its worker killed and the
  pool rebuilt rather than stalling the run;
* **bounded retries with backoff** — a failed attempt (worker exception,
  injected crash, timeout, pool breakage) is retried up to ``retries``
  times with exponential backoff; innocent items that merely shared a
  killed pool are resubmitted without being charged an attempt (except on
  ``BrokenProcessPool``, where the culprit is unknowable and every
  in-flight item is charged conservatively);
* **pool restart** — a broken or deliberately-killed pool is rebuilt
  with the same initializer and the sweep continues;
* **incremental results** — ``on_result`` fires in the parent as each
  item completes, which is what lets callers journal progress and
  survive interrupts.

:class:`Journal` is the matching append-only manifest: one JSON line per
completed item, headed by a fingerprint line so a journal can never be
replayed against a different sweep configuration.  A truncated final
line (the crash arrived mid-write) is tolerated and dropped.  Re-opening
an existing journal yields the completed payloads, so an interrupted
sweep resumes where it left off instead of recomputing.

This module is policy-free: it knows nothing about workloads or caches.
:mod:`repro.analysis.batch` supplies the work function and journaling
policy; :mod:`repro.runtime.chaos` supplies the faults that test it.
"""

from __future__ import annotations

import inspect
import random
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.store.durable import DurableLog, JournalMismatch

__all__ = [
    "Journal",
    "JournalMismatch",
    "ReplicaFailure",
    "SweepError",
    "supervised_map",
]


@dataclass(frozen=True)
class ReplicaFailure:
    """One work item that exhausted its retry budget."""

    item: object
    attempts: int
    error: str

    def describe(self) -> str:
        return f"{self.item!r} failed after {self.attempts} attempt(s): {self.error}"


class SweepError(RuntimeError):
    """A supervised sweep aborted on an unrecoverable item failure."""

    def __init__(self, failures: list[ReplicaFailure]):
        self.failures = list(failures)
        super().__init__(
            "; ".join(f.describe() for f in self.failures) or "sweep failed"
        )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if workers are wedged: cancel what is queued,
    terminate the worker processes, then reap them."""
    # Snapshot the workers first: shutdown() sets _processes to None.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
    for proc in processes:
        try:
            proc.join(timeout=5)
        except (OSError, ValueError):  # pragma: no cover
            pass


def _adapt_on_result(on_result):
    """Normalise an ``on_result`` callback to the 3-arg form.

    Accepts both the historical ``(item, value)`` signature and the
    attempt-aware ``(item, value, attempt)`` one; when the signature is
    uninspectable (builtins, some callables) the 2-arg form is assumed.
    """
    try:
        parameters = inspect.signature(on_result).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return lambda item, value, attempt: on_result(item, value)
    takes_attempt = len(parameters) >= 3 or any(
        p.kind == inspect.Parameter.VAR_POSITIONAL for p in parameters.values()
    )
    if takes_attempt:
        return on_result
    return lambda item, value, attempt: on_result(item, value)


def supervised_map(
    fn,
    items,
    *,
    max_workers: int = 1,
    initializer=None,
    initargs: tuple = (),
    timeout_s: float | None = None,
    retries: int = 0,
    backoff_s: float = 0.1,
    jitter: float = 0.0,
    on_result=None,
    on_failure: str = "raise",
):
    """Run ``fn(item, attempt)`` over ``items`` under supervision.

    ``fn`` must be picklable (module-level) and is called with the work
    item and the 0-based attempt number.  Returns ``(results, failures)``
    where ``results`` maps each completed item to its return value in
    input order and ``failures`` lists items that exhausted ``retries``
    (empty unless ``on_failure="record"``; with the default ``"raise"``
    the first exhausted item raises :class:`SweepError`, after
    ``on_result`` has fired for everything already completed).

    ``timeout_s`` bounds one *attempt's* wall clock, measured from
    submission; the sliding submission window keeps queue wait out of
    that measurement.  A timed-out attempt kills and rebuilds the pool
    (there is no cooperative cancel for a wedged worker); in-flight
    bystanders are resubmitted without being charged an attempt.

    ``jitter`` (a fraction in [0, 1]) randomises each backoff sleep by up
    to that fraction of its nominal length, de-synchronising retry storms
    when many supervised sweeps share a machine.  The default 0.0 keeps
    backoff deterministic for tests.

    ``on_result`` may take either two arguments ``(item, value)`` or
    three ``(item, value, attempt)`` — the signature is inspected once.
    The third form receives the 0-based attempt number that *succeeded*
    (so ``attempt + 1`` attempts were consumed), which is how journaling
    callers record per-replica retry counts for post-hoc flakiness
    analysis (docs/ROBUSTNESS.md).
    """
    if on_failure not in ("raise", "record"):
        raise ValueError(f"on_failure must be 'raise' or 'record', got {on_failure!r}")
    if not 0.0 <= jitter <= 1.0:
        raise ValueError(f"jitter must be in [0, 1], got {jitter}")
    items = list(items)
    results: dict = {}
    failures: list[ReplicaFailure] = []
    result_cb = None
    if on_result is not None:
        result_cb = _adapt_on_result(on_result)
    pending: deque = deque((item, 0) for item in items)
    # Last *worker-raised* error per item, with its remote traceback.  A
    # later infrastructure failure (pool break, timeout) must not clobber
    # it in the final ReplicaFailure: the original traceback is the
    # diagnosable signal, "worker process died" is not.
    last_real_error: dict = {}

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=initializer,
            initargs=initargs,
        )

    def note_failure(item, attempt: int, error: str) -> None:
        """Charge one attempt; requeue or (beyond ``retries``) fail."""
        if attempt < retries:
            if backoff_s > 0:
                sleep_s = backoff_s * (2**attempt)
                if jitter > 0:
                    sleep_s *= 1.0 + jitter * random.random()
                time.sleep(sleep_s)
            pending.append((item, attempt + 1))
        else:
            prior = last_real_error.get(item)
            if prior is not None and prior not in error:
                error = f"{error}; last worker error: {prior}"
            failure = ReplicaFailure(item, attempt + 1, error)
            failures.append(failure)
            if on_failure == "raise":
                raise SweepError(failures)

    def describe_exception(exc: BaseException) -> str:
        """``TypeName: message`` plus the remote traceback when the pool
        preserved one (``exc.__cause__`` is ``_RemoteTraceback``)."""
        text = f"{type(exc).__name__}: {exc}"
        cause = exc.__cause__
        if cause is not None and type(cause).__name__ == "_RemoteTraceback":
            text = f"{text}\n{cause}"
        elif exc.__traceback__ is not None:
            text = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ).rstrip()
        return text

    pool = make_pool()
    inflight: dict = {}  # future -> (item, attempt, submit time)
    try:
        while pending or inflight:
            while pending and len(inflight) < max_workers:
                item, attempt = pending.popleft()
                try:
                    future = pool.submit(fn, item, attempt)
                except BrokenProcessPool:
                    # A worker died since the last wait, beside a job that
                    # finished: this item never ran.  In-flight futures
                    # fail with the pool and take the rebuild path below.
                    pending.appendleft((item, attempt))
                    if inflight:
                        break
                    _kill_pool(pool)
                    pool = make_pool()
                    continue
                inflight[future] = (item, attempt, time.monotonic())
            wait_s = None
            if timeout_s is not None:
                now = time.monotonic()
                wait_s = max(
                    0.0,
                    min(t0 + timeout_s - now for _, _, t0 in inflight.values()),
                )
            done, _ = wait(
                set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                item, attempt, _t0 = inflight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    broken = True
                    note_failure(item, attempt, "worker process died")
                except Exception as exc:
                    last_real_error[item] = describe_exception(exc)
                    note_failure(item, attempt, last_real_error[item])
                else:
                    results[item] = value
                    if result_cb is not None:
                        result_cb(item, value, attempt)
            if broken:
                # The pool is poisoned: every other in-flight future will
                # raise BrokenProcessPool too.  The culprit is unknowable,
                # so each is (conservatively) charged an attempt.
                for future, (item, attempt, _t0) in list(inflight.items()):
                    note_failure(item, attempt, "worker process died (pool broke)")
                inflight.clear()
                _kill_pool(pool)
                pool = make_pool()
                continue
            if not done and timeout_s is not None:
                now = time.monotonic()
                overdue = [
                    (future, payload)
                    for future, payload in inflight.items()
                    if now - payload[2] > timeout_s
                ]
                if overdue:
                    # No cooperative cancel exists for a running worker:
                    # kill the pool, charge the overdue items, resubmit
                    # the bystanders attempt-free.
                    _kill_pool(pool)
                    overdue_futures = {future for future, _ in overdue}
                    bystanders = [
                        (item, attempt)
                        for future, (item, attempt, _t0) in inflight.items()
                        if future not in overdue_futures
                    ]
                    inflight.clear()
                    pool = make_pool()
                    for item, attempt in reversed(bystanders):
                        pending.appendleft((item, attempt))
                    for _future, (item, attempt, _t0) in overdue:
                        note_failure(
                            item, attempt, f"timed out after {timeout_s}s"
                        )
    finally:
        _kill_pool(pool)
    ordered = {item: results[item] for item in items if item in results}
    return ordered, failures


# ---------------------------------------------------------------------------
# resumable journal (compatibility shim over repro.store.DurableLog)
# ---------------------------------------------------------------------------


class Journal(DurableLog):
    """Append-only JSONL manifest of completed work items.

    Since the durable-store refactor this is a thin alias for
    :class:`repro.store.DurableLog` with snapshots disabled — the exact
    legacy behaviour: a single JSONL file headed by
    ``{"journal": 1, "fingerprint": ...}``, one flushed line per record,
    fingerprint-checked resume, truncate-and-warn recovery of a torn
    final line, and an fsync on :meth:`close`.  Existing v1 journals
    open unchanged (the upgrade is purely additive: new files written
    by a generation > 0 log carry v2 headers, old files never do).

    Pass ``snapshot_every=N`` to opt a call site into checksummed
    snapshots + segment compaction; see :mod:`repro.store.durable` for
    the on-disk format and crash-recovery contract.
    """
