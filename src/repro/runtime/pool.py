"""The supervised worker pool: every process pool in the package.

``ProcessPoolExecutor.map`` dies wholesale: one hung item stalls the run
forever, one crashed worker poisons the pool and every outstanding
future raises ``BrokenProcessPool``, and an interrupt throws away every
completed result.  :class:`WarmWorkerPool` is the one supervisor that
wraps it.  :func:`repro.runtime.supervisor.supervised_map` opens one for
a single call (local sweeps, ``batch_run(parallel=True)``), and the job
service keeps one warm per worker thread.  :meth:`WarmWorkerPool.map`
adds the supervision a long run needs:

* **per-attempt timeouts** — items are submitted in a sliding window of
  at most ``max_workers`` in-flight attempts (so submission time ≈ start
  time), and an attempt that exceeds ``timeout_s`` has its pool killed
  and rebuilt rather than stalling the run; in-flight bystanders are
  resubmitted without being charged an attempt;
* **bounded retries with backoff** — a failed attempt (worker exception,
  crashed worker, timeout) is retried up to ``retries`` times with
  exponential backoff.  On ``BrokenProcessPool`` the culprit is
  unknowable, so every in-flight item is charged an attempt; a pool
  found broken at submit (a worker died while idle) is rebuilt without
  charging anyone, since the item never ran;
* **typed failure** — an item out of retries becomes a
  :class:`ReplicaFailure` carrying the *last worker-raised* error with
  its remote traceback (an infrastructure failure never clobbers the
  diagnosable signal); ``on_failure="raise"`` turns the first one into
  :class:`SweepError`;
* **incremental results** — ``on_result`` fires in the owner as each
  item completes, which is what lets callers journal progress and
  survive interrupts;
* **warm dispatch** — the workers persist between calls, so steady-state
  dispatch is a pickle round-trip, not a process start;
  :meth:`~WarmWorkerPool.run_one` is :meth:`~WarmWorkerPool.map` over
  one item;
* **health-checked recycling** — after ``recycle_after`` completed items
  the pool is retired and a fresh one is probed with a trivial task
  before taking traffic (bounding leaked-state / memory-drift exposure,
  the classic ``maxtasksperchild`` discipline).  The recycle runs
  between calls (:meth:`~WarmWorkerPool.recycle_if_due`, or first thing
  in the next :meth:`~WarmWorkerPool.map`), never between two items of
  one call, where it would kill in-flight bystanders.  A pool killed
  after a crash or a timeout is not probed: it is rebuilt lazily at the
  next submit;
* **workers die with their owner** — every worker restores the default
  SIGTERM action (a fork inherits the owner's handlers, e.g. a serving
  loop's drain latch, which would make it ignore SIGTERM), ignores
  SIGINT (a terminal's Ctrl-C reaches the whole process group; the owner
  drains and reaps its workers), and exits once its parent process is
  gone, so a SIGKILLed owner leaves no worker behind.

A pool instance is **single-owner**: one thread calls :meth:`map` and
:meth:`run_one` (the job service gives each worker thread its own pool).
:meth:`stats` is safe to read from other threads (readiness reporting).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

__all__ = ["ReplicaFailure", "SweepError", "WarmWorkerPool", "WorkerJobFailed"]


@dataclass(frozen=True)
class ReplicaFailure:
    """One work item that exhausted its retry budget."""

    item: object
    attempts: int
    error: str

    def describe(self) -> str:
        return f"{self.item!r} failed after {self.attempts} attempt(s): {self.error}"


class SweepError(RuntimeError):
    """A supervised map aborted on an unrecoverable item failure."""

    def __init__(self, failures: list[ReplicaFailure]):
        self.failures = list(failures)
        super().__init__(
            "; ".join(f.describe() for f in self.failures) or "sweep failed"
        )


class WorkerJobFailed(RuntimeError):
    """One job exhausted its retry budget inside the warm pool."""

    def __init__(self, error: str, attempts: int):
        self.error = error
        self.attempts = attempts
        super().__init__(f"failed after {attempts} attempt(s): {error}")


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


def _describe_exception(exc: BaseException) -> str:
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


def _backoff(attempt: int, backoff_s: float, jitter: float) -> None:
    """Sleep before retrying a failed 0-based ``attempt``: ``backoff_s``
    doubled per attempt, stretched by up to ``jitter`` of itself."""
    if backoff_s > 0:
        sleep_s = backoff_s * (2**attempt)
        if jitter > 0:
            sleep_s *= 1.0 + jitter * random.random()
        time.sleep(sleep_s)


#: How often a worker checks that the process that forked it is alive.
_PARENT_POLL_S = 0.5

#: Workers fork from their owner wherever ``fork`` is safe (Linux),
#: whatever the default start method: from Python 3.14 that default is
#: ``forkserver``, whose workers are children of a fork server that
#: lives as long as any of them, so no worker could see its owner die.
_MP_CONTEXT = (
    multiprocessing.get_context("fork")
    if sys.platform.startswith("linux")
    else None
)


def _exit_when_orphaned(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _init_worker(initializer, initargs: tuple) -> None:
    """Worker initializer: die with the owner (see module docstring),
    then run the caller's own initializer.

    The parent is read here, in the worker: it is the owner under
    ``fork`` and ``spawn``, but the fork server under ``forkserver``
    (see :data:`_MP_CONTEXT`).  The orphan check polls ``os.getppid()``
    rather than arming ``PR_SET_PDEATHSIG``, which fires when the
    forking *thread* exits, not the process.
    """
    parent_pid = os.getppid()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned,
        args=(parent_pid,),
        name="pool-orphan-check",
        daemon=True,
    ).start()
    if initializer is not None:
        initializer(*initargs)


def _health_probe() -> int:
    """Trivial task proving a fresh pool can round-trip work."""
    return os.getpid()


class WarmWorkerPool:
    """One persistent supervised worker pool (see module docstring)."""

    def __init__(
        self,
        *,
        max_workers: int = 1,
        recycle_after: int = 64,
        initializer=None,
        initargs: tuple = (),
        health_timeout_s: float = 30.0,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if recycle_after < 1:
            raise ValueError("recycle_after must be >= 1")
        self.max_workers = max_workers
        self.recycle_after = recycle_after
        self.health_timeout_s = health_timeout_s
        self._initializer = initializer
        self._initargs = initargs
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()  # guards counters + pool handle
        self._generation = 0
        self._jobs_since_recycle = 0
        self._jobs_done = 0
        self._recycles = 0
        self._crashes = 0
        self._closed = False

    # -- pool lifecycle ----------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=_MP_CONTEXT,
            initializer=_init_worker,
            initargs=(self._initializer, self._initargs),
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if self._pool is None:
                self._pool = self._make_pool()
                self._generation += 1
                self._jobs_since_recycle = 0
            return self._pool

    def _discard_pool(self, *, crashed: bool) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            if crashed:
                self._crashes += 1
        if pool is not None:
            _kill_pool(pool)

    def _probe(self) -> bool:
        """Prove the current pool answers a trivial task in time."""
        pool = self._ensure_pool()
        try:
            pool.submit(_health_probe).result(timeout=self.health_timeout_s)
            return True
        except Exception:
            return False

    def recycle(self) -> None:
        """Retire the pool and stand up a health-checked replacement.

        One failed probe gets one rebuild; a second failure is left for
        the next dispatch to surface as a worker error (never loop
        forever pre-warming a machine that cannot fork).
        """
        self._discard_pool(crashed=False)
        with self._lock:
            self._recycles += 1
        if not self._probe():
            self._discard_pool(crashed=True)
            self._probe()

    def recycle_if_due(self) -> bool:
        """Recycle now if ``recycle_after`` items have completed since the
        last one; ``True`` when it did.  The owner calls this between
        calls, after delivering the previous result, so a recycle costs
        idle time instead of delaying a result."""
        with self._lock:
            due = (
                self._pool is not None
                and self._jobs_since_recycle >= self.recycle_after
            )
        if due:
            self.recycle()
        return due

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            _kill_pool(pool)

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------

    def map(
        self,
        fn,
        items,
        *,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.1,
        jitter: float = 0.0,
        on_result=None,
        on_failure: str = "raise",
    ):
        """Run ``fn(item, attempt)`` over ``items`` under supervision.

        ``fn`` must be picklable (module-level) and is called with the
        work item and the 0-based attempt number; items must be hashable.
        Returns ``(results, failures)`` where ``results`` maps each
        completed item to its return value in input order and
        ``failures`` lists items that exhausted ``retries`` (empty unless
        ``on_failure="record"``; with the default ``"raise"`` the first
        exhausted item raises :class:`SweepError`, after ``on_result``
        has fired for everything already completed).

        ``timeout_s`` bounds one *attempt's* wall clock, measured from
        submission; the sliding submission window keeps queue wait out of
        that measurement.  ``jitter`` (a fraction in [0, 1]) stretches
        each backoff sleep by up to that fraction of its nominal length,
        de-synchronising retry storms when many pools share a machine;
        the default 0.0 keeps backoff deterministic for tests.

        ``on_result(item, value, attempt)`` fires as each item completes,
        with the 0-based attempt that *succeeded* (so ``attempt + 1``
        attempts were consumed), which is how journaling callers record
        per-replica retry counts (docs/ROBUSTNESS.md).

        A call that stops early (a :class:`SweepError`, an exception from
        ``on_result``, an interrupt) kills the attempts still in flight
        with their pool, so the pool it leaves has no busy worker.
        """
        if on_failure not in ("raise", "record"):
            raise ValueError(
                f"on_failure must be 'raise' or 'record', got {on_failure!r}"
            )
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        items = list(items)
        results: dict = {}
        failures: list[ReplicaFailure] = []
        pending: deque = deque((item, 0) for item in items)
        inflight: dict = {}  # future -> (item, attempt, submit time)
        # Last *worker-raised* error per item, with its remote traceback.  A
        # later infrastructure failure (pool break, timeout) must not clobber
        # it in the final ReplicaFailure: the original traceback is the
        # diagnosable signal, "worker process died" is not.
        last_real_error: dict = {}

        def note_failure(item, attempt: int, error: str) -> None:
            """Charge one attempt; requeue or (beyond ``retries``) fail."""
            if attempt < retries:
                _backoff(attempt, backoff_s, jitter)
                pending.append((item, attempt + 1))
                return
            prior = last_real_error.get(item)
            if prior is not None and prior not in error:
                error = f"{error}; last worker error: {prior}"
            failures.append(ReplicaFailure(item, attempt + 1, error))
            if on_failure == "raise":
                raise SweepError(failures)

        self.recycle_if_due()  # one the owner left pending
        try:
            while pending or inflight:
                while pending and len(inflight) < self.max_workers:
                    item, attempt = pending.popleft()
                    try:
                        future = self._ensure_pool().submit(fn, item, attempt)
                    except BrokenProcessPool:
                        # A worker died since the last wait, while idle or
                        # beside a job that finished: this item never ran.
                        # In-flight futures fail with the pool and take the
                        # charged rebuild path below.
                        pending.appendleft((item, attempt))
                        if inflight:
                            break
                        self._discard_pool(crashed=True)
                        continue
                    inflight[future] = (item, attempt, time.monotonic())
                wait_s = None
                if timeout_s is not None:
                    oldest = min(t0 for _, _, t0 in inflight.values())
                    wait_s = max(0.0, oldest + timeout_s - time.monotonic())
                done, _ = wait(
                    inflight, timeout=wait_s, return_when=FIRST_COMPLETED
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
                        last_real_error[item] = _describe_exception(exc)
                        note_failure(item, attempt, last_real_error[item])
                    else:
                        results[item] = value
                        with self._lock:
                            self._jobs_done += 1
                            self._jobs_since_recycle += 1
                        if on_result is not None:
                            on_result(item, value, attempt)
                if broken:
                    # The pool is poisoned: every other in-flight future
                    # raises BrokenProcessPool too.  The culprit is
                    # unknowable, so each is (conservatively) charged.
                    victims = list(inflight.values())
                    inflight.clear()
                    self._discard_pool(crashed=True)
                    for item, attempt, _t0 in victims:
                        note_failure(
                            item, attempt, "worker process died (pool broke)"
                        )
                elif not done and timeout_s is not None:
                    now = time.monotonic()
                    overdue = [
                        (item, attempt)
                        for item, attempt, t0 in inflight.values()
                        if now - t0 > timeout_s
                    ]
                    if overdue:
                        # No cooperative cancel exists for a running worker:
                        # kill the pool, resubmit the bystanders attempt-free,
                        # charge the overdue items.
                        bystanders = [
                            (item, attempt)
                            for item, attempt, t0 in inflight.values()
                            if now - t0 <= timeout_s
                        ]
                        inflight.clear()
                        self._discard_pool(crashed=True)
                        pending.extendleft(reversed(bystanders))
                        for item, attempt in overdue:
                            note_failure(
                                item, attempt, f"timed out after {timeout_s}s"
                            )
        finally:
            if inflight:
                # Stopped early: kill the attempts still running with their
                # pool, so no busy worker outlives this call.
                self._discard_pool(crashed=False)
        ordered = {item: results[item] for item in items if item in results}
        return ordered, failures

    def run_one(
        self,
        fn,
        item,
        *,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.1,
        jitter: float = 0.0,
    ):
        """Run ``fn(item, attempt)`` in the warm pool: :meth:`map` over one
        item.

        Returns ``(value, attempts)`` on success.  Raises
        :class:`WorkerJobFailed` once ``retries`` extra attempts are
        exhausted; the pool survives either way (rebuilt if it crashed).
        """
        succeeded = []
        results, failures = self.map(
            fn,
            [item],
            timeout_s=timeout_s,
            retries=retries,
            backoff_s=backoff_s,
            jitter=jitter,
            on_result=lambda _item, _value, attempt: succeeded.append(attempt),
            on_failure="record",
        )
        if failures:
            raise WorkerJobFailed(failures[0].error, failures[0].attempts)
        return results[item], succeeded[0] + 1

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready counters for readiness reporting."""
        with self._lock:
            return {
                "generation": self._generation,
                "warm": self._pool is not None,
                "jobs_done": self._jobs_done,
                "jobs_since_recycle": self._jobs_since_recycle,
                "recycle_after": self.recycle_after,
                "recycles": self._recycles,
                "crashes": self._crashes,
            }
