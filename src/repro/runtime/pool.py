"""Persistent warm worker pool with health-checked recycling.

:func:`repro.runtime.supervisor.supervised_map` builds and tears down a
``ProcessPoolExecutor`` per call — correct, but a service executing one
job per call pays a full fork/spawn on *every* job.  The
:class:`WarmWorkerPool` keeps one supervised pool alive across jobs:

* **warm dispatch** — the worker process persists between jobs, so
  steady-state dispatch is a pickle round-trip, not a process start;
* **kill-rebuild-retry** — a hung attempt (``timeout_s``) or a crashed
  worker (``BrokenProcessPool``) kills the pool, rebuilds it, charges
  the attempt, and retries with exponential backoff — exactly
  supervised_map's semantics, preserved one job at a time;
* **health-checked recycling** — after ``recycle_after`` completed jobs
  the pool is retired and a fresh one is probed with a trivial task
  before taking traffic (bounding leaked-state / memory-drift exposure,
  the classic ``maxtasksperchild`` discipline); a pool that was rebuilt
  after a crash is probed the same way.  The recycle runs between jobs
  (:meth:`~WarmWorkerPool.recycle_if_due`, or first thing in the next
  :meth:`~WarmWorkerPool.run_one`), never before the job that made it
  due has returned its value;
* **typed failure** — an exhausted retry budget raises
  :class:`WorkerJobFailed` carrying the attempt count and the *last
  worker-raised* error with its remote traceback (an infrastructure
  failure never clobbers the diagnosable signal);
* **workers die with their owner** — every worker restores the default
  SIGTERM action (a fork inherits the owner's handlers, e.g. a serving
  loop's drain latch, which would make it ignore SIGTERM), ignores
  SIGINT (a terminal's Ctrl-C reaches the whole process group; the owner
  drains and reaps its workers), and exits once its parent process is
  gone, so a SIGKILLed server leaves no worker behind.

A pool instance is **single-owner**: one thread calls :meth:`run_one`
(the job service gives each worker thread its own pool).  :meth:`stats`
is safe to read from other threads (readiness reporting).
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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.runtime.supervisor import _kill_pool

__all__ = ["WarmWorkerPool", "WorkerJobFailed"]


class WorkerJobFailed(RuntimeError):
    """One job exhausted its retry budget inside the warm pool."""

    def __init__(self, error: str, attempts: int):
        self.error = error
        self.attempts = attempts
        super().__init__(f"failed after {attempts} attempt(s): {error}")


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

    def _recycle(self, *, crashed: bool) -> None:
        """Retire the pool and stand up a health-checked replacement.

        One failed probe gets one rebuild; a second failure is left for
        the next dispatch to surface as a worker error (never loop
        forever pre-warming a machine that cannot fork).
        """
        self._discard_pool(crashed=crashed)
        with self._lock:
            self._recycles += 1
        if not self._probe():
            self._discard_pool(crashed=True)
            self._probe()

    def recycle(self) -> None:
        """Force a graceful recycle (rarely needed outside tests)."""
        self._recycle(crashed=False)

    def recycle_if_due(self) -> bool:
        """Recycle now if ``recycle_after`` jobs have completed since the
        last one; ``True`` when it did.  The owner calls this between
        jobs, after delivering the previous result, so a recycle costs
        idle time instead of delaying a result."""
        with self._lock:
            due = (
                self._pool is not None
                and self._jobs_since_recycle >= self.recycle_after
            )
        if due:
            self._recycle(crashed=False)
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
        """Run ``fn(item, attempt)`` in the warm pool under supervision.

        Returns ``(value, attempts)`` on success.  Raises
        :class:`WorkerJobFailed` once ``retries`` extra attempts are
        exhausted; the pool survives either way (rebuilt if it crashed).
        """
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.recycle_if_due()  # one the owner left pending
        last_real_error: str | None = None
        error = "never attempted"
        for attempt in range(retries + 1):
            pool = self._ensure_pool()
            try:
                # submit itself raises BrokenProcessPool when the pool
                # died between jobs — same rebuild path as a mid-job death.
                value = pool.submit(fn, item, attempt).result(timeout=timeout_s)
            except FuturesTimeout:
                # No cooperative cancel exists for a wedged worker: kill
                # the pool and charge the attempt.
                error = f"timed out after {timeout_s}s"
                self._discard_pool(crashed=True)
            except BrokenProcessPool:
                error = "worker process died"
                self._discard_pool(crashed=True)
            except Exception as exc:
                # The worker raised: the pool itself is healthy.
                last_real_error = _describe_exception(exc)
                error = last_real_error
            else:
                with self._lock:
                    self._jobs_done += 1
                    self._jobs_since_recycle += 1
                return value, attempt + 1
            if attempt < retries and backoff_s > 0:
                sleep_s = backoff_s * (2**attempt)
                if jitter > 0:
                    sleep_s *= 1.0 + jitter * random.random()
                time.sleep(sleep_s)
        if last_real_error is not None and last_real_error not in error:
            error = f"{error}; last worker error: {last_real_error}"
        raise WorkerJobFailed(error, retries + 1)

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
