"""The resilient job service: queued serving with degrade-don't-die.

:class:`JobService` is the engine (usable in-process, no sockets): a
bounded priority admission queue feeding a small pool of worker
threads, each of which owns a persistent **warm worker pool**
(:class:`repro.runtime.pool.WarmWorkerPool`) — steady-state dispatch
reuses a live worker process, and a crashed, hung, or chaos-killed
worker is still killed/rebuilt/retried with jittered backoff without
taking the server down.  Around that core:

* **admission control** — priority classes (``interactive`` > ``batch``
  > ``bulk``) with shed-lowest-newest on a full queue, per-tenant
  token-bucket rate limits and in-flight quotas
  (:mod:`repro.service.tenancy`), ``Retry-After`` hints (never
  queue-to-death), per-kind circuit breakers that open after repeated
  failures and half-open with probe jobs;
* **deadline propagation** — an absolute client deadline rides the
  ``X-Repro-Deadline-At`` header, is decremented by queue wait, and
  reaches the solver as a :class:`repro.runtime.Budget`; a job that
  expires while queued completes DEGRADED/FAILED without ever touching
  a worker;
* **crash-safe state** — every submission and transition is journaled
  via :class:`repro.service.jobstore.JobStore` *before* it is
  acknowledged, so a SIGKILLed server restarts with queued/running jobs
  re-enqueued and completed work deduplicated by content fingerprint;
* **graceful drain** — :meth:`drain` stops admission, lets in-flight
  jobs finish, checkpoints still-queued jobs for the next boot, and
  fsyncs the journal;
* **deadlines** — an ``opt`` job's deadline rides into the solver as a
  :class:`repro.runtime.Budget`, so overload degrades to a
  ``[lower, upper]`` interval (job state ``DEGRADED``) instead of a
  timeout.

:class:`ServiceHTTPServer` wraps the engine in a stdlib threaded HTTP
server (``/healthz``, ``/readyz``, ``/jobs``; ``GET /jobs/<id>?wait_s=S``
long-polls, holding its reply until the job is terminal or ``S`` seconds
pass, at most :data:`MAX_STATUS_WAIT_S`); :func:`serve` is the
``python -m repro serve`` entry point gluing both to SIGTERM/SIGINT via
:class:`repro.runtime.drain.DrainSignal`.  Endpoint and lifecycle
semantics are documented in docs/SERVICE.md.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro._util import repro_version
from repro.runtime.breaker import CircuitBreaker, CircuitOpen
from repro.runtime.drain import DrainSignal
from repro.runtime.pool import WarmWorkerPool, WorkerJobFailed
from repro.service.executor import execute_payload, validate_spec
from repro.service.jobs import JOB_KINDS, JobRecord, JobSpec, new_job_id
from repro.service.jobstore import JobStore
from repro.service.queue import AdmissionQueue, QueueFull
from repro.service.tenancy import QuotaExceeded, TenantRegistry

__all__ = [
    "DEADLINE_HEADER",
    "MAX_STATUS_WAIT_S",
    "JobService",
    "ServiceDraining",
    "ServiceHTTPServer",
    "serve",
]

#: HTTP header carrying the absolute client deadline (epoch seconds).
#: Header wins over the body field so proxies/executors can tighten a
#: forwarded request without re-encoding its body.
DEADLINE_HEADER = "X-Repro-Deadline-At"

#: Longest a ``GET /jobs/<id>?wait_s=S`` holds its reply; a larger ``S``
#: is clamped to this.
MAX_STATUS_WAIT_S = 30.0

#: Sentinel that wakes a worker thread for immediate exit (hard stop).
_STOP = object()


class ServiceDraining(RuntimeError):
    """Submission rejected: the server is draining for shutdown."""

    def __init__(self):
        super().__init__("server is draining; submissions are closed")


class JobService:
    """Queued job execution engine (see module docstring)."""

    def __init__(
        self,
        journal_path,
        *,
        queue_capacity: int = 64,
        workers: int = 2,
        retries: int = 1,
        backoff_s: float = 0.5,
        jitter: float = 0.25,
        job_timeout_s: float | None = None,
        opt_grace_s: float = 10.0,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 30.0,
        queue_jitter: float = 0.1,
        snapshot_every: int | None = None,
        tenant_rate_per_s: float | None = None,
        tenant_burst: float | None = None,
        tenant_max_inflight: int | None = None,
        tenant_overrides: dict | None = None,
        pool_recycle_after: int = 64,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.journal_path = journal_path
        if snapshot_every is not None:
            self.store = JobStore(journal_path, snapshot_every=snapshot_every)
        else:
            self.store = JobStore(journal_path)
        self.queue = AdmissionQueue(
            queue_capacity, workers=workers, jitter=queue_jitter
        )
        self.breakers = {
            kind: CircuitBreaker(
                kind,
                failure_threshold=breaker_threshold,
                reset_timeout_s=breaker_reset_s,
            )
            for kind in JOB_KINDS
        }
        self.tenants = TenantRegistry(
            rate_per_s=tenant_rate_per_s,
            burst=tenant_burst,
            max_inflight=tenant_max_inflight,
            overrides=tenant_overrides,
        )
        self.workers = workers
        self.retries = retries
        self.backoff_s = backoff_s
        self.jitter = jitter
        self.job_timeout_s = job_timeout_s
        self.opt_grace_s = opt_grace_s
        self.pool_recycle_after = pool_recycle_after
        self._admission_lock = threading.Lock()
        self._draining = threading.Event()
        self._threads: list[threading.Thread] = []
        self._pools: list[WarmWorkerPool] = []
        self._pools_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._recovered: list[str] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobService":
        """Start worker threads and re-enqueue journaled unfinished jobs."""
        if self._started:
            return self
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-job-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        # Crash recovery: every job the journal says never reached a
        # terminal state goes back on the queue.  Workers are already
        # running, so a recovered backlog larger than the queue capacity
        # drains as it refills (blocking put, not QueueFull).
        for record in self.store.non_terminal():
            if record.state != "QUEUED":
                self.store.transition(record.id, "QUEUED")
            self.store.log_event(record.id, "requeued_after_restart")
            self._recovered.append(record.id)
            # Re-occupy the tenant's in-flight slot: the job was admitted
            # (and charged) once already, so recovery bypasses the limits
            # but keeps the accounting honest.
            self.tenants.reserve_recovered(record.spec.tenant)
            self.queue.force_put(record.id, priority=record.spec.priority)
        return self

    @property
    def recovered_job_ids(self) -> list[str]:
        """Jobs re-enqueued by the last :meth:`start` (for logs/tests)."""
        return list(self._recovered)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting; running jobs continue (non-blocking half of
        :meth:`drain`, safe to call from a signal handler)."""
        self._draining.set()

    def drain(self, timeout: float | None = None) -> None:
        """Graceful shutdown: stop admission, finish in-flight jobs,
        checkpoint still-queued jobs, flush-and-fsync the journal."""
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
        self._finalize()

    def stop(self) -> None:
        """Hard stop: abandon queued work (it stays journaled as QUEUED —
        exactly what a restart recovers) and close the journal."""
        self._draining.set()
        for _ in self._threads:
            # Highest class so sentinels are not buried behind backlog.
            self.queue.force_put(_STOP, priority="interactive")
        for thread in self._threads:
            thread.join(timeout=30)
        self._finalize()

    def _finalize(self) -> None:
        if not self._stopped:
            self._stopped = True
            self.store.sync()
            self.store.close()

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        deadline_at: float | None = None,
        tenant: str | None = None,
        priority: str = "batch",
    ) -> JobRecord:
        """Admit one job or raise the precise backpressure signal.

        Raises
        ------
        ValueError
            Malformed spec (unknown kind/strategy/experiment) — HTTP 400.
        ServiceDraining
            Server is shutting down — HTTP 503.
        QuotaExceeded
            Tenant rate limit / in-flight quota — HTTP 429 + per-tenant
            Retry-After.
        CircuitOpen
            This job class is failing repeatedly — HTTP 503 + Retry-After.
        QueueFull
            Admission queue at capacity and nothing queued is of lower
            priority — HTTP 429 + Retry-After.
        """
        spec = JobSpec(
            kind,
            dict(params or {}),
            deadline_s=deadline_s,
            deadline_at=deadline_at,
            priority=priority or "batch",
            tenant=tenant,
        )
        if self._draining.is_set():
            raise ServiceDraining()
        validate_spec(spec.kind, spec.params)

        # Tenant limits are the outermost gate: a rate-limited tenant is
        # told to back off before any queue or breaker state is touched
        # (and before dedup — cached answers are still admissions).
        resolved_tenant = self.tenants.admit(spec.tenant)
        try:
            # Dedup before the breaker: serving a cached result says
            # nothing about current worker health, so it must not consume
            # a half-open probe slot (nor be blocked by an open breaker).
            cached = self.store.completed_result_for(spec.fingerprint)
            if cached is not None:
                record = JobRecord(id=new_job_id(), spec=spec)
                with self._admission_lock:
                    self.store.submit(record)
                    self.store.log_event(
                        record.id, "deduplicated", source=cached.id
                    )
                    self.store.transition(
                        record.id, cached.state, result=cached.result
                    )
                # Terminal immediately: the in-flight slot frees here.
                self.tenants.release(resolved_tenant)
                return self.store.get(record.id)

            self.breakers[spec.kind].check()

            record = JobRecord(id=new_job_id(), spec=spec)
            with self._admission_lock:
                # Reserve the slot under the lock so a durable submission
                # can never be left off-queue (journal-then-enqueue
                # atomically w.r.t. other submitters; workers only ever
                # *remove*).  A full queue either sheds queued
                # lower-priority work or rejects the newcomer.
                if self.queue.full() and not self.queue.can_shed(spec.priority):
                    raise QueueFull(
                        self.queue.capacity, self.queue.retry_after_s()
                    )
                self.store.submit(record)
                shed_id = self.queue.put(record.id, priority=spec.priority)
            if shed_id is not None:
                self._complete_shed(shed_id)
        except Exception:
            # Rejected after the slot was reserved (dedup miss → breaker
            # open, queue full, journal error): nothing is in flight for
            # this submission, so free the tenant's slot before
            # propagating the precise backpressure signal.
            self.tenants.release(resolved_tenant)
            raise
        return record

    def _complete_shed(self, job_id: str) -> None:
        """Finish a queued job evicted by a higher-priority admission.

        The victim was admitted, journaled, and acknowledged — it must
        complete, not vanish: it lands FAILED with a ``shed`` event and
        its tenant's in-flight slot frees.  The breaker is not charged
        (shedding is overload policy, not worker failure).
        """
        try:
            record = self.store.get(job_id)
        except KeyError:  # pragma: no cover - defensive
            return
        if record.terminal:  # pragma: no cover - defensive
            return
        self.store.log_event(
            job_id, "shed", reason="evicted for higher-priority admission"
        )
        self.store.transition(
            job_id,
            "FAILED",
            error="shed: evicted by a higher-priority admission (queue full)",
        )
        self.tenants.release(record.spec.tenant)

    # -- execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        # Each worker thread owns one persistent warm pool: steady-state
        # dispatch reuses a live worker process instead of forking per
        # job, while timeout-kill isolation stays per-thread (one hung
        # job can never force a rebuild under a neighbour's feet).
        pool = WarmWorkerPool(
            max_workers=1, recycle_after=self.pool_recycle_after
        )
        with self._pools_lock:
            self._pools.append(pool)
        try:
            while True:
                # Drain semantics: finish the job you already hold, but
                # do not pull new work — still-queued jobs stay journaled
                # as QUEUED, i.e. checkpointed for the next boot.
                if self._draining.is_set():
                    return
                job_id = self.queue.get(timeout=0.2)
                if job_id is _STOP:
                    return
                if job_id is None:
                    continue
                try:
                    self._run_one(job_id, pool)
                except Exception as exc:  # defence: the loop must survive
                    try:
                        record = self.store.get(job_id)
                        self.store.transition(
                            job_id, "FAILED", error=f"worker loop error: {exc}"
                        )
                        self.tenants.release(record.spec.tenant)
                    except Exception:
                        pass
                try:
                    # The job is recorded (and any long-poll answered),
                    # so a due recycle delays no result.
                    pool.recycle_if_due()
                except Exception:  # the next run_one retries it
                    pass
        finally:
            pool.close()

    def _hard_timeout_s(
        self, spec: JobSpec, effective_deadline_s: float | None
    ) -> float | None:
        """Per-attempt kill timeout for the warm pool.

        ``effective_deadline_s`` is the budget *remaining* at dispatch
        (queue wait already subtracted).  ``opt`` jobs degrade via their
        Budget, so the hard kill is only a backstop well past the
        deadline; other kinds are killed at their deadline (no principled
        partial answer exists for them).
        """
        if effective_deadline_s is not None:
            if spec.kind == "opt":
                backstop = effective_deadline_s + self.opt_grace_s
                if self.job_timeout_s is not None:
                    return min(backstop, self.job_timeout_s)
                return backstop
            if self.job_timeout_s is not None:
                return min(effective_deadline_s, self.job_timeout_s)
            return effective_deadline_s
        return self.job_timeout_s

    def _expire_in_queue(self, job_id: str, spec: JobSpec, overdue_s: float) -> None:
        """Complete a job whose absolute deadline passed while queued.

        It never reaches a worker: an ``opt`` job degrades to the vacuous
        (but honest) ``[0, ∞)`` interval, anything else fails with a
        clear error.  Either way the outcome is recorded — a deadline
        casualty is never silently lost — and the breaker is not charged
        (queue wait says nothing about worker health).
        """
        self.store.log_event(
            job_id, "deadline_expired_in_queue", overdue_s=round(overdue_s, 3)
        )
        if spec.kind == "opt":
            self.store.transition(
                job_id,
                "DEGRADED",
                result={
                    "lower": 0,
                    "upper": None,
                    "states_expanded": 0,
                    "reason": "deadline expired while queued",
                },
            )
        else:
            self.store.transition(
                job_id,
                "FAILED",
                error=(
                    f"deadline expired while queued "
                    f"({overdue_s:.3f}s past deadline_at)"
                ),
            )
        self.tenants.release(spec.tenant)

    def _run_one(self, job_id: str, pool: WarmWorkerPool) -> None:
        record = self.store.get(job_id)
        if record.terminal:  # e.g. duplicated requeue already satisfied
            return
        spec = record.spec

        # Restart dedup: identical work may have completed under another
        # id (either pre-crash or earlier in this very recovery pass).
        cached = self.store.completed_result_for(spec.fingerprint)
        if cached is not None and cached.id != job_id:
            self.store.log_event(job_id, "deduplicated", source=cached.id)
            self.store.transition(job_id, cached.state, result=cached.result)
            self.tenants.release(spec.tenant)
            return

        # Queue wait has already been spent against the absolute
        # deadline; an expired job completes here, worker-free.
        remaining = spec.remaining_s()
        if remaining is not None and remaining <= 0:
            self._expire_in_queue(job_id, spec, -remaining)
            return
        effective_deadline_s = spec.effective_deadline_s()

        breaker = self.breakers[spec.kind]
        self.store.transition(job_id, "RUNNING")
        payload_json = json.dumps(
            {
                "id": job_id,
                "kind": spec.kind,
                "params": spec.params,
                # The *remaining* budget, not the original: queue wait
                # decrements it, and the executor tightens once more at
                # execution start via deadline_at.
                "deadline_s": effective_deadline_s,
                "deadline_at": spec.deadline_at,
            },
            sort_keys=True,
        )
        t0 = time.monotonic()
        outcome = None
        try:
            outcome, attempts = pool.run_one(
                execute_payload,
                payload_json,
                timeout_s=self._hard_timeout_s(spec, effective_deadline_s),
                retries=self.retries,
                backoff_s=self.backoff_s,
                jitter=self.jitter,
            )
        except WorkerJobFailed as failure:
            error, attempts = failure.error, failure.attempts
        except Exception as exc:  # supervision itself blew up
            error, attempts = f"{type(exc).__name__}: {exc}", record.attempts + 1
        duration = time.monotonic() - t0
        self.queue.observe_duration(duration)

        if outcome is not None:
            self.store.log_event(
                job_id, "executed", seconds=round(duration, 3)
            )
            self.store.transition(
                job_id,
                outcome["state"],
                result=outcome.get("result"),
                attempts=record.attempts + attempts,
            )
            # DEGRADED is a *successful* degradation (a valid interval
            # was served): only FAILED counts against the breaker.
            breaker.record_success()
        else:
            self.store.transition(
                job_id, "FAILED", error=error, attempts=attempts
            )
            breaker.record_failure()
        self.tenants.release(spec.tenant)

    # -- introspection -----------------------------------------------------

    def health(self) -> dict:
        """Liveness payload (``/healthz``)."""
        return {"status": "alive", "version": repro_version()}

    def readiness(self) -> tuple[bool, dict]:
        """Readiness verdict + payload (``/readyz``): queue and breakers."""
        with self._pools_lock:
            pools = [pool.stats() for pool in self._pools]
        payload = {
            "version": repro_version(),
            "draining": self.draining,
            "queue": self.queue.snapshot(),
            "jobs": self.store.counts(),
            "breakers": {
                kind: breaker.snapshot()
                for kind, breaker in self.breakers.items()
            },
            "tenants": self.tenants.snapshot(),
            "pools": pools,
            "workers": self.workers,
        }
        ready = not self.draining and not self.queue.full()
        payload["ready"] = ready
        return ready, payload


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------


class _BodyTooLarge(ValueError):
    """POST body exceeds the configured cap (HTTP 413)."""

    def __init__(self, length: int, limit: int):
        self.length = length
        self.limit = limit
        super().__init__(
            f"request body of {length} bytes exceeds the {limit}-byte limit"
        )


def _status_wait_s(query: str) -> float:
    """The ``wait_s`` of a job-status query string: 0 when absent,
    clamped to :data:`MAX_STATUS_WAIT_S`; ``ValueError`` unless it is a
    number >= 0."""
    values = parse_qs(query, keep_blank_values=True).get("wait_s")
    if not values:
        return 0.0
    try:
        wait_s = float(values[-1])
        if not wait_s >= 0:  # negative or NaN
            raise ValueError
    except ValueError:
        raise ValueError(
            f"wait_s must be a number >= 0, got {values[-1]!r}"
        ) from None
    return min(wait_s, MAX_STATUS_WAIT_S)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Set by ServiceHTTPServer.
    service: JobService = None
    quiet: bool = True
    #: Upper bound on an accepted POST body.  ``Content-Length`` is
    #: attacker-controlled: without this cap a single request header
    #: could make the handler allocate gigabytes.  Job specs are small
    #: JSON; 1 MiB is generous.
    max_body_bytes: int = 1 << 20

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:  # pragma: no cover - operator logging
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _send_json(
        self, status: int, payload: dict, *, retry_after_s: float | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", str(max(1, round(retry_after_s))))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > self.max_body_bytes:
            # Reject *before* reading: the declared size is untrusted
            # input.  The unread body desyncs the keep-alive stream, so
            # the connection closes after the 413.
            self.close_connection = True
            raise _BodyTooLarge(length, self.max_body_bytes)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        return json.loads(raw.decode("utf-8"))

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path, _, query = self.path.partition("?")
        try:
            if path == "/healthz":
                self._send_json(200, self.service.health())
            elif path == "/readyz":
                ready, payload = self.service.readiness()
                self._send_json(200 if ready else 503, payload)
            elif path == "/jobs":
                jobs = [
                    record.to_dict(with_events=False)
                    for record in self.service.store.jobs()
                ]
                self._send_json(200, {"jobs": jobs})
            elif path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                try:
                    wait_s = _status_wait_s(query)
                except ValueError as exc:
                    self._send_json(400, {"error": str(exc)})
                    return
                try:
                    record = self.service.store.wait_terminal(job_id, wait_s)
                except KeyError:
                    self._send_json(404, {"error": f"unknown job {job_id!r}"})
                    return
                self._send_json(200, record.to_dict())
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except Exception as exc:  # defence: the server must not die
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/jobs":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            body = self._read_json()
        except _BodyTooLarge as exc:
            self._send_json(413, {"error": str(exc)})
            return
        except ValueError as exc:
            self._send_json(400, {"error": f"bad JSON body: {exc}"})
            return
        # The absolute deadline travels in a header by preference (so
        # forwarders can tighten it without re-encoding the body); the
        # body field is the fallback for bare-bones clients.
        deadline_at = body.get("deadline_at")
        header_deadline = self.headers.get(DEADLINE_HEADER)
        if header_deadline is not None:
            try:
                deadline_at = float(header_deadline)
            except ValueError:
                self._send_json(
                    400,
                    {"error": f"bad {DEADLINE_HEADER} header: {header_deadline!r}"},
                )
                return
        try:
            record = self.service.submit(
                body.get("kind", ""),
                body.get("params", {}),
                deadline_s=body.get("deadline_s"),
                deadline_at=deadline_at,
                tenant=body.get("tenant"),
                priority=body.get("priority") or "batch",
            )
        except (ValueError, TypeError) as exc:
            self._send_json(400, {"error": str(exc)})
        except QuotaExceeded as exc:
            self._send_json(
                429,
                {
                    "error": str(exc),
                    "tenant": exc.tenant,
                    "retry_after_s": exc.retry_after_s,
                },
                retry_after_s=exc.retry_after_s,
            )
        except QueueFull as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                retry_after_s=exc.retry_after_s,
            )
        except CircuitOpen as exc:
            self._send_json(
                503,
                {
                    "error": str(exc),
                    "breaker": exc.name,
                    "retry_after_s": exc.retry_after_s,
                },
                retry_after_s=exc.retry_after_s,
            )
        except ServiceDraining as exc:
            self._send_json(503, {"error": str(exc)}, retry_after_s=5)
        except Exception as exc:  # defence: the server must not die
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_json(201, record.to_dict(with_events=False))


class _ThreadingHTTPServer(ThreadingHTTPServer):
    # socketserver listens with a backlog of 5: the kernel drops the SYN
    # of a seventh simultaneous connect (a fleet opens one per dispatch
    # slot at once), and the client resends it only after 1 s.
    request_queue_size = 128


class ServiceHTTPServer:
    """The stdlib HTTP front-end bound to one :class:`JobService`."""

    def __init__(self, service: JobService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self._httpd = _ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)


def serve(
    journal_path,
    *,
    host: str = "127.0.0.1",
    port: int = 8023,
    drain_timeout_s: float | None = None,
    echo=print,
    **service_kwargs,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Blocks.  Returns the process exit code (0 on a clean drain).
    """
    service = JobService(journal_path, **service_kwargs).start()
    http = ServiceHTTPServer(service, host=host, port=port).start()
    recovered = service.recovered_job_ids
    if recovered:
        echo(f"recovered {len(recovered)} unfinished job(s) from the journal")
    echo(f"repro job service {repro_version()} listening on {http.url}")
    echo(f"journal: {journal_path}")
    drain = DrainSignal(on_drain=service.begin_drain)
    with drain:
        drain.wait()
    echo("drain: admissions closed, finishing in-flight jobs...")
    http.stop()
    service.drain(timeout=drain_timeout_s)
    counts = service.store.counts()
    echo(f"drained; journal checkpointed ({counts})")
    return 0
