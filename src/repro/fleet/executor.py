"""Executors: where a sweep's replicas actually run.

One sweep = many independent replicas (one seed each).  An **executor**
is the pluggable backend that runs them:

:class:`LocalThreadExecutor`
    in-process thread pool — cheapest for tiny replicas, shares the GIL;
:class:`LocalProcessExecutor`
    supervised process pool (:func:`repro.runtime.supervisor.supervised_map`)
    — true parallelism, per-replica timeouts, pool-rebuild on crash;
:class:`ServiceExecutor`
    one ``repro serve`` endpoint, replicas submitted in seed batches
    (a ``replica`` job for one seed, a ``sweep`` job for several);
:class:`FleetExecutor`
    N endpoints with fleet-grade fault tolerance: per-endpoint circuit
    breakers fed by health probes, Retry-After-honouring backoff with
    deterministic jitter, hedged resubmission of stragglers, automatic
    failover when an endpoint dies mid-sweep, graceful degradation onto
    survivors.

Every backend routes the replica through the *same* computation —
:func:`repro.service.executor.run_job`, whose ``replica`` and ``sweep``
kinds share one per-seed ``simulate_fast`` kernel path — so a sweep's
numbers are identical whichever executor ran it.  That identity is the
fleet acceptance criterion, and it is what makes hedging and failover
safe: re-running a replica anywhere yields the same result, so "first
result wins" is exactly-once by value.

Failure vocabulary (the matrix in docs/FLEET.md):

* **infrastructure** failures — :class:`~repro.service.client.EndpointDown`,
  :class:`~repro.service.client.CorruptResponse`, a SIGKILLed server —
  are charged to the *endpoint* (breaker failure, failover) and to a
  separate per-replica infrastructure-retry budget;
* **work** failures — the service reports ``FAILED`` — are charged to
  the replica's ``retries`` budget (the endpoint is fine; the breaker
  records a success);
* **backpressure** — 429/503 with Retry-After — is charged to nobody:
  the dispatcher sleeps (jittered, capped) and tries again;
* a replica that exhausts either budget, or its overall deadline, lands
  as a typed ``ERROR`` :class:`ReplicaOutcome` — it never poisons the
  sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

from repro.runtime.breaker import CircuitBreaker
from repro.service.client import (
    Backpressure,
    EndpointDown,
    ServiceClient,
    ServiceError,
)
from repro.service.jobs import TERMINAL_STATES

__all__ = [
    "FleetExecutor",
    "LocalProcessExecutor",
    "LocalThreadExecutor",
    "ReplicaJob",
    "ReplicaOutcome",
    "ServiceExecutor",
    "executor_from_config",
]


@dataclass(frozen=True)
class ReplicaJob:
    """One unit of sweep work: a hashable key (normally the seed) and the
    JSON-serialisable job params.

    ``kind`` is the service job kind to run — ``replica`` (one seed's
    simulation; params are workload spec + strategy +
    ``cache_size``/``tau``/``seed``) by default, or ``experiment`` when
    the platform layer scatters a spec's experiments over a fleet.
    """

    key: object
    params: dict
    kind: str = "replica"


#: Stored as a :class:`ReplicaOutcome`'s result when that result is just
#: its own ``{"faults", "makespan"}`` pair.  ``...`` is a singleton that
#: pickles to itself.
_PAIR = ...


def _is_pair(result, faults, makespan) -> bool:
    """``result`` is exactly ``{"faults": faults, "makespan": makespan}``,
    key order and value types included, so rebuilding it is lossless."""
    return (
        type(result) is dict
        and list(result) == ["faults", "makespan"]
        and type(result["faults"]) is type(faults)
        and result["faults"] == faults
        and type(result["makespan"]) is type(makespan)
        and result["makespan"] == makespan
    )


@dataclass(slots=True, init=False)
class ReplicaOutcome:
    """What became of one replica: exactly one of DONE or ERROR.

    ``result`` is the job's full result payload; for ``replica`` jobs
    the ``faults``/``makespan`` pair is also lifted into top-level
    fields.  A result that is only that pair (every seed of a batched
    dispatch) is not kept twice: ``result`` rebuilds it on each read.
    ``attempts`` counts work attempts actually consumed; ``endpoint`` is
    where the winning result came from (``"local"`` for in-process
    executors); ``hedged`` marks replicas whose result raced two
    endpoints.
    """

    key: object
    status: str  # "DONE" | "ERROR"
    faults: int | None
    makespan: int | None
    _result: object
    error: str | None
    attempts: int
    endpoint: str | None
    hedged: bool

    def __init__(self, key, status, faults=None, makespan=None, result=None,
                 error=None, attempts=1, endpoint=None, hedged=False):
        self.key = key
        self.status = status
        self.faults = faults
        self.makespan = makespan
        self._result = (
            _PAIR if result is _PAIR or _is_pair(result, faults, makespan)
            else result
        )
        self.error = error
        self.attempts = attempts
        self.endpoint = endpoint
        self.hedged = hedged

    @property
    def result(self) -> dict | None:
        if self._result is _PAIR:
            return {"faults": self.faults, "makespan": self.makespan}
        return self._result

    @property
    def ok(self) -> bool:
        return self.status == "DONE"

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "status": self.status,
            "faults": self.faults,
            "makespan": self.makespan,
            "result": self.result,
            "error": self.error,
            "attempts": self.attempts,
            "endpoint": self.endpoint,
            "hedged": self.hedged,
        }

    @staticmethod
    def from_dict(data: dict) -> "ReplicaOutcome":
        return ReplicaOutcome(
            key=data["key"],
            status=data["status"],
            faults=data.get("faults"),
            makespan=data.get("makespan"),
            result=data.get("result"),
            error=data.get("error"),
            attempts=data.get("attempts", 1),
            endpoint=data.get("endpoint"),
            hedged=bool(data.get("hedged", False)),
        )


def _done_outcome(
    job: ReplicaJob,
    result: dict,
    *,
    attempts: int,
    endpoint: str,
    hedged: bool = False,
) -> ReplicaOutcome:
    return ReplicaOutcome(
        job.key,
        "DONE",
        faults=result.get("faults"),
        makespan=result.get("makespan"),
        result=result,
        attempts=attempts,
        endpoint=endpoint,
        hedged=hedged,
    )


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _replica_result(kind: str, params: dict) -> dict:
    """Run one job in-process via the shared service runner — the same
    code path a remote endpoint would execute, hence identical numbers."""
    from repro.service.executor import run_job

    try:
        return run_job({"kind": kind, "params": params})["result"]
    except SystemExit as exc:
        # The CLI-shared workload/strategy builders reject bad specs with
        # SystemExit; as a replica that is a plain bad-work failure, not
        # a reason to tear down the executor.
        raise ValueError(f"invalid replica task: {exc}") from None


def _process_replica(payload_json: str, attempt: int) -> dict:
    """Picklable supervised-pool entry point for LocalProcessExecutor.

    Chaos hooks mirror the service pool's (:func:`execute_payload`):
    hard crashes keyed on the replica payload, deterministic per seed."""
    from repro.runtime import chaos

    payload = json.loads(payload_json)
    key = ("replica-job", payload_json)
    chaos.maybe_slow(key, attempt)
    chaos.maybe_crash(key, attempt, hard=True)
    return _replica_result(payload["kind"], payload["params"])


# ---------------------------------------------------------------------------
# local executors
# ---------------------------------------------------------------------------


class LocalThreadExecutor:
    """Replicas on an in-process thread pool, with bounded retries."""

    kind = "threads"

    def __init__(self, *, max_workers: int = 4, retries: int = 0):
        self.max_workers = max_workers
        self.retries = retries

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "max_workers": self.max_workers,
            "retries": self.retries,
        }

    def run(self, jobs, *, on_outcome=None) -> list[ReplicaOutcome]:
        jobs = list(jobs)
        outcomes: dict = {}
        if not jobs:
            return []
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = {pool.submit(self._one, job): job for job in jobs}
            for future in as_completed(futures):
                outcome = future.result()
                outcomes[outcome.key] = outcome
                if on_outcome is not None:
                    on_outcome(outcome)
        return [outcomes[job.key] for job in jobs]

    def _one(self, job: ReplicaJob) -> ReplicaOutcome:
        error = "never attempted"
        for attempt in range(self.retries + 1):
            try:
                result = _replica_result(job.kind, job.params)
            except Exception as exc:
                error = _describe_error(exc)
                continue
            return _done_outcome(
                job, result, attempts=attempt + 1, endpoint="local"
            )
        return ReplicaOutcome(
            job.key,
            "ERROR",
            error=error,
            attempts=self.retries + 1,
            endpoint="local",
        )

    def close(self) -> None:
        pass


class LocalProcessExecutor:
    """Replicas on a supervised process pool (timeouts, retries, pool
    rebuild on worker crash) — the fleet-shaped face of the machinery
    ``batch_run`` has always used."""

    kind = "processes"

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        retries: int = 0,
        timeout_s: float | None = None,
        backoff_s: float = 0.1,
    ):
        self.max_workers = max_workers
        self.retries = retries
        self.timeout_s = timeout_s
        self.backoff_s = backoff_s

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "max_workers": self.max_workers,
            "retries": self.retries,
            "timeout_s": self.timeout_s,
        }

    def run(self, jobs, *, on_outcome=None) -> list[ReplicaOutcome]:
        import os

        from repro.runtime.supervisor import supervised_map

        jobs = list(jobs)
        if not jobs:
            return []
        by_payload = {
            json.dumps(
                {"kind": job.kind, "params": job.params}, sort_keys=True
            ): job
            for job in jobs
        }
        outcomes: dict = {}

        def record(item, value, attempt):
            job = by_payload[item]
            outcome = _done_outcome(
                job, value, attempts=attempt + 1, endpoint="local"
            )
            outcomes[job.key] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        workers = self.max_workers or min(len(jobs), os.cpu_count() or 1)
        _results, failures = supervised_map(
            _process_replica,
            list(by_payload),
            max_workers=workers,
            timeout_s=self.timeout_s,
            retries=self.retries,
            backoff_s=self.backoff_s,
            on_result=record,
            on_failure="record",
        )
        for failure in failures:
            job = by_payload[failure.item]
            outcome = ReplicaOutcome(
                job.key,
                "ERROR",
                error=failure.error,
                attempts=failure.attempts,
                endpoint="local",
            )
            outcomes[job.key] = outcome
            if on_outcome is not None:
                on_outcome(outcome)
        return [outcomes[job.key] for job in jobs]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# fleet executor
# ---------------------------------------------------------------------------


#: Client wall seconds of work one remote dispatch aims to carry.  A
#: dispatch pays about 11 ms of fixed cost (two HTTP round trips,
#: admission, journals, queue hand-off, pool IPC) however many seeds it
#: carries; at this size that stays near 10% of a batch, and a healthy
#: batch stays far below the default ``hedge_after_s``.
BATCH_TARGET_S = 0.1


def _batch_size(per_replica_s: float | None, pending: int, slots: int) -> int:
    """Replicas the next dispatch takes: ``floor(BATCH_TARGET_S / s)``
    at ``s`` wall seconds per replica of the batch that last landed DONE
    from a job that ran, clamped to ``[1, ceil(pending / slots)]`` so
    every dispatch slot keeps a share; 1 while there is no estimate."""
    if per_replica_s is None:
        return 1
    share = -(-pending // slots)
    if per_replica_s <= 0:
        return max(1, share)
    return max(1, min(math.floor(BATCH_TARGET_S / per_replica_s), share))


def _pop_batch(queue: deque, size: int) -> list[ReplicaJob]:
    """The head job plus up to ``size - 1`` consecutive ``replica`` jobs
    whose params differ from it only in a distinct ``seed``."""
    first = queue.popleft()
    batch = [first]
    if first.kind != "replica" or "seed" not in first.params:
        return batch
    base = _without_seed(first.params)
    seeds = {str(first.params["seed"])}
    while len(batch) < size and queue:
        job = queue[0]
        if (
            job.kind != "replica"
            or "seed" not in job.params
            or str(job.params["seed"]) in seeds
            or _without_seed(job.params) != base
        ):
            break
        batch.append(queue.popleft())
        seeds.add(str(job.params["seed"]))
    return batch


def _without_seed(params: dict) -> dict:
    return {k: v for k, v in params.items() if k != "seed"}


def _dispatch_spec(batch: list[ReplicaJob]) -> tuple[str, dict]:
    """The job one batch is submitted as: a batch of one as itself,
    several seeds as one ``sweep`` job."""
    if len(batch) == 1:
        return batch[0].kind, batch[0].params
    params = _without_seed(batch[0].params)
    params["seeds"] = [job.params["seed"] for job in batch]
    return "sweep", params


def _fan_out(batch: list[ReplicaJob], result: dict) -> list[tuple]:
    """``(faults, makespan, result)`` per job of a batch; a seed of a
    multi-seed batch keeps just its pair."""
    if len(batch) == 1:
        return [(result.get("faults"), result.get("makespan"), result)]
    return [
        (
            result["faults"][str(job.params["seed"])],
            result["makespans"][str(job.params["seed"])],
            _PAIR,
        )
        for job in batch
    ]


class _Endpoint:
    """Dispatcher-side state for one ``repro serve`` instance."""

    def __init__(
        self,
        url: str,
        *,
        request_timeout_s: float,
        poll_s: float,
        breaker_threshold: int,
        breaker_reset_s: float,
    ):
        self.url = url.rstrip("/")
        self.client = ServiceClient(
            self.url, timeout_s=request_timeout_s, wait_s=poll_s
        )
        self.breaker = CircuitBreaker(
            f"fleet:{self.url}",
            failure_threshold=breaker_threshold,
            reset_timeout_s=breaker_reset_s,
        )
        self.inflight = 0
        self.lock = threading.Lock()

    def snapshot(self) -> dict:
        return {
            "url": self.url,
            "state": self.breaker.state,
            "inflight": self.inflight,
        }


class FleetExecutor:
    """Scatter replicas over N service endpoints; survive the endpoints.

    The unit of dispatch is a **batch**: each dispatch slot's first
    dispatch in a :meth:`run` carries one replica; later ones pop up to
    :func:`_batch_size` consecutive ``replica`` jobs that differ only in
    ``seed``.  A batch of one goes out as its own job, a larger one as a
    ``sweep`` job whose terminal record is fanned out into one outcome
    per seed.  Dispatch policy per batch (see docs/FLEET.md for the
    matrix):

    1. pick the healthiest endpoint — breaker permits, fewest in-flight
       dispatches, per-endpoint in-flight cap (which keeps the server's
       admission queue shallow, so Retry-After hints stay honest);
    2. submit the batch's job and long-poll its status, each request
       held by the server for up to ``poll_s`` (a submission answered
       from the endpoint's dedup index is already terminal and needs no
       poll); after ``hedge_after_s`` of no terminal state, **hedge**:
       submit the same job to a second healthy endpoint and let the
       first terminal result win (safe: results are deterministic, and
       per-endpoint fingerprint dedup collapses re-submissions to the
       same endpoint);
    3. transport failures mark the endpoint (breaker) and the batch
       fails over elsewhere, charged to an infrastructure budget;
       service-reported ``FAILED`` charges the work ``retries`` budget;
       backpressure charges nothing and sleeps the Retry-After hint
       (deterministically jittered, capped at ``max_backoff_s`` and at
       what remains of the batch's deadline);
    4. a background probe thread GETs ``/healthz`` on endpoints whose
       breaker is not CLOSED, so a recovered endpoint rejoins the fleet
       without any replica having to gamble on it first;
    5. a batch that exhausts a budget or ``replica_deadline_s`` lands
       each of its replicas as the same typed ``ERROR`` outcome — the
       sweep always terminates, on whatever endpoints survive.
    """

    kind = "fleet"

    def __init__(
        self,
        endpoints,
        *,
        retries: int = 2,
        infra_retries: int | None = None,
        poll_s: float = 0.05,
        hedge_after_s: float | None = 5.0,
        replica_deadline_s: float = 120.0,
        max_backoff_s: float = 2.0,
        max_inflight_per_endpoint: int = 8,
        probe_interval_s: float = 0.5,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 1.0,
        request_timeout_s: float = 10.0,
        backoff_seed: int = 0,
    ):
        urls = [str(u) for u in endpoints]
        if not urls:
            raise ValueError("FleetExecutor needs at least one endpoint")
        if not 0 <= poll_s < request_timeout_s:
            raise ValueError(
                f"poll_s must be >= 0 and below request_timeout_s="
                f"{request_timeout_s} (the server holds each status request "
                f"for up to poll_s), got {poll_s}"
            )
        self.endpoints = [
            _Endpoint(
                url,
                request_timeout_s=request_timeout_s,
                poll_s=poll_s,
                breaker_threshold=breaker_threshold,
                breaker_reset_s=breaker_reset_s,
            )
            for url in urls
        ]
        self.retries = retries
        # Failover budget: enough to visit every endpoint a couple of
        # times even when several are flapping.
        self.infra_retries = (
            infra_retries
            if infra_retries is not None
            else 2 * len(urls) + 2
        )
        self.poll_s = poll_s
        self.hedge_after_s = hedge_after_s
        self.replica_deadline_s = replica_deadline_s
        self.max_backoff_s = max_backoff_s
        self.max_inflight = max_inflight_per_endpoint
        self.probe_interval_s = probe_interval_s
        self.backoff_seed = backoff_seed
        self._stop = threading.Event()
        self._probe_thread: threading.Thread | None = None

    # -- topology ----------------------------------------------------------

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "endpoints": [ep.url for ep in self.endpoints],
            "retries": self.retries,
            "infra_retries": self.infra_retries,
            "hedge_after_s": self.hedge_after_s,
            "max_inflight_per_endpoint": self.max_inflight,
        }

    def snapshot(self) -> list[dict]:
        """Per-endpoint health view (breaker state, in-flight count)."""
        return [ep.snapshot() for ep in self.endpoints]

    # -- health probes -----------------------------------------------------

    def _probe_once(self) -> None:
        for ep in self.endpoints:
            if ep.breaker.state == "CLOSED":
                continue
            if not ep.breaker.allow():
                continue
            try:
                ep.client.health()
            except Exception:
                ep.breaker.record_failure()
            else:
                ep.breaker.record_success()

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            self._probe_once()

    def _ensure_probe_thread(self) -> None:
        if self._probe_thread is None or not self._probe_thread.is_alive():
            self._stop.clear()
            self._probe_thread = threading.Thread(
                target=self._probe_loop, name="fleet-probe", daemon=True
            )
            self._probe_thread.start()

    def close(self) -> None:
        self._stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=2.0)
            self._probe_thread = None

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------

    def _pick_endpoint(self, exclude=()) -> _Endpoint | None:
        """Healthiest endpoint: breaker permits, under the in-flight cap,
        fewest in-flight replicas.  ``None`` when nothing qualifies."""
        best = None
        for ep in self.endpoints:
            if ep in exclude or ep.inflight >= self.max_inflight:
                continue
            if not ep.breaker.allow():
                continue
            if best is None or ep.inflight < best.inflight:
                best = ep
        return best

    def _jitter_sleep(
        self, hint_s: float, key, round_index: int, deadline: float
    ) -> None:
        """Backpressure sleep: the server's hint, capped, stretched by a
        deterministic per-(replica, round) factor in [1, 1.25], and never
        past the batch's ``deadline``."""
        digest = hashlib.sha256(
            f"{self.backoff_seed}|{key!r}|{round_index}".encode("utf-8")
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / 2**64
        sleep_s = min(hint_s, self.max_backoff_s) * (1.0 + 0.25 * frac)
        time.sleep(max(0.0, min(sleep_s, deadline - time.monotonic())))

    def run(self, jobs, *, on_outcome=None) -> list[ReplicaOutcome]:
        jobs = list(jobs)
        if not jobs:
            return []
        self._ensure_probe_thread()
        queue: deque = deque(jobs)
        queue_lock = threading.Lock()
        outcome_lock = threading.Lock()
        outcomes: dict = {}
        slots = self.max_inflight * len(self.endpoints)
        # Of the batch that last landed DONE from a run: a dedup hit or
        # an ERROR says nothing about what a replica costs.
        per_replica_s = None

        def worker() -> None:
            nonlocal per_replica_s
            first = True
            while True:
                with queue_lock:
                    if not queue:
                        return
                    size = (
                        1
                        if first
                        else _batch_size(per_replica_s, len(queue), slots)
                    )
                    batch = _pop_batch(queue, size)
                first = False
                started = time.monotonic()
                try:
                    landed, ran = self._run_batch(batch)
                except Exception as exc:  # defence: never lose a replica
                    error = f"dispatcher error: {_describe_error(exc)}"
                    landed = [
                        ReplicaOutcome(job.key, "ERROR", error=error)
                        for job in batch
                    ]
                    ran = False
                elapsed = time.monotonic() - started
                with outcome_lock:
                    if ran:
                        per_replica_s = elapsed / len(batch)
                    for outcome in landed:
                        outcomes[outcome.key] = outcome
                        if on_outcome is not None:
                            on_outcome(outcome)

        n_threads = min(len(jobs), slots)
        threads = [
            threading.Thread(
                target=worker, name=f"fleet-dispatch-{i}", daemon=True
            )
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [outcomes[job.key] for job in jobs]

    # -- one batch's life --------------------------------------------------

    def _run_batch(
        self, batch: list[ReplicaJob]
    ) -> tuple[list[ReplicaOutcome], bool]:
        """The batch's outcomes, and whether it landed DONE from a job
        that ran (not from an endpoint's dedup index)."""
        kind, params = _dispatch_spec(batch)
        key = batch[0].key
        deadline = time.monotonic() + self.replica_deadline_s
        work_failures = 0
        infra_failures = 0
        backoff_round = 0
        hedged_ever = False
        last_error = "never attempted"

        def failed(error: str, attempts: int, endpoint=None):
            return [
                ReplicaOutcome(
                    job.key,
                    "ERROR",
                    error=error,
                    attempts=attempts,
                    endpoint=endpoint,
                    hedged=hedged_ever,
                )
                for job in batch
            ]

        while True:
            if time.monotonic() >= deadline:
                return failed(
                    f"replica deadline {self.replica_deadline_s}s "
                    f"exceeded (last: {last_error})",
                    work_failures + infra_failures,
                ), False
            endpoint = self._pick_endpoint()
            if endpoint is None:
                # Every endpoint is open/capped: wait for the probe loop
                # (or a breaker cooldown) to revive one.
                last_error = "no healthy endpoint"
                time.sleep(min(self.probe_interval_s, 0.2))
                continue
            try:
                record, winner, hedged, ran = self._attempt(
                    kind, params, endpoint, deadline
                )
            except Backpressure as busy:
                last_error = str(busy)
                backoff_round += 1
                self._jitter_sleep(
                    busy.retry_after_s, key, backoff_round, deadline
                )
                continue
            except EndpointDown as exc:
                # Transport verdict (includes CorruptResponse): suspect
                # the endpoint, fail over.
                last_error = _describe_error(exc)
                infra_failures += 1
                if infra_failures > self.infra_retries:
                    return failed(
                        f"infrastructure retries exhausted "
                        f"({self.infra_retries}): {last_error}",
                        infra_failures,
                    ), False
                continue
            hedged_ever = hedged_ever or hedged
            if record["state"] == "FAILED":
                # The endpoint is fine; the work failed.
                winner.breaker.record_success()
                last_error = record.get("error") or "job FAILED"
                work_failures += 1
                if work_failures > self.retries:
                    return failed(last_error, work_failures, winner.url), False
                continue
            winner.breaker.record_success()
            results = _fan_out(batch, record.get("result") or {})
            return [
                ReplicaOutcome(
                    job.key,
                    "DONE",
                    faults=faults,
                    makespan=makespan,
                    result=result,
                    attempts=work_failures + 1,
                    endpoint=winner.url,
                    hedged=hedged_ever,
                )
                for job, (faults, makespan, result) in zip(batch, results)
            ], ran

    def _attempt(
        self, kind: str, params: dict, endpoint: _Endpoint, deadline: float
    ):
        """One submission (possibly hedged): returns ``(terminal record,
        winning endpoint, hedged?, ran?)`` — ``ran`` is False for a
        record served from the endpoint's dedup index or made up from
        an HTTP rejection — or raises Backpressure/EndpointDown.

        Raises :class:`EndpointDown` only when *every* candidate has
        failed at the transport level — as long as one candidate is
        reachable the attempt keeps polling it.
        """
        with endpoint.lock:
            endpoint.inflight += 1
        charged = [endpoint]  # every endpoint whose inflight we bumped
        candidates: list[tuple[_Endpoint, str]] = []

        def remaining_deadline_s() -> float:
            """What is left of this batch's overall deadline *now* —
            forwarded on every submission (original and hedge), so a
            resubmitted or hedged attempt can only ever get less time
            than its originator, and the server can expire a batch
            that would outlive the fleet's patience."""
            return max(0.05, deadline - time.monotonic())

        try:
            try:
                submitted = endpoint.client.submit(
                    kind, params, deadline_s=remaining_deadline_s()
                )
            except Backpressure:
                raise
            except EndpointDown:
                endpoint.breaker.record_failure()
                raise
            except ServiceError as exc:
                # An HTTP-level rejection (e.g. 400 validation): the
                # endpoint is healthy, the *work* is bad — report it as
                # a FAILED record so the outer loop charges the work
                # budget, not the breaker.
                endpoint.breaker.record_success()
                return (
                    {"state": "FAILED", "error": str(exc)},
                    endpoint,
                    False,
                    False,
                )
            endpoint.breaker.record_success()
            if submitted["state"] in TERMINAL_STATES:
                return submitted, endpoint, False, False  # from dedup
            candidates.append((endpoint, submitted["id"]))
            started = time.monotonic()
            hedged = False
            while True:
                round_started = time.monotonic()
                if round_started >= deadline:
                    # Let the outer loop convert this into the deadline
                    # ERROR outcome.
                    raise EndpointDown(
                        f"{endpoint.url}: replica deadline expired mid-poll"
                    )
                for candidate in list(candidates):
                    cand_ep, job_id = candidate
                    try:
                        record = cand_ep.client.status(job_id)
                    except (Backpressure, EndpointDown, ServiceError) as exc:
                        if isinstance(exc, EndpointDown):
                            cand_ep.breaker.record_failure()
                        candidates.remove(candidate)
                        if not candidates:
                            if isinstance(exc, EndpointDown):
                                raise
                            raise EndpointDown(
                                f"{cand_ep.url}: poll failed: {exc}"
                            ) from None
                        continue
                    if record["state"] in TERMINAL_STATES:
                        return record, cand_ep, hedged, True
                if (
                    not hedged
                    and self.hedge_after_s is not None
                    and time.monotonic() - started >= self.hedge_after_s
                    and len(candidates) == 1
                ):
                    hedge_ep = self._pick_endpoint(
                        exclude={candidates[0][0]}
                    )
                    if hedge_ep is not None:
                        try:
                            dup = hedge_ep.client.submit(
                                kind,
                                params,
                                deadline_s=remaining_deadline_s(),
                            )
                        except (Backpressure, EndpointDown, ServiceError):
                            pass  # hedging is best-effort
                        else:
                            hedge_ep.breaker.record_success()
                            with hedge_ep.lock:
                                hedge_ep.inflight += 1
                            charged.append(hedge_ep)
                            candidates.append((hedge_ep, dup["id"]))
                            hedged = True
                # Each status request waits up to poll_s on the server; one
                # that answers early (a closing store) must not make this
                # loop spin.
                idle_s = self.poll_s - (time.monotonic() - round_started)
                if idle_s > 0:
                    time.sleep(idle_s)
        finally:
            for charged_ep in charged:
                with charged_ep.lock:
                    charged_ep.inflight -= 1


class ServiceExecutor(FleetExecutor):
    """One service endpoint behind the fleet dispatch loop (same retry /
    backpressure / typed-error semantics, no failover target)."""

    kind = "service"

    def __init__(self, endpoint: str, **kwargs):
        kwargs.setdefault("hedge_after_s", None)  # nowhere to hedge to
        super().__init__([endpoint], **kwargs)

    def describe(self) -> dict:
        body = super().describe()
        body["kind"] = self.kind
        return body


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_EXECUTOR_KINDS = ("processes", "threads", "service", "fleet")


def executor_from_config(config: dict | None = None):
    """Build an executor from a config mapping (a spec's ``executor``
    section, or ``repro sweep`` CLI flags).

    ``kind`` selects the backend (default ``processes``); the remaining
    keys are that backend's constructor arguments — ``max_workers`` /
    ``retries`` / ``timeout_s`` for local kinds, ``endpoints`` (fleet) or
    ``endpoint`` (service) plus the fault-tolerance knobs for remote
    kinds.
    """
    config = dict(config or {})
    kind = config.pop("kind", "processes")
    if kind in ("local", "process"):
        kind = "processes"
    if kind not in _EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor kind {kind!r}; choose from "
            f"{', '.join(_EXECUTOR_KINDS)}"
        )
    if kind == "processes":
        return LocalProcessExecutor(**config)
    if kind == "threads":
        return LocalThreadExecutor(**config)
    if kind == "service":
        endpoint = config.pop("endpoint", None) or next(
            iter(config.pop("endpoints", []) or []), None
        )
        if not endpoint:
            raise ValueError("service executor needs an 'endpoint' URL")
        config.pop("endpoints", None)
        return ServiceExecutor(endpoint, **config)
    endpoints = config.pop("endpoints", None)
    if not endpoints:
        raise ValueError("fleet executor needs a non-empty 'endpoints' list")
    return FleetExecutor(endpoints, **config)
