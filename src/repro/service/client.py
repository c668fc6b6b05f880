"""Client library for the repro job service (stdlib ``urllib`` only).

:class:`ServiceClient` speaks the JSON/HTTP API of
:mod:`repro.service.server` and converts its backpressure vocabulary
into typed exceptions, so callers can implement honest retry loops::

    client = ServiceClient("http://127.0.0.1:8023")
    try:
        job = client.submit("experiment", {"id": "E7"})
    except Backpressure as busy:          # 429 or 503, with Retry-After
        time.sleep(busy.retry_after_s)
        ...
    result = client.wait(job["id"], timeout_s=60.0)

:meth:`ServiceClient.wait` long-polls (``GET /jobs/<id>?wait_s=S``): the
server holds each reply until the job is terminal or ``S`` seconds pass,
so the record comes back as soon as the job finishes.
:meth:`ServiceClient.submit_and_wait` packages exactly that loop —
bounded retries honouring the server's ``Retry-After`` hints — for
clients that just want the answer.

Failure typing is the fleet contract (docs/FLEET.md): *transport*
failures (connection refused, reset mid-read, undecodable body) raise
:class:`EndpointDown` / :class:`CorruptResponse` — the endpoint is
suspect, fail over — while *job* failures arrive as ordinary terminal
records — the endpoint is healthy, the work failed.  An overall
``overall_deadline_s`` on :meth:`submit_and_wait` bounds the whole
retry loop against a permanently-saturated server; exhaustion raises
:class:`FleetTimeout` carrying the attempt history, so the caller can
see *why* the deadline went (all backpressure? one slow job?).

Under ``REPRO_CHAOS`` (:mod:`repro.runtime.chaos`) every request passes
through three deterministic fault points — latency injection (``slow``),
endpoint kill (``drop``), response corruption (``corrupt``) — which is
how the fleet executor's failover machinery is tested without real
network failures.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request

from repro.runtime import chaos
from repro.service.jobs import TERMINAL_STATES

#: Header carrying the absolute deadline (mirrors
#: repro.service.server.DEADLINE_HEADER; duplicated to keep the client
#: importable without the server module).
DEADLINE_HEADER = "X-Repro-Deadline-At"

__all__ = [
    "Backpressure",
    "CorruptResponse",
    "EndpointDown",
    "FleetTimeout",
    "JobTimeout",
    "ServiceClient",
    "ServiceError",
]


class ServiceError(RuntimeError):
    """The server answered with an error status (4xx/5xx)."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


class Backpressure(ServiceError):
    """Submission rejected by admission control (full queue, open
    breaker, or draining server); retry after ``retry_after_s``."""

    def __init__(self, status: int, message: str, retry_after_s: float):
        super().__init__(status, message)
        self.retry_after_s = retry_after_s


class EndpointDown(ServiceError):
    """The endpoint could not be reached or died mid-exchange.

    This is a *transport*-level verdict (connection refused, reset,
    timeout), distinct from a job failing on a healthy endpoint — the
    fleet treats it as "this endpoint is suspect: probe it, fail over".
    ``status`` is 0: no HTTP status was ever received.
    """

    def __init__(self, message: str):
        super().__init__(0, message)


class CorruptResponse(EndpointDown):
    """The endpoint answered, but the body was not decodable JSON —
    treated like a transport failure (retry elsewhere), not a result."""


class JobTimeout(TimeoutError):
    """A client-side wait deadline expired before the job finished."""


class FleetTimeout(TimeoutError):
    """The overall ``overall_deadline_s`` cap on a submit-and-wait loop
    expired.  ``attempts`` is the structured history of everything the
    client tried before giving up (submissions, backpressure waits,
    polls), for post-mortems of saturated or flapping endpoints."""

    def __init__(self, message: str, attempts: list[dict]):
        super().__init__(message)
        self.attempts = list(attempts)


class ServiceClient:
    """Minimal blocking client for one service instance.

    ``wait_s`` makes :meth:`status` a long-poll: the server holds each
    reply until the job is terminal or ``wait_s`` seconds pass.  ``None``
    (the default) answers at once.  It must be below ``timeout_s``, which
    bounds every request including the server's wait.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = 10.0,
        wait_s: float | None = None,
    ):
        if wait_s is not None and not 0 <= wait_s < timeout_s:
            raise ValueError(
                f"wait_s must be >= 0 and below timeout_s={timeout_s}, "
                f"got {wait_s}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.wait_s = wait_s

    # -- transport ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
    ) -> dict:
        data = None
        headers = {"Accept": "application/json", **(headers or {})}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        chaos_on = chaos.chaos_active()
        scope = ("http", f"{self.base_url}{path}")
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            if chaos_on:
                # Inside the transport try-block on purpose: an injected
                # drop is a ConnectionError and must surface as the same
                # EndpointDown a real refused connection would.
                chaos.maybe_slow(scope)
                chaos.maybe_drop(scope)
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                text = resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                payload = json.loads(raw)
            except ValueError:
                payload = {"error": raw or exc.reason}
            message = payload.get("error", exc.reason)
            if exc.code in (429, 503):
                retry_after = payload.get("retry_after_s")
                if retry_after is None:
                    retry_after = float(exc.headers.get("Retry-After", 1) or 1)
                raise Backpressure(exc.code, message, float(retry_after)) from None
            raise ServiceError(exc.code, message) from None
        except (
            urllib.error.URLError,
            ConnectionError,
            OSError,
            http.client.HTTPException,
        ) as exc:
            # Connection refused / reset / timed out / torn down mid-read
            # (IncompleteRead and friends subclass HTTPException, not
            # OSError): no usable HTTP exchange happened, so this is an
            # endpoint verdict, not a job verdict.
            reason = getattr(exc, "reason", None) or exc
            raise EndpointDown(
                f"{self.base_url}{path}: {type(exc).__name__}: {reason}"
            ) from None
        if chaos_on:
            text = chaos.maybe_corrupt(("http-response", scope[1]), text)
        try:
            return json.loads(text)
        except ValueError as exc:
            raise CorruptResponse(
                f"{self.base_url}{path}: undecodable response body ({exc})"
            ) from None

    # -- API ---------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def readiness(self) -> dict:
        """The ``/readyz`` payload; raises :class:`Backpressure` when the
        server reports not-ready (503)."""
        return self._request("GET", "/readyz")

    def submit(
        self,
        kind: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        deadline_at: float | None = None,
        tenant: str | None = None,
        priority: str | None = None,
    ) -> dict:
        """Submit one job; returns the created job record (id, state...).

        A relative ``deadline_s`` is also sent as an **absolute**
        ``deadline_at`` (``now + deadline_s``, wall clock) in the
        ``X-Repro-Deadline-At`` header — that is what makes the budget
        end-to-end: the server decrements it by queue wait, the worker
        by execution start, and a forwarded/hedged resubmission can only
        ever tighten it.  An explicit ``deadline_at`` wins (taking the
        minimum when both are derivable); clock skew between client and
        server shifts the absolute deadline by the skew, so keep NTP
        sane for cross-machine budgets.
        """
        if deadline_s is not None:
            derived = time.time() + deadline_s
            deadline_at = derived if deadline_at is None else min(deadline_at, derived)
        headers = {}
        if deadline_at is not None:
            headers[DEADLINE_HEADER] = repr(deadline_at)
        return self._request(
            "POST",
            "/jobs",
            {
                "kind": kind,
                "params": params or {},
                "deadline_s": deadline_s,
                "deadline_at": deadline_at,
                "tenant": tenant,
                "priority": priority,
            },
            headers=headers,
        )

    def _job(self, job_id: str, wait_s: float | None) -> dict:
        """GET one job record, held by the server for up to ``wait_s``
        seconds until the job is terminal (no wait when falsy)."""
        query = f"?wait_s={wait_s:g}" if wait_s else ""
        return self._request("GET", f"/jobs/{job_id}{query}")

    def status(self, job_id: str) -> dict:
        """The job's record, long-polled for the client's ``wait_s``."""
        return self._job(job_id, self.wait_s)

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def wait(
        self, job_id: str, *, timeout_s: float = 60.0, poll_s: float = 0.2
    ) -> dict:
        """Long-poll until ``job_id`` is terminal; raises :class:`JobTimeout`.

        Each request waits on the server for up to ``poll_s`` seconds,
        never past ``timeout_s``, so the record returns as soon as the job
        finishes.  ``poll_s`` must be below the client's ``timeout_s``.
        """
        if not 0 < poll_s < self.timeout_s:
            raise ValueError(
                f"poll_s must be > 0 and below timeout_s={self.timeout_s}, "
                f"got {poll_s}"
            )
        deadline = time.monotonic() + timeout_s
        while True:
            started = time.monotonic()
            window_s = min(poll_s, max(0.0, deadline - started))
            record = self._job(job_id, window_s)
            if record["state"] in TERMINAL_STATES:
                return record
            now = time.monotonic()
            if now >= deadline:
                raise JobTimeout(
                    f"job {job_id} still {record['state']} after {timeout_s}s"
                )
            # A server that answers before the window ends (one shutting
            # down) must not turn this loop into a busy spin.
            time.sleep(max(0.0, min(started + poll_s, deadline) - now))

    def submit_and_wait(
        self,
        kind: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        timeout_s: float = 60.0,
        submit_retries: int = 5,
        overall_deadline_s: float | None = None,
        tenant: str | None = None,
        priority: str | None = None,
        retry_jitter: float = 0.1,
    ) -> dict:
        """Submit with a backpressure-honouring retry loop, then wait.

        On 429/503 the client sleeps for the server's ``Retry-After``
        hint — capped at 10s per round **and at the remaining overall
        deadline** (a saturated server's generous hint can tell this
        client to back off, but never to sleep past its own budget) —
        up to ``submit_retries`` times: the well-behaved-client loop
        docs/SERVICE.md prescribes.  Each backoff sleep is stretched by
        a random factor in ``[1, 1 + retry_jitter]`` so a fleet of
        clients rejected in the same burst does not thundering-herd back
        on the same instant.

        ``overall_deadline_s`` caps the **whole** loop — submission
        retries *and* the wait — so a permanently-saturated server whose
        every reply says "come back later" cannot spin this client
        forever.  On expiry the loop raises :class:`FleetTimeout`
        carrying the attempt history instead of silently looping; the
        per-round ``submit_retries`` bound still applies independently.
        The cap also propagates to the server as an absolute
        ``deadline_at``, so a job this client will have abandoned is
        never given more server-side budget than the client's patience.
        """
        if not 0.0 <= retry_jitter <= 1.0:
            raise ValueError(
                f"retry_jitter must be in [0, 1], got {retry_jitter}"
            )
        start = time.monotonic()
        overall_deadline_at = (
            None
            if overall_deadline_s is None
            else time.time() + overall_deadline_s
        )
        history: list[dict] = []

        def remaining() -> float | None:
            if overall_deadline_s is None:
                return None
            return overall_deadline_s - (time.monotonic() - start)

        def overall_expired(event: str) -> FleetTimeout:
            history.append({"event": event})
            return FleetTimeout(
                f"{kind} submit_and_wait exceeded its overall deadline of "
                f"{overall_deadline_s}s after {len(history)} step(s)",
                history,
            )

        for attempt in range(submit_retries + 1):
            left = remaining()
            if left is not None and left <= 0:
                raise overall_expired("deadline_before_submit")
            try:
                job = self.submit(
                    kind,
                    params,
                    deadline_s=deadline_s,
                    deadline_at=overall_deadline_at,
                    tenant=tenant,
                    priority=priority,
                )
                history.append({"event": "submitted", "job_id": job["id"]})
                break
            except Backpressure as busy:
                history.append(
                    {
                        "event": "backpressure",
                        "status": busy.status,
                        "retry_after_s": busy.retry_after_s,
                    }
                )
                if attempt == submit_retries:
                    raise
                sleep_s = min(busy.retry_after_s, 10.0)
                if retry_jitter > 0:
                    sleep_s *= 1.0 + retry_jitter * random.random()
                left = remaining()
                if left is not None:
                    if left <= 0.005:
                        # Nothing meaningful remains: fail now, with the
                        # history explaining why.
                        raise overall_expired("deadline_during_backoff") from None
                    # Cap the server's hint at the remaining budget — a
                    # large Retry-After may postpone this client, but
                    # never push it past its own deadline.
                    sleep_s = min(sleep_s, left)
                time.sleep(sleep_s)
        wait_s = timeout_s
        left = remaining()
        if left is not None:
            wait_s = min(wait_s, max(0.0, left))
        try:
            return self.wait(job["id"], timeout_s=wait_s)
        except JobTimeout:
            if left is not None and wait_s < timeout_s:
                # The *overall* cap (not the caller's wait budget) is
                # what actually expired.
                raise overall_expired("deadline_during_wait") from None
            raise
