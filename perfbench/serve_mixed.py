"""``serve_mixed``: an open loop of mixed jobs against one ``repro serve``.

One sender thread submits a seeded schedule at a fixed offered rate (evenly
spaced due times); one poller thread polls every outstanding job until it is
terminal.  Each job is timed from its *due* time, so a stalled sender or
server charges every job behind it.  The mix:

* ``replica`` (mostly) with heavy-tailed lengths 200 / 1000 / 5000;
* ``simulate`` through the reference ``Simulator``;
* ``opt`` with a deadline: small instances finish, a fifth are sized so the
  DP under ``Budget`` usually ends ``DEGRADED`` with a ``[lower, upper]``;
* about 15% resubmissions of earlier short replicas (dedup hits);
* every job in one of three priority classes and one of two tenants.

A 25 s run sends 875 jobs, so its p99 has 8 samples beyond it, not the 10
a p99 should have: 1000 jobs at half the server's capacity would take 29 s.
On a 2-core host the 1-in-20 replicas of length 5000 make up the top
percent; a job-store snapshot, which stalls admission for its duration,
joins them as the table grows.
"""

from __future__ import annotations

import json
import random
import threading
import time

from common import CheckFailed, check, percentile

#: Offered rate, jobs/s: about half of what one server keeps up with on
#: a 2-core host when the host runs slow (the single sender falls behind
#: between 70/s and 95/s, depending on the host's speed at the time).
RATE = 35.0
#: Seconds between two polls of one outstanding job.
POLL_S = 0.01
#: Give up on jobs still outstanding this long after the last send.
DRAIN_S = 60.0
#: The run is invalid when the sender's p99 lag exceeds this.
MAX_SEND_LAG_P99_S = 0.25

_REPLICA = {"workload": "zipf", "cores": 4, "alpha": 1.2,
            "cache_size": 32, "tau": 1, "strategy": "S_LRU"}
_LENGTHS = ((200, 0.75), (1000, 0.20), (5000, 0.05))
_SIM_STRATEGIES = ("S_LRU", "dP_ws_LRU", "S_FITF")
_PRIORITIES = (("interactive", 0.2), ("batch", 0.6), ("bulk", 0.2))
_TENANTS = ("tenant-a", "tenant-b")
#: Shares of the schedule; the rest are fresh replicas.
_RESUBMIT, _SIMULATE, _OPT = 0.15, 0.10, 0.05


def _weighted(rng: random.Random, table):
    roll, total = rng.random(), 0.0
    for value, weight in table:
        total += weight
        if roll < total:
            return value
    return table[-1][0]


def _simulate(length: int, strategy: str, seed: int) -> dict:
    return {"workload": "zipf", "cores": 4, "alpha": 1.2, "length": length,
            "cache_size": 16, "tau": 1, "strategy": strategy, "seed": seed}


def _opt(shape: tuple, seed: int) -> dict:
    cores, length, cache = shape
    return {"workload": "uniform", "cores": cores, "length": length,
            "cache_size": cache, "tau": 1, "seed": seed}


#: An ``opt`` shape whose exact DP takes 25-1500 ms: under a 20 ms deadline
#: it usually ends DEGRADED.
_OPT_DEGRADING = (4, 12, 6)


def make_schedule(seed: int, count: int, rate: float) -> list[dict]:
    """``count`` jobs with due times ``i / rate``; a pure function of the
    seed.  Seeds inside job params start at ``seed * 10**6`` so separate
    runs never share work."""
    rng = random.Random(seed)
    next_seed = seed * 1_000_000
    jobs: list[dict] = []
    short_replicas: list[int] = []
    for i in range(count):
        due = i / rate
        roll = rng.random()
        job = {"i": i, "due": due, "deadline_s": None,
               "priority": _weighted(rng, _PRIORITIES),
               "tenant": rng.choice(_TENANTS)}
        # Resubmit only replicas sent at least a second earlier, which
        # have long finished at this rate: each one is a dedup hit.
        old = [j for j in short_replicas if jobs[j]["due"] <= due - 1.0]
        if roll < _RESUBMIT and old:
            source = jobs[rng.choice(old)]
            job.update(kind="replica", params=dict(source["params"]))
        elif roll < _RESUBMIT + _SIMULATE:
            job.update(kind="simulate", params=_simulate(
                rng.choice((100, 200)), rng.choice(_SIM_STRATEGIES),
                next_seed))
        elif roll < _RESUBMIT + _SIMULATE + _OPT:
            if rng.random() < 0.2:
                shape, deadline = _OPT_DEGRADING, 0.02
            else:
                shape = (rng.choice((2, 3)), rng.choice((6, 8, 10)),
                         rng.choice((3, 4)))
                deadline = 5.0
            job.update(kind="opt", deadline_s=deadline,
                       params=_opt(shape, next_seed))
        else:
            length = _weighted(rng, _LENGTHS)
            job.update(kind="replica",
                       params=dict(_REPLICA, length=length, seed=next_seed))
            if length == 200:
                short_replicas.append(i)
        next_seed += 1
        jobs.append(job)
    return jobs


class OpenLoop:
    """Drive one schedule against one endpoint: a sender and a poller."""

    def __init__(self, url: str, schedule: list[dict]):
        from repro.service.client import ServiceClient

        self.url = url
        self.schedule = schedule
        self.sender_client = ServiceClient(url, timeout_s=30.0)
        self.poller_client = ServiceClient(url, timeout_s=30.0)
        self.lag_s: list[float] = []
        #: index -> seconds from due time to terminal (None = failed).
        self.latency_s: dict[int, float | None] = {}
        #: index -> terminal record as the client first saw it.
        self.records: dict[int, dict] = {}
        self.job_ids: dict[int, str] = {}
        self.refused = 0
        self.dedup_hits = 0
        self.errors: list[str] = []
        self._outstanding: dict[str, list] = {}  # id -> [index, next poll]
        self._lock = threading.Lock()
        self._sending = True
        self.t0 = 0.0
        self.t_last = 0.0

    def run(self) -> None:
        self.t0 = time.perf_counter() + 0.05
        sender = threading.Thread(target=self._send, name="bench-sender")
        poller = threading.Thread(target=self._poll, name="bench-poller")
        sender.start()
        poller.start()
        sender.join()
        poller.join()

    def _finish(self, index: int, record: dict | None, now: float) -> None:
        job = self.schedule[index]
        ok = record is not None and record["state"] != "FAILED"
        with self._lock:
            if record is not None:
                self.records[index] = record
            self.latency_s[index] = (now - self.t0 - job["due"]) if ok else None
            self.t_last = max(self.t_last, now)

    def _send(self) -> None:
        from repro.service.client import Backpressure, ServiceError

        try:
            for job in self.schedule:
                due_at = self.t0 + job["due"]
                pause = due_at - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                now = time.perf_counter()
                self.lag_s.append(max(0.0, now - due_at))
                try:
                    record = self.sender_client.submit(
                        job["kind"], job["params"],
                        deadline_s=job["deadline_s"],
                        tenant=job["tenant"], priority=job["priority"],
                    )
                except Backpressure:
                    self.refused += 1
                    self._finish(job["i"], None, time.perf_counter())
                    continue
                except ServiceError as exc:
                    self.errors.append(f"job {job['i']}: {exc}")
                    self._finish(job["i"], None, time.perf_counter())
                    continue
                self.job_ids[job["i"]] = record["id"]
                if record["state"] in ("DONE", "DEGRADED", "FAILED"):
                    # Only a dedup hit is terminal on admission.
                    self.dedup_hits += 1
                    self._finish(job["i"], record, time.perf_counter())
                else:
                    with self._lock:
                        self._outstanding[record["id"]] = [
                            job["i"], time.perf_counter() + POLL_S / 2]
        finally:
            self._sending = False

    def _poll(self) -> None:
        from repro.service.client import ServiceError

        give_up = None
        while True:
            with self._lock:
                pending = list(self._outstanding.items())
            if not pending:
                if not self._sending:
                    return
                time.sleep(0.001)
                continue
            if not self._sending:
                if give_up is None:
                    give_up = time.perf_counter() + DRAIN_S
                elif time.perf_counter() > give_up:
                    for job_id, (index, _) in pending:
                        self.errors.append(f"job {index} ({job_id}) never "
                                           f"finished")
                        self._finish(index, None, time.perf_counter())
                    return
            now = time.perf_counter()
            polled = False
            for job_id, slot in pending:
                if slot[1] > now:
                    continue
                polled = True
                try:
                    record = self.poller_client.status(job_id)
                except ServiceError as exc:
                    self.errors.append(f"poll {job_id}: {exc}")
                    slot[1] = time.perf_counter() + POLL_S
                    continue
                seen = time.perf_counter()
                if record["state"] in ("DONE", "DEGRADED", "FAILED"):
                    with self._lock:
                        del self._outstanding[job_id]
                    self._finish(slot[0], record, seen)
                else:
                    slot[1] = seen + POLL_S
            if not polled:
                time.sleep(0.001)


def _terminal_events(record: dict) -> int:
    return sum(
        1 for event in record.get("events", ())
        if event.get("event") in ("done", "degraded", "failed")
    )


def queue_waits_s(records) -> list[float]:
    """``running`` stamp minus ``submitted_at`` for every job that ran.

    The program rounds event stamps to the millisecond, so a wait is good
    to about half a millisecond and can read slightly negative."""
    waits = []
    for record in records:
        for event in record.get("events", ()):
            if event.get("event") == "running":
                waits.append(event["t"] - record["submitted_at"])
                break
    return waits


def check_results(loop: OpenLoop, server_jobs: list[dict]) -> dict:
    """Every accepted job terminal exactly once; DONE results equal the
    in-process runner; DEGRADED intervals contain the exact optimum
    wherever the DP finishes.  Returns counts for the report."""
    from repro.offline import minimum_total_faults
    from repro.problems import FTFInstance
    from repro.service.executor import _build_workload, run_job

    accepted = set(loop.job_ids.values())
    check(len(accepted) == len(loop.job_ids), "two submissions shared a job id")
    on_server = {job["id"]: job for job in server_jobs}
    check(set(on_server) == accepted,
          f"server holds {len(on_server)} jobs, client had "
          f"{len(accepted)} accepted")
    check(all(job["state"] in ("DONE", "DEGRADED", "FAILED")
              for job in on_server.values()),
          "a job is still non-terminal on the server")
    for index, job_id in loop.job_ids.items():
        check(index in loop.records, f"job {job_id} never seen terminal")
        record = loop.records[index]
        check(record["state"] == on_server[job_id]["state"],
              f"job {job_id} changed state after it was terminal")
        check(_terminal_events(record) == 1,
              f"job {job_id} has {_terminal_events(record)} terminal events")

    reference: dict[str, dict] = {}
    degraded = verified = 0
    for index, record in loop.records.items():
        job = loop.schedule[index]
        key = json.dumps([job["kind"], job["params"]], sort_keys=True)
        if record["state"] == "DONE":
            if key not in reference:
                reference[key] = run_job(
                    {"kind": job["kind"], "params": job["params"]})["result"]
            check(record["result"] == reference[key],
                  f"job {index} ({job['kind']}) result differs from the "
                  f"in-process runner")
        elif record["state"] == "DEGRADED":
            degraded += 1
            check(job["kind"] == "opt", f"non-opt job {index} DEGRADED")
            params = job["params"]
            try:
                exact = minimum_total_faults(
                    FTFInstance(_build_workload(params),
                                params["cache_size"], params["tau"]),
                    max_states=200_000,
                ).faults
            except RuntimeError:
                continue  # the DP does not finish: nothing to compare
            verified += 1
            upper = record["result"]["upper"]
            check(record["result"]["lower"] <= exact
                  and (upper is None or exact <= upper),
                  f"DEGRADED interval of job {index} misses the optimum "
                  f"{exact}")
    return {"degraded": degraded, "degraded_verified": verified}


def warm_up(url: str, seed: int) -> set:
    """Two jobs of every kind and size in the mix, so each server worker
    builds its warm pool and first imports each kind's code before timing
    starts (once-per-server costs; the imports recurring after each pool
    recycle stay in the measurement).  Returns the warm-up job ids."""
    from repro.service.client import ServiceClient

    kinds = [("replica", dict(_REPLICA, length=n), None) for n, _ in _LENGTHS]
    kinds += [("simulate", _simulate(200, s, 0), None) for s in _SIM_STRATEGIES]
    kinds += [("opt", _opt((2, 6, 3), 0), 5.0),
              ("opt", _opt(_OPT_DEGRADING, 0), 0.02)]
    first = seed * 1_000_000 + 900_000
    client = ServiceClient(url, timeout_s=30.0)
    ids = [
        client.submit(kind, dict(params, seed=first + k),
                      deadline_s=deadline)["id"]
        for k, (kind, params, deadline) in enumerate(kinds * 2)
    ]
    for job_id in ids:
        client.wait(job_id, timeout_s=60.0, poll_s=0.01)
    return set(ids)


def run(url: str, seed: int, seconds: float) -> dict:
    """Run the open loop for ``seconds`` of sends at :data:`RATE`; returns
    raw numbers."""
    from repro.service.client import ServiceClient

    warm_ids = warm_up(url, seed)
    schedule = make_schedule(seed, max(1, int(seconds * RATE)), RATE)
    loop = OpenLoop(url, schedule)
    loop.run()
    client = ServiceClient(url, timeout_s=30.0)
    # Admission answers carry no event log: fetch it for the dedup hits.
    for index, record in loop.records.items():
        if "events" not in record:
            loop.records[index] = client.status(record["id"])
    server_jobs = [job for job in client.jobs() if job["id"] not in warm_ids]
    ready = client.readiness()
    return {"loop": loop, "server_jobs": server_jobs, "ready": ready}


def summarize(raw: dict) -> dict:
    """End-to-end numbers of one open-loop session (before checks)."""
    loop = raw["loop"]
    latencies = [
        float("inf") if value is None else value
        for value in loop.latency_s.values()
    ]
    check(len(latencies) == len(loop.schedule), "a job has no outcome")
    p99 = percentile(latencies, 99)
    if p99 == float("inf"):
        raise CheckFailed(
            f"over 1% of jobs failed or were refused "
            f"({loop.refused} refused, {len(loop.errors)} errors: "
            f"{loop.errors[:3]})"
        )
    lag_p99 = percentile(loop.lag_s, 99)
    check(lag_p99 <= MAX_SEND_LAG_P99_S,
          f"the sender fell behind (p99 lag {lag_p99 * 1e3:.1f} ms)")
    wall = loop.t_last - loop.t0
    replicas_done = sum(
        1 for index, record in loop.records.items()
        if record["state"] == "DONE" and loop.schedule[index]["kind"] == "replica"
    )
    # FAILED jobs, 429/503 refusals and transport errors all read None.
    failed = sum(1 for v in loop.latency_s.values() if v is None)
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "samples": len(latencies),
        "run_s": wall,
        "replicas_per_s": replicas_done / wall,
        "send_lag_p99_ms": lag_p99 * 1e3,
        "attempted": len(loop.schedule),
        "failed": failed,
    }
