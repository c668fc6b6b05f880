"""``sweep_local``, ``sweep_fleet`` and ``sweep_service``: closed-loop
sweeps through ``run_sweep``, the function ``repro sweep`` calls.

A run is a sequence of sweeps over consecutive, never-repeated seed ranges,
each with a fresh executor and a fresh sweep journal, as a user would start
one ``repro sweep --journal`` after another.  Every replica of a sweep is
due when the sweep starts, so a replica's latency is the time from the
sweep's start until its outcome lands.
"""

from __future__ import annotations

import json
import time

from common import check

#: ``sweep_local``: replica work dominates (about 2 ms generation plus 9 ms
#: kernel per replica, serially).
LOCAL_TASK = {"workload": "zipf", "cores": 4, "length": 2000, "alpha": 1.2,
              "cache_size": 32, "tau": 1, "strategy": "S_LRU"}
LOCAL_SEEDS_PER_SWEEP = 256
LOCAL_WORKERS = 2
#: ``sweep_fleet``: replicas of about 2 ms of work, so per-job service
#: overhead dominates the round trip.
FLEET_TASK = dict(LOCAL_TASK, length=200)
FLEET_SEEDS_PER_SWEEP = 64
FLEET_INFLIGHT = 1
#: ``sweep_service``: the same replicas, both connections on one server, so
#: its two worker threads and their warm pools serve side by side.
SERVICE_INFLIGHT = 2

#: Provenance fields of a sweep summary that legitimately differ between
#: executors; everything else must be identical.
_PROVENANCE = ("topology", "resumed", "max_attempts", "hedged")


def comparable(summary: dict) -> str:
    body = {k: v for k, v in summary.items() if k not in _PROVENANCE}
    return json.dumps(body, sort_keys=True)


def local_executor():
    from repro.fleet import executor_from_config

    return executor_from_config(
        {"kind": "processes", "max_workers": LOCAL_WORKERS})


def fleet_executor(urls):
    from repro.fleet import FleetExecutor

    return FleetExecutor(urls, max_inflight_per_endpoint=FLEET_INFLIGHT)


def service_executor(urls):
    from repro.fleet import executor_from_config

    # What ``repro sweep --executor service`` builds.
    return executor_from_config({"kind": "service", "endpoint": urls[0],
                                 "max_inflight_per_endpoint": SERVICE_INFLIGHT})


def sweep_loop(task, per_sweep, seconds, first_seed, make_executor, scratch,
               tracer):
    """Run sweeps until ``seconds`` are spent (to the nearest sweep).

    Returns one dict per sweep: seeds, wall seconds, per-replica latencies
    (seconds from sweep start), the summary and the outcomes.
    """
    from repro.fleet import run_sweep

    sweeps = []
    begin = time.perf_counter()
    while True:
        index = len(sweeps)
        seeds = list(range(first_seed + index * per_sweep,
                           first_seed + (index + 1) * per_sweep))
        latencies = []
        start = time.perf_counter()

        def landed(outcome, start=start, latencies=latencies):
            now = time.perf_counter()
            latencies.append(now - start)
            tracer.add("replica", start, now, request=outcome.key)

        executor = make_executor()
        try:
            result = run_sweep(task, seeds, executor=executor,
                               journal=scratch.file(f"sweep-{seeds[0]}.jsonl"),
                               on_outcome=landed)
        finally:
            executor.close()
        end = time.perf_counter()
        tracer.add("sweep", start, end, request=index)
        sweeps.append({"seeds": seeds, "wall": end - start,
                       "latencies": latencies, "summary": result.summary(),
                       "outcomes": result.outcomes})
        spent = end - begin
        if spent + (spent / len(sweeps)) / 2 >= seconds:
            return sweeps


def _reference(task, seeds) -> str:
    from repro.fleet import LocalThreadExecutor, run_sweep

    return comparable(run_sweep(
        task, seeds, executor=LocalThreadExecutor(max_workers=2)).summary())


def check_sweeps(task, sweeps) -> None:
    """Each sweep's aggregate equals an in-process ``LocalThreadExecutor``
    sweep of the same seeds, computed after all timing is done."""
    for sweep in sweeps:
        check(not sweep["summary"]["failed_seeds"],
              f"sweep failed seeds {sweep['summary']['failed_seeds'][:5]}")
        check(comparable(sweep["summary"]) == _reference(task, sweep["seeds"]),
              f"sweep of seeds {sweep['seeds'][0]}.. differs from the "
              f"LocalThreadExecutor reference")


def summarize(sweeps) -> dict:
    """Each timed figure is the median over the run's sweeps of that
    sweep's own figure, so a sweep caught in one slow stretch of a shared
    host moves none of them."""
    from common import median, percentile

    outcomes = [o for s in sweeps for o in s["outcomes"].values()]
    return {
        "replicas_per_s": median(len(s["seeds"]) / s["wall"] for s in sweeps),
        "run_s": median(s["wall"] for s in sweeps),
        "latency_p50_ms": median(percentile(s["latencies"], 50)
                                 for s in sweeps) * 1e3,
        "latency_p99_ms": median(percentile(s["latencies"], 99)
                                 for s in sweeps) * 1e3,
        "samples": sum(len(s["latencies"]) for s in sweeps),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "attempts_per_replica": sum(o.attempts for o in outcomes)
        / len(outcomes),
        "hedged_ratio": sum(1 for o in outcomes if o.hedged) / len(outcomes),
    }
