#!/usr/bin/env python3
"""Replicas-per-second through the fleet executor (BENCH_fleet.json).

Runs one replica-sweep task (the E14-style zipf spec, scaled down to
keep each HTTP job sub-second) through the executor ladder:

* ``local_threads`` — in-process baseline, no HTTP, no forking;
* ``service_x1``   — one in-process ``JobService`` endpoint over HTTP;
* ``fleet_x2``     — two endpoints behind :class:`FleetExecutor`;
* ``fleet_x2_chaos`` — the same fleet under ``REPRO_CHAOS`` latency +
  connection-drop + response-corruption injection, measuring what fault
  tolerance costs when faults actually fire.

For every cell "cold" is a fresh sweep and "warm" re-runs it against
the sweep journal — the crash-safe resume path — so the warm number is
the replay throughput a restarted sweep sees.  The chaos cell picks its
seed the way the acceptance tests do: a seed whose faults hit per-job
traffic but spare the fixed submission/health scopes that would wedge
every replica at once.

Every leg's aggregates are asserted identical to the local baseline
before any timing is trusted (the fleet moves work around, it never
changes the numbers).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.fleet import FleetExecutor, LocalThreadExecutor, run_sweep
from repro.fleet.executor import ServiceExecutor
from repro.runtime.chaos import ChaosConfig, should_inject
from repro.service import JobService, ServiceHTTPServer

TASK = {
    "workload": "zipf",
    "cores": 4,
    "length": 200,
    "alpha": 1.2,
    "cache_size": 32,
    "tau": 1,
    "strategy": "S_LRU",
}
SEEDS = list(range(32))
CHAOS = {"drop": 0.05, "corrupt": 0.05, "slow": 0.15, "slow_s": 0.02}


def comparable(sweep) -> str:
    body = dict(sweep.summary())
    for provenance in ("topology", "resumed", "max_attempts", "hedged"):
        body.pop(provenance, None)
    return json.dumps(body, sort_keys=True)


def pick_chaos_seed(urls) -> int:
    for seed in range(1000):
        config = ChaosConfig(
            seed=seed, drop=CHAOS["drop"], corrupt=CHAOS["corrupt"]
        )
        if not any(
            should_inject("drop", ("http", f"{url}{path}"), config=config)
            or should_inject(
                "corrupt", ("http-response", f"{url}{path}"), config=config
            )
            for url in urls
            for path in ("/jobs", "/healthz")
        ):
            return seed
    raise RuntimeError("no usable chaos seed in 0..999")


def boot_endpoint(workdir: str, name: str):
    service = JobService(
        os.path.join(workdir, f"{name}.jsonl"),
        workers=3,
        retries=1,
        backoff_s=0.05,
        jitter=0.0,
        breaker_threshold=1000,
    ).start()
    http = ServiceHTTPServer(service).start()
    return service, http


def bench_cell(name: str, make_executor, workdir: str, baseline: str) -> dict:
    journal = os.path.join(workdir, f"{name}.sweep.jsonl")
    timings = {}
    for leg in ("cold", "warm"):
        executor = make_executor()
        t0 = time.perf_counter()
        try:
            sweep = run_sweep(TASK, SEEDS, executor=executor, journal=journal)
        finally:
            executor.close()
        elapsed = time.perf_counter() - t0
        if not sweep.ok:
            raise AssertionError(f"{name}/{leg}: failed {sweep.failed_seeds}")
        if comparable(sweep) != baseline:
            raise AssertionError(f"{name}/{leg}: aggregates diverged")
        timings[f"rps_{leg}"] = len(SEEDS) / elapsed
        if leg == "cold":
            timings["max_attempts"] = sweep.max_attempts
            timings["hedged"] = sweep.summary()["hedged"]
        print(
            f"{name:16s} {leg:4s} {len(SEEDS) / elapsed:8.1f} replicas/s"
            + (
                f"  (max_attempts={sweep.max_attempts})"
                if leg == "cold" and sweep.max_attempts > 1
                else ""
            )
        )
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_fleet.json")
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="repro-bench-fleet-")
    baseline_sweep = run_sweep(
        TASK, SEEDS, executor=LocalThreadExecutor(max_workers=4)
    )
    baseline = comparable(baseline_sweep)

    endpoints = [boot_endpoint(workdir, name) for name in ("a", "b")]
    urls = [http.url for _, http in endpoints]
    chaos_seed = pick_chaos_seed(urls)
    results = {}
    try:
        results["local_threads"] = bench_cell(
            "local_threads",
            lambda: LocalThreadExecutor(max_workers=4),
            workdir,
            baseline,
        )
        results["service_x1"] = bench_cell(
            "service_x1",
            lambda: ServiceExecutor(urls[0], poll_s=0.02),
            workdir,
            baseline,
        )
        fleet = lambda: FleetExecutor(  # noqa: E731
            urls, retries=2, poll_s=0.02, hedge_after_s=5.0
        )
        results["fleet_x2"] = bench_cell("fleet_x2", fleet, workdir, baseline)
        os.environ["REPRO_CHAOS"] = (
            f"seed={chaos_seed},"
            + ",".join(f"{k}={v}" for k, v in CHAOS.items())
        )
        try:
            results["fleet_x2_chaos"] = bench_cell(
                "fleet_x2_chaos", fleet, workdir, baseline
            )
        finally:
            del os.environ["REPRO_CHAOS"]
    finally:
        for service, http in endpoints:
            http.stop()
            service.stop()

    data = {
        "meta": {
            "python": sys.version.split()[0],
            "task": TASK,
            "replicas": len(SEEDS),
            "chaos": dict(CHAOS, seed=chaos_seed),
            "note": (
                "replicas/second end-to-end through run_sweep; warm legs "
                "replay the sweep journal (crash-safe resume), so they "
                "measure recovery throughput; remote replicas go out in "
                "seed batches (docs/FLEET.md section 1): each dispatch "
                "slot's first batch is one replica, later ones carry about "
                "0.1 s of work but never more than ceil(pending / slots) "
                "seeds, so the 32 replicas over fleet_x2's 16 dispatch "
                "slots all stay single-replica jobs and the fleet cells "
                "measure the single-replica dispatch path (HTTP "
                "round trips, admission, journal appends, queue hand-off "
                "and pool IPC on the endpoint's warm worker pool, results "
                "through a status long-poll; perfbench/run.py --trace 1 "
                "prints the per-replica ledger); service_x1's 8 slots "
                "allow batches of 2 once a replica costs under 50 ms of "
                "client time, and a count on the 2-core host found 4 of "
                "its 28 dispatches per sweep carrying two seeds — the "
                "fleet buys fault tolerance and horizontal scale, not "
                "single-replica speed"
            ),
        },
        "results": results,
        "headline": {
            "fleet_x2_vs_service_x1_cold": results["fleet_x2"]["rps_cold"]
            / results["service_x1"]["rps_cold"],
            "chaos_overhead_cold": results["fleet_x2"]["rps_cold"]
            / results["fleet_x2_chaos"]["rps_cold"],
        },
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
