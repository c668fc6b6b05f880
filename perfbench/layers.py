"""Per-layer metrics of the traced run, each timed from outside.

Every layer is named after its module.  Where the traced workload already
drove a layer (the HTTP round trips of ``serve_mixed`` and ``sweep_fleet``,
the job records of their servers), its spans and records are used; every
other layer gets a small probe that calls the layer's public function
directly, with inputs generated from the run's seed.  Each metric should
move the end-to-end metric and workload noted beside it.
"""

from __future__ import annotations

import json
import operator
import subprocess
import sys
import time
from types import SimpleNamespace

import common
import serve_mixed
import sweeps
from common import median, percentile

PER_LAYER = {
    # workloads -> replicas_per_s on sweep_local
    "workloads.generate_ms": "ms",
    # core.kernels -> replicas_per_s on sweep_local; the batch number moves
    # no workload (no user path calls batch_run): engine-audit evidence
    "kernels.simulate_fast_ms": "ms",
    "kernels.simulate_fast_batch_ms": "ms",
    # core.simulator -> latency_p50_ms on serve_mixed, run_s on run_small
    "simulator.simulate_ms": "ms",
    # offline -> latency_p99_ms on serve_mixed
    "offline.opt_ms": "ms",
    "offline.degraded_ratio": "ratio",
    # experiments / hardness -> run_s on run_small
    **{f"experiments.E{n}_s": "s" for n in range(1, 19)},
    # platform -> run_s on run_small
    "platform.overhead_s": "s",
    # runtime.supervisor -> replicas_per_s on sweep_local
    "supervisor.dispatch_ms": "ms",
    # runtime.pool -> replicas_per_s on sweep_fleet, latency on serve_mixed
    "pool.ipc_ms": "ms",
    "pool.recycles": "count",
    # service.server -> replicas_per_s on sweep_fleet, latency_p50_ms on
    # serve_mixed
    "service.submit_ms": "ms",
    "service.dedup_ratio": "ratio",
    # HTTP (service.client <-> service.server) -> the same
    "http.healthz_ms": "ms",
    "http.submit_ms": "ms",
    "http.status_ms": "ms",
    # service.queue -> latency_p99_ms on serve_mixed
    "queue.wait_p50_ms": "ms",
    "queue.wait_p99_ms": "ms",
    # store -> replicas_per_s on sweep_fleet more than on sweep_local; job
    # store snapshots stall admission, so also latency_p99_ms on serve_mixed
    "store.append_us": "us",
    "store.snapshot_ms": "ms",
    "store.sync_ms": "ms",
    # fleet.stats -> replicas_per_s; expected negligible
    "stats.observe_us": "us",
    # fleet.executor -> replicas_per_s on sweep_fleet
    "executor.poll_wait_ms": "ms",
    "executor.attempts_per_replica": "count",
    "executor.hedged_ratio": "ratio",
    # import -> setup_s on every workload
    "import.repro_s": "s",
    # the open-loop generator itself: how late the sender ran
    "bench.send_lag_p99_ms": "ms",
}

#: Replicas behind each per-replica probe.
PROBE_REPLICAS = 64
#: Seconds of open-loop traffic when the traced workload sent none.
MINI_SERVE_S = 4.0


def _timed(tracer, name, fn, *args, request=None, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    tracer.add(name, start, time.perf_counter(), request)
    return value


def _ms(tracer, name) -> float:
    return median(tracer.durations(name)) * 1e3


# ---------------------------------------------------------------------------
# spans around the program's public functions
# ---------------------------------------------------------------------------


def wrap_coordinator(tracer) -> None:
    """Spans for the calls a sweep coordinator makes per replica: the
    journal append and the stats fold, keyed by seed."""
    from repro.fleet.stats import SweepStats
    from repro.store import DurableLog

    tracer.wrap(SweepStats, "observe", "sweep.stats_observe",
                request_of=lambda self, key, *rest: key)
    tracer.wrap(DurableLog, "record", "sweep.journal_append",
                request_of=lambda self, key, value: key)


def wrap_client(tracer, records: dict) -> None:
    """Spans for every HTTP round trip; terminal job records are kept so
    server-side times can be subtracted from client-side ones."""
    from repro.service.client import ServiceClient

    def keep(record):
        if record.get("state") in ("DONE", "DEGRADED", "FAILED"):
            records[record["id"]] = record

    tracer.wrap(ServiceClient, "health", "http.healthz")
    tracer.wrap(ServiceClient, "submit", "http.submit",
                request_of=lambda self, kind, params=None, **kw:
                (params or {}).get("seed"))
    tracer.wrap(ServiceClient, "status", "http.status",
                request_of=lambda self, job_id: job_id, on_return=keep)


# ---------------------------------------------------------------------------
# in-process probes
# ---------------------------------------------------------------------------


def _replica_inputs(task, seeds):
    from repro.cli import make_strategy

    args = [SimpleNamespace(**dict(task, seed=seed)) for seed in seeds]
    strategy = make_strategy(task["strategy"], task["cache_size"],
                             task["cores"])
    return args, strategy


def probe_replicas(tracer, first_seed: int) -> dict:
    """Generation and kernel per replica at the ``sweep_local`` task (and
    at ``sweep_fleet``'s length, for its ledger); the batched kernel at the
    width of one ``sweep_local`` sweep."""
    from repro.core.kernels import simulate_fast, simulate_fast_batch
    from repro.workloads import zipf_workload

    out = {}
    for label, task in (("", sweeps.LOCAL_TASK),
                        ("fleet.", sweeps.FLEET_TASK)):
        args, strategy = _replica_inputs(
            task, range(first_seed, first_seed + PROBE_REPLICAS))
        for a in args:
            workload = _timed(
                tracer, f"{label}workloads.generate", zipf_workload,
                a.cores, a.length, max(2, a.cache_size), alpha=a.alpha,
                seed=a.seed, request=a.seed)
            _timed(tracer, f"{label}kernels.simulate_fast", simulate_fast,
                   workload, a.cache_size, a.tau, strategy, request=a.seed)
        out[f"{label}generate_ms"] = _ms(tracer, f"{label}workloads.generate")
        out[f"{label}kernel_ms"] = _ms(tracer, f"{label}kernels.simulate_fast")
    task = sweeps.LOCAL_TASK
    width = sweeps.LOCAL_SEEDS_PER_SWEEP
    workloads = [
        zipf_workload(task["cores"], task["length"], task["cache_size"],
                      alpha=task["alpha"], seed=seed)
        for seed in range(first_seed, first_seed + width)
    ]
    start = time.perf_counter()
    simulate_fast_batch(workloads, task["cache_size"], task["tau"],
                        task["strategy"])
    tracer.add("kernels.simulate_fast_batch", start, time.perf_counter())
    return {
        "workloads.generate_ms": out["generate_ms"],
        "kernels.simulate_fast_ms": out["kernel_ms"],
        "kernels.simulate_fast_batch_ms":
            _ms(tracer, "kernels.simulate_fast_batch") / width,
        "fleet_kernel_ms": out["fleet.generate_ms"] + out["fleet.kernel_ms"],
    }


def probe_jobs(tracer, seed: int) -> dict:
    """The reference simulator on ``serve_mixed``'s ``simulate`` payloads;
    the budgeted DP on its ``opt`` payloads, under their deadlines."""
    from repro import simulate
    from repro.offline import minimum_total_faults
    from repro.problems import FTFInstance
    from repro.runtime import Budget, BudgetExceeded
    from repro.service.executor import _build_strategy, _build_workload

    schedule = serve_mixed.make_schedule(seed, 800, serve_mixed.RATE)
    sims = [j for j in schedule if j["kind"] == "simulate"][:30]
    opts = [j for j in schedule if j["kind"] == "opt"][:30]
    for job in sims:
        params = job["params"]
        workload = _build_workload(params)
        strategy = _build_strategy(params, workload.num_cores)
        _timed(tracer, "simulator.simulate", simulate, workload,
               params["cache_size"], params["tau"], strategy,
               request=params["seed"])
    degraded = 0
    for job in opts:
        params = job["params"]
        instance = FTFInstance(_build_workload(params), params["cache_size"],
                               params["tau"])
        start = time.perf_counter()
        try:
            minimum_total_faults(instance,
                                 budget=Budget(deadline_s=job["deadline_s"]))
        except BudgetExceeded:
            degraded += 1
        tracer.add("offline.opt", start, time.perf_counter(), params["seed"])
    return {
        "simulator.simulate_ms": _ms(tracer, "simulator.simulate"),
        "offline.opt_ms": _ms(tracer, "offline.opt"),
        "offline.degraded_ratio": degraded / len(opts),
    }


def probe_stats(tracer) -> dict:
    from repro.fleet.stats import SweepStats

    stats = SweepStats()
    for key in range(2000):
        _timed(tracer, "stats.observe", stats.observe, key, 500 + key % 97,
               900 + key % 89)
    return {"stats.observe_us": _ms(tracer, "stats.observe") * 1e3}


def probe_store(tracer, scratch) -> dict:
    """``DurableLog.record`` with sweep-outcome-sized and job-event-sized
    values; an fsync after an append; a snapshot of 1024 finished-job
    records, the table size at which the job store first snapshots (its
    snapshots stall admission, which shows in ``serve_mixed``'s p99)."""
    from repro.fleet.executor import ReplicaOutcome
    from repro.service.jobs import JobRecord, JobSpec
    from repro.store import DurableLog

    outcome = ReplicaOutcome(0, "DONE", faults=1234, makespan=5678,
                             result={"faults": 1234, "makespan": 5678},
                             endpoint="http://127.0.0.1:8023").to_dict()
    event = {"type": "state", "id": "j-0123456789ab", "t": time.time(),
             "state": "DONE", "result": {"faults": 1234, "makespan": 5678},
             "error": None, "attempts": 1}
    job = JobRecord(id="j-0123456789ab",
                    spec=JobSpec("replica", dict(sweeps.FLEET_TASK, seed=1)),
                    state="DONE", result={"faults": 1234, "makespan": 5678},
                    finished_at=time.time(), attempts=1)
    for name in ("submitted", "running", "executed", "done"):
        job.log_event(name)
    restore = {"type": "restore", "record": job.to_dict()}
    log = DurableLog(scratch.file("probe-store.jsonl"), "perfbench")
    try:
        for key in range(512):
            value = dict(outcome, key=key) if key % 2 else event
            _timed(tracer, "store.append", log.record, key, value)
        for key in range(512, 532):
            log.record(key, event)
            _timed(tracer, "store.sync", log.sync)
        for key in range(532, 1024):
            log.record(key, restore)
        for key in range(1024, 1029):
            log.record(key, restore)
            _timed(tracer, "store.snapshot", log.snapshot)
    finally:
        log.close()
    return {
        "store.append_us": _ms(tracer, "store.append") * 1e3,
        "store.snapshot_ms": _ms(tracer, "store.snapshot"),
        "store.sync_ms": _ms(tracer, "store.sync"),
    }


def probe_supervisor(tracer) -> dict:
    """``supervised_map`` of a trivial function at width 2, per item."""
    from repro.runtime.supervisor import supervised_map

    items = list(range(400))
    _timed(tracer, "supervisor.map", supervised_map, operator.add, items,
           max_workers=2)
    return {"supervisor.dispatch_ms":
            _ms(tracer, "supervisor.map") / len(items)}


def _fleet_payloads(first_seed: int) -> list[dict]:
    return [
        {"id": f"probe-{seed}", "kind": "replica",
         "params": dict(sweeps.FLEET_TASK, seed=seed)}
        for seed in range(first_seed, first_seed + PROBE_REPLICAS)
    ]


def probe_pool(tracer, first_seed: int) -> dict:
    """``WarmWorkerPool.run_one(execute_payload, p)`` minus in-process
    ``run_job(p)`` on the same replica payloads."""
    from repro.runtime.pool import WarmWorkerPool
    from repro.service.executor import execute_payload, run_job

    payloads = _fleet_payloads(first_seed)
    with WarmWorkerPool(max_workers=1, recycle_after=10**6) as pool:
        pool.run_one(execute_payload, json.dumps(payloads[0]))
        for payload in payloads:
            _timed(tracer, "pool.run_one", pool.run_one, execute_payload,
                   json.dumps(payload, sort_keys=True), request=payload["id"])
    for payload in payloads:
        _timed(tracer, "service.run_job", run_job, payload,
               request=payload["id"])
    return {"pool.ipc_ms": _ms(tracer, "pool.run_one")
            - _ms(tracer, "service.run_job")}


def probe_service(tracer, scratch, first_seed: int) -> dict:
    """In-process ``JobService.submit`` (admission, dedup lookup, journal,
    enqueue) of replica jobs, with no worker draining the queue."""
    from repro.service import JobService

    service = JobService(scratch.file("probe-service.jsonl"))
    try:
        for payload in _fleet_payloads(first_seed)[:60]:
            _timed(tracer, "service.submit", service.submit, "replica",
                   payload["params"], request=payload["id"])
    finally:
        service.store.close()
    return {"service.submit_ms": _ms(tracer, "service.submit")}


def probe_experiments(scratch) -> dict:
    """``run_experiment(eid, scale="small")`` for E1..E18, timed in a fresh
    interpreter (see ``__main__`` below), as ``repro run`` would run them."""
    out = subprocess.run(
        [common.PYTHON, __file__, "experiments"], env=scratch.env,
        cwd=str(scratch.path), check=True, capture_output=True, text=True,
    ).stdout
    seconds = json.loads(out.splitlines()[-1])
    return {f"experiments.{eid}_s": value for eid, value in seconds.items()}


def probe_healthz(tracer, url: str) -> None:
    from repro.service.client import ServiceClient

    client = ServiceClient(url)
    for _ in range(30):
        _timed(tracer, "http.healthz", client.health)


# ---------------------------------------------------------------------------
# traffic-derived layers
# ---------------------------------------------------------------------------


def serve_layers(raw: dict) -> dict:
    loop = raw["loop"]
    waits = serve_mixed.queue_waits_s(loop.records.values())
    pools = raw["ready"]["pools"]
    return {
        "queue.wait_p50_ms": percentile(waits, 50) * 1e3,
        "queue.wait_p99_ms": percentile(waits, 99) * 1e3,
        "service.dedup_ratio": loop.dedup_hits / max(1, len(loop.job_ids)),
        "pool.recycles": sum(pool["recycles"] for pool in pools),
        "bench.send_lag_p99_ms": percentile(loop.lag_s, 99) * 1e3,
    }


def fleet_layers(tracer, runs, records) -> dict:
    """Client time per replica (first submit to outcome) minus the server
    record's ``finished_at - submitted_at``; polls per replica."""
    seeds = {seed for run in runs for seed in run["seeds"]}
    first_submit: dict = {}
    landed: dict = {}
    for name, start, end, request in tracer.spans:
        if request not in seeds:
            continue
        if name == "http.submit":
            first_submit[request] = min(start, first_submit.get(request, start))
        elif name == "replica":
            landed[request] = end
    server_s = {}
    for record in records.values():
        seed = record["params"].get("seed")
        if record["state"] == "DONE" and seed in landed:
            server_s[seed] = record["finished_at"] - record["submitted_at"]
    client_s = {seed: landed[seed] - first_submit[seed]
                for seed in server_s if seed in first_submit}
    sweep = sweeps.summarize(runs)
    polls = sum(1 for name, _s, _e, request in tracer.spans
                if name == "http.status" and request in records)
    return {
        "executor.poll_wait_ms": median(
            client_s[s] - server_s[s] for s in client_s) * 1e3,
        "executor.attempts_per_replica": sweep["attempts_per_replica"],
        "executor.hedged_ratio": sweep["hedged_ratio"],
        "fleet_client_ms": median(client_s.values()) * 1e3,
        "fleet_queue_ms": median(serve_mixed.queue_waits_s(
            records.values())) * 1e3,
        "fleet_polls": polls / sweep["attempted"],
        "fleet_replicas_per_s": sweep["replicas_per_s"],
    }


def mini_traffic(args, scratch, tracer, need_serve: bool,
                 need_fleet: bool) -> tuple:
    """Service traffic for a traced run whose workload sent none: a short
    ``serve_mixed`` session on one server, one ``sweep_fleet`` sweep over
    two."""
    raw = None
    fleet = None
    first = args.seed * 10**6 + 500_000
    with common.servers(scratch, ["layer-a", "layer-b"]) as (a, b):
        records: dict = {}
        try:
            wrap_client(tracer, {})
            if need_serve:
                raw = serve_mixed.run(a.url, args.seed, MINI_SERVE_S)
            probe_healthz(tracer, a.url)
            tracer.unwrap_all()
            if need_fleet:
                urls = [a.url, b.url]
                wrap_client(tracer, records)
                runs = sweeps.sweep_loop(
                    sweeps.FLEET_TASK, sweeps.FLEET_SEEDS_PER_SWEEP, 0,
                    first, lambda: sweeps.fleet_executor(urls), scratch,
                    tracer)
                fleet = (runs, records)
        finally:
            tracer.unwrap_all()
    return raw, fleet


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def collect(args, scratch, tracer, outcome) -> dict:
    """Every per-layer metric, plus the numbers the ledgers need."""
    import run_small

    first = args.seed * 10**6 + 700_000
    metrics: dict = {}
    if args.workload in ("sweep_local", "run_small"):
        imports = outcome.setup
    else:
        imports = common.time_imports(scratch.env, 3)
    metrics["import.repro_s"] = median(imports)
    metrics.update(probe_replicas(tracer, first))
    metrics.update(probe_jobs(tracer, args.seed))
    metrics.update(probe_stats(tracer))
    metrics.update(probe_store(tracer, scratch))
    metrics.update(probe_supervisor(tracer))
    metrics.update(probe_pool(tracer, first))
    metrics.update(probe_service(tracer, scratch, first))
    metrics.update(probe_experiments(scratch))

    # ``repro run`` wall time minus what its own experiments took (the
    # seconds run.json records for each) minus the import.
    runs = outcome.layers.get("run_small_runs")
    if runs is None:
        runs = run_small.run(scratch, 0, tracer, min_runs=1)
    metrics["platform.overhead_s"] = (
        run_small.unattributed_s(runs) - metrics["import.repro_s"])

    raw = outcome.layers.get("serve_raw")
    fleet = None
    if "fleet_runs" in outcome.layers:
        fleet = (outcome.layers["fleet_runs"], outcome.layers["fleet_records"])
    if raw is None or fleet is None:
        mini_raw, mini_fleet = mini_traffic(
            args, scratch, tracer, raw is None, fleet is None)
        raw = raw or mini_raw
        fleet = fleet or mini_fleet
    metrics.update(serve_layers(raw))
    metrics.update(fleet_layers(tracer, *fleet))
    for name in ("http.healthz", "http.submit", "http.status"):
        metrics[f"{name}_ms"] = _ms(tracer, name)

    local = outcome.layers.get("sweep_local")
    if local is None:
        runs = sweeps.sweep_loop(
            sweeps.LOCAL_TASK, sweeps.LOCAL_SEEDS_PER_SWEEP, 0, first,
            sweeps.local_executor, scratch, tracer)
        local = sweeps.summarize(runs)
    metrics["local_replicas_per_s"] = local["replicas_per_s"]
    return metrics


def print_ledgers(m: dict) -> None:
    """Where one replica's time goes, fleet beside local (ms/replica).

    Components are medians measured separately, so they need not add up
    to the measured total; the remainder is printed as unattributed.
    """
    http_submit = m["http.submit_ms"] - m["service.submit_ms"]
    journals = m["service.submit_ms"] + 3 * m["store.append_us"] / 1e3
    fleet_rows = [
        ("HTTP submit (round trip minus admission)", http_submit),
        ("admission plus journals", journals),
        ("queue wait", m["fleet_queue_ms"]),
        ("pool IPC", m["pool.ipc_ms"]),
        ("generation plus kernel (length 200)", m["fleet_kernel_ms"]),
        ("poll wait (client minus server time)", m["executor.poll_wait_ms"]),
    ]
    fleet_total = m["fleet_client_ms"]
    local_rows = [
        ("generation (length 2000)", m["workloads.generate_ms"]),
        ("kernel", m["kernels.simulate_fast_ms"]),
        ("pool dispatch", m["supervisor.dispatch_ms"]),
    ]
    local_total = sweeps.LOCAL_WORKERS * 1e3 / m["local_replicas_per_s"]
    for title, rows, total, note in (
        ("sweep_fleet, per replica (client time, one connection each)",
         fleet_rows, fleet_total,
         f"{m['fleet_replicas_per_s']:.1f} replicas/s; "
         f"{m['fleet_polls']:.1f} status polls per replica at "
         f"{m['http.status_ms']:.2f} ms each"),
        ("sweep_local, per replica (wall time x 2 workers)",
         local_rows, local_total,
         f"{m['local_replicas_per_s']:.1f} replicas/s"),
    ):
        print(title)
        for name, value in rows:
            print(f"  {name:44s} {value:9.3f} ms {100 * value / total:6.1f}%")
        rest = total - sum(value for _, value in rows)
        print(f"  {'unattributed':44s} {rest:9.3f} ms "
              f"{100 * rest / total:6.1f}%")
        print(f"  {'measured':44s} {total:9.3f} ms  ({note})")


def _time_experiments() -> dict:
    from repro.experiments import run_experiment

    seconds = {}
    for n in range(1, 19):
        start = time.perf_counter()
        run_experiment(f"E{n}", scale="small")
        seconds[f"E{n}"] = time.perf_counter() - start
    return seconds


if __name__ == "__main__" and sys.argv[1:] == ["experiments"]:
    print(json.dumps(_time_experiments()))
