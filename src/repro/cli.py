"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiment E7 [--scale full] [--markdown]``
    Run one reproduction experiment and print its table + checks.
``report [--scale full] [--output EXPERIMENTS.md]``
    Run every experiment and emit the paper-vs-measured report (a thin
    wrapper over the platform engine; use ``run`` for a locked record).
``run SPEC [--set key=value ...] [--force] [--runs-dir DIR]``
    Execute a declarative experiment spec (JSON/YAML) under the run
    registry: content-addressed run ID, locked spec, byte-deterministic
    metric tables, journaled resume, cache-hit reruns (docs/PLATFORM.md).
``compare RUN_A RUN_B [--rel-tol 0.01]``
    Regression/diff report between two registry runs; exits non-zero on
    any surviving difference (the CI gate).
``runs [--runs-dir DIR]``
    List the completed runs in the registry.
``panel --workload zipf --tau 4 [...]``
    Run the strategy panel on a generated workload and tabulate faults.
``simulate --workload-file w.trace --strategy S_LRU -K 8 --tau 1``
    Simulate one strategy on a workload from a trace file.
``generate --workload phased -p 4 -n 500 --output w.trace``
    Write a synthetic workload to a trace file.
``opt --workload-file w.trace -K 3 --tau 1 [--deadline-s 5]``
    Exact offline optimum (Algorithm 1) — guarded to toy sizes.  With a
    ``--deadline-s``/``--max-states`` budget, exhaustion degrades to a
    ``[lower, upper]`` interval instead of running unboundedly.
``timeline --workload theorem1 -p 2 -K 8 --tau 1 --width 80``
    Render an ASCII core-by-time execution timeline.
``profile --workload-file w.trace``
    Print the locality profile of a workload (footprints, reuse
    distances, working sets, phase counts).
``cache [--clear] [--dir DIR]``
    Inspect or clear the on-disk batch result cache
    (``.repro_cache/`` or ``$REPRO_CACHE_DIR``).
``verify [--fuzz N] [--seed S] [--no-shrink] [--corpus DIR]``
    Differential verification: fuzz random/adversarial workloads through
    the general simulator, every specialised kernel and (on small
    instances) the exact DP, shrinking any divergence to a minimal
    replayable counterexample.
``serve [--port 8023] [--journal jobs.jsonl] [--workers 2]``
    Run the resilient job service: queued simulation/experiment/sweep/
    solver serving with admission control, circuit breakers, journaled
    crash recovery and graceful drain (docs/SERVICE.md).
    ``--snapshot-every N`` tunes journal snapshot + compaction cadence
    (0 disables; default 1024 events).
``fsck [--cache-dir DIR] [--runs-dir DIR] [--journal PATH ...] [--repair]``
    Validate checksums and headers of every on-disk store (batch cache,
    run registry, durable journals).  ``--repair`` quarantines corrupt
    artefacts.  Exit 0 clean / 1 corruption found / 2 usage error —
    the CI gate (docs/ROBUSTNESS.md).
``chaos [--campaign all] [--seed 0]``
    Run the scripted crash-recovery campaigns: each one spawns real
    subprocesses, kills them at a scheduled fault (crash at record K,
    torn final write, snapshot bit-flip, ENOSPC, SIGKILL mid-
    compaction), then asserts the recovery invariants.
``submit --kind opt --param workload=zipf --deadline-s 5 [--wait]``
    Submit one job to a running service (429/503 backpressure honoured).
``status [JOB_ID] [--url http://127.0.0.1:8023]``
    Poll one job (full record + event log) or summarise all jobs.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro import (
    AdaptiveWorkingSetPartition,
    FlushWhenFullStrategy,
    GlobalFITFPolicy,
    LruMimicDynamicPartition,
    SharedStrategy,
    StaticPartitionStrategy,
    Workload,
    equal_partition,
    simulate,
)
from repro.strategies import ProgressBalancingStrategy
from repro.analysis import Table
from repro.policies import ONLINE_POLICIES
from repro.workloads import (
    access_graph_workload,
    cyclic_workload,
    lemma4_workload,
    load_workload,
    phased_workload,
    save_workload,
    theorem1_workload,
    uniform_workload,
    zipf_workload,
)

__all__ = ["main", "build_parser", "make_strategy", "make_workload"]


# ---------------------------------------------------------------------------
# spec parsers
# ---------------------------------------------------------------------------

STRATEGY_HELP = (
    "strategy spec: S_<POLICY> (shared; POLICY one of "
    f"{', '.join(sorted(ONLINE_POLICIES))}, or FITF), sP_eq_<POLICY> "
    "(equal static partition), dP_ws_<POLICY> (adaptive working-set "
    "partition), dP_lemma3 (the Lemma 3 LRU mimic), FWF, "
    "S_BAL (progress-balancing fair LRU)"
)


def _policy(name: str):
    name = name.upper()
    if name == "FITF":
        return GlobalFITFPolicy
    try:
        return ONLINE_POLICIES[name]
    except KeyError:
        raise SystemExit(
            f"unknown policy {name!r}; choose from "
            f"{', '.join(sorted(ONLINE_POLICIES))}, FITF"
        )


def make_strategy(spec: str, cache_size: int, num_cores: int):
    """Build a strategy from a CLI spec string."""
    if spec == "FWF":
        return FlushWhenFullStrategy()
    if spec == "S_BAL":
        return ProgressBalancingStrategy()
    if spec == "dP_lemma3":
        return LruMimicDynamicPartition()
    if spec.startswith("S_"):
        return SharedStrategy(_policy(spec[2:]))
    if spec.startswith("sP_eq_"):
        return StaticPartitionStrategy(
            equal_partition(cache_size, num_cores), _policy(spec[6:])
        )
    if spec.startswith("dP_ws_"):
        return AdaptiveWorkingSetPartition(_policy(spec[6:]))
    raise SystemExit(f"cannot parse strategy spec {spec!r}; {STRATEGY_HELP}")


WORKLOAD_NAMES = (
    "uniform",
    "zipf",
    "cyclic",
    "phased",
    "graph",
    "lemma4",
    "theorem1",
)


def make_workload(args) -> Workload:
    """Build a synthetic workload from CLI arguments."""
    name, p, n, seed = args.workload, args.cores, args.length, args.seed
    K = args.cache_size
    if name == "uniform":
        return uniform_workload(p, n, max(2, K // p + 2), seed=seed)
    if name == "zipf":
        return zipf_workload(p, n, max(2, K), alpha=args.alpha, seed=seed)
    if name == "cyclic":
        return cyclic_workload(p, n, K // p + 1)
    if name == "phased":
        return phased_workload(p, n, max(2, K // p + 1), 4, seed=seed)
    if name == "graph":
        return access_graph_workload(p, n, nodes=max(8, K), seed=seed)
    if name == "lemma4":
        return lemma4_workload(K, p, n * p)
    if name == "theorem1":
        return theorem1_workload(K, p, max(2, n // (K + p)), args.tau)
    raise SystemExit(
        f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_experiment(args) -> int:
    from repro.experiments import run_experiment

    result = run_experiment(args.id, scale=args.scale)
    print(result.format_markdown() if args.markdown else result.format_ascii())
    return 0 if result.ok else 1


def cmd_report(args) -> int:
    from repro.experiments.report import experiments_report

    text, ok = experiments_report(scale=args.scale, fail_fast=args.fail_fast)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0 if ok else 1


def cmd_panel(args) -> int:
    workload = make_workload(args)
    specs = args.strategies or [
        "S_LRU",
        "S_FIFO",
        "S_FITF",
        "sP_eq_LRU",
        "dP_ws_LRU",
        "dP_lemma3",
    ]
    table = Table(
        f"{args.workload}: p={workload.num_cores}, "
        f"n={workload.total_requests}, K={args.cache_size}, tau={args.tau}",
        ["strategy", "faults", "fault_rate", "makespan"],
    )
    for spec in specs:
        strategy = make_strategy(spec, args.cache_size, workload.num_cores)
        res = simulate(workload, args.cache_size, args.tau, strategy)
        table.add_row(spec, res.total_faults, res.fault_rate(), res.makespan)
    print(table.format_ascii())
    return 0


def cmd_compare(args) -> int:
    """Diff two registry runs."""
    from repro.platform import RunNotFound, diff_runs, resolve_run

    refs = args.runs
    if len(refs) != 2:
        # argparse's own nargs=2 error would not name the verb's contract.
        raise SystemExit("compare takes exactly two run references")
    try:
        run_a = resolve_run(refs[0], args.runs_dir)
        run_b = resolve_run(refs[1], args.runs_dir)
    except RunNotFound as exc:
        raise SystemExit(str(exc))
    diff = diff_runs(run_a, run_b, rel_tol=args.rel_tol)
    print(diff.format_markdown() if args.markdown else diff.format_ascii())
    return 0 if diff.empty else 1


def cmd_run(args) -> int:
    from repro.platform import SpecError, run_spec, spec_from_cli

    try:
        spec = spec_from_cli(args.spec, args.set)
    except SpecError as exc:
        raise SystemExit(str(exc))
    record = run_spec(
        spec,
        runs_dir=args.runs_dir,
        force=args.force,
        fail_fast=args.fail_fast,
        on_progress=(
            None
            if args.quiet
            else lambda eid, payload: print(
                f"  {eid:4} {payload['verdict']:12} "
                f"{payload.get('seconds', 0.0):.2f}s",
                file=sys.stderr,
            )
        ),
    )
    status = "cached" if record.cached else (
        f"ran ({record.resumed} resumed)" if record.resumed else "ran"
    )
    print(f"run {record.run_id}: {status}")
    print(f"  spec    : {record.spec['name']} (scale={record.spec['scale']})")
    print(f"  folder  : {record.path}")
    print(f"  verdicts: {_verdict_counts(record)}")
    for eid, error in sorted(record.errors.items()):
        print(f"  ERROR {eid}: {error}")
    return 0 if record.ok else 1


def _verdict_counts(record) -> str:
    counts: dict[str, int] = {}
    for verdict in record.verdicts.values():
        counts[verdict] = counts.get(verdict, 0) + 1
    return ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))


def cmd_runs(args) -> int:
    from repro.platform import list_runs

    records = list_runs(args.runs_dir)
    if not records:
        print("no completed runs in the registry")
        return 0
    for record in records:
        summary = record.summary()
        flags = "ok" if summary["ok"] else f"{summary['errors']} error(s)"
        extras = ""
        if summary.get("executor"):
            extras += f" executor={summary['executor']}"
        if summary.get("retried"):
            extras += f" retried={summary['retried']}"
        print(
            f"{record.run_id}  {summary['name'] or '-':12} "
            f"scale={summary['scale']:5} experiments={summary['experiments']:2} "
            f"{flags}{extras}"
        )
    return 0


def cmd_sweep(args) -> int:
    from repro.fleet import executor_from_config, run_sweep
    from repro.runtime import JournalMismatch

    task = {
        "workload": args.workload,
        "cores": args.cores,
        "length": args.length,
        "alpha": args.alpha,
        "cache_size": args.cache_size,
        "tau": args.tau,
        "strategy": args.strategy,
    }
    seeds = list(range(args.seed, args.seed + args.seeds))
    config = {"kind": args.executor}
    if args.endpoints:
        config["endpoints"] = list(args.endpoints)
    for key in ("max_workers", "retries", "hedge_after_s"):
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    try:
        executor = executor_from_config(config)
    except (TypeError, ValueError) as exc:
        raise SystemExit(str(exc))
    on_outcome = None
    if not args.quiet:

        def on_outcome(outcome):
            where = f" @{outcome.endpoint}" if outcome.endpoint else ""
            print(
                f"  seed {outcome.key:<6} {outcome.status:5} "
                f"attempts={outcome.attempts}{where}",
                file=sys.stderr,
            )

    try:
        try:
            sweep = run_sweep(
                task,
                seeds,
                executor=executor,
                journal=args.journal,
                on_outcome=on_outcome,
            )
        except JournalMismatch as exc:
            print(f"sweep: corrupt journal: {exc}", file=sys.stderr)
            print(
                f"diagnose it with: repro fsck --journal {args.journal}",
                file=sys.stderr,
            )
            return 1
    finally:
        executor.close()
    summary = sweep.summary()
    print(
        f"sweep   : {summary['replicas']} replicas "
        f"({summary['done']} done, {summary['errors']} error(s), "
        f"{summary['resumed']} resumed)"
    )
    topology = sweep.topology
    endpoints = topology.get("endpoints")
    where = (
        ", ".join(endpoints)
        if endpoints
        else f"workers={topology.get('max_workers')}"
    )
    print(f"executor: {topology.get('kind')} ({where})")
    if summary["done"]:
        faults, makespan = summary["faults"], summary["makespan"]
        print(
            f"faults  : mean={faults['mean']:.3f} std={faults['std']:.3f} "
            f"min={faults['min']} max={faults['max']}"
        )
        print(
            f"makespan: mean={makespan['mean']:.3f} "
            f"min={makespan['min']} max={makespan['max']}"
        )
    if summary["max_attempts"] > 1 or summary["hedged"]:
        print(
            f"faults tolerated: max_attempts={summary['max_attempts']} "
            f"hedged={summary['hedged']}"
        )
    for seed in sweep.failed_seeds:
        print(f"  ERROR seed {seed}: {sweep.outcomes[seed].error}")
    return 0 if sweep.ok else 1


def cmd_simulate(args) -> int:
    workload = load_workload(args.workload_file)
    strategy = make_strategy(args.strategy, args.cache_size, workload.num_cores)
    res = simulate(
        workload,
        args.cache_size,
        args.tau,
        strategy,
        record_trace=args.trace > 0,
    )
    print(res.summary())
    if args.trace > 0:
        print()
        print(res.trace.format(limit=args.trace))
    return 0


def cmd_generate(args) -> int:
    workload = make_workload(args)
    save_workload(workload, args.output)
    print(
        f"wrote {args.output}: p={workload.num_cores}, "
        f"n={workload.total_requests}, universe={len(workload.universe)}"
    )
    return 0


def cmd_timeline(args) -> int:
    from repro.analysis import render_timeline

    if args.workload_file:
        workload = load_workload(args.workload_file)
    else:
        workload = make_workload(args)
    strategy = make_strategy(args.strategy, args.cache_size, workload.num_cores)
    res = simulate(
        workload, args.cache_size, args.tau, strategy, record_trace=True
    )
    print(
        render_timeline(
            res.trace,
            workload.num_cores,
            args.tau,
            start=args.start,
            width=args.width,
        )
    )
    print()
    print(
        f"faults={res.total_faults} hits={res.total_hits} "
        f"makespan={res.makespan}"
    )
    return 0


def cmd_profile(args) -> int:
    from repro.workloads import profile_workload

    if args.workload_file:
        workload = load_workload(args.workload_file)
    else:
        workload = make_workload(args)
    print(profile_workload(workload).table().format_ascii())
    return 0


def cmd_cache(args) -> int:
    from repro.analysis.batch import cache_info, clear_cache

    if args.clear:
        removed = clear_cache(args.dir)
        print(f"removed {removed} cached batch result(s)")
        return 0
    info = cache_info(args.dir)
    print(f"cache dir : {info['path']}")
    print(f"entries   : {info['entries']}")
    print(f"size      : {info['bytes']} bytes")
    print(f"corrupt   : {info['corrupt']}")
    print(f"quarantine: {info['quarantined']}")
    return 0


def cmd_verify(args) -> int:
    from repro.verify import fuzz, replay_corpus, save_case

    budget_factory = _budget_factory(args)
    report = fuzz(
        args.fuzz,
        seed=args.seed,
        shrink=args.shrink,
        strategies=args.strategies,
        budget_factory=budget_factory,
        on_progress=(
            None
            if args.quiet
            else lambda done, total: print(
                f"  fuzz {done}/{total}...", file=sys.stderr
            )
        ),
    )
    if args.corpus:
        replayed, divergences = replay_corpus(args.corpus)
        report.corpus_replayed += replayed
        report.divergences.extend(divergences)
    print(report.summary())
    if args.save_failures:
        for i, div in enumerate(report.divergences):
            path = save_case(
                div.case,
                f"{args.save_failures}/{div.kind}_{div.strategy}_{i}.json",
                details=div.details,
            )
            print(f"saved {path}")
    return 0 if report.ok else 1


def _budget_factory(args):
    """Build a ``Budget`` factory from ``--deadline-s``/``--max-states``
    flags (``None`` when neither was given)."""
    deadline = getattr(args, "deadline_s", None)
    max_states = getattr(args, "max_states", None)
    if deadline is None and max_states is None:
        return None
    from repro.runtime import Budget

    return lambda: Budget(deadline_s=deadline, max_states=max_states)


def cmd_opt(args) -> int:
    from repro.offline import minimum_total_faults
    from repro.problems import FTFInstance
    from repro.runtime import BudgetExceeded

    workload = load_workload(args.workload_file)
    if workload.total_requests > args.max_requests:
        raise SystemExit(
            f"instance has {workload.total_requests} requests; Algorithm 1 "
            f"is exponential in K and p — refusing above "
            f"--max-requests={args.max_requests}"
        )
    budget_factory = _budget_factory(args)
    budget = budget_factory() if budget_factory is not None else None
    try:
        result = minimum_total_faults(
            FTFInstance(workload, args.cache_size, args.tau), budget=budget
        )
    except BudgetExceeded as exc:
        print("verdict              : DEGRADED")
        print(f"optimum bounds       : {exc.bounded.describe()}")
        print(f"DP states expanded   : {exc.bounded.states_expanded}")
        print(f"budget               : {exc}")
        return 2
    print(f"optimal total faults : {result.faults}")
    print(f"DP states expanded   : {result.states_expanded}")
    return 0


def _parse_params(pairs) -> dict:
    """Parse ``--param key=value`` pairs; values are JSON when they parse
    (numbers, lists, booleans) and plain strings otherwise."""
    import json

    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"bad --param {pair!r}: expected key=value")
        key, _, raw = pair.partition("=")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def cmd_serve(args) -> int:
    from repro.service.server import serve

    return serve(
        args.journal,
        host=args.host,
        port=args.port,
        drain_timeout_s=args.drain_timeout_s,
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        retries=args.retries,
        job_timeout_s=args.job_timeout_s,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset_s,
        snapshot_every=args.snapshot_every,
        tenant_rate_per_s=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_max_inflight=args.tenant_max_inflight,
        pool_recycle_after=args.pool_recycle_after,
    )


def cmd_fsck(args) -> int:
    from repro.store import fsck_paths

    for journal in args.journal or ():
        import os.path

        parent = os.path.dirname(os.path.abspath(journal))
        if not os.path.isdir(parent):
            print(f"fsck: no such directory for journal {journal!r}",
                  file=sys.stderr)
            return 2
    report = fsck_paths(
        cache_dir=args.cache_dir,
        runs_dir=args.runs_dir,
        journals=args.journal or (),
        repair=args.repair,
    )
    for issue in report.issues:
        print(issue.describe())
    verdict = "clean" if report.ok else f"{len(report.issues)} issue(s)"
    print(f"fsck: {report.checked} artefact(s) checked, {verdict}")
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    from repro.chaos_campaign import run_campaigns

    return run_campaigns(
        args.campaign, seed=args.seed, keep=args.keep, quiet=args.quiet
    )


def cmd_chaosnet(args) -> int:
    from repro.chaosnet import ChaosProxy, FaultSchedule
    from repro.runtime import DrainSignal

    schedule = FaultSchedule(
        seed=args.seed,
        latency_s=args.latency_s,
        jitter_s=args.jitter_s,
        drop_rate=args.drop_rate,
        reset_rate=args.reset_rate,
        blackhole_rate=args.blackhole_rate,
        trickle_rate=args.trickle_rate,
    )
    proxy = ChaosProxy(
        args.upstream, host=args.host, port=args.port, schedule=schedule
    )
    proxy.start()
    print(f"chaosnet proxy listening on {proxy.url}")
    print(f"forwarding to {args.upstream} (seed {args.seed})")
    drain = DrainSignal()
    try:
        with drain:
            drain.wait()
    finally:
        proxy.stop()
    stats = proxy.stats()
    print("chaosnet stats:")
    for key in sorted(stats):
        print(f"  {key:18}: {stats[key]}")
    return 0


def cmd_submit(args) -> int:
    from repro.service.client import Backpressure, ServiceClient

    client = ServiceClient(args.url)
    params = _parse_params(args.param)
    try:
        if args.wait:
            record = client.submit_and_wait(
                args.kind,
                params,
                deadline_s=args.deadline_s,
                timeout_s=args.timeout_s,
                tenant=args.tenant,
                priority=args.priority,
            )
        else:
            record = client.submit(
                args.kind,
                params,
                deadline_s=args.deadline_s,
                tenant=args.tenant,
                priority=args.priority,
            )
    except Backpressure as busy:
        print(f"rejected: {busy}")
        print(f"retry after {busy.retry_after_s:.1f}s")
        return 3
    print(f"job     : {record['id']}")
    print(f"state   : {record['state']}")
    if record.get("result") is not None:
        print(f"result  : {record['result']}")
    if record.get("error"):
        print(f"error   : {record['error']}")
    return {"DONE": 0, "DEGRADED": 2, "FAILED": 1}.get(record["state"], 0)


def cmd_status(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    if args.job_id:
        try:
            record = client.status(args.job_id)
        except ServiceError as exc:
            raise SystemExit(str(exc))
        for key in ("id", "kind", "state", "result", "error", "attempts"):
            print(f"{key:10}: {record.get(key)}")
        for event in record.get("events", []):
            detail = {
                k: v for k, v in event.items() if k not in ("t", "event")
            }
            print(f"  {event['t']:.3f} {event['event']} {detail or ''}")
        return 0
    jobs = client.jobs()
    if not jobs:
        print("no jobs")
        return 0
    for record in jobs:
        print(
            f"{record['id']}  {record['state']:9} {record['kind']:11}"
            f" {record.get('error') or ''}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_budget_args(sub):
    sub.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per exact-solver call; on exhaustion the "
        "result degrades to a [lower, upper] interval (DEGRADED verdict)",
    )
    sub.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help="state-expansion budget per exact-solver call (see --deadline-s)",
    )


def _add_workload_args(sub, with_tau=True):
    sub.add_argument("--workload", default="zipf", choices=WORKLOAD_NAMES)
    sub.add_argument("-p", "--cores", type=int, default=4)
    sub.add_argument("-n", "--length", type=int, default=1000)
    sub.add_argument("-K", "--cache-size", type=int, default=16)
    sub.add_argument("--alpha", type=float, default=1.2, help="zipf exponent")
    sub.add_argument("--seed", type=int, default=0)
    if with_tau:
        sub.add_argument("--tau", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    from repro._util import repro_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multicore paging reproduction (López-Ortiz & Salinger, SPAA'11)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {repro_version()}",
        help="print the package version (also reported by /healthz)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("experiment", help="run one reproduction experiment")
    sub.add_argument("id", help="experiment id, e.g. E7")
    sub.add_argument("--scale", default="small", choices=("small", "full"))
    sub.add_argument("--markdown", action="store_true")
    sub.set_defaults(func=cmd_experiment)

    sub = subs.add_parser("report", help="run all experiments, emit report")
    sub.add_argument("--scale", default="small", choices=("small", "full"))
    sub.add_argument("--output", default=None)
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="isolate crashing experiments as ERROR rows (default)",
    )
    group.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        help="abort the report on the first crashing experiment",
    )
    sub.set_defaults(func=cmd_report, fail_fast=False)

    sub = subs.add_parser(
        "run",
        help="execute a declarative experiment spec under the run registry",
    )
    sub.add_argument("spec", help="path to a JSON or YAML experiment spec")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a spec field by dotted path (repeatable), e.g. "
        "--set model.tau=2 --set experiments='[\"E1\",\"E7\"]'",
    )
    sub.add_argument(
        "--runs-dir",
        default=None,
        help="run registry root (default .repro_runs or $REPRO_RUNS_DIR)",
    )
    sub.add_argument(
        "--force",
        action="store_true",
        help="recompute even if a completed run for this spec exists",
    )
    sub.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first crashing experiment instead of recording "
        "an ERROR row",
    )
    sub.add_argument(
        "-q", "--quiet", action="store_true", help="no per-experiment progress"
    )
    sub.set_defaults(func=cmd_run)

    sub = subs.add_parser(
        "runs", help="list completed runs in the registry"
    )
    sub.add_argument(
        "--runs-dir",
        default=None,
        help="run registry root (default .repro_runs or $REPRO_RUNS_DIR)",
    )
    sub.set_defaults(func=cmd_runs)

    sub = subs.add_parser(
        "sweep",
        help="multi-seed replica sweep over a pluggable executor "
        "(docs/FLEET.md)",
    )
    _add_workload_args(sub)
    sub.add_argument("--strategy", default="S_LRU", help=STRATEGY_HELP)
    sub.add_argument(
        "--seeds",
        type=int,
        default=10,
        metavar="N",
        help="number of replica seeds, starting at --seed (default 10)",
    )
    sub.add_argument(
        "--executor",
        default="processes",
        choices=("processes", "threads", "service", "fleet"),
        help="where replicas run (default: local process pool)",
    )
    sub.add_argument(
        "--endpoints",
        nargs="+",
        default=None,
        metavar="URL",
        help="service base URLs for --executor service/fleet",
    )
    sub.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="local pool width (processes/threads executors)",
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=None,
        help="per-replica retry budget (executor default if omitted)",
    )
    sub.add_argument(
        "--hedge-after-s",
        type=float,
        default=None,
        help="fleet: resubmit a straggling replica to a second endpoint "
        "after this many seconds (first result wins)",
    )
    sub.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="crash-safe sweep journal; rerunning with the same path "
        "skips completed replicas",
    )
    sub.add_argument(
        "-q", "--quiet", action="store_true", help="no per-replica progress"
    )
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("panel", help="strategy panel on a workload")
    _add_workload_args(sub)
    sub.add_argument(
        "--strategies", nargs="*", default=None, help=STRATEGY_HELP
    )
    sub.set_defaults(func=cmd_panel)

    sub = subs.add_parser("compare", help="diff two registry runs")
    sub.add_argument(
        "runs",
        nargs="*",
        metavar="RUN",
        help="two run references (IDs, unique prefixes, or folder paths)",
    )
    sub.add_argument(
        "--runs-dir",
        default=None,
        help="run registry root (default .repro_runs or $REPRO_RUNS_DIR)",
    )
    sub.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="suppress numeric metric deltas within this relative "
        "tolerance (threshold gate; default 0 = exact)",
    )
    sub.add_argument(
        "--markdown", action="store_true", help="render the diff as markdown"
    )
    sub.set_defaults(func=cmd_compare)

    sub = subs.add_parser("simulate", help="simulate a trace file")
    sub.add_argument("--workload-file", required=True)
    sub.add_argument("--strategy", default="S_LRU", help=STRATEGY_HELP)
    sub.add_argument("-K", "--cache-size", type=int, required=True)
    sub.add_argument("--tau", type=int, default=1)
    sub.add_argument(
        "--trace", type=int, default=0, help="print the first N trace events"
    )
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("generate", help="write a synthetic workload")
    _add_workload_args(sub)
    sub.add_argument("--output", required=True)
    sub.set_defaults(func=cmd_generate)

    sub = subs.add_parser("timeline", help="ASCII execution timeline")
    _add_workload_args(sub)
    sub.add_argument("--workload-file", default=None)
    sub.add_argument("--strategy", default="S_LRU", help=STRATEGY_HELP)
    sub.add_argument("--start", type=int, default=0)
    sub.add_argument("--width", type=int, default=100)
    sub.set_defaults(func=cmd_timeline)

    sub = subs.add_parser("profile", help="workload locality profile")
    _add_workload_args(sub)
    sub.add_argument("--workload-file", default=None)
    sub.set_defaults(func=cmd_profile)

    sub = subs.add_parser("cache", help="inspect or clear the result cache")
    sub.add_argument(
        "--dir",
        default=None,
        help="cache directory (default .repro_cache or $REPRO_CACHE_DIR)",
    )
    sub.add_argument(
        "--clear", action="store_true", help="delete cached batch results"
    )
    sub.set_defaults(func=cmd_cache)

    sub = subs.add_parser(
        "verify", help="cross-engine differential verification"
    )
    sub.add_argument(
        "--fuzz",
        type=int,
        default=200,
        metavar="N",
        help="number of random/adversarial cases to fuzz (default 200)",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="shrink divergences to minimal counterexamples",
    )
    sub.add_argument(
        "--strategies",
        nargs="*",
        default=None,
        help="restrict to these kernel names (default: all registered)",
    )
    sub.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="also replay every *.json case under DIR",
    )
    sub.add_argument(
        "--save-failures",
        default=None,
        metavar="DIR",
        help="write each (shrunk) divergence as a replayable JSON case",
    )
    sub.add_argument(
        "-q", "--quiet", action="store_true", help="no progress output"
    )
    _add_budget_args(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser(
        "serve", help="run the resilient job service (docs/SERVICE.md)"
    )
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=8023)
    sub.add_argument(
        "--journal",
        default="repro_jobs.jsonl",
        help="crash-safe job journal; restarting with the same path "
        "re-enqueues unfinished jobs (default repro_jobs.jsonl)",
    )
    sub.add_argument(
        "--workers", type=int, default=2, help="worker threads (default 2)"
    )
    sub.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="admission queue bound; beyond it submissions get 429 + "
        "Retry-After (default 64)",
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=1,
        help="per-job retry budget for crashed/timed-out workers (default 1)",
    )
    sub.add_argument(
        "--job-timeout-s",
        type=float,
        default=None,
        help="hard per-attempt wall-clock kill for any job (default none)",
    )
    sub.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive failures that open a job class's circuit "
        "breaker (default 5)",
    )
    sub.add_argument(
        "--breaker-reset-s",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before admitting a probe "
        "job (default 30)",
    )
    sub.add_argument(
        "--drain-timeout-s",
        type=float,
        default=None,
        help="max seconds to wait for in-flight jobs on SIGTERM drain",
    )
    sub.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="snapshot + compact the job journal every N events so "
        "restarts replay a bounded tail (0 disables; default 1024)",
    )
    sub.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        metavar="JOBS_PER_S",
        help="per-tenant token-bucket refill rate; beyond it a tenant's "
        "submissions get 429 + Retry-After (default: no rate limit)",
    )
    sub.add_argument(
        "--tenant-burst",
        type=float,
        default=None,
        metavar="N",
        help="per-tenant token-bucket burst capacity (default: 2x rate)",
    )
    sub.add_argument(
        "--tenant-max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="max queued+running jobs per tenant (default: unlimited)",
    )
    sub.add_argument(
        "--pool-recycle-after",
        type=int,
        default=64,
        metavar="N",
        help="recycle each warm worker process after N jobs (default 64)",
    )
    sub.set_defaults(func=cmd_serve)

    sub = subs.add_parser(
        "fsck",
        help="validate on-disk stores (cache, run registry, journals)",
    )
    sub.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default .repro_cache or $REPRO_CACHE_DIR)",
    )
    sub.add_argument(
        "--runs-dir",
        default=None,
        help="run registry root (default .repro_runs or $REPRO_RUNS_DIR)",
    )
    sub.add_argument(
        "--journal",
        action="append",
        default=None,
        metavar="PATH",
        help="also check this durable-log family (repeatable), e.g. the "
        "service's repro_jobs.jsonl",
    )
    sub.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt artefacts (rename *.corrupt / move to "
        "the cache quarantine folder) instead of just reporting",
    )
    sub.set_defaults(func=cmd_fsck)

    sub = subs.add_parser(
        "chaos",
        help="scripted crash-recovery campaigns (docs/ROBUSTNESS.md)",
    )
    sub.add_argument(
        "--campaign",
        default="all",
        help="campaign name or 'all' (see repro.chaos_campaign.CAMPAIGNS)",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--keep",
        action="store_true",
        help="keep each campaign's scratch directory for post-mortem",
    )
    sub.add_argument(
        "-q", "--quiet", action="store_true", help="only the final verdict"
    )
    sub.set_defaults(func=cmd_chaos)

    sub = subs.add_parser(
        "chaosnet",
        help="deterministic TCP fault-injection proxy (repro.chaosnet)",
    )
    sub.add_argument(
        "--upstream",
        required=True,
        metavar="HOST:PORT",
        help="endpoint to forward to (host:port or an http:// URL)",
    )
    sub.add_argument(
        "--host", default="127.0.0.1", help="listen address (default lo)"
    )
    sub.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default 0: pick a free one, printed at start)",
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--latency-s",
        type=float,
        default=0.0,
        help="base one-way latency added before bytes flow",
    )
    sub.add_argument(
        "--jitter-s",
        type=float,
        default=0.0,
        help="seeded per-connection latency jitter in [0, JITTER_S)",
    )
    sub.add_argument(
        "--drop-rate",
        type=float,
        default=0.0,
        help="fraction of connections accepted then immediately closed",
    )
    sub.add_argument(
        "--reset-rate",
        type=float,
        default=0.0,
        help="fraction of connections RST after a few forwarded bytes",
    )
    sub.add_argument(
        "--blackhole-rate",
        type=float,
        default=0.0,
        help="fraction of connections that read but never answer",
    )
    sub.add_argument(
        "--trickle-rate",
        type=float,
        default=0.0,
        help="fraction of connections forwarded a few bytes at a time",
    )
    sub.set_defaults(func=cmd_chaosnet)

    sub = subs.add_parser("submit", help="submit a job to a running service")
    sub.add_argument(
        "--url", default="http://127.0.0.1:8023", help="service base URL"
    )
    sub.add_argument(
        "--kind",
        required=True,
        help="job kind: simulate, experiment, sweep, opt, or run",
    )
    sub.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="job parameter (repeatable); values parse as JSON when "
        'possible, e.g. --param id=E7 --param "seeds=[0,1,2]"',
    )
    sub.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="per-job deadline; exact-solver jobs degrade to a "
        "[lower, upper] interval (DEGRADED) instead of timing out",
    )
    sub.add_argument(
        "--tenant",
        default=None,
        help="tenant the job is billed to for quota/rate-limit purposes "
        "(default 'default')",
    )
    sub.add_argument(
        "--priority",
        default=None,
        choices=("interactive", "batch", "bulk"),
        help="admission priority class (default batch); on a full queue "
        "higher classes evict the newest lowest-class job",
    )
    sub.add_argument(
        "--wait",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="poll until the job is terminal (default; --no-wait to "
        "just print the job id)",
    )
    sub.add_argument(
        "--timeout-s",
        type=float,
        default=300.0,
        help="client-side wait deadline with --wait (default 300)",
    )
    sub.set_defaults(func=cmd_submit)

    sub = subs.add_parser(
        "status", help="job status from a running service"
    )
    sub.add_argument("job_id", nargs="?", default=None)
    sub.add_argument(
        "--url", default="http://127.0.0.1:8023", help="service base URL"
    )
    sub.set_defaults(func=cmd_status)

    sub = subs.add_parser("opt", help="exact offline optimum (Algorithm 1)")
    sub.add_argument("--workload-file", required=True)
    sub.add_argument("-K", "--cache-size", type=int, required=True)
    sub.add_argument("--tau", type=int, default=1)
    sub.add_argument("--max-requests", type=int, default=40)
    _add_budget_args(sub)
    sub.set_defaults(func=cmd_opt)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
