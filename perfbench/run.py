#!/usr/bin/env python3
"""The repository's benchmark: five workloads, end-to-end metrics, and an
outside-in per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_fleet --seed 1 --seconds 25 \\
        --trace 0

Workloads (see each module's docstring):

``sweep_local``    closed loop; ``run_sweep`` on the default ``processes``
                   executor, 2 workers (``sweeps.py``)
``sweep_fleet``    closed loop; ``run_sweep`` over ``FleetExecutor`` against
                   two ``repro serve`` children, one connection each
``sweep_service``  closed loop; ``run_sweep`` over the ``service`` executor
                   against one ``repro serve`` child, two connections
``serve_mixed``    open loop; a fixed offered rate of mixed jobs against one
                   ``repro serve`` child (``serve_mixed.py``)
``run_small``      ``repro run`` of ``{"scale": "small"}`` (``run_small.py``)

Only ``sweep_fleet`` and ``sweep_service`` are in ``BENCHMARK.json``: the
executor's 50 ms status poll sets most of their round trip, so they hold
still on a shared 2-core host whose speed swings up to 2x within minutes.
The other three stay runnable, but their metrics follow the host's speed
by more than any bound the benchmark may set: ``sweep_local`` and one
single-threaded ``repro run`` are CPU-bound, and job latency grows faster
than the host slows.  Their layers are timed by every traced run.

Every run starts from fresh state: its own scratch directory with the
journals, ``REPRO_RUNS_DIR`` and ``REPRO_CACHE_DIR``, and seeds starting at
``seed * 10**6``.  All timings are host wall time; simulated quantities
(faults, makespans, verdicts) are only checked, never timed.  Outputs are
checked before any number is reported; a failed check prints
``"correct": false`` with no metrics and exits 1.

End-to-end metrics (``--trace 0``), defined on every workload:

``setup_s``         median of three launches to ready: interpreter start
                    plus ``import repro.cli`` (``sweep_local``,
                    ``run_small``); spawning ``repro serve`` to a healthy
                    ``/healthz`` (``sweep_fleet``, ``sweep_service``,
                    ``serve_mixed``)
``replicas_per_s``  replicas completed per second: seeds per sweep wall time
                    (median over sweeps); DONE ``replica`` jobs per second
                    of the session (``serve_mixed``); experiments, the
                    platform's replicas, per ``repro run`` wall time
``run_s``           wall time of one unit of work: a sweep, the open-loop
                    session (first due time to last terminal job), or one
                    ``repro run`` (median where there are several)
``latency_p50_ms``, ``latency_p99_ms``
                    time from when a result was due until the client saw
                    it: a job from its send time (``serve_mixed``), a
                    replica or experiment from the start of its sweep or
                    ``repro run``; failed or refused jobs count as
                    exceeding every limit.  The sweeps report the median
                    over sweeps of each sweep's own percentile
``peak_rss_mb``     the largest peak RSS among the workload's processes

``error_ratio`` (failed over attempted operations) is printed with the
others; it is the ``failed``/``attempted`` pair of the result line and not
a metric of its own there, because it is 0 on a healthy run.

``--trace 1`` runs the same workload with spans recorded around calls into
the program's public functions, prints its end-to-end numbers beside the
layer metrics (the cost of tracing), writes the spans to
``.perfbench/trace-<workload>-<seed>.json`` and reports every per-layer
metric (``layers.py``), plus the per-replica ledgers of ``sweep_fleet``
and ``sweep_local``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402
from common import CheckFailed, Scratch, Tracer, median  # noqa: E402

#: Launches per run behind the ``setup_s`` median.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "replicas_per_s": "1/s",
    "run_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class Outcome:
    """What a workload hands back: end-to-end numbers, operation counts,
    extra lines for the report, and the layer numbers it measured."""

    def __init__(self, numbers: dict, setup: list, rss_mb: float):
        self.attempted = numbers.pop("attempted")
        self.failed = numbers.pop("failed")
        self.samples = numbers.pop("samples")
        self.metrics = {key: numbers.pop(key) for key in END_TO_END
                        if key in numbers}
        self.metrics["setup_s"] = median(setup)
        self.metrics["peak_rss_mb"] = rss_mb
        self.extra = numbers
        self.setup = setup
        self.layers: dict = {}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def sweep_local(args, scratch: Scratch, tracer: Tracer) -> Outcome:
    import sweeps

    # ``repro sweep`` has imported the CLI before its pool forks workers.
    import repro.cli  # noqa: F401

    setup = common.time_imports(scratch.env, SETUP_SAMPLES)
    layers.wrap_coordinator(tracer)
    runs = sweeps.sweep_loop(
        sweeps.LOCAL_TASK, sweeps.LOCAL_SEEDS_PER_SWEEP, args.seconds,
        args.seed * 10**6, sweeps.local_executor, scratch, tracer)
    tracer.unwrap_all()
    rss = common.peak_rss_mb()
    sweeps.check_sweeps(sweeps.LOCAL_TASK, runs)
    outcome = Outcome(sweeps.summarize(runs), setup, rss)
    outcome.layers["sweep_local"] = outcome.metrics
    return outcome


def _served_sweeps(args, scratch: Scratch, tracer: Tracer, names,
                   make_executor, records: dict):
    """Sweeps of ``FLEET_TASK`` through ``make_executor(urls)`` against one
    ``repro serve`` child per name; returns the outcome and the sweeps."""
    import sweeps

    import repro.cli  # noqa: F401

    first = args.seed * 10**6
    with common.servers(scratch, names) as running:
        urls = [server.url for server in running]
        # Warm pools are a once-per-server cost: build them first.
        sweeps.sweep_loop(sweeps.FLEET_TASK, 8, 0, first + 900_000,
                          lambda: make_executor(urls), scratch, Tracer(False))
        layers.wrap_coordinator(tracer)
        layers.wrap_client(tracer, records)
        runs = sweeps.sweep_loop(
            sweeps.FLEET_TASK, sweeps.FLEET_SEEDS_PER_SWEEP, args.seconds,
            first, lambda: make_executor(urls), scratch, tracer)
        tracer.unwrap_all()
        setup = [server.setup_s for server in running]
    setup += _extra_boots(scratch, SETUP_SAMPLES - len(setup))
    rss = common.peak_rss_mb()
    sweeps.check_sweeps(sweeps.FLEET_TASK, runs)
    return Outcome(sweeps.summarize(runs), setup, rss), runs


def sweep_fleet(args, scratch: Scratch, tracer: Tracer) -> Outcome:
    import sweeps

    records: dict = {}
    outcome, runs = _served_sweeps(args, scratch, tracer, ["a", "b"],
                                   sweeps.fleet_executor, records)
    outcome.layers.update(fleet_records=records, fleet_runs=runs)
    return outcome


def sweep_service(args, scratch: Scratch, tracer: Tracer) -> Outcome:
    import sweeps

    outcome, _runs = _served_sweeps(args, scratch, tracer, ["service"],
                                    sweeps.service_executor, {})
    return outcome


def _extra_boots(scratch: Scratch, count: int) -> list:
    samples = []
    for index in range(count):
        with common.servers(scratch, [f"boot{index}"]) as (server,):
            samples.append(server.setup_s)
    return samples


def serve_mixed(args, scratch: Scratch, tracer: Tracer) -> Outcome:
    import serve_mixed as mixed

    import repro.cli  # noqa: F401

    with common.servers(scratch, ["mixed"]) as (server,):
        layers.wrap_client(tracer, {})
        raw = mixed.run(server.url, args.seed, args.seconds)
        tracer.unwrap_all()
        setup = [server.setup_s]
    setup += _extra_boots(scratch, SETUP_SAMPLES - len(setup))
    rss = common.peak_rss_mb()
    numbers = mixed.summarize(raw)
    info = mixed.check_results(raw["loop"], raw["server_jobs"])
    numbers.update(info)
    outcome = Outcome(numbers, setup, rss)
    outcome.layers["serve_raw"] = raw
    return outcome


def run_small(args, scratch: Scratch, tracer: Tracer) -> Outcome:
    import run_small as small

    setup = common.time_imports(scratch.env, SETUP_SAMPLES)
    runs = small.run(scratch, args.seconds, tracer)
    rss = common.peak_rss_mb()
    small.check_runs(runs)
    outcome = Outcome(small.summarize(runs), setup, rss)
    outcome.layers["run_small_runs"] = runs
    return outcome


WORKLOADS = {
    "sweep_local": sweep_local,
    "sweep_fleet": sweep_fleet,
    "sweep_service": sweep_service,
    "serve_mixed": serve_mixed,
    "run_small": run_small,
}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:34s} {value:14.4f} {unit}")


def _shrink() -> None:
    """Tiny sizes for the smoke test: every code path and metric, in
    seconds."""
    import run_small
    import serve_mixed
    import sweeps

    sweeps.LOCAL_SEEDS_PER_SWEEP = 16
    sweeps.FLEET_SEEDS_PER_SWEEP = 8
    serve_mixed.RATE = 20.0
    run_small.SPEC = {"scale": "small", "experiments": ["E1", "E2"]}
    run_small.EXPERIMENTS = 2
    layers.PROBE_REPLICAS = 4
    layers.MINI_SERVE_S = 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, for the benchmark's own tests; the numbers are "
        "not comparable with full-size runs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    common.require_source()
    common.adopt_orphans()
    try:
        return _run(args)
    finally:
        common.reap_children()


def _run(args) -> int:
    # The build step of a pure-python program: byte-compile once per
    # checkout, so no timed launch pays for compilation.
    compileall.compile_dir(str(common.SRC), quiet=1)

    if args.smoke:
        _shrink()
    tracer = Tracer(bool(args.trace))
    with Scratch(args.workload) as scratch:
        try:
            outcome = WORKLOADS[args.workload](args, scratch, tracer)
            if args.trace:
                layer_metrics = layers.collect(args, scratch, tracer, outcome)
        except CheckFailed as exc:
            print(f"CHECK FAILED ({args.workload}): {exc}", file=sys.stderr)
            print(_result_line(False, 1, 1, {}))
            return 1
        finally:
            tracer.unwrap_all()

    error_ratio = outcome.failed / outcome.attempted
    rows = [(name, outcome.metrics[name], unit)
            for name, unit in END_TO_END.items()]
    rows.append(("error_ratio", error_ratio, "ratio"))
    _print_table(
        f"{args.workload} (seed {args.seed}, {args.seconds:g} s"
        f"{', traced' if args.trace else ''}): {outcome.attempted} "
        f"attempted, {outcome.failed} failed, {outcome.samples} latency "
        f"samples", rows)
    for name, value in sorted(outcome.extra.items()):
        print(f"  {name:34s} {value:14.4f}")
    if not args.trace:
        print(_result_line(True, outcome.attempted, outcome.failed, {
            name: (outcome.metrics[name], unit)
            for name, unit in END_TO_END.items()
        }))
        return 0
    path = common.WORK / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(path)
    print(f"spans: {len(tracer.spans)} written to {path}")
    layers.print_ledgers(layer_metrics)
    print(_result_line(True, outcome.attempted, outcome.failed, {
        name: (layer_metrics[name], unit)
        for name, unit in layers.PER_LAYER.items()
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
