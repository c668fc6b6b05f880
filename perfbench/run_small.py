"""``run_small``: ``repro run`` of ``{"scale": "small"}`` (all 18
experiments) with ``--force``, each time into a fresh run registry.

The only workload on the ``experiments``, ``hardness``, reference
``core.simulator`` and ``platform`` layers.  Its inputs are fixed by the
spec; the seed does not enter.  Each experiment's latency is the time from
launching ``repro run`` until its progress line reaches the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

from common import PYTHON, check, median, percentile

SPEC = {"scale": "small"}
EXPERIMENTS = 18


def run(scratch, seconds: float, tracer, min_runs: int = 2) -> list[dict]:
    """``repro run`` repeatedly until ``seconds`` are spent (to the nearest
    run, and at least twice by default, so metric files can be
    compared)."""
    spec_path = scratch.file("small.json")
    Path(spec_path).write_text(json.dumps(SPEC), encoding="utf-8")
    runs = []
    begin = time.perf_counter()
    while True:
        runs_dir = scratch.file(f"runs-{len(runs)}")
        done_at, verdicts = {}, {}
        start = time.perf_counter()
        proc = subprocess.Popen(
            [PYTHON, "-m", "repro", "run", spec_path, "--force",
             "--runs-dir", runs_dir],
            env=scratch.env, cwd=str(scratch.path), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            for line in proc.stderr:
                words = line.split()
                if words and words[0][:1] == "E" and words[0][1:].isdigit():
                    done_at[words[0]] = time.perf_counter() - start
                    verdicts[words[0]] = words[1]
            stdout = proc.stdout.read()
        finally:
            code = proc.wait()
        end = time.perf_counter()
        tracer.add("repro.run", start, end, request=len(runs))
        runs.append({"wall": end - start, "code": code, "stdout": stdout,
                     "done_at": done_at, "verdicts": verdicts,
                     "runs_dir": Path(runs_dir)})
        spent = end - begin
        if len(runs) >= min_runs and spent + (spent / len(runs)) / 2 >= seconds:
            return runs


def _folder(run: dict) -> Path:
    folders = [p for p in run["runs_dir"].iterdir() if p.is_dir()]
    check(len(folders) == 1, f"expected one run folder, got {folders}")
    return folders[0]


def _deterministic(raw: bytes) -> dict:
    """A metric file without the ``seconds`` table columns: E10 and E13
    tabulate their own solver wall times, which no two runs share."""
    body = json.loads(raw)
    table = body.get("table")
    if table and "seconds" in table["columns"]:
        col = table["columns"].index("seconds")
        table["rows"] = [row[:col] + row[col + 1:] for row in table["rows"]]
    return body


def check_runs(runs) -> None:
    """18 REPRODUCED verdicts per run; metric files identical between
    runs, apart from wall-time columns."""
    tables = []
    for index, run in enumerate(runs):
        check(run["code"] == 0, f"repro run {index} exited {run['code']}: "
              f"{run['stdout'][-300:]}")
        folder = _folder(run)
        body = json.loads((folder / "run.json").read_text(encoding="utf-8"))
        verdicts = body["verdicts"]
        check(len(verdicts) == EXPERIMENTS
              and all(v == "REPRODUCED" for v in verdicts.values()),
              f"repro run {index} verdicts: {verdicts}")
        check(len(run["done_at"]) == EXPERIMENTS,
              f"repro run {index} reported {len(run['done_at'])} experiments")
        tables.append({
            path.name: _deterministic(path.read_bytes())
            for path in sorted((folder / "metrics").iterdir())
        })
    for index, table in enumerate(tables[1:], start=1):
        check(table == tables[0],
              f"metric files of run {index} differ from run 0")


def summarize(runs) -> dict:
    latencies = [t for run in runs for t in run["done_at"].values()]
    return {
        "run_s": median(run["wall"] for run in runs),
        "replicas_per_s": median(EXPERIMENTS / run["wall"] for run in runs),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "samples": len(latencies),
        "attempted": EXPERIMENTS * len(runs),
        "failed": sum(
            EXPERIMENTS - len(run["done_at"])
            + sum(1 for v in run["verdicts"].values() if v == "ERROR")
            for run in runs
        ),
    }


def unattributed_s(runs) -> float:
    """Median over runs of wall time minus the experiment seconds each
    ``repro run`` recorded in its run.json."""
    return median(
        run["wall"] - sum(json.loads(
            (_folder(run) / "run.json").read_text(encoding="utf-8")
        )["seconds"].values())
        for run in runs
    )
