"""Smoke test of the benchmark itself: every workload at tiny size.

Checks that each run prints a well-formed result line, that every metric
``BENCHMARK.json`` names is emitted with its unit (end-to-end metrics from
untraced runs, per-layer metrics from a traced run), and that every name
matches ``[A-Za-z0-9_.-]+``.  Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def _assert_emitted(metrics: dict, declared: list) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        emitted = metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]


def test_names():
    named = [w["name"] for w in CONFIG["workloads"]]
    named += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert all(NAME.fullmatch(name) for name in named)
    assert len(named) == len(set(named))


@pytest.mark.parametrize(
    "workload",
    [w["name"] for w in CONFIG["workloads"]]
    + ["sweep_local", "serve_mixed", "run_small"])
def test_end_to_end_metrics(workload):
    metrics = _run(workload, 0)
    _assert_emitted(metrics, CONFIG["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


def test_per_layer_metrics():
    _assert_emitted(_run("serve_mixed", 1), CONFIG["per_layer"])


def test_refuses_without_program(tmp_path):
    """In a directory holding only the benchmark, it fails and prints no
    result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
