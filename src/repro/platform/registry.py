"""The run registry: content-addressed, crash-safe run folders.

Every ``repro run`` lands in ``<runs_dir>/<run_id>/`` where the run ID
is a content hash of the canonical spec plus the code generation
(:func:`repro.platform.spec.run_id_for`) — the same spec under the same
code always maps to the same folder, which is what makes a second run a
pure cache hit and makes two runs comparable by construction.

Folder layout::

    .repro_runs/<run_id>/
        spec.lock.json     # the locked canonical spec (what actually ran)
        journal.jsonl      # DurableLog manifest; interrupted runs resume
        metrics/E1.json    # one deterministic metric table per experiment
        errors/E3.json     # replay descriptor per crashed experiment
        run.json           # summary: env stamp, wall times, verdicts (written last)

``run.json`` is written *last*, so its presence is the completion marker:
a folder without it is an interrupted run, and re-running the spec
resumes from ``journal.jsonl`` instead of recomputing finished
experiments.  Metric tables exclude wall-clock times (those live in
``run.json``), so identical work produces **byte-identical** metric
files — the property the run-diff machinery and the
``platform_lifecycle`` chaos campaign rely on.
"""

from __future__ import annotations

import json
import os
import platform as _platform
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RunNotFound",
    "RunRecord",
    "default_runs_dir",
    "environment_stamp",
    "list_runs",
    "load_run",
    "resolve_run",
]

_RUNS_ENV = "REPRO_RUNS_DIR"

#: run.json layout version.
RUN_SCHEMA = 1


class RunNotFound(ValueError):
    """A run reference matched no (or more than one) registered run."""


def default_runs_dir() -> Path:
    """The registry root: ``$REPRO_RUNS_DIR`` or ``.repro_runs``."""
    return Path(os.environ.get(_RUNS_ENV, ".repro_runs"))


def environment_stamp() -> dict:
    """Where a run was produced: interpreter, platform, code generation."""
    from repro._util import repro_version
    from repro.analysis.batch import CACHE_VERSION

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        numpy_version = None
    return {
        "python": _platform.python_version(),
        "platform": _platform.platform(),
        "repro": repro_version(),
        "cache_version": CACHE_VERSION,
        "numpy": numpy_version,
    }


@dataclass
class RunRecord:
    """One completed (or cache-loaded) registry run."""

    run_id: str
    spec: dict
    #: experiment id -> deterministic metric payload (see runner docs).
    payloads: dict = field(default_factory=dict)
    path: Path | None = None
    #: True when the run was served whole from an existing complete folder.
    cached: bool = False
    #: Experiments restored from the journal of an interrupted earlier run.
    resumed: int = 0
    #: Per-experiment wall seconds (registry metadata, not metric data).
    seconds: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    #: Executor topology that produced the run ({} for plain local runs).
    topology: dict = field(default_factory=dict)
    #: experiment id -> attempt count, for experiments that needed >1
    #: fleet attempt (flaky-replica visibility; docs/FLEET.md).
    attempts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Did every experiment reproduce (no check failures, no crashes)?"""
        return all(p.get("ok") for p in self.payloads.values())

    @property
    def verdicts(self) -> dict:
        return {eid: p.get("verdict") for eid, p in self.payloads.items()}

    @property
    def errors(self) -> dict:
        """experiment id -> error summary, for crashed experiments only."""
        return {
            eid: p["error"]
            for eid, p in self.payloads.items()
            if p.get("verdict") == "ERROR"
        }

    def summary(self) -> dict:
        body = {
            "run_id": self.run_id,
            "name": self.spec.get("name"),
            "scale": self.spec.get("scale"),
            "experiments": len(self.payloads),
            "ok": self.ok,
            "errors": len(self.errors),
            "cached": self.cached,
        }
        if self.topology:
            body["executor"] = self.topology.get("kind")
        if self.attempts:
            body["retried"] = sum(n - 1 for n in self.attempts.values())
        return body


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def load_run(path) -> RunRecord:
    """Load one completed run folder into a :class:`RunRecord`."""
    path = Path(path)
    run_file = path / "run.json"
    if not run_file.is_file():
        raise RunNotFound(
            f"{path} is not a completed run (no run.json; an interrupted "
            f"run resumes by re-running its spec)"
        )
    meta = _read_json(run_file)
    spec = _read_json(path / "spec.lock.json")
    payloads = {}
    metrics_dir = path / "metrics"
    if metrics_dir.is_dir():
        for metric_file in sorted(metrics_dir.glob("*.json")):
            payload = _read_json(metric_file)
            payloads[payload["id"]] = payload
    return RunRecord(
        run_id=meta["run_id"],
        spec=spec,
        payloads=payloads,
        path=path,
        cached=True,
        seconds=dict(meta.get("seconds", {})),
        environment=dict(meta.get("environment", {})),
        topology=dict(meta.get("topology", {})),
        attempts=dict(meta.get("attempts", {})),
    )


def list_runs(runs_dir=None) -> list[RunRecord]:
    """Every completed run under ``runs_dir``, sorted by run ID."""
    root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    records = []
    if root.is_dir():
        for child in sorted(root.iterdir()):
            if (child / "run.json").is_file():
                records.append(load_run(child))
    return records


def resolve_run(ref: str, runs_dir=None) -> RunRecord:
    """Resolve a run reference — a folder path, a run ID, or a unique ID
    prefix — to its loaded record."""
    as_path = Path(ref)
    if as_path.is_dir() and (as_path / "run.json").is_file():
        return load_run(as_path)
    root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    exact = root / ref
    if exact.is_dir() and (exact / "run.json").is_file():
        return load_run(exact)
    if root.is_dir():
        matches = [
            child
            for child in sorted(root.iterdir())
            if child.name.startswith(ref) and (child / "run.json").is_file()
        ]
        if len(matches) == 1:
            return load_run(matches[0])
        if len(matches) > 1:
            names = ", ".join(m.name for m in matches)
            raise RunNotFound(f"run reference {ref!r} is ambiguous: {names}")
    raise RunNotFound(
        f"no completed run matches {ref!r} under {root} "
        f"(see `repro runs` for the registry)"
    )
