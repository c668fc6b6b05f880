"""Spec execution: run experiments under a locked spec, crash-safely.

:func:`execute_spec` is the in-memory engine — it runs the spec's
experiments in id order with per-experiment crash isolation (a crashing
experiment becomes an ``ERROR`` result carrying a replica fingerprint
instead of aborting its neighbours) and is what ``repro report`` now
wraps.  :func:`run_spec` adds the registry half: results stream into a
:class:`repro.store.DurableLog` under the run folder as they
complete, so a SIGKILLed run re-invoked with the same spec resumes where
it left off, and a *completed* run folder is returned whole as a cache
hit without executing anything.

Specs with a remote ``executor`` section (kind ``service`` or ``fleet``;
docs/FLEET.md) scatter their experiments as ``experiment`` jobs over the
named endpoints instead of running in-process.  The executor section is
excluded from the spec fingerprint, and remote experiments return the
same ``result_to_payload`` bodies a local run produces, so a fleet run
and a local run of one spec share a run ID and byte-identical metric
files; the topology that actually ran — and any per-experiment retry
counts — are recorded in ``run.json`` (surfaced by ``repro runs``).
"""

from __future__ import annotations

import json
import shutil
import time
import traceback
from pathlib import Path

from repro.experiments import run_experiment
from repro.experiments.base import ExperimentError, ExperimentResult
from repro.platform.registry import (
    RunRecord,
    default_runs_dir,
    environment_stamp,
    load_run,
)
from repro.platform.spec import (
    canonicalize_spec,
    experiment_overrides,
    replica_fingerprint,
    run_id_for,
    spec_fingerprint,
)
from repro.store import DurableLog, atomic_write_json

#: Run journals snapshot + compact every N completed experiments, so a
#: resumed mega-run replays a bounded tail (one payload per line is
#: large — experiment tables — which makes compaction worth it even at
#: modest counts).
JOURNAL_SNAPSHOT_EVERY = 256

__all__ = [
    "execute_spec",
    "payload_to_stub",
    "result_to_payload",
    "run_spec",
]


def _error_summary(exc: BaseException) -> str:
    """``ExcType: message (file:line in func)`` for the innermost frame."""
    frames = traceback.extract_tb(exc.__traceback__)
    location = ""
    if frames:
        frame = frames[-1]
        location = f" ({Path(frame.filename).name}:{frame.lineno} in {frame.name})"
    return f"{type(exc).__name__}: {exc}{location}"


def _run_one(spec: dict, eid: str, *, fail_fast: bool):
    """One experiment under the spec, crash-isolated, wall time stamped."""
    from repro.experiments import EXPERIMENTS

    overrides = experiment_overrides(spec)
    start = time.perf_counter()
    try:
        result = run_experiment(eid, scale=spec["scale"], overrides=overrides)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        if fail_fast:
            raise
        result = ExperimentError(
            id=eid,
            title=getattr(EXPERIMENTS[eid], "TITLE", eid),
            error=_error_summary(exc),
            fingerprint=replica_fingerprint(spec, eid),
        )
    result.seconds = time.perf_counter() - start
    return result


def _spec_executor(spec: dict, executor):
    """Resolve the executor for a spec: an explicit instance wins, else a
    remote ``executor`` section builds one (local kinds return ``None`` —
    the in-process path is already the local executor).  Returns
    ``(executor_or_None, owns_it)``."""
    if executor is not None:
        return executor, False
    config = spec.get("executor") or {}
    if config.get("kind") in ("service", "fleet"):
        from repro.fleet.executor import executor_from_config

        return executor_from_config(config), True
    return None, False


def _execute_remote(spec: dict, eids, executor, *, on_payload=None) -> dict:
    """Scatter experiments over a fleet executor; returns
    ``eid -> (payload, attempts)`` with typed ERROR payloads for
    experiments the fleet could not finish."""
    from repro.fleet.executor import ReplicaJob

    overrides = experiment_overrides(spec)
    jobs = [
        ReplicaJob(
            eid,
            {
                "id": eid,
                "scale": spec["scale"],
                "overrides": overrides,
                "payload": True,
            },
            kind="experiment",
        )
        for eid in eids
    ]
    results: dict = {}

    def record(outcome) -> None:
        from repro.experiments import EXPERIMENTS

        eid = outcome.key
        if outcome.ok:
            payload = dict(outcome.result)
        else:
            payload = result_to_payload(
                ExperimentError(
                    id=eid,
                    title=getattr(EXPERIMENTS[eid], "TITLE", eid),
                    error=outcome.error or "fleet replica failed",
                    fingerprint=replica_fingerprint(spec, eid),
                )
            )
        results[eid] = (payload, outcome.attempts)
        if on_payload is not None:
            on_payload(eid, payload, outcome.attempts)

    executor.run(jobs, on_outcome=record)
    return results


def execute_spec(spec: dict, *, fail_fast: bool = False, executor=None) -> list:
    """Run every experiment the spec selects, in id order.

    Returns a list of :class:`ExperimentResult` /
    :class:`ExperimentError` objects (the latter only without
    ``fail_fast``).  Purely in-memory: no registry folder is written —
    that is :func:`run_spec`'s job.

    ``executor`` (or a remote ``executor`` section in the spec) scatters
    the experiments over a :mod:`repro.fleet` backend instead; each
    returned stub then carries the fleet attempt count as an
    ``attempts`` attribute.
    """
    spec = canonicalize_spec(spec)
    executor, owns = _spec_executor(spec, executor)
    if executor is None:
        return [
            _run_one(spec, eid, fail_fast=fail_fast)
            for eid in spec["experiments"]
        ]
    try:
        remote = _execute_remote(spec, spec["experiments"], executor)
    finally:
        if owns:
            executor.close()
    results = []
    for eid in spec["experiments"]:
        payload, attempts = remote[eid]
        if fail_fast and payload.get("verdict") == "ERROR":
            raise RuntimeError(
                f"experiment {eid} failed on the fleet: "
                f"{payload.get('error', '')}"
            )
        stub = payload_to_stub(payload)
        stub.attempts = attempts
        results.append(stub)
    return results


# ---------------------------------------------------------------------------
# result (de)serialisation
# ---------------------------------------------------------------------------


def result_to_payload(result) -> dict:
    """The JSON payload for one experiment outcome.

    Everything except ``seconds`` is deterministic for a given (spec,
    code) pair; the registry strips ``seconds`` before writing metric
    tables so those files are byte-identical across identical runs.
    """
    payload = {
        "id": result.id,
        "title": result.title,
        "verdict": result.verdict(),
        "ok": bool(result.ok),
        "seconds": round(result.seconds, 3),
    }
    if isinstance(result, ExperimentError):
        payload["error"] = result.error
        payload["fingerprint"] = result.fingerprint
    else:
        payload["claim"] = result.claim
        payload["checks"] = dict(result.checks)
        payload["notes"] = result.notes
        payload["table"] = {
            "title": result.table.title,
            "columns": list(result.table.columns),
            "rows": [list(row) for row in result.table.rows],
        }
    return payload


def payload_to_stub(payload: dict):
    """Rebuild a result object from its payload (for rendering resumed or
    cached runs with the standard formatters)."""
    from repro.analysis.tables import Table

    if payload.get("verdict") == "ERROR":
        return ExperimentError(
            id=payload["id"],
            title=payload["title"],
            error=payload.get("error", ""),
            seconds=payload.get("seconds", 0.0),
            fingerprint=payload.get("fingerprint", ""),
        )
    table_data = payload.get("table", {})
    table = Table(table_data.get("title", ""), table_data.get("columns", []))
    table.rows = [list(row) for row in table_data.get("rows", [])]
    return ExperimentResult(
        id=payload["id"],
        title=payload["title"],
        claim=payload.get("claim", ""),
        table=table,
        checks=dict(payload.get("checks", {})),
        notes=payload.get("notes", ""),
        seconds=payload.get("seconds", 0.0),
    )


def _metric_body(payload: dict) -> dict:
    """The deterministic slice of a payload (wall time excluded)."""
    return {k: v for k, v in payload.items() if k != "seconds"}


def _write_json(path: Path, body) -> None:
    """Publish a registry artefact atomically and durably.

    ``run.json`` is the folder's completion marker, so it must never be
    observable half-written, and the rename that publishes it must
    survive power loss (write-temp → fsync → rename → fsync(dir)).
    """
    atomic_write_json(path, body)


# ---------------------------------------------------------------------------
# registry-backed runs
# ---------------------------------------------------------------------------


def run_spec(
    spec: dict,
    *,
    runs_dir=None,
    force: bool = False,
    fail_fast: bool = False,
    on_progress=None,
    executor=None,
) -> RunRecord:
    """Run a spec under the registry; return its :class:`RunRecord`.

    * The run ID is content-addressed (spec + code generation), so a
      **completed** folder for this spec is returned as a cache hit
      without executing anything (``record.cached``); ``force=True``
      deletes and recomputes it.
    * An **interrupted** folder (journal present, ``run.json`` absent)
      resumes: journaled experiments are restored, the rest run.
    * Each experiment's payload is journaled the moment it completes
      (crash-safe via :class:`repro.store.DurableLog`), and the
      folder is finalised — metric tables, error replay descriptors,
      ``run.json`` — only after the last one.
    * ``executor`` (or a remote ``executor`` spec section) scatters the
      experiments over a :mod:`repro.fleet` backend; ``run.json`` then
      records the fleet topology and per-experiment attempt counts
      (metric files stay byte-identical to a local run — attempts are
      run metadata, not results).
    """
    spec = canonicalize_spec(spec)
    rid = run_id_for(spec)
    root = Path(runs_dir) if runs_dir is not None else default_runs_dir()
    folder = root / rid

    if (folder / "run.json").is_file():
        if not force:
            return load_run(folder)
        shutil.rmtree(folder)

    folder.mkdir(parents=True, exist_ok=True)
    _write_json(folder / "spec.lock.json", spec)

    executor, owns_executor = _spec_executor(spec, executor)
    payloads: dict = {}
    seconds: dict = {}
    attempts: dict = {}
    resumed = 0
    journal = DurableLog(
        folder / "journal.jsonl", rid,
        snapshot_every=JOURNAL_SNAPSHOT_EVERY,
    )
    try:
        todo = []
        for eid in spec["experiments"]:
            if eid in journal.completed:
                payloads[eid] = dict(journal.completed[eid])
                seconds[eid] = payloads[eid].get("seconds", 0.0)
                resumed += 1
                if on_progress is not None:
                    on_progress(eid, payloads[eid])
            else:
                todo.append(eid)
        if executor is not None and todo:

            def on_payload(eid, payload, n_attempts):
                journal.record(eid, payload)
                payloads[eid] = payload
                seconds[eid] = payload.get("seconds", 0.0)
                if n_attempts > 1:
                    attempts[eid] = n_attempts
                if on_progress is not None:
                    on_progress(eid, payload)

            _execute_remote(spec, todo, executor, on_payload=on_payload)
            if fail_fast:
                for eid in todo:
                    if payloads[eid].get("verdict") == "ERROR":
                        raise RuntimeError(
                            f"experiment {eid} failed on the fleet: "
                            f"{payloads[eid].get('error', '')}"
                        )
        else:
            for eid in todo:
                result = _run_one(spec, eid, fail_fast=fail_fast)
                payload = result_to_payload(result)
                journal.record(eid, payload)
                payloads[eid] = payload
                seconds[eid] = payload.get("seconds", 0.0)
                if on_progress is not None:
                    on_progress(eid, payload)
        payloads = {
            eid: payloads[eid] for eid in spec["experiments"]
        }  # id order, however the fleet finished
    finally:
        journal.close()
        if owns_executor:
            executor.close()

    for eid, payload in payloads.items():
        _write_json(folder / "metrics" / f"{eid}.json", _metric_body(payload))
        if payload.get("verdict") == "ERROR":
            _write_json(
                folder / "errors" / f"{eid}.json",
                {
                    "schema": "repro-run-error/1",
                    "id": eid,
                    "error": payload.get("error", ""),
                    "fingerprint": payload.get("fingerprint", ""),
                    "run_id": rid,
                    "spec": spec,
                    "replay": (
                        f"python -m repro run {folder / 'spec.lock.json'} "
                        f"--set experiments={eid} --force"
                    ),
                },
            )

    environment = environment_stamp()
    run_body = {
        "schema": 1,
        "run_id": rid,
        "spec_fingerprint": spec_fingerprint(spec),
        "name": spec["name"],
        "scale": spec["scale"],
        "ok": all(p.get("ok") for p in payloads.values()),
        "verdicts": {e: p.get("verdict") for e, p in payloads.items()},
        "seconds": seconds,
        "total_seconds": round(sum(seconds.values()), 3),
        "created_at": time.time(),
        "environment": environment,
    }
    if executor is not None:
        run_body["topology"] = executor.describe()
    if attempts:
        # Only experiments that needed >1 attempt: flaky-replica
        # visibility for `repro runs` without noise on clean runs.
        run_body["attempts"] = {e: attempts[e] for e in sorted(attempts)}
    _write_json(folder / "run.json", run_body)
    return RunRecord(
        run_id=rid,
        spec=spec,
        payloads=payloads,
        path=folder,
        cached=False,
        resumed=resumed,
        seconds=seconds,
        environment=environment,
        topology=run_body.get("topology", {}),
        attempts=dict(attempts),
    )
