"""Job execution: what actually runs inside a service worker process.

:func:`execute_payload` is the (picklable, module-level) entry point the
server hands to :meth:`repro.runtime.pool.WarmWorkerPool.run_one`.  It is
deliberately transport-shaped: the payload crosses the pool boundary as
a JSON string (hashable, so the pool can key results by it) carrying
the job id, kind, params, and deadline.

Robustness contract per kind:

``opt`` (exact solver)
    The job's ``deadline_s`` is threaded into the solver as a
    :class:`repro.runtime.Budget`.  An overloaded server therefore
    returns a ``DEGRADED`` payload carrying a valid ``[lower, upper]``
    interval around the optimum — never a timeout error.
``simulate`` / ``experiment`` / ``sweep``
    Polynomial work with no principled partial answer; the deadline is
    enforced by the server's hard per-attempt timeout instead
    (kill + retry + eventually ``FAILED``).
``run``
    A declarative experiment spec executed under the run registry
    (:mod:`repro.platform`); the spec is canonicalized at admission so
    the job fingerprint — and therefore the service's dedup store —
    keys on spec content, and a killed worker resumes from the run
    folder's journal on retry instead of recomputing.
``replica`` / ``sweep``
    One seed's simulation, or one per seed of a ``seeds`` list — the
    fleet executor's units of work (docs/FLEET.md).  Both run each seed
    through the same :func:`~repro.core.kernels.simulate_fast` path as
    local :func:`repro.analysis.batch.batch_run` replicas; a ``replica``
    returns the ``{"faults", "makespan"}`` pair, a ``sweep`` the same
    numbers keyed by ``str(seed)`` in its ``faults``/``makespans``, which
    is what makes fleet aggregates bit-identical to local ones.

Chaos composition: every attempt first passes through the ``REPRO_CHAOS``
hooks keyed by ``("job", id)``, so the existing fault injector can
crash (hard, producing a real ``BrokenProcessPool`` under the pool) or
slow service workers exactly as it does sweep replicas — that is what
the chaos-under-service acceptance tests drive.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

from repro.runtime import Budget, BudgetExceeded
from repro.runtime.chaos import maybe_crash, maybe_slow
from repro.service.jobs import JOB_KINDS

__all__ = ["execute_payload", "run_job", "validate_spec"]

#: Defaults mirrored from the CLI workload flags (cli._add_workload_args).
_WORKLOAD_DEFAULTS = {
    "workload": "zipf",
    "cores": 4,
    "length": 1000,
    "cache_size": 16,
    "alpha": 1.2,
    "seed": 0,
    "tau": 1,
}


def _build_workload(params: dict):
    """A workload from job params: inline ``sequences`` win, else the
    named synthetic generators (same spec language as the CLI)."""
    if "sequences" in params:
        from repro import Workload

        return Workload(params["sequences"])
    from repro.cli import make_workload

    spec = {
        key: params.get(key, default)
        for key, default in _WORKLOAD_DEFAULTS.items()
    }
    return make_workload(SimpleNamespace(**spec))


def _build_strategy(params: dict, num_cores: int):
    from repro.cli import make_strategy

    return make_strategy(
        params.get("strategy", "S_LRU"),
        params.get("cache_size", _WORKLOAD_DEFAULTS["cache_size"]),
        num_cores,
    )


def validate_spec(kind: str, params: dict) -> None:
    """Admission-time validation: reject unrunnable jobs with a clear
    error *before* they consume a queue slot.

    Builds the workload/strategy (cheap at admission sizes) so a typo'd
    strategy spec or experiment id is a 400 to the submitter, not a
    FAILED job half a queue later.
    """
    if kind not in JOB_KINDS:
        raise ValueError(
            f"unknown job kind {kind!r}; choose from {', '.join(JOB_KINDS)}"
        )
    try:
        if kind == "experiment":
            from repro.experiments import EXPERIMENTS

            experiment_id = str(params.get("id", "")).upper()
            if experiment_id not in EXPERIMENTS:
                raise ValueError(
                    f"unknown experiment {params.get('id')!r}; known: "
                    f"{', '.join(sorted(EXPERIMENTS))}"
                )
            if params.get("scale", "small") not in ("small", "full"):
                raise ValueError("scale must be 'small' or 'full'")
        elif kind in ("simulate", "sweep", "replica"):
            workload = _build_workload(params)
            _build_strategy(params, workload.num_cores)
            if kind == "sweep":
                seeds = params.get("seeds", [0])
                if not isinstance(seeds, list) or not seeds:
                    raise ValueError("sweep needs a non-empty 'seeds' list")
        elif kind == "opt":
            _build_workload(params)
        elif kind == "run":
            from repro.platform import SpecError, canonicalize_spec

            if not isinstance(params.get("spec"), dict):
                raise ValueError(
                    "run needs a 'spec' mapping (the declarative "
                    "experiment spec; docs/PLATFORM.md)"
                )
            runs_dir = params.get("runs_dir")
            if runs_dir is not None and not isinstance(runs_dir, str):
                raise ValueError("runs_dir must be a string path")
            try:
                # Canonicalize in place so the job fingerprint — computed
                # from these params after validation — keys on the
                # canonical spec: equivalent specs dedup to one result.
                params["spec"] = canonicalize_spec(params["spec"])
            except SpecError as exc:
                raise ValueError(str(exc)) from None
    except SystemExit as exc:  # CLI spec helpers reject via SystemExit
        raise ValueError(str(exc)) from None


# ---------------------------------------------------------------------------
# per-kind runners — each returns {"state": "DONE"|"DEGRADED", "result": ...}
# ---------------------------------------------------------------------------


def _sim_result_dict(res) -> dict:
    return {
        "faults": res.total_faults,
        "hits": res.total_hits,
        "fault_rate": round(res.fault_rate(), 6),
        "makespan": res.makespan,
        "faults_per_core": list(res.faults_per_core),
    }


def _run_simulate(params: dict) -> dict:
    from repro import simulate

    workload = _build_workload(params)
    strategy = _build_strategy(params, workload.num_cores)
    res = simulate(
        workload,
        params.get("cache_size", _WORKLOAD_DEFAULTS["cache_size"]),
        params.get("tau", _WORKLOAD_DEFAULTS["tau"]),
        strategy,
    )
    return {"state": "DONE", "result": _sim_result_dict(res)}


def _run_experiment(params: dict) -> dict:
    """Run one registered experiment.

    ``overrides`` (optional) is the merged workload/model override
    mapping a platform spec produces — this is how
    :func:`repro.platform.runner.run_spec` delegates experiments to a
    fleet and still gets spec-faithful results.  ``payload=True``
    returns the full :func:`repro.platform.runner.result_to_payload`
    body (claim, checks, metric table) instead of the compact summary,
    so the caller can write registry metric files byte-identical to a
    local run.
    """
    from repro.experiments import run_experiment

    result = run_experiment(
        str(params["id"]),
        scale=params.get("scale", "small"),
        overrides=params.get("overrides") or None,
    )
    if params.get("payload"):
        from repro.platform.runner import result_to_payload

        result.seconds = getattr(result, "seconds", 0.0) or 0.0
        return {"state": "DONE", "result": result_to_payload(result)}
    return {
        "state": "DONE",
        "result": {
            "id": result.id,
            "title": result.title,
            "ok": result.ok,
            "verdict": result.verdict(),
            "checks": dict(result.checks),
        },
    }


def _simulate_seed(params: dict) -> dict:
    """One seed's ``{"faults", "makespan"}``, via the same fast-kernel
    path as local ``batch_run`` replicas — identical numbers, by
    construction."""
    from repro.core.kernels import simulate_fast

    workload = _build_workload(params)
    strategy = _build_strategy(params, workload.num_cores)
    res = simulate_fast(
        workload,
        params.get("cache_size", _WORKLOAD_DEFAULTS["cache_size"]),
        params.get("tau", _WORKLOAD_DEFAULTS["tau"]),
        strategy,
    )
    return {"faults": res.total_faults, "makespan": res.makespan}


def _run_replica(params: dict) -> dict:
    return {"state": "DONE", "result": _simulate_seed(params)}


def _run_sweep(params: dict) -> dict:
    """``_simulate_seed`` once per seed: the fleet's multi-seed batch."""
    seeds = params.get("seeds", [0])
    faults: dict[str, int] = {}
    makespans: dict[str, int] = {}
    for seed in seeds:
        one = _simulate_seed(dict(params, seed=seed))
        faults[str(seed)] = one["faults"]
        makespans[str(seed)] = one["makespan"]
    totals = list(faults.values())
    return {
        "state": "DONE",
        "result": {
            "seeds": len(seeds),
            "total_faults": sum(totals),
            "mean_faults": round(sum(totals) / len(totals), 3),
            "faults": faults,
            "makespans": makespans,
        },
    }


def _run_opt(params: dict, deadline_s: float | None) -> dict:
    from repro.offline import minimum_total_faults
    from repro.problems import FTFInstance

    workload = _build_workload(params)
    cache_size = params.get("cache_size", _WORKLOAD_DEFAULTS["cache_size"])
    tau = params.get("tau", _WORKLOAD_DEFAULTS["tau"])
    budget = None
    if deadline_s is not None or params.get("max_states") is not None:
        budget = Budget(
            deadline_s=deadline_s, max_states=params.get("max_states")
        )
    try:
        result = minimum_total_faults(
            FTFInstance(workload, cache_size, tau), budget=budget
        )
    except BudgetExceeded as exc:
        bounded = exc.bounded
        upper = bounded.upper
        return {
            "state": "DEGRADED",
            "result": {
                "lower": bounded.lower,
                "upper": None if upper == float("inf") else upper,
                "states_expanded": bounded.states_expanded,
                "reason": str(exc),
            },
        }
    return {
        "state": "DONE",
        "result": {
            "faults": result.faults,
            "lower": result.faults,
            "upper": result.faults,
            "states_expanded": result.states_expanded,
        },
    }


def _run_platform_run(params: dict) -> dict:
    from repro.platform import run_spec

    record = run_spec(
        params["spec"],
        runs_dir=params.get("runs_dir"),
        force=bool(params.get("force", False)),
    )
    return {
        "state": "DONE",
        "result": {
            "run_id": record.run_id,
            "ok": record.ok,
            "cached": record.cached,
            "resumed": record.resumed,
            "verdicts": dict(record.verdicts),
            "errors": dict(record.errors),
            "path": str(record.path),
        },
    }


def _effective_deadline(payload: dict) -> float | None:
    """Remaining budget at execution start.

    The tighter of the relative ``deadline_s`` and what is left of the
    absolute ``deadline_at`` — so time spent queued, retried, or hedged
    upstream has already been decremented by the time a Budget is built.
    Clamped to a hair above zero: an already-expired budget makes the
    solver degrade on its first check instead of crashing validation.
    """
    deadline_s = payload.get("deadline_s")
    deadline_at = payload.get("deadline_at")
    if deadline_at is not None:
        remaining = deadline_at - time.time()
        deadline_s = remaining if deadline_s is None else min(deadline_s, remaining)
    if deadline_s is not None:
        deadline_s = max(1e-3, deadline_s)
    return deadline_s


def run_job(payload: dict) -> dict:
    """Dispatch one decoded job payload to its kind runner."""
    kind = payload["kind"]
    params = payload.get("params", {})
    if kind == "simulate":
        return _run_simulate(params)
    if kind == "experiment":
        return _run_experiment(params)
    if kind == "sweep":
        return _run_sweep(params)
    if kind == "replica":
        return _run_replica(params)
    if kind == "opt":
        return _run_opt(params, _effective_deadline(payload))
    if kind == "run":
        return _run_platform_run(params)
    raise ValueError(f"unknown job kind {kind!r}")


def execute_payload(payload_json: str, attempt: int) -> dict:
    """Supervised-pool entry point: chaos hooks, then the real work.

    Chaos crashes are *hard* (``os._exit``) so the parent sees a genuine
    ``BrokenProcessPool`` and must exercise its rebuild path, exactly as
    in the sweep machinery.  Both hooks key on the job id, so which jobs
    get hit is deterministic per chaos seed and independent of worker
    scheduling.
    """
    payload = json.loads(payload_json)
    key = ("job", payload["id"])
    maybe_slow(key, attempt)
    maybe_crash(key, attempt, hard=True)
    try:
        return run_job(payload)
    except SystemExit as exc:  # CLI helpers signal bad specs this way
        raise ValueError(str(exc)) from None
