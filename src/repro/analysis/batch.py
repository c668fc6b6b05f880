"""Seed-replicated batch runs with aggregation and an on-disk cache.

Competitive-analysis experiments are worst-case, but the landscape
experiments (E14) and any practical evaluation want *distributions* over
random workloads.  :func:`batch_run` replicates a (workload-factory,
strategy-factory) pair over seeds — optionally across processes, since
the replicas are embarrassingly parallel — and aggregates fault counts
into mean/std/min/max summaries.

Replicas go through :func:`repro.core.kernels.simulate_fast`, so the
supported strategy/policy combinations hit the specialised kernels and
everything else transparently falls back to the general simulator.

With ``cache=True`` each replica's result is persisted as one small JSON
file under ``<cache_dir>/batch/v<CACHE_VERSION>/``, keyed by a sha256
over the *content* of the replica: the workload's request lists, the
strategy's type and :attr:`~repro.core.strategy.Strategy.name`, ``K``
and ``tau``.  Re-running the same sweep re-reads the files instead of
simulating.  Keys embed :data:`CACHE_VERSION`; bumping it (on any change
to simulation semantics) invalidates every old entry without touching
the filesystem.  Page objects must pickle deterministically for keys to
be reproducible across processes (ints, strings and tuples — everything
the workload generators emit — do).

Everything passed in must be picklable for ``parallel=True`` (module-level
functions and the library's strategies/factories are).  The factories are
shipped once per worker via the pool initializer, not re-pickled with
every job.  Parallel runs go through
:func:`~repro.runtime.supervisor.supervised_map`: an unsupervised run
submits its seeds in chunks, a few per worker, and a supervised one
submits one seed per job so each replica is timed, retried and
journaled on its own.

Long sweeps get supervision (docs/ROBUSTNESS.md): ``timeout_s`` bounds
one replica's wall clock, ``retries``/``retry_backoff_s`` retry failed or
crashed replicas with a rebuilt pool, and ``journal=`` names an
append-only manifest of completed replicas so an interrupted sweep
(crash, ``KeyboardInterrupt``) resumes where it left off instead of
recomputing.  Cache entries are sha256-checksummed; a corrupt or
truncated entry is *quarantined* (moved aside for inspection, counted by
:func:`cache_info`) and recomputed rather than trusted or crashed on.
All of it is testable deterministically via ``REPRO_CHAOS``
(:mod:`repro.runtime.chaos`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro._util import default_cache_dir
from repro.core.kernels import simulate_fast
from repro.runtime import chaos
from repro.runtime.supervisor import ReplicaFailure, SweepError, supervised_map
from repro.store.durable import DurableLog
from repro.store.fs import fsync_dir

__all__ = [
    "BatchResult",
    "CACHE_VERSION",
    "batch_run",
    "cache_info",
    "clear_cache",
    "default_cache_dir",
    "summarize",
]

#: Bump on any change that alters simulation results — old cache entries
#: become unreachable (their keys embed the version) rather than wrong.
#: v2: keys switched from (type, name) to the canonical
#: ``Strategy.cache_fingerprint()``, which includes eviction-policy
#: configuration — (type, name) aliased differently-configured strategies
#: (e.g. two LRU-K instances with different k) onto one entry.
#: v3: entries carry a sha256 payload checksum; unchecksummed v2 entries
#: are unreachable rather than indistinguishable from tampered ones.
CACHE_VERSION = 3

@dataclass(frozen=True)
class BatchResult:
    """Aggregated outcome of seed-replicated runs of one configuration."""

    label: str
    seeds: tuple[int, ...]
    faults: tuple[int, ...]
    makespans: tuple[int, ...]
    #: How many replicas were served from the on-disk cache (0 without
    #: ``cache=True``).
    cache_hits: int = 0
    #: How many replicas were restored from the journal manifest of an
    #: interrupted earlier run (0 without ``journal=``).
    resumed: int = 0
    #: Seeds whose replica exhausted its retries (always empty with the
    #: default ``on_failure="raise"``); excluded from the statistics.
    failed_seeds: tuple[int, ...] = ()

    @property
    def mean_faults(self) -> float:
        return float(np.mean(self.faults))

    @property
    def std_faults(self) -> float:
        return float(np.std(self.faults))

    @property
    def min_faults(self) -> int:
        return int(min(self.faults))

    @property
    def max_faults(self) -> int:
        return int(max(self.faults))

    @property
    def mean_makespan(self) -> float:
        return float(np.mean(self.makespans))

    def summary_row(self) -> tuple:
        return (
            self.label,
            len(self.seeds),
            self.mean_faults,
            self.std_faults,
            self.min_faults,
            self.max_faults,
            self.mean_makespan,
        )


# ---------------------------------------------------------------------------
# on-disk replica cache
# ---------------------------------------------------------------------------


def _cache_root(cache_dir) -> Path:
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / "batch" / f"v{CACHE_VERSION}"


def _replica_key(workload, strategy, cache_size: int, tau: int) -> str:
    """Content hash identifying one replica's simulation inputs.

    The strategy is identified by its canonical
    :meth:`~repro.core.strategy.Strategy.cache_fingerprint`, which
    includes eviction-policy configuration — the display name alone is
    not injective (``SharedStrategy(LRUKPolicy)`` has the same name for
    every ``k``).

    Serialised with :mod:`pickle` at a pinned protocol: it is C-speed
    (an order of magnitude faster than ``repr`` on large workloads) and,
    unlike default ``repr``, never embeds memory addresses for custom
    page objects.  A different serialisation merely causes a cache miss,
    never a wrong hit.
    """
    payload = pickle.dumps(
        (
            CACHE_VERSION,
            workload.as_lists(),
            strategy.cache_fingerprint(),
            cache_size,
            tau,
        ),
        protocol=4,
    )
    return hashlib.sha256(payload).hexdigest()


def _payload_checksum(payload: dict) -> str:
    """sha256 over the canonical JSON of a payload, ``sha256`` key excluded."""
    body = {k: v for k, v in payload.items() if k != "sha256"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _quarantine(path: Path, cache_root: Path) -> None:
    """Move a corrupt entry into ``<cache base>/batch/quarantine/`` for
    post-mortem instead of deleting it or crashing on it.  Best-effort:
    a concurrent reader may quarantine the same file first."""
    qdir = cache_root.parent / "quarantine"
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        os.replace(path, qdir / path.name)
        fsync_dir(path.parent)
        fsync_dir(qdir)
    except OSError:
        pass


def _load_entry(path: Path, cache_root: Path):
    """Read one cache entry; returns ``(faults, makespan)`` or ``None``.

    A missing file is a plain miss.  An unparsable, truncated or
    checksum-mismatched file is *quarantined* — silently recomputing over
    it would mask corruption bugs, and crashing on it would kill a sweep
    for one bad sector.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    try:
        data = json.loads(text)
        stored = data["sha256"]
        result = int(data["faults"]), int(data["makespan"])
    except (ValueError, KeyError, TypeError):
        _quarantine(path, cache_root)
        return None
    if stored != _payload_checksum(data):
        _quarantine(path, cache_root)
        return None
    return result


def _store(path: Path, payload: dict, *, key: str = "") -> None:
    """Atomic single-file write (concurrent writers may race on a key;
    last ``os.replace`` wins and all writers write identical content).

    The temp name comes from :func:`tempfile.NamedTemporaryFile`, which is
    collision-free by construction — a pid-derived suffix is not: two
    threads of one process, or a recycled pid on another machine sharing
    the cache directory, would interleave writes into the same temp file
    and could publish a truncated entry.
    """
    payload = dict(payload)
    payload["sha256"] = _payload_checksum(payload)
    text = chaos.maybe_corrupt(("cache", key), json.dumps(payload))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f"{path.name}.tmp",
        delete=False,
    )
    try:
        with tmp:
            tmp.write(text)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp.name, path)
        # The entry's *bytes* are durable after the fsync above; the
        # rename that names them is only durable once the parent
        # directory is fsynced too (a power cut could otherwise roll
        # the publish back — or worse, leave the name without bytes).
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp.name)
        except OSError:
            pass
        raise


def _run_replica(
    workload_factory, strategy_factory, cache_size, tau, seed, cache_root,
    attempt: int = 0,
):
    chaos.maybe_crash(("replica", seed), attempt, hard=_WORKER_CTX is not None)
    chaos.maybe_slow(("replica", seed), attempt)
    workload = workload_factory(seed)
    strategy = strategy_factory()
    path = None
    key = ""
    if cache_root is not None:
        key = _replica_key(workload, strategy, cache_size, tau)
        path = cache_root / key[:2] / f"{key}.json"
        cached = _load_entry(path, cache_root)
        if cached is not None:
            return seed, cached[0], cached[1], True
    res = simulate_fast(workload, cache_size, tau, strategy)
    if path is not None:
        _store(
            path,
            {
                "faults": res.total_faults,
                "makespan": res.makespan,
                "strategy": strategy.name,
                "cache_size": cache_size,
                "tau": tau,
            },
            key=key,
        )
    return seed, res.total_faults, res.makespan, False


# Worker-side context, installed once per process by the pool initializer
# so the (possibly closure-heavy) factories are pickled once per worker
# instead of once per job.
_WORKER_CTX = None


def _init_worker(workload_factory, strategy_factory, cache_size, tau, cache_root):
    global _WORKER_CTX
    _WORKER_CTX = (workload_factory, strategy_factory, cache_size, tau, cache_root)


def _seed_replica_attempt(seed, attempt):
    """Supervised-pool entry point: the attempt number scopes chaos."""
    return _run_replica(*_WORKER_CTX[:4], seed, _WORKER_CTX[4], attempt)


def _seed_chunk(seeds, attempt):
    """Unsupervised entry point: one job runs a chunk of seeds."""
    return [_seed_replica_attempt(seed, attempt) for seed in seeds]


def _journal_fingerprint(label, strategy_factory, cache_size, tau) -> str:
    """Identity of one sweep configuration for journal validation.

    The workload factory itself is not content-addressable without
    building every workload, so the fingerprint relies on the caller
    keeping ``label`` stable for one logical sweep (plus everything that
    *is* canonically hashable: strategy fingerprint, ``K``, ``tau``,
    cache version)."""
    payload = pickle.dumps(
        (
            CACHE_VERSION,
            str(label),
            strategy_factory().cache_fingerprint(),
            cache_size,
            tau,
        ),
        protocol=4,
    )
    return hashlib.sha256(payload).hexdigest()


def batch_run(
    label: str,
    workload_factory: Callable[[int], object],
    strategy_factory: Callable[[], object],
    cache_size: int,
    tau: int,
    seeds: Sequence[int],
    *,
    parallel: bool = False,
    max_workers: int | None = None,
    cache: bool = False,
    cache_dir: str | os.PathLike | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    retry_backoff_s: float = 0.1,
    journal: str | os.PathLike | None = None,
    on_failure: str = "raise",
    executor=None,
    task: dict | None = None,
) -> BatchResult:
    """Run ``strategy_factory()`` on ``workload_factory(seed)`` for every
    seed and aggregate.

    ``workload_factory`` takes the seed and returns a workload; a fresh
    strategy is built per replica so no state leaks between runs.  With
    ``cache=True`` results are read from / written to the on-disk replica
    cache under ``cache_dir`` (default :func:`default_cache_dir`).

    Supervision (see docs/ROBUSTNESS.md):

    ``timeout_s``
        Per-replica wall-clock bound.  Only enforceable with
        ``parallel=True`` (a hung in-process replica cannot be
        preempted); a timed-out replica's worker is killed, the pool is
        rebuilt, and the replica is retried or failed.
    ``retries`` / ``retry_backoff_s``
        Failed replicas (worker exception, crashed worker / broken pool,
        timeout) are retried up to ``retries`` times with exponential
        backoff before counting as failed.
    ``journal``
        Path to an append-only manifest of completed replicas.  Replicas
        recorded there are *not* recomputed — an interrupted sweep rerun
        with the same journal resumes where it left off.  The journal
        validates a configuration fingerprint: reusing it with a
        different label/strategy/``K``/``tau`` raises
        :class:`~repro.runtime.supervisor.JournalMismatch`.
    ``on_failure``
        ``"raise"`` (default) aborts the sweep with
        :class:`~repro.runtime.supervisor.SweepError` on the first
        replica that exhausts its retries — completed replicas are
        already journaled.  ``"record"`` finishes the sweep and reports
        the failures in :attr:`BatchResult.failed_seeds`.
    ``executor`` / ``task``
        Route the sweep through a :mod:`repro.fleet` executor instead of
        the local pool.  Replica jobs cross HTTP as JSON, so the sweep
        must be described by ``task`` — the ``replica`` job params
        (named workload generator or inline ``sequences``, strategy
        spec, ``cache_size``, ``tau``) — rather than by the opaque
        Python factories; passing ``executor`` without ``task`` raises
        :class:`TypeError`.  The journal (if any) is managed by the
        fleet layer under the task fingerprint, the local replica cache
        is bypassed (the service's fingerprint dedup plays that role),
        and each replica's retry count lands in the journal entries.
    """
    if executor is not None:
        if task is None:
            raise TypeError(
                "batch_run(executor=...) needs task= — a JSON replica-job "
                "description (workload/strategy/cache_size/tau); the "
                "workload and strategy factories cannot cross the fleet's "
                "HTTP boundary"
            )
        from repro.fleet.sweep import run_sweep

        sweep = run_sweep(
            dict(task, cache_size=cache_size, tau=tau),
            seeds,
            executor=executor,
            journal=journal,
        )
        done = sorted(
            (o.key, o.faults, o.makespan)
            for o in sweep.outcomes.values()
            if o.ok
        )
        if sweep.failed_seeds and on_failure != "record":
            raise SweepError(
                [
                    ReplicaFailure(
                        seed,
                        sweep.outcomes[seed].attempts,
                        sweep.outcomes[seed].error or "replica failed",
                    )
                    for seed in sweep.failed_seeds
                ]
            )
        return BatchResult(
            label=label,
            seeds=tuple(s for s, _, _ in done),
            faults=tuple(f for _, f, _ in done),
            makespans=tuple(m for _, _, m in done),
            cache_hits=0,
            resumed=sweep.resumed,
            failed_seeds=tuple(sweep.failed_seeds),
        )
    seeds = list(seeds)
    cache_root = _cache_root(cache_dir) if cache else None
    supervised = (
        timeout_s is not None
        or retries > 0
        or journal is not None
        or on_failure != "raise"
        or chaos.chaos_active()
    )
    journal_obj = None
    resumed: dict = {}
    todo = seeds
    if journal is not None:
        journal_obj = DurableLog(
            journal,
            _journal_fingerprint(label, strategy_factory, cache_size, tau),
        )
        resumed = {
            seed: journal_obj.completed[seed]
            for seed in seeds
            if seed in journal_obj.completed
        }
        todo = [seed for seed in seeds if seed not in resumed]

    def record(seed, outcome, attempt=0) -> None:
        # supervised_map delivers the 0-based attempt that succeeded;
        # journaling attempts = attempt + 1 makes flaky replicas visible
        # post-hoc (docs/ROBUSTNESS.md).
        if journal_obj is not None:
            _seed, faults, makespan, _hit = outcome
            journal_obj.record(
                seed,
                {
                    "faults": faults,
                    "makespan": makespan,
                    "attempts": attempt + 1,
                },
            )

    failures: list = []
    try:
        if parallel and len(todo) > 1:
            workers = max_workers or min(len(todo), os.cpu_count() or 1)
            if supervised:
                fn, items = _seed_replica_attempt, todo
            else:
                # A few chunks per worker keep per-job IPC a small share
                # of the work; nothing is timed or retried per seed.
                size = max(1, len(todo) // (workers * 4))
                fn = _seed_chunk
                items = [
                    tuple(todo[i : i + size])
                    for i in range(0, len(todo), size)
                ]
            results, failures = supervised_map(
                fn,
                items,
                max_workers=workers,
                initializer=_init_worker,
                initargs=(
                    workload_factory,
                    strategy_factory,
                    cache_size,
                    tau,
                    cache_root,
                ),
                timeout_s=timeout_s,
                retries=retries,
                backoff_s=retry_backoff_s,
                on_result=record,
                on_failure="record" if on_failure == "record" else "raise",
            )
            outcomes = list(results.values())
            if not supervised:
                outcomes = [outcome for chunk in outcomes for outcome in chunk]
        else:
            outcomes = []
            for seed in todo:
                outcome = _run_serial_replica(
                    workload_factory, strategy_factory, cache_size, tau,
                    seed, cache_root, retries, retry_backoff_s,
                    on_failure, failures,
                )
                if outcome is None:
                    continue
                record(seed, outcome)
                outcomes.append(outcome)
    finally:
        if journal_obj is not None:
            journal_obj.close()

    for seed, payload in resumed.items():
        outcomes.append(
            (seed, int(payload["faults"]), int(payload["makespan"]), False)
        )
    outcomes.sort()
    return BatchResult(
        label=label,
        seeds=tuple(s for s, _, _, _ in outcomes),
        faults=tuple(f for _, f, _, _ in outcomes),
        makespans=tuple(m for _, _, m, _ in outcomes),
        cache_hits=sum(1 for _, _, _, hit in outcomes if hit),
        resumed=len(resumed),
        failed_seeds=tuple(sorted(f.item for f in failures)),
    )


def _run_serial_replica(
    workload_factory, strategy_factory, cache_size, tau, seed, cache_root,
    retries, backoff_s, on_failure, failures,
):
    """One in-process replica with the retry half of supervision (timeouts
    need a killable worker process).  Returns the outcome tuple, or
    ``None`` when the replica failed and ``on_failure="record"``."""
    import time as _time

    for attempt in range(retries + 1):
        try:
            return _run_replica(
                workload_factory, strategy_factory, cache_size, tau, seed,
                cache_root, attempt,
            )
        except Exception as exc:
            if attempt < retries:
                if backoff_s > 0:
                    _time.sleep(backoff_s * (2**attempt))
                continue
            if on_failure == "record":
                failures.append(
                    ReplicaFailure(
                        seed, attempt + 1, f"{type(exc).__name__}: {exc}"
                    )
                )
                return None
            if retries == 0 and not isinstance(exc, chaos.ChaosCrash):
                raise  # historical behaviour: replica errors propagate as-is
            raise SweepError(
                [
                    ReplicaFailure(
                        seed, attempt + 1, f"{type(exc).__name__}: {exc}"
                    )
                ]
            ) from exc
    return None  # pragma: no cover - unreachable


def cache_info(cache_dir: str | os.PathLike | None = None) -> dict:
    """Entry count, size and health of the batch result cache.

    Counts every version's entries.  Entries that fail to parse as JSON
    or (current version only) fail checksum validation are counted under
    ``corrupt`` rather than raising — a half-written or bit-rotted file
    must never crash an inspection command.  ``quarantined`` counts
    entries previously moved aside by the read path.  This function is
    read-only: it reports corruption but leaves quarantining to the
    reader that actually needs the entry.
    """
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    root = base / "batch"
    current = _cache_root(cache_dir)
    qdir = root / "quarantine"
    entries = 0
    size = 0
    corrupt = 0
    quarantined = 0
    if root.is_dir():
        for path in root.rglob("*.json"):
            try:
                size += path.stat().st_size
            except OSError:
                continue
            if qdir in path.parents:
                quarantined += 1
                continue
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                if current in path.parents and (
                    not isinstance(data, dict)
                    or data.get("sha256") != _payload_checksum(data)
                ):
                    raise ValueError("checksum mismatch")
            except (OSError, ValueError, TypeError):
                corrupt += 1
                continue
            entries += 1
    return {
        "path": str(root),
        "entries": entries,
        "bytes": size,
        "corrupt": corrupt,
        "quarantined": quarantined,
    }


def clear_cache(cache_dir: str | os.PathLike | None = None) -> int:
    """Delete every cached batch result (all versions).  Returns the
    number of entries removed."""
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    root = base / "batch"
    removed = sum(1 for _ in root.rglob("*.json")) if root.is_dir() else 0
    shutil.rmtree(root, ignore_errors=True)
    return removed


def summarize(results: Sequence[BatchResult]):
    """Render a list of batch results as a Table."""
    from repro.analysis.tables import Table

    table = Table(
        "Batch summary (faults over seeds)",
        ["config", "seeds", "mean", "std", "min", "max", "mean_makespan"],
    )
    for result in results:
        table.add_row(*result.summary_row())
    return table
