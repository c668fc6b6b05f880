"""Cross-engine differential oracle.

One :class:`VerifyCase` — a workload plus ``K`` and ``tau`` — is pushed
through every independent engine and the results are compared:

* the general :class:`~repro.core.simulator.Simulator` (with the
  invariant monitor enabled) versus every registered specialised kernel
  (:data:`repro.core.kernels.KERNELS`), field-for-field on the full
  :class:`~repro.core.metrics.SimResult`;
* on small disjoint instances, the exact optimum from the Algorithm 1 DP
  (:func:`~repro.offline.dp_ftf.dp_ftf`) must not exceed any online
  strategy's cost, and must agree with the independently-encoded
  brute-force search (:func:`~repro.offline.brute_force.brute_force_ftf`).

:func:`fuzz` drives the oracle over randomized and adversarial cases and
shrinks every divergence to a minimal counterexample via
:mod:`repro.verify.shrink`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.core.request import Workload

__all__ = [
    "Divergence",
    "FuzzReport",
    "VerifyCase",
    "check_case",
    "fuzz",
    "oracle_strategies",
    "random_case",
]


@dataclass(frozen=True)
class VerifyCase:
    """One replayable verification input."""

    sequences: tuple[tuple, ...]
    cache_size: int
    tau: int
    note: str = ""

    @staticmethod
    def make(sequences, cache_size: int, tau: int, note: str = "") -> "VerifyCase":
        return VerifyCase(
            tuple(tuple(s) for s in sequences), int(cache_size), int(tau), note
        )

    def workload(self) -> Workload:
        return Workload([list(s) for s in self.sequences])

    @property
    def num_cores(self) -> int:
        return len(self.sequences)

    @property
    def total_requests(self) -> int:
        return sum(len(s) for s in self.sequences)

    @cached_property
    def universe(self) -> frozenset:
        pages: set = set()
        for s in self.sequences:
            pages.update(s)
        return frozenset(pages)

    def describe(self) -> str:
        lens = [len(s) for s in self.sequences]
        note = f" [{self.note}]" if self.note else ""
        return (
            f"p={self.num_cores} K={self.cache_size} tau={self.tau} "
            f"lengths={lens} universe={len(self.universe)}{note}"
        )


@dataclass(frozen=True)
class Divergence:
    """One disagreement between engines on one case."""

    #: ``kernel_mismatch`` | ``invariant`` | ``engine_crash`` |
    #: ``opt_above_online`` | ``opt_engines_disagree``
    kind: str
    #: The strategy / engine that diverged (kernel name, or ``dp_ftf``).
    strategy: str
    details: str
    case: VerifyCase

    def format(self) -> str:
        return (
            f"{self.kind} [{self.strategy}] on {self.case.describe()}\n"
            f"  {self.details}\n"
            f"  sequences={[list(s) for s in self.case.sequences]}"
        )


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    cases_run: int = 0
    corpus_replayed: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    #: Exact-engine checks that ran out of budget and degraded to an
    #: interval check (``DEGRADED`` verdict) instead of an exact one.
    degraded: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        head = (
            f"{self.cases_run} fuzz case(s), {self.corpus_replayed} corpus "
            f"case(s): "
        )
        tail = (
            f" [{self.degraded} DEGRADED exact check(s): budget exhausted, "
            f"interval checks only]"
            if self.degraded
            else ""
        )
        if self.ok:
            return head + "all engines agree" + tail
        lines = [head + f"{len(self.divergences)} divergence(s)" + tail]
        lines += [d.format() for d in self.divergences]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def oracle_strategies(cache_size: int, num_cores: int) -> dict:
    """Fresh general-simulator strategy factories, one per registered
    kernel (mirrors the kernel table in :mod:`repro.core.kernels`)."""
    from repro import (
        FIFOPolicy,
        FlushWhenFullStrategy,
        GlobalFITFPolicy,
        LRUPolicy,
        MarkingPolicy,
        SharedStrategy,
        StaticPartitionStrategy,
        equal_partition,
    )

    return {
        "S_LRU": lambda: SharedStrategy(LRUPolicy),
        "S_FIFO": lambda: SharedStrategy(FIFOPolicy),
        "S_MARK": lambda: SharedStrategy(MarkingPolicy),
        "S_FWF": lambda: FlushWhenFullStrategy(),
        "S_FITF": lambda: SharedStrategy(GlobalFITFPolicy()),
        "sP_LRU": lambda: StaticPartitionStrategy(
            equal_partition(cache_size, num_cores), LRUPolicy
        ),
    }


def _python_engine(name: str):
    """The pure-python twin of a compiled registry kernel, or ``None``."""
    from repro.core.kernels import shared

    return {
        "S_LRU": shared.fast_shared_lru,
        "S_FIFO": shared.fast_shared_fifo,
        "S_MARK": shared.fast_shared_marking,
    }.get(name)


def _kernel_args(name: str, cache_size: int, num_cores: int) -> tuple:
    if name == "sP_LRU":
        from repro import equal_partition

        return (equal_partition(cache_size, num_cores),)
    return ()


_RESULT_FIELDS = (
    "faults_per_core",
    "hits_per_core",
    "completion_times",
    "total_steps",
)


def _describe_outcome(exc) -> str:
    if exc is None:
        return "completed"
    return f"raised {type(exc).__name__}: {exc}"


def _diff_results(general, fast) -> str:
    diffs = []
    for f in _RESULT_FIELDS:
        a, b = getattr(general, f), getattr(fast, f)
        if a != b:
            diffs.append(f"{f}: simulator={a} kernel={b}")
    return "; ".join(diffs)


def check_case(
    case: VerifyCase,
    *,
    strategies=None,
    check_invariants: bool = True,
    opt_limit: int = 12,
    brute_limit: int = 9,
    max_dp_states: int = 200_000,
    budget_factory=None,
    on_degraded=None,
) -> list[Divergence]:
    """Run every engine on ``case`` and return all divergences.

    ``strategies`` restricts the kernel comparison to a subset of kernel
    names.  ``opt_limit`` / ``brute_limit`` bound the instance size (in
    total requests) above which the exponential exact engines are
    skipped.

    ``budget_factory`` (if given) builds one fresh
    :class:`~repro.runtime.budget.Budget` per exact-engine call.  A
    budget-exhausted engine *degrades* instead of failing the case: its
    :class:`~repro.runtime.budget.BoundedResult` interval is checked
    against the online costs (a lower bound exceeding an online cost is
    still a real ``opt_above_online`` divergence) and ``on_degraded`` is
    called with the bound for reporting.
    """
    from repro.core.kernels import KERNELS
    from repro.core.simulator import simulate
    from repro.verify.invariants import InvariantError

    workload = case.workload()
    K, tau = case.cache_size, case.tau
    p = workload.num_cores
    factories = oracle_strategies(K, p)
    names = sorted(factories) if strategies is None else list(strategies)
    unknown = [n for n in names if n not in factories]
    if unknown:
        raise KeyError(
            f"unknown kernel name(s) {unknown}; registered: {sorted(KERNELS)}"
        )

    divergences: list[Divergence] = []
    online_costs: dict[str, int] = {}
    for name in names:
        general = general_exc = None
        try:
            general = simulate(
                workload,
                K,
                tau,
                factories[name](),
                check_invariants=check_invariants,
            )
        except InvariantError as exc:
            divergences.append(Divergence("invariant", name, str(exc), case))
            continue
        except Exception as exc:
            general_exc = exc
        fast = fast_exc = None
        try:
            fast = KERNELS[name](workload, K, tau, *_kernel_args(name, K, p))
        except Exception as exc:
            fast_exc = exc
        if general_exc is not None or fast_exc is not None:
            # A model-level refusal (e.g. a full part whose only page
            # another core pinned this step, possible on non-disjoint
            # workloads) counts as agreement only when *both* engines
            # refuse the same way.
            if type(general_exc) is not type(fast_exc):
                divergences.append(
                    Divergence(
                        "engine_crash",
                        name,
                        f"simulator: {_describe_outcome(general_exc)}; "
                        f"kernel: {_describe_outcome(fast_exc)}",
                        case,
                    )
                )
            continue
        diff = _diff_results(general, fast)
        if diff:
            divergences.append(Divergence("kernel_mismatch", name, diff, case))
        else:
            online_costs[name] = general.total_faults
            # Third engine where one exists: the pure-python twin of a
            # compiled kernel must also match.
            python = _python_engine(name)
            if python is not None and python is not KERNELS[name]:
                pname = f"{name}_python"
                try:
                    pres = python(workload, K, tau)
                except Exception as exc:
                    divergences.append(
                        Divergence(
                            "engine_crash",
                            pname,
                            f"python kernel {_describe_outcome(exc)}; "
                            "the other engines completed",
                            case,
                        )
                    )
                else:
                    pdiff = _diff_results(general, pres)
                    if pdiff:
                        divergences.append(
                            Divergence("kernel_mismatch", pname, pdiff, case)
                        )

    if (
        workload.is_disjoint
        and case.total_requests <= opt_limit
        and case.total_requests > 0
        and len(case.universe) <= 10
        and K <= 8
    ):
        divergences += _check_optima(
            case, workload, online_costs, brute_limit, max_dp_states,
            budget_factory, on_degraded,
        )
    return divergences


def _bound_violations(
    case: VerifyCase, engine: str, bounded, online_costs: dict
) -> list[Divergence]:
    """Exact-check degradation: the interval must still sit below every
    online cost (``lower > cost`` proves OPT above an online strategy —
    impossible — with no need for the exact value)."""
    out = []
    for name, cost in sorted(online_costs.items()):
        if bounded.lower > cost:
            out.append(
                Divergence(
                    "opt_above_online",
                    name,
                    f"{engine} DEGRADED lower bound {bounded.lower:g} "
                    f"exceeds online cost {cost} "
                    f"(interval {bounded.describe()})",
                    case,
                )
            )
    return out


def _check_optima(
    case: VerifyCase, workload, online_costs: dict, brute_limit: int,
    max_dp_states: int, budget_factory=None, on_degraded=None,
) -> list[Divergence]:
    from repro.offline.brute_force import brute_force_ftf
    from repro.offline.dp_ftf import minimum_total_faults
    from repro.problems import FTFInstance
    from repro.runtime.budget import BudgetExceeded

    instance = FTFInstance(workload, case.cache_size, case.tau)
    try:
        opt = minimum_total_faults(
            instance,
            max_states=max_dp_states,
            budget=budget_factory() if budget_factory is not None else None,
        ).faults
    except BudgetExceeded as exc:
        # Must precede RuntimeError: BudgetExceeded subclasses it.
        if on_degraded is not None:
            on_degraded("dp_ftf", case, exc.bounded)
        return _bound_violations(case, "dp_ftf", exc.bounded, online_costs)
    except RuntimeError:
        return []  # instance too large for the exact engine: skip silently
    out: list[Divergence] = []
    for name, cost in sorted(online_costs.items()):
        if opt > cost:
            out.append(
                Divergence(
                    "opt_above_online",
                    name,
                    f"dp_ftf optimum {opt} exceeds online cost {cost}",
                    case,
                )
            )
    if case.total_requests <= brute_limit:
        try:
            brute = brute_force_ftf(
                instance,
                budget=(
                    budget_factory() if budget_factory is not None else None
                ),
            )
        except BudgetExceeded as exc:
            if on_degraded is not None:
                on_degraded("brute_force_ftf", case, exc.bounded)
            if not exc.bounded.contains(opt):
                out.append(
                    Divergence(
                        "opt_engines_disagree",
                        "dp_ftf",
                        f"dp_ftf={opt} outside brute_force_ftf DEGRADED "
                        f"interval {exc.bounded.describe()}",
                        case,
                    )
                )
            return out
        if brute != opt:
            out.append(
                Divergence(
                    "opt_engines_disagree",
                    "dp_ftf",
                    f"dp_ftf={opt} but brute_force_ftf={brute}",
                    case,
                )
            )
    return out


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------


def random_case(rng: random.Random) -> VerifyCase:
    """One random verification case: small shapes that exercise capacity
    pressure, in-flight windows (``tau > 0``) and same-step pins, with an
    occasional adversarial construction from the paper's proofs."""
    roll = rng.random()
    if roll < 0.10:
        return _adversarial_case(rng)
    p = rng.choice((1, 1, 2, 2, 2, 3, 3))
    K_floor = max(2, p)
    K = K_floor + rng.choice((0, 0, 1, 1, 2, 4))
    tau = rng.choice((0, 0, 1, 1, 2, 3))
    shared = p > 1 and rng.random() < 0.2
    long = rng.random() < 0.15
    sequences = []
    if shared:
        universe = list(range(rng.randint(2, K + 2)))
        for _ in range(p):
            n = rng.randint(1, 30 if long else 10)
            sequences.append([rng.choice(universe) for _ in range(n)])
        note = "shared"
    else:
        for j in range(p):
            distinct = rng.randint(1, max(1, K - p + 2))
            base = 100 * j
            n = rng.randint(1, 30 if long else 10)
            sequences.append(
                [base + rng.randrange(distinct) for _ in range(n)]
            )
        note = "disjoint"
    return VerifyCase.make(sequences, K, tau, note)


def _adversarial_case(rng: random.Random) -> VerifyCase:
    from repro.workloads import (
        cyclic_workload,
        lemma4_workload,
        phased_workload,
        theorem1_workload,
    )

    kind = rng.randrange(4)
    if kind == 0:
        p = rng.choice((2, 3))
        K = p * rng.choice((1, 2))  # theorem1 needs K divisible by p
        tau = rng.choice((1, 2))
        w = theorem1_workload(K, p, 1, tau)
        note = "theorem1"
    elif kind == 1:
        p = 2
        K = rng.choice((2, 4))  # lemma4 needs K divisible by p
        tau = rng.choice((0, 1))
        w = lemma4_workload(K, p, rng.choice((6, 10)))
        note = "lemma4"
    elif kind == 2:
        p = rng.choice((2, 3))
        K = rng.randint(p, p + 3)
        tau = rng.choice((0, 1, 2))
        w = cyclic_workload(p, rng.randint(4, 12), K // p + 1)
        note = "cyclic"
    else:
        p = 2
        K = rng.randint(2, 5)
        tau = rng.choice((0, 1))
        w = phased_workload(p, rng.randint(4, 12), max(2, K // p + 1), 3,
                            seed=rng.randrange(10**6))
        note = "phased"
    return VerifyCase.make(w.as_lists(), K, tau, note)


# ---------------------------------------------------------------------------
# the fuzzing campaign
# ---------------------------------------------------------------------------


def fuzz(
    n: int,
    seed: int = 0,
    *,
    shrink: bool = True,
    strategies=None,
    opt_limit: int = 12,
    max_failures: int = 5,
    on_progress=None,
    budget_factory=None,
) -> FuzzReport:
    """Fuzz ``n`` random cases through :func:`check_case`.

    Every divergence is delta-debugged down to a minimal counterexample
    (unless ``shrink=False``).  Divergences are deduplicated by their
    ``(kind, strategy)`` signature — one bug found on many workloads is
    reported (and shrunk) once — and fuzzing stops early after
    ``max_failures`` distinct signatures.  ``on_progress`` is an
    optional callback ``(cases_done, total)`` invoked every 50 cases.
    ``budget_factory`` (if given) budgets each exact-engine call;
    exhausted engines degrade to interval checks, counted in
    :attr:`FuzzReport.degraded`.
    """
    rng = random.Random(seed)
    report = FuzzReport()
    seen: set[tuple[str, str]] = set()

    def note_degraded(_engine, _case, _bounded):
        report.degraded += 1

    for i in range(n):
        case = random_case(rng)
        report.cases_run += 1
        divergences = check_case(
            case, strategies=strategies, opt_limit=opt_limit,
            budget_factory=budget_factory, on_degraded=note_degraded,
        )
        for div in divergences:
            signature = (div.kind, div.strategy)
            if signature in seen:
                continue
            seen.add(signature)
            if shrink:
                div = shrink_divergence(div, strategies=strategies,
                                        opt_limit=opt_limit)
            report.divergences.append(div)
        if on_progress is not None and (i + 1) % 50 == 0:
            on_progress(i + 1, n)
        if len(report.divergences) >= max_failures:
            break
    return report


def shrink_divergence(div: Divergence, *, strategies=None,
                      opt_limit: int = 12) -> Divergence:
    """Minimise ``div.case`` while preserving the same (kind, strategy)
    failure, and return the divergence re-derived on the minimal case."""
    from repro.verify.shrink import shrink_case

    def still_fails(case: VerifyCase) -> bool:
        return any(
            d.kind == div.kind and d.strategy == div.strategy
            for d in check_case(case, strategies=strategies,
                                opt_limit=opt_limit)
        )

    small = shrink_case(div.case, still_fails)
    small = replace(small, note=(div.case.note + " shrunk").strip())
    for d in check_case(small, strategies=strategies, opt_limit=opt_limit):
        if d.kind == div.kind and d.strategy == div.strategy:
            return d
    return replace(div, case=small)  # pragma: no cover - defensive
