"""Expected performance of randomized strategies, with confidence
intervals.

The paper analyses deterministic strategies; its citations (Seiden's
randomized multi-threaded paging, Fiat et al.'s MARK) make the expected
fault count of randomized policies the natural companion measurement.
:func:`expected_faults` replicates a seeded strategy family over trials
and reports a Student-t confidence interval on the mean.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.simulator import Simulator

__all__ = ["ExpectedFaults", "expected_faults"]


@dataclass(frozen=True)
class ExpectedFaults:
    """Mean fault count of a randomized strategy with a CI."""

    mean: float
    half_width: float
    confidence: float
    trials: int
    samples: tuple[int, ...]

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.1f} ± {self.half_width:.1f} "
            f"({self.confidence:.0%} CI, {self.trials} trials)"
        )


def expected_faults(
    strategy_factory: Callable[[int], object],
    workload,
    cache_size: int,
    tau: int,
    *,
    trials: int = 30,
    confidence: float = 0.95,
) -> ExpectedFaults:
    """Estimate ``E[faults]`` of a seeded randomized strategy.

    ``strategy_factory(seed)`` must return a fresh strategy whose random
    choices are governed by ``seed`` (e.g.
    ``lambda s: SharedStrategy(RandomPolicy(seed=s))``).
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a confidence interval")
    from scipy import stats  # deferred: scipy.stats costs ~1 s to import

    samples = []
    for seed in range(trials):
        strategy = strategy_factory(seed)
        res = Simulator(workload, cache_size, tau, strategy).run()
        samples.append(res.total_faults)
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean())
    sem = float(stats.sem(arr)) if arr.std() > 0 else 0.0
    if sem > 0:
        half = float(
            sem * stats.t.ppf((1 + confidence) / 2, df=trials - 1)
        )
    else:
        half = 0.0
    return ExpectedFaults(
        mean=mean,
        half_width=half,
        confidence=confidence,
        trials=trials,
        samples=tuple(samples),
    )
