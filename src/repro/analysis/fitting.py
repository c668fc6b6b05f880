"""Growth-law fitting for experiment checks.

The separation results claim asymptotic shapes (``Omega(n)``,
``Omega(p(tau+1))``, polynomial state growth); these helpers fit measured
series on log-log axes so the checks can assert *slopes* rather than
eyeballed ratios.  Uses :func:`scipy.stats.linregress`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["PowerLawFit", "fit_power_law", "is_linear_growth"]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y ~ c * x^exponent`` on log-log axes."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.coefficient * x**self.exponent


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit a power law through positive (x, y) samples.

    Raises ``ValueError`` for fewer than two points or non-positive data
    (a zero ratio or count means the experiment is degenerate and should
    be looked at, not silently fitted).
    """
    x = np.asarray(list(xs), dtype=float)
    y = np.asarray(list(ys), dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (x, y) samples")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fitting needs positive samples")
    from scipy import stats  # deferred: scipy.stats costs ~1 s to import

    result = stats.linregress(np.log(x), np.log(y))
    return PowerLawFit(
        exponent=float(result.slope),
        coefficient=float(np.exp(result.intercept)),
        r_squared=float(result.rvalue**2),
    )


def is_linear_growth(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    tolerance: float = 0.35,
    min_r_squared: float = 0.9,
) -> bool:
    """Does ``y`` grow linearly in ``x``?  True iff the fitted power-law
    exponent is within ``tolerance`` of 1 with a clean fit."""
    fit = fit_power_law(xs, ys)
    return (
        abs(fit.exponent - 1.0) <= tolerance
        and fit.r_squared >= min_r_squared
    )
