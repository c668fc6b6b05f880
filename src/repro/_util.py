"""Small shared helpers used across the :mod:`repro` package.

Nothing in here is part of the public API; everything is intentionally
dependency-free so the core model can be imported without numpy.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import TypeVar

T = TypeVar("T")


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro_cache``.  Batch
    results live under ``batch/`` and the compiled kernel under
    ``kernels/``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def check_positive(name: str, value: int) -> int:
    """Validate that ``value`` is a positive ``int`` and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative(name: str, value: int) -> int:
    """Validate that ``value`` is a non-negative ``int`` and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def pairwise_disjoint(sets: Sequence[set]) -> bool:
    """Return True iff the given sets are pairwise disjoint."""
    seen: set = set()
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return True


def compositions(total: int, parts: int, minimum: int = 0) -> Iterator[tuple[int, ...]]:
    """Yield all ways of writing ``total`` as an ordered sum of ``parts``
    integers, each at least ``minimum``.

    This enumerates the partition space ``Pi(K, p)`` of the paper (Section 4):
    ``compositions(K, p, minimum=1)`` yields every static partition that
    assigns at least one cell to each core.
    """
    check_nonnegative("total", total)
    check_positive("parts", parts)
    check_nonnegative("minimum", minimum)
    slack = total - parts * minimum
    if slack < 0:
        return
    if parts == 1:
        yield (total,)
        return
    # Stars and bars over the slack, then shift by the minimum.
    for cut in itertools.combinations(range(slack + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cut:
            comp.append(c - prev - 1 + minimum)
            prev = c
        comp.append(slack + parts - 2 - prev + minimum)
        yield tuple(comp)


def argmin(values: Iterable[T], key) -> T:
    """``min`` with a mandatory key, provided for symmetry with argmax."""
    return min(values, key=key)


def argmax(values: Iterable[T], key) -> T:
    """``max`` with a mandatory key."""
    return max(values, key=key)


def human_int(value: int) -> str:
    """Format an integer with thousands separators for table output."""
    return f"{value:,}"


#: Fallback when the package is run from a source tree (PYTHONPATH=src)
#: without being pip-installed; keep in sync with pyproject.toml.
_FALLBACK_VERSION = "1.0.0"


def repro_version() -> str:
    """The deployed package version, from installed metadata when
    available (single source of truth: pyproject.toml), else the
    source-tree fallback.  ``repro --version`` and the job service's
    ``/healthz`` both report this string, so a deployed instance is
    always identifiable."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        return _FALLBACK_VERSION
    except Exception:  # pragma: no cover - exotic metadata breakage
        return _FALLBACK_VERSION
