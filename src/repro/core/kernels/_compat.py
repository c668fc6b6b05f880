"""Optional-numpy gate for the kernel layer.

The vectorized FITF victim scans use numpy when it is importable; every
caller must fall back to an exact pure-python path when it is not.  Setting
``REPRO_NO_NUMPY=1`` forces the fallback even where numpy is installed —
CI uses it to prove the fallback paths stay exact, and it is the
supported escape hatch if a numpy build ever misbehaves.
"""

from __future__ import annotations

import os

__all__ = ["get_numpy"]

_ENV = "REPRO_NO_NUMPY"


def get_numpy():
    """The numpy module, or ``None`` when absent or disabled via
    ``REPRO_NO_NUMPY``.  Checked per call so tests can flip the
    environment variable without re-importing the kernels."""
    if os.environ.get(_ENV):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - depends on environment
        return None
    return numpy
