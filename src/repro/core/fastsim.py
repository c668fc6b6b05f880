"""Back-compat shim: the shared-LRU fast path moved to the kernel
registry (:mod:`repro.core.kernels`), which generalises the idea to a
family of specialised kernels behind a ``simulate_fast`` dispatcher.

``fast_shared_lru`` (the pure-python kernel) keeps its historical import
location here; the dispatchers ``simulate_fast`` and ``simulate_fast_batch``
are re-exported for the same reason.
"""

from __future__ import annotations

from repro.core.kernels import simulate_fast, simulate_fast_batch
from repro.core.kernels.shared import fast_shared_lru

__all__ = ["fast_shared_lru", "simulate_fast", "simulate_fast_batch"]
