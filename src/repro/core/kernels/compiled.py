"""The compiled shared-cache kernel: ``S_LRU``, ``S_FIFO`` and ``S_MARK``.

``shared_kernel.c`` is the step loop of
:func:`~repro.core.kernels.shared._shared_stamp_kernel` in C, over dense
page ids.  On the first call in a process it is built with ``$CC``
(default ``cc``) into ``<cache root>/kernels/`` (the cache root is
``$REPRO_CACHE_DIR`` or ``.repro_cache``, as for batch results) and loaded
with :mod:`ctypes`; later processes load the library already there.
Nothing is built or loaded at import.

The build writes a temp file and renames it into place, so processes that
build at the same time each load a complete library, and a build killed
half-way leaves only a temp file that nothing loads.  The library's name
carries a hash of the source and the compiler command, so an edited source
or a different compiler builds a new one.  If anything fails — no
compiler, a compile error, a library that will not load — the kernel warns
once per process and runs the Python kernels from then on, with identical
results.

Each kernel here keeps its Python twin's name and docstring, and reaches
it as ``__wrapped__``; the verify oracle runs both.
"""

from __future__ import annotations

import functools
import os
import threading
import warnings
from array import array
from pathlib import Path

from repro._util import default_cache_dir
from repro.core.kernels import shared
from repro.core.kernels.shared import _prepare
from repro.core.metrics import SimResult

__all__ = ["fast_shared_fifo", "fast_shared_lru", "fast_shared_marking"]

SOURCE = Path(__file__).with_name("shared_kernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC")

_lock = threading.Lock()
_state: dict = {}  # "lib": the loaded library, or None after a failure


def _build(cc: list, target: Path) -> None:
    import subprocess
    import uuid

    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        done = subprocess.run([*cc, *_FLAGS, "-o", str(tmp), str(SOURCE)],
                              capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise RuntimeError(f"{cc[0]} exited {done.returncode}: "
                               f"{done.stderr.strip()[-500:]}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _load():
    import ctypes
    import hashlib
    import platform
    import shlex

    cc = shlex.split(os.environ.get("CC") or "cc")
    tag = hashlib.sha256(SOURCE.read_bytes())
    tag.update("\0".join([*cc, *_FLAGS, platform.machine()]).encode())
    target = default_cache_dir() / "kernels" / f"shared-{tag.hexdigest()[:16]}.so"
    if not target.exists():
        _build(cc, target)
    try:
        lib = ctypes.CDLL(str(target))
    except OSError:
        # Damaged on disk (say, by a crash after the rename): build anew.
        _build(cc, target)
        lib = ctypes.CDLL(str(target))
    fn = lib.repro_shared_kernel
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_void_p]
    fn.restype = ctypes.c_int
    return fn


def library():
    """The compiled kernel function, building it on first use; ``None``
    (after one warning) when it cannot be built or loaded."""
    try:
        return _state["lib"]
    except KeyError:
        pass
    with _lock:
        if "lib" not in _state:
            try:
                _state["lib"] = _load()
            except Exception as exc:
                _state["lib"] = None
                warnings.warn(
                    f"compiled shared-cache kernel unavailable "
                    f"({type(exc).__name__}: {exc}); using the Python "
                    f"kernels", RuntimeWarning, stacklevel=3)
    return _state["lib"]


class _Intern(dict):
    """Looking up an unseen page assigns it the next dense id."""

    def __missing__(self, key):
        value = self[key] = len(self)
        return value


def _dense_ids(workload) -> tuple[int, array]:
    """``(width, ids)``: every request's page as an id in ``[0, width)``,
    core after core.  Uses the ids a generator attached
    (:meth:`~repro.core.request.Workload.attach_dense_page_ids`), and
    interns the pages only when there are none."""
    flat = array("q")
    attached = workload.__dict__.get("_dense_page_ids")
    if attached is not None:
        width, per_core = attached
        for ids in per_core:
            if getattr(ids, "dtype", None) == "int64":
                flat.frombytes(ids.tobytes())
            else:
                flat.extend(ids)
        return width, flat
    intern = _Intern()
    for seq in workload:
        flat.extend(map(intern.__getitem__, seq.as_tuple()))
    return len(intern), flat


def _compiled(python_kernel, mode: int):
    @functools.wraps(python_kernel,
                     assigned=("__name__", "__qualname__", "__doc__"))
    def kernel(workload, cache_size: int, tau: int) -> SimResult:
        workload = _prepare(workload, cache_size, tau)
        fn = library()
        if fn is None:
            return python_kernel(workload, cache_size, tau)
        width, ids = _dense_ids(workload)
        if len(ids) != workload.total_requests:  # ids must mirror requests
            return python_kernel(workload, cache_size, tau)
        p = workload.num_cores
        lengths = array("q", workload.lengths())
        out = array("q", bytes(8 * (3 * p + 1)))
        code = fn(p, lengths.buffer_info()[0], ids.buffer_info()[0], width,
                  cache_size, tau, mode, out.buffer_info()[0])
        if code == 1:
            raise RuntimeError("cache full and every cell busy; K < p?")
        if code:  # ids out of range, or out of memory
            return python_kernel(workload, cache_size, tau)
        return SimResult(
            faults_per_core=tuple(out[:p]),
            hits_per_core=tuple(out[p:2 * p]),
            completion_times=tuple(out[2 * p:3 * p]),
            total_steps=out[3 * p],
            trace=None,
        )

    return kernel


fast_shared_lru = _compiled(shared.fast_shared_lru, 0)
fast_shared_fifo = _compiled(shared.fast_shared_fifo, 1)
fast_shared_marking = _compiled(shared.fast_shared_marking, 2)
