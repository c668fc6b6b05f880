"""Shared plumbing for the benchmark: paths, fresh state, child processes,
percentiles, peak RSS, and the in-memory span tracer.

Nothing here instruments ``src/``: the tracer records spans around calls the
benchmark itself makes, and :meth:`Tracer.wrap` times a public function of
the program by replacing it, for the traced run only, with a timing shim
that calls the original.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from statistics import median  # noqa: F401  (shared with the workloads)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch area inside the checkout (listed in the root .gitignore).
WORK = ROOT / ".perfbench"

PYTHON = sys.executable or "python3"


class CheckFailed(AssertionError):
    """An output check failed: the run reports this instead of numbers."""


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# fresh state
# ---------------------------------------------------------------------------


class Scratch:
    """One run's private directory: journals, run registry, result cache.

    The environment it exports points ``REPRO_RUNS_DIR`` and
    ``REPRO_CACHE_DIR`` inside it, so no run sees another's registry or
    cache, and nothing lands in the working tree.
    """

    def __init__(self, label: str):
        WORK.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        self.env.update(
            PYTHONPATH=str(SRC),
            PYTHONUNBUFFERED="1",
            REPRO_RUNS_DIR=str(self.path / "runs"),
            REPRO_CACHE_DIR=str(self.path / "cache"),
        )
        self._saved_env = {}

    def file(self, name: str) -> str:
        return str(self.path / name)

    def __enter__(self) -> "Scratch":
        # In-process calls (references, probes) read the same variables.
        for key in ("REPRO_RUNS_DIR", "REPRO_CACHE_DIR"):
            self._saved_env[key] = os.environ.get(key)
            os.environ[key] = self.env[key]
        os.environ.pop("REPRO_CHAOS", None)
        return self

    def __exit__(self, *exc) -> None:
        for key, value in self._saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def stop_process(proc: subprocess.Popen, timeout_s: float = 10.0) -> None:
    """SIGTERM, then SIGKILL if it will not go; always reaped."""
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def adopt_orphans() -> None:
    """Make this process the Linux child subreaper of everything it starts,
    so a grandchild orphaned by its parent (a pool worker of a killed
    server) is re-parented here, where :func:`reap_children` finds it."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_children(timeout_s: float = 5.0) -> None:
    """Stop and reap every child process still alive: the last step on
    every path out of a run, so nothing the run started outlives it.
    SIGTERM, then SIGKILL for whatever is left after ``timeout_s``."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _children()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout_s
        while True:
            pids = [pid for pid in pids if not _reaped(pid)]
            if not pids:
                return
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def time_imports(env: dict, count: int) -> list[float]:
    """Wall seconds of ``count`` fresh interpreters importing ``repro.cli``
    (what every ``repro`` command pays before doing work)."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [PYTHON, "-c", "import repro.cli"], env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def http_json(url: str, timeout_s: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout_s) as resp:
        return json.loads(resp.read().decode("utf-8"))


class Server:
    """One ``repro serve`` child at server defaults on an ephemeral port.

    ``setup_s`` is the time from spawning the process to the first healthy
    ``/healthz``.
    """

    def __init__(self, scratch: Scratch, name: str):
        self.journal = scratch.file(f"{name}.jobs.jsonl")
        self.log_path = scratch.file(f"{name}.log")
        start = time.perf_counter()
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [PYTHON, "-m", "repro", "serve", "--port", "0",
             "--journal", self.journal],
            env=scratch.env, cwd=str(scratch.path),
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        try:
            self.url = self._await_url()
            deadline = time.monotonic() + 60
            while True:
                try:
                    http_json(f"{self.url}/healthz", timeout_s=2.0)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_url(self) -> str:
        for line in self.proc.stdout:
            if "listening on " in line:
                return line.split("listening on ", 1)[1].strip()
        raise RuntimeError(
            f"repro serve exited ({self.proc.wait()}) before listening; "
            f"see {self.log_path}"
        )

    def stop(self) -> None:
        stop_process(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


@contextmanager
def servers(scratch: Scratch, names):
    """Spawn one server per name, one after another; stop them all."""
    running = []
    try:
        for name in names:
            running.append(Server(scratch, name))
        yield running
    finally:
        for server in running:
            server.stop()


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and every reaped descendant."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(children, own) / 1024.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory and written out once, at the end of the run.

    A span is ``(name, start, end, request)`` with host ``perf_counter``
    times; spans of one request (a seed, a job id) share ``request``.
    ``enabled=False`` makes every method a no-op, which is how the
    untraced runs measure end-to-end numbers without tracing cost.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def add(self, name, start, end, request=None) -> None:
        if self.enabled:
            with self._lock:
                self.spans.append((name, start, end, request))

    def wrap(self, owner, attr: str, name: str, request_of=None,
             on_return=None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``;
        ``on_return`` sees each value the call returns."""
        if not self.enabled:
            return
        original = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                value = original(*args, **kwargs)
            finally:
                request = request_of(*args, **kwargs) if request_of else None
                self.add(name, start, time.perf_counter(), request)
            if on_return is not None:
                on_return(value)
            return value

        self._patches.append((owner, attr, original))
        setattr(owner, attr, timed)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [
                    {"name": name, "start": start, "end": end,
                     "request": request}
                    for name, start, end, request in self.spans
                ],
                fh,
            )
