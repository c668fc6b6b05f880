#!/usr/bin/env python
"""End-to-end smoke test for the fleet executor (CI: fleet-smoke).

Boots two real ``python -m repro serve`` processes on ephemeral ports,
runs a replica sweep through :class:`FleetExecutor` across both, and
SIGKILLs one endpoint the moment results start landing.  The sweep must
finish on the survivor with every replica exactly-once, and its
aggregates must be byte-identical (as sorted JSON) to a local
single-process run of the same task — the fleet moves work around, it
never changes the numbers.  The killed endpoint's warm-pool workers
(its child processes, recorded just before the kill) must all have
exited about 3 s after it.

Exits non-zero (with a transcript) on any violation.  Needs only the
repro package (installed or via PYTHONPATH=src) — stdlib otherwise.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if os.path.isdir(os.path.join(SRC, "repro")):
    sys.path.insert(0, SRC)

from repro.fleet import (  # noqa: E402
    FleetExecutor,
    LocalThreadExecutor,
    run_sweep,
)

URL_RE = re.compile(r"listening on (http://\S+)")

TASK = {
    "workload": "zipf",
    "cores": 2,
    "length": 40,
    "alpha": 1.2,
    "cache_size": 8,
    "tau": 1,
    "strategy": "S_LRU",
}
SEEDS = list(range(40))
#: How long the SIGKILLed endpoint's pool workers may outlive it.
WORKER_EXIT_S = 3.0


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def child_pids(pid):
    """Pids of ``pid``'s live child processes, from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and entry != str(pid):
            fields = proc_stat(int(entry))
            if fields and fields[1] == str(pid) and fields[0] != "Z":
                kids.append(int(entry))
    return kids


def proc_stat(pid):
    """``[state, ppid, ...]`` from /proc/<pid>/stat, or None when gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def alive(pid):
    """Running, and not a zombie awaiting its reaper."""
    fields = proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def outliving(pids, until):
    """Those of ``pids`` still alive at monotonic time ``until``;
    returns early once none is."""
    while time.monotonic() < until and any(alive(pid) for pid in pids):
        time.sleep(0.05)
    return [pid for pid in pids if alive(pid)]


class Server:
    """One `python -m repro serve` subprocess bound to `journal`."""

    def __init__(self, journal):
        self.journal = journal
        self.proc = None
        self.url = None

    def start(self, timeout_s=60.0):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env.pop("REPRO_CHAOS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", "0", "--journal", self.journal, "--workers", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            print(f"  server: {line.rstrip()}")
            match = URL_RE.search(line)
            if match:
                self.url = match.group(1)
                # Keep draining stdout so the server never blocks on a
                # full pipe once we stop reading.
                threading.Thread(
                    target=self.proc.stdout.read, daemon=True
                ).start()
                return self
        fail("server never announced its URL")

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()


def comparable_summary(sweep):
    body = dict(sweep.summary())
    for provenance in ("topology", "resumed", "max_attempts", "hedged"):
        body.pop(provenance, None)
    return json.dumps(body, sort_keys=True)


def main():
    workdir = tempfile.mkdtemp(prefix="repro-fleet-smoke-")

    print("== local baseline ==")
    local = run_sweep(TASK, SEEDS, executor=LocalThreadExecutor(max_workers=4))
    if not local.ok:
        fail(f"local baseline sweep failed: {local.failed_seeds}")
    print(f"local: {len(local.outcomes)} replicas DONE")

    print("== boot 2-endpoint fleet ==")
    victim = Server(os.path.join(workdir, "a.jsonl")).start()
    survivor = Server(os.path.join(workdir, "b.jsonl")).start()

    landed = threading.Event()
    delivered = []
    victim_workers = []
    killed_at = []

    def on_outcome(outcome):
        delivered.append(outcome.key)
        if len(delivered) >= 5:
            landed.set()

    def killer():
        landed.wait(timeout=120)
        victim_workers.extend(child_pids(victim.proc.pid))
        print(f"== SIGKILL {victim.url} mid-sweep "
              f"(warm-pool workers {victim_workers}) ==")
        victim.sigkill()
        killed_at.append(time.monotonic())

    kill_thread = threading.Thread(target=killer, daemon=True)
    kill_thread.start()

    print(f"== sweep {len(SEEDS)} replicas across the fleet ==")
    executor = FleetExecutor(
        [victim.url, survivor.url],
        retries=2,
        poll_s=0.05,
        hedge_after_s=5.0,
        replica_deadline_s=120.0,
        probe_interval_s=0.3,
        breaker_reset_s=0.5,
    )
    try:
        fleet = run_sweep(TASK, SEEDS, executor=executor, on_outcome=on_outcome)
    finally:
        executor.close()
        survivor.stop()
        victim.stop()
    kill_thread.join(timeout=5)

    print("== verdicts ==")
    if not landed.is_set():
        fail("no outcomes ever landed, so the mid-sweep kill never fired")
    if sorted(delivered) != SEEDS:
        fail(f"not exactly-once: {len(delivered)} deliveries for "
             f"{len(SEEDS)} seeds")
    bad = [o for o in fleet.outcomes.values() if o.status not in ("DONE", "ERROR")]
    if bad:
        fail(f"non-terminal outcomes: {bad}")
    if not fleet.ok:
        errors = {
            seed: fleet.outcomes[seed].error for seed in fleet.failed_seeds
        }
        fail(f"sweep did not complete on the survivor: {errors}")
    used = {o.endpoint for o in fleet.outcomes.values()}
    print(f"endpoints used: {sorted(used)}")
    if survivor.url not in used:
        fail("survivor endpoint served no replicas")

    fleet_json = comparable_summary(fleet)
    local_json = comparable_summary(local)
    if fleet_json != local_json:
        fail(f"fleet aggregates diverged from local:\n  fleet: {fleet_json}\n"
             f"  local: {local_json}")
    print(f"aggregates identical to local run: {fleet_json}")
    if fleet.max_attempts > 1:
        print(f"faults tolerated: max_attempts={fleet.max_attempts}")

    if not victim_workers:
        fail("the killed endpoint had no warm-pool workers to check")
    survivors = outliving(victim_workers, killed_at[0] + WORKER_EXIT_S)
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    if survivors:
        fail(f"warm-pool workers {survivors} outlived their SIGKILLed "
             f"server by {WORKER_EXIT_S}s")
    print(f"warm-pool workers {victim_workers} exited with their server")

    print("fleet smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
