#!/usr/bin/env python3
"""The resilient job service, end to end and in one process.

Boots a :class:`repro.service.JobService` (no sockets needed — the HTTP
layer is optional) plus its stdlib HTTP front-end, then demonstrates the
robustness features documented in docs/SERVICE.md:

1. a simulate job submitted over HTTP and long-polled to completion;
2. an exact-solver (``opt``) job with a deliberately impossible
   deadline — the answer comes back ``DEGRADED`` with a guaranteed
   ``[lower, upper]`` interval instead of a timeout error;
3. an identical re-submission answered instantly from the journal
   (content-fingerprint dedup);
4. a full admission queue rejecting with a Retry-After hint while the
   queued work is untouched;
5. graceful drain: queued jobs are checkpointed, and a second service
   booted on the same journal recovers and finishes them.

Run:  python examples/job_service.py
"""

import tempfile
from pathlib import Path

from repro.service import (
    Backpressure,
    JobService,
    ServiceClient,
    ServiceHTTPServer,
)

SIM = {"workload": "zipf", "cores": 2, "length": 200, "cache_size": 8}


def main() -> None:
    journal = Path(tempfile.mkdtemp(prefix="repro-service-")) / "jobs.jsonl"

    service = JobService(journal, workers=1, queue_capacity=3).start()
    http = ServiceHTTPServer(service).start()
    client = ServiceClient(http.url)
    print(f"service {client.health()['version']} listening on {http.url}")

    print("\n=== 1. simulate job over HTTP ===")
    job = client.submit("simulate", dict(SIM, strategy="S_LRU"))
    done = client.wait(job["id"], timeout_s=60)
    print(f"{done['id']}: {done['state']} -> {done['result']['faults']} faults")

    print("\n=== 2. impossible deadline degrades, never times out ===")
    opt = {"workload": "zipf", "cores": 3, "length": 30, "cache_size": 6}
    degraded = client.submit("opt", opt, deadline_s=0.02)
    degraded = client.wait(degraded["id"], timeout_s=60)
    result = degraded["result"]
    print(
        f"{degraded['id']}: {degraded['state']} -> optimum in "
        f"[{result['lower']}, {result['upper']}] "
        f"({result['states_expanded']} states before the deadline)"
    )

    print("\n=== 3. identical work is deduplicated from the journal ===")
    again = client.submit("simulate", dict(SIM, strategy="S_LRU"))
    again = client.status(again["id"])
    source = [e for e in again["events"] if e["event"] == "deduplicated"]
    print(f"{again['id']}: {again['state']} instantly, from {source[0]['source']}")

    print("\n=== 4. full queue pushes back instead of queueing to death ===")
    # flood the single worker faster than it can drain the 3-slot queue
    flood = [
        client.submit("sweep", dict(SIM, seed=s, seeds=list(range(4))))
        for s in range(3)
    ]
    try:
        while True:
            flood.append(
                client.submit("sweep", dict(SIM, seeds=[99], seed=len(flood)))
            )
    except Backpressure as busy:
        print(f"rejected with HTTP {busy.status}: retry in {busy.retry_after_s:.0f}s")
        print(f"({len(flood)} jobs admitted before the queue filled)")

    print("\n=== 5. drain checkpoints, restart recovers ===")
    service.begin_drain()  # what SIGTERM does in `python -m repro serve`
    http.stop()
    service.drain(timeout=60)
    counts = service.store.counts()
    print(f"drained; journal says {counts}")

    reborn = JobService(journal, workers=2).start()
    recovered = reborn.recovered_job_ids
    print(f"restart recovered {len(recovered)} unfinished job(s)")
    reborn_http = ServiceHTTPServer(reborn).start()
    reborn_client = ServiceClient(reborn_http.url)
    for job_id in recovered:
        final = reborn_client.wait(job_id, timeout_s=120)
        print(f"  {job_id}: {final['state']}")
    reborn_http.stop()
    reborn.stop()
    print("\nevery submitted job reached exactly one terminal state.")


if __name__ == "__main__":
    main()
