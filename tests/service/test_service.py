"""JobService integration: admission control, degradation, drain,
restart recovery, and the HTTP/client surface (no fault injection here —
chaos-under-service lives in test_chaos_service.py).
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.runtime.breaker import CircuitOpen
from repro.service import server as server_module
from repro.service import (
    Backpressure,
    JobService,
    QueueFull,
    ServiceClient,
    ServiceDraining,
    ServiceError,
    ServiceHTTPServer,
)

pytestmark = pytest.mark.service

#: A small, fast simulate spec used throughout.
SIM = {"workload": "zipf", "cores": 2, "length": 60, "cache_size": 8}


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("backoff_s", 0.05)
    kwargs.setdefault("jitter", 0.0)
    return JobService(tmp_path / "jobs.jsonl", **kwargs)


def wait_terminal(service, job_id, timeout_s=90.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = service.store.get(job_id)
        if record.terminal:
            return record
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} not terminal after {timeout_s}s "
        f"(state={service.store.get(job_id).state})"
    )


class TestHappyPaths:
    def test_simulate_job_completes(self, tmp_path):
        service = make_service(tmp_path).start()
        try:
            record = service.submit("simulate", dict(SIM, strategy="S_LRU"))
            final = wait_terminal(service, record.id)
            assert final.state == "DONE"
            assert final.result["faults"] > 0
            assert final.result["faults"] + final.result["hits"] == 120
            events = [e["event"] for e in final.events]
            assert events[0] == "submitted"
            assert "running" in events and "done" in events
        finally:
            service.stop()

    def test_sweep_job_aggregates_seeds(self, tmp_path):
        service = make_service(tmp_path).start()
        try:
            record = service.submit(
                "sweep", dict(SIM, strategy="S_LRU", seeds=[0, 1, 2])
            )
            final = wait_terminal(service, record.id)
            assert final.state == "DONE"
            assert final.result["seeds"] == 3
            assert set(final.result["faults"]) == {"0", "1", "2"}
        finally:
            service.stop()

    def test_opt_job_exact_when_within_deadline(self, tmp_path):
        service = make_service(tmp_path).start()
        try:
            record = service.submit(
                "opt",
                {"sequences": [[1, 2, 1, 2], [5, 6, 5, 6]], "cache_size": 4,
                 "tau": 1},
            )
            final = wait_terminal(service, record.id)
            assert final.state == "DONE"
            assert final.result["faults"] == final.result["lower"]
            assert final.result["lower"] == final.result["upper"]
        finally:
            service.stop()

    def test_invalid_specs_rejected_at_admission(self, tmp_path):
        service = make_service(tmp_path)  # not started: admission only
        try:
            with pytest.raises(ValueError, match="unknown job kind"):
                service.submit("fold-proteins", {})
            with pytest.raises(ValueError):
                service.submit("simulate", dict(SIM, strategy="S_NOPE"))
            with pytest.raises(ValueError):
                service.submit("experiment", {"id": "E999"})
            with pytest.raises(ValueError):
                service.submit("sweep", dict(SIM, seeds=[]))
            assert service.store.jobs() == []  # nothing was admitted
        finally:
            service.stop()


class TestDeadlineDegradation:
    def test_overloaded_opt_returns_valid_interval(self, tmp_path):
        """The acceptance criterion: a deadline-exceeded exact-solver job
        answers DEGRADED with a [lower, upper] interval that really does
        contain the exact optimum — not an error, not a timeout."""
        from repro.offline import minimum_total_faults
        from repro.problems import FTFInstance
        from repro.workloads import zipf_workload

        params = {"workload": "zipf", "cores": 3, "length": 27,
                  "cache_size": 6, "tau": 1, "seed": 4}
        service = make_service(tmp_path).start()
        try:
            record = service.submit("opt", params, deadline_s=0.02)
            final = wait_terminal(service, record.id)
            assert final.state == "DEGRADED"
            lower, upper = final.result["lower"], final.result["upper"]
            assert lower <= (upper if upper is not None else float("inf"))
            exact = minimum_total_faults(
                FTFInstance(
                    zipf_workload(3, 27, 6, alpha=1.2, seed=4), 6, 1
                )
            ).faults
            assert lower <= exact
            assert upper is None or exact <= upper
        finally:
            service.stop()


class TestBackpressure:
    def test_full_queue_rejects_without_touching_queued_jobs(self, tmp_path):
        service = make_service(tmp_path, queue_capacity=2)  # workers idle
        try:
            a = service.submit("simulate", dict(SIM, seed=1))
            b = service.submit("simulate", dict(SIM, seed=2))
            with pytest.raises(QueueFull) as exc_info:
                service.submit("simulate", dict(SIM, seed=3))
            assert exc_info.value.retry_after_s >= 1.0
            # the rejection admitted nothing and disturbed nothing
            states = {r.id: r.state for r in service.store.jobs()}
            assert states == {a.id: "QUEUED", b.id: "QUEUED"}
        finally:
            service.stop()

    def test_rejected_then_retried_submission_succeeds(self, tmp_path):
        service = make_service(tmp_path, queue_capacity=1)
        try:
            service.start()
            first = service.submit("simulate", dict(SIM, seed=1))
            wait_terminal(service, first.id)
            # backlog drained: the retry is admitted
            second = service.submit("simulate", dict(SIM, seed=10))
            final = wait_terminal(service, second.id)
            assert final.state == "DONE"
        finally:
            service.stop()


class TestCircuitBreaker:
    def test_repeated_failures_open_then_probe_closes(self, tmp_path, monkeypatch):
        # crash=1.0: every first attempt dies; retries=0 makes that FAILED.
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,crash=1.0")
        service = make_service(
            tmp_path, retries=0, breaker_threshold=2, breaker_reset_s=0.3
        ).start()
        try:
            for seed in (1, 2):
                record = service.submit("simulate", dict(SIM, seed=seed))
                final = wait_terminal(service, record.id)
                assert final.state == "FAILED"
            # breaker is now open: admission rejects this class...
            with pytest.raises(CircuitOpen) as exc_info:
                service.submit("simulate", dict(SIM, seed=3))
            assert exc_info.value.retry_after_s > 0
            # ...but other job classes are unaffected: opt still admits
            # (chaos crashes it too, but one failure is below threshold)
            ok = service.submit(
                "opt", {"sequences": [[1, 2, 1]], "cache_size": 2, "tau": 1}
            )
            wait_terminal(service, ok.id)
            assert service.breakers["opt"].state == "CLOSED"

            # cooldown passes, chaos lifts: the half-open probe heals it
            monkeypatch.delenv("REPRO_CHAOS")
            time.sleep(0.35)
            probe = service.submit("simulate", dict(SIM, seed=4))
            assert wait_terminal(service, probe.id).state == "DONE"
            assert service.breakers["simulate"].state == "CLOSED"
        finally:
            service.stop()


class TestDedup:
    def test_identical_resubmission_served_from_fingerprint(self, tmp_path):
        service = make_service(tmp_path).start()
        try:
            first = service.submit("simulate", dict(SIM, strategy="S_LRU"))
            done = wait_terminal(service, first.id)
            second = service.submit("simulate", dict(SIM, strategy="S_LRU"))
            # dedup is admission-time: already terminal, same result
            final = service.store.get(second.id)
            assert final.terminal
            assert final.state == done.state
            assert final.result == done.result
            assert any(
                e["event"] == "deduplicated" and e["source"] == first.id
                for e in final.events
            )
        finally:
            service.stop()


class TestDrainAndRecovery:
    def test_drain_rejects_new_checkpoints_queued(self, tmp_path):
        service = make_service(tmp_path, queue_capacity=8)  # workers idle
        queued = [service.submit("simulate", dict(SIM, seed=s)) for s in (1, 2)]
        service.begin_drain()
        with pytest.raises(ServiceDraining):
            service.submit("simulate", dict(SIM, seed=3))
        service.drain(timeout=5)
        # never started workers: both jobs were checkpointed, not lost
        reborn = make_service(tmp_path)
        try:
            assert {r.id for r in reborn.store.non_terminal()} == {
                j.id for j in queued
            }
        finally:
            reborn.stop()

    def test_restart_recovers_and_completes_unfinished_jobs(self, tmp_path):
        # First incarnation admits work but dies before running any of it.
        first = make_service(tmp_path)
        ids = [first.submit("simulate", dict(SIM, seed=s)).id for s in (1, 2, 3)]
        first.store.sync()
        first.store.close()  # simulated abrupt death (journal survives)

        reborn = make_service(tmp_path, workers=2).start()
        try:
            assert set(reborn.recovered_job_ids) == set(ids)
            for job_id in ids:
                assert wait_terminal(reborn, job_id).state == "DONE"
                assert any(
                    e["event"] == "requeued_after_restart"
                    for e in reborn.store.get(job_id).events
                )
        finally:
            reborn.stop()


class TestHTTPSurface:
    @pytest.fixture
    def served(self, tmp_path):
        service = make_service(tmp_path, queue_capacity=4).start()
        http = ServiceHTTPServer(service).start()
        try:
            yield service, ServiceClient(http.url)
        finally:
            http.stop()
            service.stop()

    def test_a_burst_of_connects_is_queued_not_dropped(self, tmp_path):
        """Connections made faster than the server accepts them wait in
        the listen backlog; none waits for a resent SYN."""
        http = ServiceHTTPServer(make_service(tmp_path))  # not accepting
        sockets = []
        try:
            for _ in range(32):
                sockets.append(
                    socket.create_connection(http.address, timeout=0.5)
                )
        finally:
            for sock in sockets:
                sock.close()
            http.start()
            http.stop()

    def test_healthz_reports_package_version(self, served):
        _service, client = served
        health = client.health()
        assert health["status"] == "alive"
        assert health["version"] == repro.__version__

    def test_readyz_payload_and_drain_503(self, served):
        service, client = served
        ready = client.readiness()
        assert ready["ready"] is True
        assert ready["queue"]["capacity"] == 4
        assert set(ready["breakers"]) == {
            "simulate", "experiment", "sweep", "opt", "run", "replica",
        }
        service.begin_drain()
        with pytest.raises(Backpressure) as exc_info:
            client.readiness()
        assert exc_info.value.status == 503

    def test_submit_wait_status_roundtrip(self, served):
        _service, client = served
        job = client.submit("simulate", dict(SIM, strategy="S_LRU"))
        assert job["state"] == "QUEUED"
        final = client.wait(job["id"], timeout_s=90)
        assert final["state"] == "DONE"
        assert any(j["id"] == job["id"] for j in client.jobs())
        assert [e for e in final["events"] if e["event"] == "executed"]

    def test_http_error_vocabulary(self, served):
        _service, client = served
        with pytest.raises(ServiceError) as exc_info:
            client.status("j-does-not-exist")
        assert exc_info.value.status == 404
        with pytest.raises(ServiceError) as exc_info:
            client.submit("bad-kind", {})
        assert exc_info.value.status == 400

    def test_http_429_carries_retry_after(self, tmp_path):
        service = make_service(tmp_path, queue_capacity=1)  # workers idle
        http = ServiceHTTPServer(service).start()
        client = ServiceClient(http.url)
        try:
            client.submit("simulate", dict(SIM, seed=1))
            with pytest.raises(Backpressure) as exc_info:
                client.submit("simulate", dict(SIM, seed=2))
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after_s >= 1.0
        finally:
            http.stop()
            service.stop()


def timed_get(url, path):
    """(HTTP status, JSON payload, seconds) of one raw GET."""
    start = time.monotonic()
    try:
        with urllib.request.urlopen(url + path, timeout=60) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        status, body = exc.code, exc.read()
    return status, json.loads(body), time.monotonic() - start


class TestLongPoll:
    """``GET /jobs/<id>?wait_s=S`` holds its reply until the job is
    terminal or ``S`` seconds pass."""

    @pytest.fixture
    def queued(self, tmp_path):
        """An endpoint whose workers never start, holding one QUEUED job."""
        service = make_service(tmp_path)
        http = ServiceHTTPServer(service).start()
        job = ServiceClient(http.url).submit("simulate", dict(SIM, seed=1))
        try:
            yield service, http.url, job["id"]
        finally:
            http.stop()
            service.stop()

    @pytest.mark.parametrize("raw", ["abc", "-1", "nan", ""])
    def test_bad_wait_s_is_400(self, queued, raw):
        _service, url, job_id = queued
        status, payload, _ = timed_get(url, f"/jobs/{job_id}?wait_s={raw}")
        assert status == 400
        assert "wait_s" in payload["error"]

    @pytest.mark.parametrize("raw", ["1e9", "inf"])
    def test_wait_s_over_the_cap_is_clamped(self, queued, monkeypatch, raw):
        _service, url, job_id = queued
        monkeypatch.setattr(server_module, "MAX_STATUS_WAIT_S", 0.3)
        status, payload, seconds = timed_get(
            url, f"/jobs/{job_id}?wait_s={raw}"
        )
        assert status == 200 and payload["state"] == "QUEUED"
        assert 0.3 <= seconds < 10.0

    def test_unknown_id_is_404_without_waiting(self, queued):
        _service, url, _job_id = queued
        status, _payload, seconds = timed_get(url, "/jobs/j-nope?wait_s=20")
        assert status == 404
        assert seconds < 5.0

    def test_no_query_answers_at_once(self, queued):
        _service, url, job_id = queued
        status, payload, seconds = timed_get(url, f"/jobs/{job_id}")
        assert status == 200 and payload["state"] == "QUEUED"
        assert seconds < 5.0

    def test_stop_releases_a_long_poll_on_a_queued_job(self, queued):
        service, url, job_id = queued
        client = ServiceClient(url, timeout_s=60.0, wait_s=30.0)
        seen = []
        poller = threading.Thread(
            target=lambda: seen.append(client.status(job_id))
        )
        start = time.monotonic()
        poller.start()
        time.sleep(0.3)
        service.stop()
        poller.join(timeout=20.0)
        assert not poller.is_alive()
        assert time.monotonic() - start < 20.0
        assert [record["state"] for record in seen] == ["QUEUED"]

    def test_terminal_job_answers_at_once_with_its_events(self, tmp_path):
        service = make_service(tmp_path).start()
        http = ServiceHTTPServer(service).start()
        try:
            client = ServiceClient(http.url)
            job = client.submit("simulate", dict(SIM, seed=2))
            client.wait(job["id"], timeout_s=90)
            status, payload, seconds = timed_get(
                http.url, f"/jobs/{job['id']}?wait_s=20"
            )
            assert status == 200 and payload["state"] == "DONE"
            assert seconds < 5.0
            events = [event["event"] for event in payload["events"]]
            assert events[0] == "submitted" and events[-1] == "done"
            assert "running" in events and "executed" in events
        finally:
            http.stop()
            service.stop()

    def test_wait_returns_when_the_job_lands(self, tmp_path):
        """``wait`` long-polls: with an 8 s window the client still sees
        the result within moments of it landing, not on the next poll."""
        service = make_service(tmp_path).start()
        http = ServiceHTTPServer(service).start()
        try:
            client = ServiceClient(http.url, timeout_s=30.0)
            job = client.submit("simulate", dict(SIM, seed=3))
            final = client.wait(job["id"], timeout_s=90, poll_s=8.0)
            assert final["state"] == "DONE"
            assert time.time() - final["finished_at"] < 2.0
        finally:
            http.stop()
            service.stop()

    def test_client_rejects_windows_it_cannot_wait_out(self):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", timeout_s=1.0, wait_s=1.0)
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", wait_s=-0.1)
        client = ServiceClient("http://127.0.0.1:1", timeout_s=1.0)
        for poll_s in (0.0, 1.0):
            with pytest.raises(ValueError):
                client.wait("j-1", poll_s=poll_s)
