"""End-to-end campaign-service tests over a real socket.

The acceptance bar for the service: two clients POSTing the same spec
concurrently cost exactly one execution, and the ``campaign.json`` the
service serves is byte-identical to a direct in-process
:func:`run_campaign` — HTTP, scheduling, caching and checkpointing are
pure plumbing around the same deterministic core.

Real (tiny) campaigns run in the dedupe/cancel tests; quota, auth and
guard tests use the gated fake from ``test_scheduler`` so their timing
is fully controlled.
"""

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.api import ApiServer, CampaignScheduler
from repro.experiments import cache
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.scale import PRESETS, Scale

# reuse the gated fake execution from the scheduler tests
from tests.api.test_scheduler import fake_runs  # noqa: F401

TINY_API = Scale(name="tiny-api", sizes=(60, 80), origins=2, metric_sources=10)


@pytest.fixture()
def tiny_preset():
    PRESETS[TINY_API.name] = TINY_API
    cache.clear_cache()
    try:
        yield TINY_API.name
    finally:
        cache.clear_cache()
        PRESETS.pop(TINY_API.name, None)


class _Service:
    """An ApiServer + its event loop on a background thread."""

    def __init__(self, scheduler, api_keys=None):
        self.scheduler = scheduler
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        self.server = ApiServer(
            scheduler, "127.0.0.1", 0, api_keys=api_keys
        )
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=10)
        self.host, self.port = self.server.address

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        ).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.scheduler.close()

    # ------------------------------------------------------------------
    # tiny HTTP client (stdlib only, one request per connection)
    # ------------------------------------------------------------------
    def request(self, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def request_json(self, method, path, document=None, headers=None):
        body = None
        if document is not None:
            body = json.dumps(document).encode("utf-8")
        status, payload = self.request(method, path, body=body, headers=headers)
        return status, json.loads(payload)

    def stream_events(self, job_id, *, since=None, stop_after=None, timeout=60.0):
        """Read the NDJSON stream; optionally stop early via callback."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        path = f"/campaigns/{job_id}/events"
        if since is not None:
            path += f"?since={since}"
        events = []
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            for raw in response:
                event = json.loads(raw)
                events.append(event)
                if stop_after is not None and stop_after(event):
                    break
        finally:
            conn.close()
        return events


@pytest.fixture()
def service(tmp_path, tiny_preset):
    scheduler = CampaignScheduler(
        tmp_path / "service",
        max_running=2,
        max_queued_per_tenant=2,
        max_running_per_tenant=2,
    )
    svc = _Service(scheduler)
    yield svc
    svc.stop()


@pytest.fixture()
def fake_service(tmp_path, fake_runs):
    scheduler = CampaignScheduler(
        tmp_path / "fake-service",
        max_running=1,
        max_queued_per_tenant=2,
        max_running_per_tenant=1,
    )
    svc = _Service(scheduler)
    svc.fake_runs = fake_runs
    yield svc
    fake_runs.release.set()
    svc.stop()


def _wait_event(service, job_id, wanted, timeout=60.0):
    events = service.stream_events(
        job_id, stop_after=lambda e: e["event"] == wanted, timeout=timeout
    )
    assert events[-1]["event"] == wanted, f"never saw {wanted}: {events}"
    return events


class TestEndToEnd:
    def test_concurrent_identical_specs_one_execution(
        self, service, tmp_path, tiny_preset
    ):
        # The acceptance bar, over the real wire: a direct serial run and
        # the served artifact must be byte-identical, with one execution
        # answering both concurrent clients.
        direct_dir = tmp_path / "direct"
        run_campaign(CampaignSpec(scale=tiny_preset, seed=5), output_dir=direct_dir)
        cache.clear_cache()  # the service's execution starts cold

        spec = {"scale": tiny_preset, "seed": 5}
        replies = [None, None]

        def post(slot, key):
            replies[slot] = service.request_json(
                "POST", "/campaigns", spec, headers={"X-Api-Key": key}
            )

        threads = [
            threading.Thread(target=post, args=(0, "alice")),
            threading.Thread(target=post, args=(1, "bob")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        statuses = sorted(status for status, _ in replies)
        bodies = [body for _, body in replies]
        assert bodies[0]["id"] == bodies[1]["id"]
        # exactly one of the two submissions scheduled an execution; the
        # other joined it (202 scheduled / 200 joined)
        assert statuses == [200, 202]
        assert sorted(body["scheduled"] for body in bodies) == [False, True]

        job_id = bodies[0]["id"]
        _wait_event(service, job_id, "job_done")
        assert service.scheduler.executions == 1

        status, served = service.request(
            "GET", f"/campaigns/{job_id}/artifacts/campaign.json"
        )
        assert status == 200
        assert served == (direct_dir / "campaign.json").read_bytes()
        # both clients read the same bytes
        assert served == service.request(
            "GET", f"/campaigns/{job_id}/artifacts/campaign.json"
        )[1]

        status, document = service.request_json("GET", f"/campaigns/{job_id}")
        assert status == 200
        assert document["state"] == "done"
        assert document["passed"] is not None
        assert "campaign.json" in document["artifacts"]

        status, listing = service.request_json("GET", "/campaigns")
        assert status == 200
        assert job_id in [item["id"] for item in listing["campaigns"]]

    def test_event_stream_replays_and_terminates(self, service, tiny_preset):
        status, body = service.request_json(
            "POST", "/campaigns", {"scale": tiny_preset, "seed": 6}
        )
        assert status == 202
        events = _wait_event(service, body["id"], "job_done")
        kinds = [event["event"] for event in events]
        assert kinds[0] == "job_queued"
        assert "campaign_started" in kinds
        assert "experiment_done" in kinds
        assert [e["seq"] for e in events] == list(range(len(events)))
        # a replay of a finished job streams everything, then closes
        replay = service.stream_events(body["id"])
        assert replay == events
        # ?since= resumes mid-stream without replaying earlier events
        tail = service.stream_events(body["id"], since=len(events) - 2)
        assert tail == events[-2:]

    def test_cancel_mid_campaign_then_resubmit_resumes(
        self, service, tmp_path, tiny_preset
    ):
        direct_dir = tmp_path / "direct"
        run_campaign(CampaignSpec(scale=tiny_preset, seed=7), output_dir=direct_dir)
        cache.clear_cache()

        spec = {"scale": tiny_preset, "seed": 7}
        status, body = service.request_json("POST", "/campaigns", spec)
        assert status == 202
        job_id = body["id"]
        # wait for the first completed experiment, then cancel
        _wait_event(service, job_id, "experiment_done")
        status, cancel_body = service.request_json(
            "DELETE", f"/campaigns/{job_id}"
        )
        assert status == 200
        assert cancel_body["id"] == job_id
        events = service.stream_events(job_id)
        assert events[-1]["event"] in ("job_cancelled", "job_done")
        if events[-1]["event"] == "job_done":
            pytest.skip("campaign finished before the cancel landed")
        completed_before = max(
            e["done"] for e in events if e["event"] == "experiment_done"
        )
        assert completed_before >= 1

        # resubmitting the same spec resumes from the flushed state
        status, body = service.request_json("POST", "/campaigns", spec)
        assert status == 202
        assert body["id"] == job_id
        events = _wait_event(service, job_id, "job_done")
        queued = [e for e in events if e["event"] == "job_queued"]
        assert queued[-1]["resumed"] is True
        started = [e for e in events if e["event"] == "campaign_started"]
        assert started[-1]["completed"] >= completed_before

        status, served = service.request(
            "GET", f"/campaigns/{job_id}/artifacts/campaign.json"
        )
        assert status == 200
        assert served == (direct_dir / "campaign.json").read_bytes()
        assert service.scheduler.executions == 2


class TestQuotaAndGuards:
    def test_quota_rejection_over_http(self, fake_service):
        key = {"X-Api-Key": "alice"}
        status, body = fake_service.request_json(
            "POST", "/campaigns", {"scale": "smoke", "seed": 1}, headers=key
        )
        assert status == 202
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if fake_service.scheduler.get(body["id"]).state == "running":
                break
            time.sleep(0.01)
        for seed in (2, 3):
            status, _ = fake_service.request_json(
                "POST", "/campaigns", {"scale": "smoke", "seed": seed}, headers=key
            )
            assert status == 202
        status, body = fake_service.request_json(
            "POST", "/campaigns", {"scale": "smoke", "seed": 4}, headers=key
        )
        assert status == 429
        assert "queued" in body["error"]
        # a different tenant still gets through
        status, _ = fake_service.request_json(
            "POST",
            "/campaigns",
            {"scale": "smoke", "seed": 4},
            headers={"X-Api-Key": "bob"},
        )
        assert status == 202

    def test_artifact_conflict_while_running(self, fake_service):
        status, body = fake_service.request_json(
            "POST", "/campaigns", {"scale": "smoke", "seed": 9}
        )
        assert status == 202
        status, _ = fake_service.request(
            "GET", f"/campaigns/{body['id']}/artifacts/campaign.json"
        )
        assert status == 409

    def test_unknown_campaign_and_artifact_404(self, fake_service):
        assert fake_service.request("GET", "/campaigns/deadbeef")[0] == 404
        assert (
            fake_service.request("GET", "/campaigns/deadbeef/events")[0] == 404
        )
        status, body = fake_service.request_json(
            "POST", "/campaigns", {"scale": "smoke", "seed": 10}
        )
        fake_service.fake_runs.release.set()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if fake_service.scheduler.get(body["id"]).state == "done":
                break
            time.sleep(0.01)
        assert (
            fake_service.request(
                "GET", f"/campaigns/{body['id']}/artifacts/secrets.txt"
            )[0]
            == 404
        )

    def test_no_route_404_and_method_405(self, fake_service):
        assert fake_service.request("GET", "/nope")[0] == 404
        assert fake_service.request("DELETE", "/campaigns")[0] == 405


class TestMalformedRequests:
    """The fuzz discipline, applied over a real socket."""

    def _raw(self, service, payload: bytes) -> bytes:
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_garbled_request_line(self, fake_service):
        reply = self._raw(fake_service, b"NOT HTTP\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_oversized_content_length(self, fake_service):
        reply = self._raw(
            fake_service,
            b"POST /campaigns HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 413 ")

    def test_chunked_refused(self, fake_service):
        reply = self._raw(
            fake_service,
            b"POST /campaigns HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 501 ")

    def test_bad_json_body(self, fake_service):
        status, body = fake_service.request(
            "POST", "/campaigns", body=b"{not json"
        )
        assert status == 400

    def test_unknown_spec_field(self, fake_service):
        status, body = fake_service.request_json(
            "POST", "/campaigns", {"scale": "smoke", "surprise": 1}
        )
        assert status == 400
        assert "surprise" in body["error"]

    def test_jobs_above_the_usable_cpus(self, fake_service):
        from repro.core.sweep import resolve_jobs

        status, body = fake_service.request_json(
            "POST", "/campaigns", {"scale": "smoke", "jobs": resolve_jobs(0) + 1}
        )
        assert status == 400
        assert "jobs" in body["error"]

    def test_unknown_scale(self, fake_service):
        status, _ = fake_service.request_json(
            "POST", "/campaigns", {"scale": "galactic"}
        )
        assert status == 400

    def test_malformed_since_query(self, fake_service):
        status, body = fake_service.request_json(
            "POST", "/campaigns", {"scale": "smoke", "seed": 12}
        )
        status, _ = fake_service.request(
            "GET", f"/campaigns/{body['id']}/events?since=banana"
        )
        assert status == 400


class TestAuth:
    def test_api_keys_enforced(self, tmp_path, fake_runs):
        scheduler = CampaignScheduler(tmp_path / "auth-service")
        svc = _Service(scheduler, api_keys={"sesame"})
        try:
            fake_runs.release.set()
            status, _ = svc.request_json(
                "POST", "/campaigns", {"scale": "smoke", "seed": 1}
            )
            assert status == 401
            status, _ = svc.request_json(
                "GET", "/campaigns", headers={"X-Api-Key": "wrong"}
            )
            assert status == 401
            status, _ = svc.request_json(
                "POST",
                "/campaigns",
                {"scale": "smoke", "seed": 1},
                headers={"X-Api-Key": "sesame"},
            )
            assert status == 202
            # the liveness probe stays open for unauthenticated monitors
            assert svc.request("GET", "/healthz")[0] == 200
        finally:
            svc.stop()
