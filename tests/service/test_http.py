"""HTTP API tests: wire contracts, streaming, error codes.

A real :class:`ServiceServer` runs on a private event loop thread with
an ephemeral port; a real :class:`ServiceClient` talks to it over
localhost TCP, so these exercise exactly what production clients see
(chunked NDJSON included).
"""

import asyncio
import json
import threading
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.core import ServiceConfig, SimService
from repro.service.http import ServiceServer
from repro.service.queue import TenantQuota
from repro.service.store import RETAINED_FINISHED_JOBS
from repro.sim.batch import run_batch
from repro.sim.config import ExperimentConfig

SMALL = {"regions": 64, "lines_per_region": 2}
SPECS = [{"label": "a", "attack": "uaa", "sparing": "max-we"}]


class ServerHarness:
    """A live service + HTTP server on an ephemeral port."""

    def __init__(self, tmp_path, **config_kwargs):
        self.service = SimService(
            ServiceConfig(state_dir=tmp_path / "state", **config_kwargs)
        )
        self.service.start()
        self.server = ServiceServer(self.service, "127.0.0.1", 0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while self.server.port == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert self.server.port != 0, "server never bound"
        self.client = ServiceClient("127.0.0.1", self.server.port)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self.loop.run_forever()

    def close(self):
        asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.service.stop()


@pytest.fixture
def harness(tmp_path):
    instance = ServerHarness(tmp_path, dispatchers=2)
    yield instance
    instance.close()


class TestEndToEnd:
    def test_submit_stream_fetch_matches_run_batch(self, harness):
        """The acceptance criterion: submit -> stream -> fetch over HTTP
        returns a body byte-identical to a direct run_batch."""
        document = harness.client.submit(SPECS, SMALL, tenant="alice")
        assert document["status"] in ("queued", "running", "done")
        events = list(harness.client.stream_events(document["job_id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued" and kinds[-1] == "done"
        assert "result" in kinds
        body = harness.client.results(document["job_id"])
        direct = run_batch(SPECS, ExperimentConfig(**SMALL)).to_json()
        assert body == direct

    def test_stream_since_skips_seen_events(self, harness):
        document = harness.client.submit(SPECS, SMALL)
        first = list(harness.client.stream_events(document["job_id"]))
        resumed = list(
            harness.client.stream_events(document["job_id"], since=len(first) - 1)
        )
        assert resumed == first[-1:]

    def test_healthz_and_listing(self, harness):
        assert harness.client.healthz()
        harness.client.submit(SPECS, SMALL, tenant="alice")
        jobs = harness.client.list_jobs()
        assert len(jobs) == 1
        assert jobs[0]["tenant"] == "alice"

    def test_metrics_manifest_carries_service_counters(self, harness):
        document = harness.client.submit(SPECS, SMALL)
        harness.client.wait(document["job_id"])
        duplicate = harness.client.submit(SPECS, SMALL, tenant="other")
        harness.client.wait(duplicate["job_id"])
        manifest = harness.client.metrics()
        assert manifest["kind"] == "manifest"
        assert manifest["command"] == "service"
        assert manifest["counters"]["service.dedup_hits"] >= 1
        assert manifest["counters"]["service.submitted"] == 2


class TestRetention:
    def test_evicted_job_is_served_from_its_record(self, harness):
        document = harness.client.submit(SPECS, SMALL, tenant="alice")
        harness.client.wait(document["job_id"])
        for index in range(RETAINED_FINISHED_JOBS):
            spec = {"label": f"w{index}", "attack": "uaa", "p": 0.01 + index * 1e-4}
            harness.client.wait(harness.client.submit([spec], SMALL)["job_id"])
        listed = {job["job_id"] for job in harness.client.list_jobs()}
        assert document["job_id"] not in listed
        assert len(listed) == RETAINED_FINISHED_JOBS
        status = harness.client.status(document["job_id"])
        assert status["status"] == "done" and status["tenant"] == "alice"
        body = harness.client.results(document["job_id"])
        assert body == run_batch(SPECS, ExperimentConfig(**SMALL)).to_json()
        events = list(harness.client.stream_events(document["job_id"]))
        assert [event["event"] for event in events] == ["queued", "done"]


class TestDedupOptions:
    def test_chunk_size_does_not_split_dedup(self, tmp_path):
        # Results never depended on the retired ensemble chunk size.
        # A job record that still carries the retired
        # ``trials_per_task`` option restores, runs, and publishes under
        # the key that a fresh submission of the same batch dedups with.
        before = SimService(ServiceConfig(state_dir=tmp_path / "state"))
        before.records_dir.mkdir(parents=True, exist_ok=True)
        before.ledgers_dir.mkdir(parents=True, exist_ok=True)
        job = before.submit("alice", {"specs": SPECS, "config": SMALL})
        record_path = before.records_dir / f"{job.job_id}.json"
        record = json.loads(record_path.read_text())
        record["options"]["trials_per_task"] = 4
        record_path.write_text(json.dumps(record))

        harness = ServerHarness(tmp_path, dispatchers=1)
        try:
            harness.client.wait(job.job_id)
            assert harness.client.status(job.job_id)["status"] == "done"
            fresh = harness.client.submit(SPECS, SMALL)
            assert fresh["status"] == "done" and fresh["dedup_hit"]
            assert harness.client.results(fresh["job_id"]) == harness.client.results(
                job.job_id
            )
        finally:
            harness.close()


class TestErrorCodes:
    def test_validation_errors_are_400(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client.submit([{"label": "x", "attack": "nope"}], SMALL)
        assert excinfo.value.status == 400

    def test_oversized_device_is_400(self, harness):
        with pytest.raises(ServiceError, match="exceeds the limit") as excinfo:
            harness.client.submit(SPECS, {"regions": 2048, "lines_per_region": 2**20})
        assert excinfo.value.status == 400

    def test_too_many_specs_is_400(self, harness):
        from repro.service.core import MAX_SPECS_PER_REQUEST

        specs = [
            {"label": f"s{index}", "attack": "uaa", "sparing": "none"}
            for index in range(MAX_SPECS_PER_REQUEST + 1)
        ]
        with pytest.raises(ServiceError, match="at most") as excinfo:
            harness.client.submit(specs, SMALL)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "options",
        [
            {"engine": "bogus"},
            {"engine": ["fluid-exact"]},
            {"engine": ""},
            {"engine": 7},
            {"engine": {"name": "fluid-batched"}},
        ],
    )
    def test_bad_run_options_are_400(self, harness, options):
        # Rejected at submit, not accepted and then failed at dispatch.
        with pytest.raises(ServiceError, match="bad option") as excinfo:
            harness.client.submit(SPECS, SMALL, **options)
        assert excinfo.value.status == 400
        assert harness.client.list_jobs() == []

    @pytest.mark.parametrize("engine", ["fluid-exact", "fluid"])
    def test_exact_engine_names_are_400(self, harness, engine):
        # The scalar loop is the verification oracle, not an engine; the
        # rejection says where it went.
        with pytest.raises(ServiceError, match="exact_lifetime") as excinfo:
            harness.client.submit(SPECS, SMALL, engine=engine)
        assert excinfo.value.status == 400
        assert harness.client.list_jobs() == []

    def test_chunk_size_is_not_a_request_field(self, harness):
        with pytest.raises(ServiceError, match="trials_per_task") as excinfo:
            harness.client._json(
                "POST",
                "/v1/jobs",
                body={"specs": SPECS, "config": SMALL, "trials_per_task": 4},
            )
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client.status("j-missing")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            harness.client.results("j-missing")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "job_id", ["..", "j-../x", "j-0123456789AB", "j-" + "a" * 10_000]
    )
    def test_malformed_job_ids_are_404(self, harness, job_id):
        for verb in ("", "/events", "/results"):
            status, _text, _headers = harness.client._request(
                "GET", f"/v1/jobs/{job_id}{verb}"
            )
            assert status == 404

    def test_results_before_done_is_409(self, tmp_path):
        harness = ServerHarness(
            tmp_path,
            dispatchers=1,
            default_quota=TenantQuota(max_queued=8, max_concurrent=1),
        )
        try:
            # A heavier batch so the first fetch can race it while running.
            slow = [
                {"label": f"s{i}", "attack": "bpa", "p": 0.02 + i * 0.01}
                for i in range(4)
            ]
            document = harness.client.submit(slow, {"regions": 2048})
            try:
                harness.client.results(document["job_id"])
                raced_to_done = True
            except ServiceError as error:
                assert error.status == 409
                raced_to_done = False
            final = harness.client.wait(document["job_id"])
            assert final["status"] == "done"
            assert harness.client.results(document["job_id"])  # now 200
            assert raced_to_done in (True, False)
        finally:
            harness.close()

    def test_quota_exceeded_is_429(self, tmp_path):
        harness = ServerHarness(
            tmp_path,
            dispatchers=1,
            default_quota=TenantQuota(max_queued=1, max_concurrent=1),
        )
        try:
            # Hold the dispatcher with one batch, fill the queue with a
            # second, then overflow with a third: must be a fast 429.
            def payload(tag):
                return [{"label": tag, "attack": "bpa", "p": 0.05}]

            harness.client.submit(payload("hold"), {"regions": 4096})
            harness.client.submit(payload("queued"), {"regions": 4096})
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                harness.client.submit(payload("reject"), {"regions": 4096})
            assert excinfo.value.status == 429
            assert time.monotonic() - started < 5.0, "429 must not hang"
        finally:
            harness.close()

    def test_unknown_paths_and_methods(self, harness):
        import http.client

        connection = http.client.HTTPConnection(
            harness.client.host, harness.client.port, timeout=10.0
        )
        try:
            connection.request("GET", "/nope")
            assert connection.getresponse().status == 404
        finally:
            connection.close()
        connection = http.client.HTTPConnection(
            harness.client.host, harness.client.port, timeout=10.0
        )
        try:
            connection.request("DELETE", "/v1/jobs")
            assert connection.getresponse().status == 405
        finally:
            connection.close()

    def test_bad_json_body_is_400(self, harness):
        import http.client

        connection = http.client.HTTPConnection(
            harness.client.host, harness.client.port, timeout=10.0
        )
        try:
            connection.request(
                "POST", "/v1/jobs", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().status == 400
        finally:
            connection.close()
