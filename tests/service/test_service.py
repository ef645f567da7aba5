"""Service core tests: dedup, byte-identity, quotas, restart resume.

These drive :class:`SimService` directly (no HTTP) -- the concurrency
contracts live here, the wire contracts in ``test_http.py``.
"""

import json
from pathlib import Path

import pytest

from repro.service.core import ServiceConfig, SimService, ValidationError
from repro.service.queue import QuotaExceeded, TenantQuota
from repro.service.store import RETAINED_FINISHED_JOBS
from repro.sim.batch import run_batch
from repro.sim.config import ExperimentConfig

SMALL = {"regions": 64, "lines_per_region": 2}
SPECS = [
    {"label": "a", "attack": "uaa", "sparing": "max-we"},
    {"label": "b", "attack": "uaa", "sparing": "none"},
]
PAYLOAD = {"specs": SPECS, "config": SMALL}


@pytest.fixture
def service(tmp_path):
    instance = SimService(ServiceConfig(state_dir=tmp_path / "state", dispatchers=2))
    instance.start()
    yield instance
    instance.stop()


def direct_body() -> str:
    return run_batch(SPECS, ExperimentConfig(**SMALL)).to_json()


def distinct_payload(index: int) -> dict:
    """A one-spec batch with a key of its own."""
    spec = {"label": f"w{index}", "attack": "uaa", "p": 0.01 + index * 1e-4}
    return {"specs": [spec], "config": SMALL}


def run_distinct(service, count: int, start: int = 0) -> list:
    jobs = [service.submit("alice", distinct_payload(start + i)) for i in range(count)]
    assert all(job.wait(120.0) and job.status == "done" for job in jobs)
    return jobs


class TestConcurrentSubmission:
    def test_identical_specs_run_once_and_serve_twice(self, service):
        """Two tenants, one batch: ONE runner execution, TWO completed
        jobs, byte-identical bodies (the acceptance criterion)."""
        first = service.submit("alice", PAYLOAD)
        second = service.submit("bob", PAYLOAD)
        assert first.wait(120.0) and second.wait(120.0)
        assert first.status == "done" and second.status == "done"
        assert first.result_text == second.result_text == direct_body()
        counters = service.manifest()["counters"]
        # Each spec simulated exactly once, despite two submissions.
        assert counters["runner.simulated"] == len(SPECS)
        assert counters["service.dedup_hits"] == 1
        assert counters["service.completed"] == 2

    def test_warm_resubmission_is_o1_and_counted(self, service):
        original = service.submit("alice", PAYLOAD)
        assert original.wait(120.0)
        simulated = service.manifest()["counters"]["runner.simulated"]
        warm = service.submit("carol", PAYLOAD)
        # Completed synchronously at submit: no queue, no dispatch.
        assert warm.status == "done"
        assert warm.dedup_hit
        assert warm.result_text == original.result_text
        counters = service.manifest()["counters"]
        assert counters["runner.simulated"] == simulated
        assert counters["service.dedup_hits"] >= 1

    def test_quota_exceeded_is_clean_not_a_hang(self, tmp_path):
        service = SimService(
            ServiceConfig(
                state_dir=tmp_path / "state",
                dispatchers=1,
                default_quota=TenantQuota(max_queued=1),
            )
        )
        # Not started: nothing drains the queue, so the second distinct
        # submission must be rejected immediately.
        first = {"specs": [{"label": "one", "p": 0.05}], "config": SMALL}
        second = {"specs": [{"label": "two", "p": 0.06}], "config": SMALL}
        service.submit("alice", first)
        with pytest.raises(QuotaExceeded):
            service.submit("alice", second)
        counters = service.manifest()["counters"]
        assert counters["service.quota_rejections"] == 1
        # The rejected job left no residue.
        assert len(service.list_jobs()) == 1


class TestValidation:
    def test_bad_specs_rejected(self, service):
        with pytest.raises(ValidationError):
            service.submit("a", {"specs": []})
        with pytest.raises(ValidationError):
            service.submit("a", {"specs": [{"label": "x", "attack": "nope"}]})
        with pytest.raises(ValidationError):
            service.submit("a", {"specs": [{"label": "x", "bogus": 1}]})

    def test_bad_config_and_unknown_fields_rejected(self, service):
        with pytest.raises(ValidationError):
            service.submit("a", {"specs": SPECS, "config": {"regions": -1}})
        with pytest.raises(ValidationError):
            service.submit("a", {"specs": SPECS, "config": {"bogus": 1}})
        with pytest.raises(ValidationError):
            service.submit("a", {"specs": SPECS, "surprise": True})

    @pytest.mark.parametrize("engine", ["bogus", "fluid-exact", "fluid"])
    def test_bad_default_engine_fails_at_startup(self, tmp_path, engine):
        # Checked when the service is configured, not in every job that
        # falls back to the default.
        with pytest.raises(ValueError, match="engine must be one of"):
            ServiceConfig(state_dir=tmp_path / "state", engine=engine)

    @pytest.mark.parametrize("engine", ["fluid-exact", "bogus"])
    def test_service_engine_flag_takes_only_engines(self, engine, capsys):
        from repro.service.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--engine", engine])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_nothing_persisted_for_rejected_submissions(self, service):
        with pytest.raises(ValidationError):
            service.submit("a", {"specs": []})
        assert list(service.records_dir.glob("*.json")) == []


class TestEvents:
    def test_event_stream_has_per_spec_results(self, service):
        job = service.submit("alice", PAYLOAD)
        assert job.wait(120.0)
        kinds = [event["event"] for event in job.events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        results = [event for event in job.events if event["event"] == "result"]
        assert {event["label"] for event in results} == {"a", "b"}
        assert all("normalized_lifetime" in event for event in results)

    def test_wait_events_pages_by_cursor(self, service):
        job = service.submit("alice", PAYLOAD)
        assert job.wait(120.0)
        head, done_head = job.wait_events(0, timeout=0.1)
        tail, done_tail = job.wait_events(len(head) - 1, timeout=0.1)
        assert done_head and done_tail
        assert tail == head[-1:]


class TestDurability:
    def test_restart_resumes_interrupted_jobs(self, tmp_path):
        state = tmp_path / "state"
        # First incarnation: accept a job but never dispatch it (the
        # service is not started), then "crash".
        before = SimService(ServiceConfig(state_dir=state, dispatchers=1))
        before.records_dir.mkdir(parents=True, exist_ok=True)
        before.ledgers_dir.mkdir(parents=True, exist_ok=True)
        job = before.submit("alice", PAYLOAD)
        assert job.status == "queued"

        after = SimService(ServiceConfig(state_dir=state, dispatchers=1))
        after.start()
        try:
            resumed = after.get_job(job.job_id)
            assert resumed is not None
            assert resumed.wait(120.0)
            assert resumed.status == "done"
            assert resumed.result_text == direct_body()
            assert after.manifest()["counters"]["service.resumed"] == 1
        finally:
            after.stop()

    def test_restart_republishes_done_jobs_for_dedup(self, tmp_path):
        state = tmp_path / "state"
        with SimService(ServiceConfig(state_dir=state, dispatchers=1)) as before:
            job = before.submit("alice", PAYLOAD)
            assert job.wait(120.0)
            body = job.result_text

        with SimService(ServiceConfig(state_dir=state, dispatchers=1)) as after:
            # The reloaded record serves status and results...
            reloaded = after.get_job(job.job_id)
            assert reloaded.status == "done"
            assert reloaded.result_text == body
            # ...and re-primes the dedup store: same batch is O(1).
            warm = after.submit("bob", PAYLOAD)
            assert warm.status == "done" and warm.dedup_hit

    def test_torn_record_is_skipped_not_fatal(self, tmp_path):
        state = tmp_path / "state"
        records = state / "jobs"
        records.mkdir(parents=True)
        (records / "j-torn.json").write_text('{"job_id": "j-torn", "ten')
        (records / "j-0123456789ab.json").write_text('{"job_id": "j-01')
        with SimService(ServiceConfig(state_dir=state, dispatchers=1)) as service:
            assert service.get_job("j-torn") is None
            # Not loaded at restart, and not served from disk either.
            assert service.get_job("j-0123456789ab") is None

    def test_concurrent_record_writers_do_not_collide(self, tmp_path):
        """The submitting thread and a dispatcher can persist the same
        job concurrently; the writers must serialize (same-pid temp
        names would otherwise collide and kill the dispatcher)."""
        import threading

        service = SimService(ServiceConfig(state_dir=tmp_path / "state"))
        job = service.submit("alice", PAYLOAD)
        errors = []

        def writer():
            try:
                for _ in range(50):
                    service._persist(job)
            except Exception as error:  # noqa: BLE001 - the assertion
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        record = json.loads(
            (service.records_dir / f"{job.job_id}.json").read_text()
        )
        assert record["job_id"] == job.job_id

    def test_records_round_trip(self, service):
        job = service.submit("alice", PAYLOAD)
        assert job.wait(120.0)
        record = json.loads(
            (service.records_dir / f"{job.job_id}.json").read_text()
        )
        assert record["status"] == "done"
        assert record["result"] == job.result_text
        assert record["batch_key"] == job.batch_key


class TestDrainAndShedding:
    """Tentpole: graceful drain (503 + Retry-After) and deadline-based
    load shedding of jobs nobody can still use."""

    def test_drain_rejects_new_work_and_persists_records(self, tmp_path):
        from repro.service.core import ServiceUnavailable

        service = SimService(
            ServiceConfig(state_dir=tmp_path / "state", dispatchers=2)
        )
        service.start()
        job = service.submit("alice", PAYLOAD)
        assert job.wait(120.0)

        assert service.drain(timeout=30.0) is True
        assert service.draining
        with pytest.raises(ServiceUnavailable) as excinfo:
            service.submit("bob", PAYLOAD)
        # The Retry-After hint the HTTP layer forwards verbatim.
        assert excinfo.value.retry_after > 0
        counters = service.manifest()["counters"]
        assert counters["service.drain_rejections"] == 1
        # Every record persisted for the next incarnation.
        assert (service.records_dir / f"{job.job_id}.json").exists()
        service.stop()

    def test_drained_state_resumes_in_next_incarnation(self, tmp_path):
        state = tmp_path / "state"
        with SimService(ServiceConfig(state_dir=state, dispatchers=1)) as before:
            job = before.submit("alice", PAYLOAD)
            assert job.wait(120.0)
            before.drain(timeout=30.0)
            body = job.result_text

        with SimService(ServiceConfig(state_dir=state, dispatchers=1)) as after:
            resumed = after.get_job(job.job_id)
            assert resumed is not None
            assert resumed.status == "done"
            assert resumed.result_text == body

    def test_queued_job_past_deadline_is_shed_not_executed(self, tmp_path):
        import time

        service = SimService(
            ServiceConfig(state_dir=tmp_path / "state", dispatchers=1)
        )
        # Submit while no dispatcher runs, so the deadline burns in queue.
        stale = service.submit(
            "alice", dict(PAYLOAD, deadline_seconds=0.05)
        )
        fresh = service.submit(
            "alice",
            {
                "specs": [{"label": "fresh", "attack": "uaa", "p": 0.07}],
                "config": SMALL,
            },
        )
        time.sleep(0.1)
        service.start()
        try:
            assert stale.wait(30.0) and fresh.wait(120.0)
            assert stale.status == "failed" and stale.shed
            assert "shed" in stale.error
            assert [e for e in stale.events if e["event"] == "shed"]
            # The spec behind it was NOT starved by the dead job...
            assert fresh.status == "done"
            counters = service.manifest()["counters"]
            assert counters["service.shed_jobs"] == 1
            # ...and the shed batch was never simulated.
            assert counters["runner.simulated"] == 1
        finally:
            service.stop()

    def test_deadline_validation(self, service):
        with pytest.raises(ValidationError):
            service.submit("a", dict(PAYLOAD, deadline_seconds=0))
        with pytest.raises(ValidationError):
            service.submit("a", dict(PAYLOAD, deadline_seconds="soon"))

    def test_jobs_without_deadline_never_shed(self, tmp_path):
        import time

        service = SimService(
            ServiceConfig(state_dir=tmp_path / "state", dispatchers=1)
        )
        job = service.submit("alice", PAYLOAD)
        time.sleep(0.05)
        service.start()
        try:
            assert job.wait(120.0)
            assert job.status == "done" and not job.shed
        finally:
            service.stop()


class TestRetentionWindow:
    """Finished jobs and published bodies leave memory once their record
    is durable; only the newest RETAINED_FINISHED_JOBS stay."""

    def test_window_bounds_jobs_and_bodies_with_exact_counts(self, service):
        extra = 5
        jobs = run_distinct(service, RETAINED_FINISHED_JOBS + extra)
        manifest = service.manifest()
        counters = manifest["counters"]
        assert counters["service.jobs_evicted"] == extra
        assert counters["service.bodies_evicted"] == extra
        assert manifest["gauges"]["service.jobs_known"] == RETAINED_FINISHED_JOBS
        assert len(service.store) == RETAINED_FINISHED_JOBS
        retained = {job.job_id for job in service.list_jobs()}
        assert len(retained) == RETAINED_FINISHED_JOBS
        # Every job finished; the window is not the finish order of two
        # dispatchers, so check membership, not which five left.
        assert retained <= {job.job_id for job in jobs}

    def test_evicted_job_is_served_from_its_record(self, service):
        first = service.submit("alice", PAYLOAD)
        assert first.wait(120.0)
        run_distinct(service, RETAINED_FINISHED_JOBS)
        assert first.job_id not in {job.job_id for job in service.list_jobs()}
        reloaded = service.get_job(first.job_id)
        assert reloaded is not None and reloaded is not first
        assert reloaded.status == "done"
        assert reloaded.result_text == direct_body()
        assert reloaded.describe()["tenant"] == "alice"
        # As after a restart: the queued event plus the terminal one.
        assert [event["event"] for event in reloaded.events] == ["queued", "done"]

    def test_dedup_inside_the_window_is_a_hit(self, service):
        original = service.submit("alice", PAYLOAD)
        assert original.wait(120.0)
        run_distinct(service, RETAINED_FINISHED_JOBS - 1)
        warm = service.submit("bob", PAYLOAD)
        assert warm.status == "done" and warm.dedup_hit
        assert warm.result_text == original.result_text

    def test_resubmission_outside_the_window_reruns_from_the_cache(self, service):
        original = service.submit("alice", PAYLOAD)
        assert original.wait(120.0)
        run_distinct(service, RETAINED_FINISHED_JOBS)
        counters = service.manifest()["counters"]
        hits, simulated = counters.get("runner.cache_hits", 0), counters["runner.simulated"]
        again = service.submit("bob", PAYLOAD)
        assert again.wait(120.0)
        assert again.status == "done" and not again.dedup_hit
        assert again.result_text == direct_body()
        counters = service.manifest()["counters"]
        assert counters["runner.cache_hits"] - hits == len(SPECS)
        assert counters["runner.simulated"] == simulated

    def test_restart_loads_the_newest_window_and_requeues_every_unfinished(self, tmp_path):
        state = tmp_path / "state"
        with SimService(ServiceConfig(state_dir=state, dispatchers=2)) as before:
            run_distinct(before, RETAINED_FINISHED_JOBS + 6)
        # Accepted but never dispatched (not started), then "crashed".
        crashed = SimService(ServiceConfig(state_dir=state, dispatchers=1))
        queued = [crashed.submit("bob", distinct_payload(1000 + i)) for i in range(3)]
        records = [
            json.loads(path.read_text()) for path in (state / "jobs").glob("j-*.json")
        ]
        finished = sorted(
            (r for r in records if r["status"] == "done"),
            key=lambda r: (r["submitted_at"], r["job_id"]),
        )
        assert len(finished) == RETAINED_FINISHED_JOBS + 6

        with SimService(ServiceConfig(state_dir=state, dispatchers=1)) as after:
            resumed = [after.get_job(job.job_id) for job in queued]
            assert all(job.wait(120.0) and job.status == "done" for job in resumed)
            counters = after.manifest()["counters"]
            assert counters["service.resumed"] == len(queued)
            # The window held exactly RETAINED_FINISHED_JOBS finished jobs
            # at load: the three resumed ones are the only evictions.
            assert counters["service.jobs_evicted"] == len(queued)
            newest = {r["job_id"] for r in finished[-(RETAINED_FINISHED_JOBS - 3):]}
            assert {job.job_id for job in after.list_jobs()} == newest | {
                job.job_id for job in queued
            }
            # An old record not loaded is still served from disk.
            oldest = after.get_job(finished[0]["job_id"])
            assert oldest is not None and oldest.result_text == finished[0]["result"]

    @pytest.mark.parametrize(
        "job_id",
        ["..", "j-..", "j-../x", "j-../../jobs/j-0123456789ab", "j-0123456789AB",
         "J-0123456789ab", "j-0123456789a", "j-0123456789abc", "j-0123456789ab\n",
         "j-" + "a" * 10_000],
    )
    def test_malformed_ids_are_unknown_without_touching_a_file(
        self, service, monkeypatch, job_id
    ):
        read = []
        real_read_text = Path.read_text
        monkeypatch.setattr(
            Path, "read_text",
            lambda path, *a, **k: read.append(path) or real_read_text(path, *a, **k),
        )
        before = sorted(service.state_dir.rglob("*"))
        assert service.get_job(job_id) is None
        assert read == []
        assert sorted(service.state_dir.rglob("*")) == before

    def test_a_cold_job_writes_three_records(self, service, monkeypatch):
        writes = []
        persist = service._persist
        monkeypatch.setattr(
            service, "_persist", lambda job: writes.append(job.status) or persist(job)
        )
        job = service.submit("alice", PAYLOAD)
        assert job.wait(120.0)
        service.stop()  # the dispatcher's finally has run
        assert writes == ["queued", "running", "done"]

    def test_a_job_whose_terminal_write_fails_stays_in_memory(self, service, monkeypatch):
        persist = service._persist

        def failing(job):
            if job.finished and job.specs[0]["label"] == "a":
                raise OSError("disk full")
            persist(job)

        monkeypatch.setattr(service, "_persist", failing)
        stuck = service.submit("alice", PAYLOAD)
        assert stuck.wait(120.0) and stuck.status == "done"
        run_distinct(service, RETAINED_FINISHED_JOBS + 2)
        retained = {job.job_id for job in service.list_jobs()}
        assert stuck.job_id in retained
        assert len(retained) == RETAINED_FINISHED_JOBS + 1
        assert service.manifest()["counters"]["service.jobs_evicted"] == 2

        # Once a write lands (here: the drain's), the job is retired.
        monkeypatch.setattr(service, "_persist", persist)
        service.drain(timeout=30.0)
        record = json.loads((service.records_dir / f"{stuck.job_id}.json").read_text())
        assert record["status"] == "done"
        assert service.manifest()["counters"]["service.jobs_evicted"] == 3
