"""End-to-end tests for the multi-host sweep fabric.

The backbone assertion, inherited from the process pool and restated
here for the fabric: any sweep -- clean or under heavy injected chaos
(crashes, hangs, dropped / duplicated / delayed messages, partitions,
slow workers, expired leases) -- converges bit-identical to a
fault-free serial run of the same tasks.
"""

import time

import numpy as np
import pytest

from repro.fabric.backend import DEFAULT_LEASE_TTL, FabricBackend
from repro.fabric.coordinator import (
    Coordinator,
    CoordinatorLedger,
    RemoteTaskError,
)
from repro.fabric.wire import Channel
from repro.obs.metrics import MetricsRegistry
from repro.sim.cache import ResultCache
from repro.sim.config import ExperimentConfig
from repro.sim.executor import ExecutorBackend, SupervisedTask
from repro.sim.faults import FAULT_SPEC_ENV, install
from repro.sim.resilience import Checkpoint, ResiliencePolicy, is_retryable
from repro.sim.runner import (
    ProcessPoolBackend,
    SimRunner,
    SimTask,
    resolve_backend,
    task_identity,
)
from repro.util.events import EventLog

TINY = ExperimentConfig(regions=32, lines_per_region=2, seed=7)


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
    install(None)
    yield
    install(None)


def make_tasks(count, config=TINY):
    fractions = np.linspace(0.01, 0.5, count)
    return [
        SimTask(
            attack="uaa",
            sparing="max-we",
            p=float(fraction),
            swr=0.9,
            config=config,
            label=f"task-{index}",
        )
        for index, fraction in enumerate(fractions)
    ]


def lifetimes(results):
    return [result.normalized_lifetime for result in results]


class TestBackendResolution:
    def test_default_and_pool_names(self):
        assert resolve_backend(None).name == "pool"
        assert resolve_backend("pool").name == "pool"

    def test_fabric_by_name_with_overrides(self):
        backend = resolve_backend("fabric", workers=3, lease_ttl=2.5)
        assert isinstance(backend, FabricBackend)
        assert backend.name == "fabric"
        assert backend.lease_ttl == 2.5

    def test_instance_passthrough(self):
        backend = FabricBackend(workers=2)
        assert resolve_backend(backend) is backend

    def test_instance_rejects_overrides(self):
        with pytest.raises(ValueError, match="workers/lease_ttl"):
            resolve_backend(FabricBackend(), workers=2)

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("carrier-pigeon")

    def test_fabric_validates_parameters(self):
        with pytest.raises(ValueError, match="workers"):
            FabricBackend(workers=0)
        with pytest.raises(ValueError, match="lease_ttl"):
            FabricBackend(lease_ttl=0.0)
        assert FabricBackend().lease_ttl == DEFAULT_LEASE_TTL

    def test_backends_implement_the_executor_protocol(self):
        assert isinstance(ProcessPoolBackend(), ExecutorBackend)
        assert isinstance(FabricBackend(), ExecutorBackend)


class TestCleanFabricRun:
    def test_matches_serial_bit_identically(self):
        tasks = make_tasks(8)
        serial = SimRunner().run(tasks)

        metrics = MetricsRegistry()
        results, stats = SimRunner(
            backend=FabricBackend(workers=2, lease_ttl=5.0), metrics=metrics
        ).run_detailed(tasks)
        assert lifetimes(results) == lifetimes(serial)
        assert not stats.failures
        assert stats.backend == "fabric"
        assert not stats.degraded
        assert metrics.counter("fabric.leases_granted") >= len(tasks)
        assert metrics.gauge_value("fabric.workers") == 2

    def test_pool_stats_name_unchanged(self):
        _, stats = SimRunner().run_detailed(make_tasks(2))
        assert stats.backend == "pool"
        assert not stats.degraded


class TestIdempotentCommits:
    """Satellite: duplicated result commits must land exactly once."""

    def _coordinator(self, tasks):
        pending = []
        for index, task in enumerate(tasks):
            key, label = task_identity(task)
            pending.append(
                SupervisedTask(index=index, task=task, key=key, label=label)
            )
        metrics = MetricsRegistry()
        coordinator = Coordinator(
            pending,
            lease_ttl=30.0,
            metrics=metrics,
            events=EventLog(),
        )
        return coordinator, metrics

    def test_second_commit_for_a_key_is_rejected_and_counted(self):
        from repro.sim.runner import _execute_supervised

        tasks = make_tasks(1)
        coordinator, metrics = self._coordinator(tasks)
        try:
            a = Channel(coordinator.address, name="worker-a")
            b = Channel(coordinator.address, name="worker-b")
            grant = a.request({"type": "fetch", "worker": "a"})
            assert grant["type"] == "task"
            report = _execute_supervised(
                grant["task"], grant["key"], grant["attempt"]
            )
            commit = {
                "type": "commit",
                "lease": grant["lease"],
                "key": grant["key"],
                "report": report,
            }
            first = a.request(dict(commit, worker="a"))
            second = b.request(dict(commit, worker="b"))
            assert first["accepted"] is True
            assert second["accepted"] is False
            assert metrics.counter("fabric.duplicate_commits") == 1
            # Exactly one completion reaches the supervisor.
            assert coordinator.outbox.get(timeout=1.0)[0] == "complete"
            assert coordinator.outbox.empty()
            a.close()
            b.close()
        finally:
            coordinator.request_shutdown()
            coordinator.close()

    def test_duplicated_commits_yield_one_cache_entry_and_one_ledger_row(
        self, tmp_path, monkeypatch
    ):
        """duplicate=1.0: every wire frame -- commits included -- is sent
        twice, and every worker journals to its own shard.  After the
        merge the primary ledger holds exactly one row per task, the
        cache exactly one entry, and the results are bit-identical to a
        clean serial run."""
        tasks = make_tasks(6)
        serial = SimRunner().run(tasks)

        monkeypatch.setenv(FAULT_SPEC_ENV, "duplicate=1.0,seed=5")
        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "run.jsonl"
        results, stats = SimRunner(
            backend=FabricBackend(workers=2, lease_ttl=5.0),
            cache=cache,
            checkpoint=Checkpoint(journal_path),
            metrics=metrics,
        ).run_detailed(tasks)

        assert lifetimes(results) == lifetimes(serial)
        assert not stats.failures
        assert metrics.counter("fabric.duplicate_commits") >= 1
        # header + exactly one record per task, despite every commit
        # arriving (at least) twice and shard ledgers merging on top.
        assert len(journal_path.read_text().splitlines()) == len(tasks) + 1
        assert not list(tmp_path.glob("run.jsonl.shard-*"))  # absorbed
        # Exactly one cache entry per task: warm rerun is all hits.
        warm_cache = ResultCache(tmp_path / "cache")
        warm = SimRunner(cache=warm_cache).run(tasks)
        assert lifetimes(warm) == lifetimes(serial)
        assert warm_cache.stats.hits == len(tasks)
        assert warm_cache.stats.misses == 0


class TestCoordinatorClose:
    def test_close_wakes_a_blocked_accept(self):
        """Every execute ends in close(); it must not wait out the accept
        thread's poll, or each execute rounds up to the next poll tick."""
        coordinator = Coordinator(
            [], lease_ttl=30.0, metrics=MetricsRegistry(), events=EventLog()
        )
        # From its next call on, the accept thread blocks with no timeout.
        coordinator._listener.settimeout(None)
        time.sleep(0.5)
        coordinator.close()
        assert not coordinator._accept_thread.is_alive()


class TestLeaseExpiry:
    def test_partitioned_workers_expire_leases_and_still_converge(
        self, monkeypatch
    ):
        """partition=1.0: every lease goes silent, expires, and requeues;
        the deferred commits arrive late and are either absorbed
        (duplicate) or binding (heal).  The sweep still converges
        bit-identical with zero failures."""
        tasks = make_tasks(4)
        serial = SimRunner().run(tasks)

        monkeypatch.setenv(
            FAULT_SPEC_ENV, "partition=1.0,partition-seconds=0.6,seed=3"
        )
        metrics = MetricsRegistry()
        results, stats = SimRunner(
            backend=FabricBackend(workers=2, lease_ttl=0.2),
            policy=ResiliencePolicy(
                timeout=30.0, retries=6, backoff=0.01, backoff_cap=0.05
            ),
            metrics=metrics,
        ).run_detailed(tasks)
        assert lifetimes(results) == lifetimes(serial)
        assert not stats.failures
        assert metrics.counter("fabric.leases_expired") >= 1
        assert metrics.counter("fabric.requeues") >= 1
        assert metrics.counter("fabric.late_commits") >= 1


class TestGracefulDegradation:
    def test_run_completes_on_survivors_without_respawn(self, monkeypatch):
        """respawn=False models remote hosts the coordinator cannot
        resurrect: crash faults permanently shrink the fleet, yet the
        sweep completes (down to the in-process serial fallback if every
        worker dies) and reports itself degraded, not failed."""
        tasks = make_tasks(10)
        serial = SimRunner().run(tasks)

        monkeypatch.setenv(FAULT_SPEC_ENV, "crash=0.4,seed=13")
        metrics = MetricsRegistry()
        results, stats = SimRunner(
            backend=FabricBackend(workers=2, lease_ttl=1.0, respawn=False),
            policy=ResiliencePolicy(
                timeout=30.0, retries=8, backoff=0.01, backoff_cap=0.05
            ),
            metrics=metrics,
        ).run_detailed(tasks)
        assert lifetimes(results) == lifetimes(serial)
        assert not stats.failures
        assert metrics.counter("fabric.workers_lost") >= 1
        assert metrics.counter("fabric.workers_respawned") == 0
        assert stats.degraded
        assert metrics.gauge_value("runner.degraded") == 1.0

    def test_respawned_workers_keep_the_run_undegraded(self, monkeypatch):
        tasks = make_tasks(10)
        serial = SimRunner().run(tasks)

        monkeypatch.setenv(FAULT_SPEC_ENV, "crash=0.3,seed=13")
        metrics = MetricsRegistry()
        results, stats = SimRunner(
            backend=FabricBackend(workers=2, lease_ttl=1.0),
            policy=ResiliencePolicy(
                timeout=30.0, retries=8, backoff=0.01, backoff_cap=0.05
            ),
            metrics=metrics,
        ).run_detailed(tasks)
        assert lifetimes(results) == lifetimes(serial)
        assert not stats.failures
        assert metrics.counter("fabric.workers_lost") >= 1
        assert metrics.counter("fabric.workers_respawned") >= 1
        assert not stats.degraded

    def test_unpicklable_tasks_fall_back_to_serial(self):
        from repro.attacks.uaa import UniformAddressAttack
        from repro.core.maxwe import MaxWE
        from repro.endurance.emap import EnduranceMap
        from repro.sim.runner import CallableTask

        # Lambdas cannot be pickled, so these tasks cannot cross the wire.
        tasks = [
            CallableTask(
                attack_factory=lambda: UniformAddressAttack(),
                sparing_factory=lambda: MaxWE(0.1, 0.9),
                emap_factory=lambda seed: EnduranceMap(
                    np.random.default_rng(seed).uniform(100.0, 500.0, 64),
                    regions=32,
                ),
                seed=7,
                label="local-only",
            )
        ]
        results, stats = SimRunner(
            backend=FabricBackend(workers=2)
        ).run_detailed(tasks)
        assert len(results) == 1
        assert not stats.failures
        assert stats.backend == "fabric"


class TestRemoteErrors:
    def test_remote_task_error_carries_retryability(self):
        retryable = RemoteTaskError("RuntimeError", "transient blip", True)
        terminal = RemoteTaskError("ValueError", "bad spec", False)
        assert is_retryable(retryable)
        assert not is_retryable(terminal)
        assert "RuntimeError" in str(retryable)


class TestChaosAcceptance:
    def test_sweep_under_full_chaos_matches_fault_free_serial(
        self, monkeypatch
    ):
        """The issue's acceptance bar: a 100-task distributed sweep under
        injected crashes, hangs, drops, duplicates, delays, partitions,
        and slow workers -- with at least one expired lease -- completes
        with zero lost tasks, bit-identical to the fault-free serial
        run, and the chaos is visible in the fabric counters."""
        tasks = make_tasks(100)
        serial = SimRunner().run(tasks)

        monkeypatch.setenv(
            FAULT_SPEC_ENV,
            "crash=0.08,hang=0.05,transient=0.05,drop=0.08,duplicate=0.1,"
            "delay=0.05,partition=0.06,slow-worker=0.08,seed=42,"
            "hang-seconds=5,partition-seconds=1.2,slow-seconds=0.2,"
            "delay-seconds=0.02",
        )
        metrics = MetricsRegistry()
        results, stats = SimRunner(
            backend=FabricBackend(workers=4, lease_ttl=0.5),
            policy=ResiliencePolicy(
                timeout=8.0, retries=6, backoff=0.01, backoff_cap=0.1
            ),
            metrics=metrics,
        ).run_detailed(tasks)

        assert lifetimes(results) == lifetimes(serial)  # bit-identical
        assert not stats.failures  # zero lost tasks
        assert stats.backend == "fabric"
        assert metrics.counter("fabric.leases_expired") >= 1
        assert metrics.counter("fabric.leases_granted") > len(tasks)
        assert metrics.counter("fabric.requeues") >= 1


class TestCoordinatorLedger:
    """Tentpole: the coordinator journals its control plane durably."""

    def test_replay_round_trips_grants_commits_releases(self, tmp_path):
        path = tmp_path / "coord.jsonl"
        ledger = CoordinatorLedger(path)
        ledger.append(
            {"event": "grant", "lease": 0, "key": "k-a", "worker": "w0",
             "attempt": 1, "stolen": False}
        )
        ledger.append(
            {"event": "grant", "lease": 1, "key": "k-b", "worker": "w1",
             "attempt": 2, "stolen": True}
        )
        ledger.append({"event": "commit", "key": "k-a"})
        ledger.append({"event": "release", "lease": 0})

        snapshot = CoordinatorLedger(path).replay()
        assert snapshot.done_keys == {"k-a"}
        assert set(snapshot.leases) == {1}
        assert snapshot.leases[1] == {
            "key": "k-b", "worker": "w1", "attempt": 2, "stolen": True
        }
        # Lease ids must never be reused across incarnations.
        assert snapshot.next_lease == 2

    def test_torn_tail_and_junk_lines_are_skipped(self, tmp_path):
        path = tmp_path / "coord.jsonl"
        ledger = CoordinatorLedger(path)
        ledger.append(
            {"event": "grant", "lease": 3, "key": "k", "worker": "w",
             "attempt": 1}
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"event": "commit", "key": "k')  # kill -9 mid-append

        snapshot = CoordinatorLedger(path).replay()
        assert snapshot.leases[3]["key"] == "k"
        assert snapshot.done_keys == set()  # the torn commit never binds

    def test_foreign_header_degrades_to_empty(self, tmp_path):
        path = tmp_path / "coord.jsonl"
        path.write_text(
            '{"coordinator_schema": 999}\n{"event": "commit", "key": "k"}\n'
        )
        assert CoordinatorLedger(path).replay().done_keys == set()

    def test_resume_false_truncates(self, tmp_path):
        path = tmp_path / "coord.jsonl"
        CoordinatorLedger(path).append({"event": "commit", "key": "old"})
        fresh = CoordinatorLedger(path, resume=False)
        assert fresh.replay().done_keys == set()

    def test_write_error_disables_instead_of_failing(self, tmp_path):
        ledger = CoordinatorLedger(tmp_path)  # a directory: appends fail
        ledger.append({"event": "commit", "key": "k"})
        assert ledger.disabled
        ledger.append({"event": "commit", "key": "k2"})  # silently absorbed


class TestCoordinatorRestart:
    """Tentpole: a rebuilt coordinator honors ledgered leases and done
    keys, so workers that rode out the crash commit under their original
    lease ids and no task runs twice."""

    def _pending(self, tasks):
        pending = []
        for index, task in enumerate(tasks):
            key, label = task_identity(task)
            pending.append(
                SupervisedTask(index=index, task=task, key=key, label=label)
            )
        return pending

    def test_rebuild_restores_leases_and_accepts_the_old_commit(self, tmp_path):
        from repro.sim.runner import _execute_supervised

        tasks = make_tasks(2)
        ledger_path = tmp_path / "coord.jsonl"
        coordinator = Coordinator(
            self._pending(tasks),
            lease_ttl=30.0,
            metrics=MetricsRegistry(),
            events=EventLog(),
            ledger=CoordinatorLedger(ledger_path),
        )
        worker = Channel(coordinator.address, name="worker-a")
        grant = worker.request({"type": "fetch", "worker": "a"})
        assert grant["type"] == "task"
        coordinator.crash()
        worker.close()

        metrics = MetricsRegistry()
        rebuilt = Coordinator(
            self._pending(tasks),
            lease_ttl=30.0,
            metrics=metrics,
            events=EventLog(),
            ledger=CoordinatorLedger(ledger_path),
        )
        try:
            assert metrics.counter("fabric.leases_restored") == 1
            assert rebuilt.active_leases() == 1
            # The leased task is not handed out a second time...
            sibling = Channel(rebuilt.address, name="worker-b")
            other = sibling.request({"type": "fetch", "worker": "b"})
            assert other["type"] == "task"
            assert other["key"] != grant["key"]
            # ...and the pre-crash worker's commit, under the lease id it
            # was granted by the DEAD incarnation, is binding.
            report = _execute_supervised(
                grant["task"], grant["key"], grant["attempt"]
            )
            reply = sibling.request({
                "type": "commit", "worker": "a", "lease": grant["lease"],
                "key": grant["key"], "report": report,
            })
            assert reply["accepted"] is True
            assert rebuilt.outbox.get(timeout=1.0)[0] == "complete"
            # The commit is durable: a third incarnation would see it.
            replay = CoordinatorLedger(ledger_path).replay()
            assert grant["key"] in replay.done_keys
            sibling.close()
        finally:
            rebuilt.request_shutdown()
            rebuilt.close()

    def test_restored_lease_of_a_dead_worker_expires_and_requeues(
        self, tmp_path
    ):
        """A restored lease whose worker actually died must not wedge the
        task: it expires one TTL after the rebuild and requeues."""
        tasks = make_tasks(1)
        ledger_path = tmp_path / "coord.jsonl"
        coordinator = Coordinator(
            self._pending(tasks),
            lease_ttl=0.2,
            metrics=MetricsRegistry(),
            events=EventLog(),
            ledger=CoordinatorLedger(ledger_path),
        )
        worker = Channel(coordinator.address, name="worker-a")
        grant = worker.request({"type": "fetch", "worker": "a"})
        assert grant["type"] == "task"
        coordinator.crash()
        worker.close()  # the worker dies with the coordinator

        metrics = MetricsRegistry()
        rebuilt = Coordinator(
            self._pending(tasks),
            lease_ttl=0.2,
            metrics=metrics,
            events=EventLog(),
            ledger=CoordinatorLedger(ledger_path),
        )
        try:
            assert rebuilt.active_leases() == 1
            import time as _time

            _time.sleep(0.3)
            assert rebuilt.expire_leases() == 1
            assert rebuilt.active_leases() == 0
            # Innocently requeued: a fresh fetch gets the task again.
            sibling = Channel(rebuilt.address, name="worker-b")
            again = sibling.request({"type": "fetch", "worker": "b"})
            assert again["type"] == "task"
            assert again["key"] == grant["key"]
            sibling.close()
        finally:
            rebuilt.request_shutdown()
            rebuilt.close()

    def test_crash_mid_sweep_converges_bit_identically(self, monkeypatch):
        """The issue's acceptance bar for the durable coordinator: kill
        the coordinator mid-sweep (seeded), let workers ride it out via
        reconnect backoff, and the run converges bit-identical with at
        least one restart and zero orphaned leases."""
        tasks = make_tasks(8)
        serial = SimRunner().run(tasks)

        monkeypatch.setenv(FAULT_SPEC_ENV, "coordinator-crash=0.35,seed=101")
        metrics = MetricsRegistry()
        results, stats = SimRunner(
            backend=FabricBackend(workers=2, lease_ttl=5.0),
            policy=ResiliencePolicy(
                timeout=30.0, retries=6, backoff=0.01, backoff_cap=0.05
            ),
            metrics=metrics,
        ).run_detailed(tasks)
        assert lifetimes(results) == lifetimes(serial)
        assert not stats.failures
        assert not stats.degraded
        assert metrics.counter("fabric.coordinator_restarts") >= 1
        assert metrics.gauge_value("fabric.active_leases") == 0.0
