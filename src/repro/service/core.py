"""Service core: validation, dispatch, durable records, restart resume.

:class:`SimService` is the synchronous heart of the job API -- the HTTP
layer is a thin asyncio adapter over it, and tests drive it directly.
It owns:

* a :class:`~repro.service.queue.JobQueue` (weighted round-robin
  fairness, quotas) fed by :meth:`submit`;
* N dispatcher threads that pull jobs and run them through
  :func:`~repro.sim.batch.run_batch` on the configured backend, with
  the job's own :class:`~repro.obs.metrics.MetricsRegistry` merged into
  the service registry on completion (the registry is single-threaded
  by design, so sharing one across dispatchers would race);
* a :class:`~repro.service.store.ResultStore` coalescing identical
  batches (in-flight and published) across tenants;
* durable job records under ``<state_dir>/jobs/`` (write-then-rename
  JSON) plus per-job checkpoint ledgers under ``<state_dir>/ledgers/``
  keyed by job id via ``derive_checkpoint_path(run_id=job_id)`` -- a
  killed service restarts, re-queues interrupted jobs, and their
  ledgers turn the re-run into a resume.

Memory is bounded by a retention window of
:data:`~repro.service.store.RETAINED_FINISHED_JOBS`: the service keeps
every unfinished job plus the newest that many finished ones, and the
store the bodies of the newest that many published keys.  A finished
job leaves memory only once its terminal record is on disk;
:meth:`SimService.get_job` then answers it from that record.  Dedup is
O(1) inside the window; outside it a resubmission runs as an ordinary
job whose members all hit the shared ``ResultCache``.  Listing shows
the retained jobs, and a restart loads every unfinished job plus the
newest finished window by ``submitted_at``.

Determinism contract: a job's result body is exactly
``BatchResult.to_json()`` of its specs -- byte-identical to a direct
:func:`run_batch` of the same batch, whichever tenant asked and however
many duplicates were coalesced.
"""

from __future__ import annotations

import heapq
import json
import os
import re
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter
from typing import Deque, Dict, List, Optional, Set

from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import build_manifest
from repro.service.jobs import Job
from repro.service.queue import JobQueue, QuotaExceeded, TenantQuota
from repro.service.store import RETAINED_FINISHED_JOBS, ResultStore, batch_key
from repro.sim.batch import RunSpec, run_batch
from repro.sim.cache import ResultCache
from repro.sim.config import ExperimentConfig
from repro.sim.faults import CRASH_EXIT_CODE, active_injector
from repro.sim.lifetime import normalize_engine
from repro.sim.resilience import ResiliencePolicy, derive_checkpoint_path

#: Default service state directory (job records, ledgers, shared cache).
DEFAULT_STATE_DIR = ".repro-service"

#: Request options the service accepts beyond ``specs``/``config``.
#: ``deadline_seconds`` is deliberately NOT an option: options feed the
#: batch key, and a deadline is a property of the *request*, not of what
#: the batch computes -- two tenants asking for the same batch under
#: different deadlines must still coalesce.
_OPTION_FIELDS = ("engine",)

#: Most specs one submission may carry (with the device-size limit in
#: :data:`repro.sim.config.MAX_TOTAL_LINES`, this bounds a request's work).
MAX_SPECS_PER_REQUEST: int = 1024

#: ``Retry-After`` hint handed to clients rejected during a drain: the
#: process is exiting; by then a replacement is expected to be listening.
DRAIN_RETRY_AFTER_SECONDS: float = 5.0

#: The shape of a minted job id (:func:`repro.service.jobs.new_job_id`).
#: Only such an id is looked up on disk, so no request names a path.
_JOB_ID = re.compile(r"j-[0-9a-f]{12}")


class ValidationError(ValueError):
    """A submission payload failed validation (HTTP 400)."""


class ServiceUnavailable(RuntimeError):
    """The service is draining and no longer admits work (HTTP 503).

    Carries the ``Retry-After`` hint so the HTTP layer and the client
    agree on when a replacement instance should be up.
    """

    def __init__(self, message: str, retry_after: float = DRAIN_RETRY_AFTER_SECONDS):
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one service instance.

    ``engine`` (the default for submissions that name none) is checked
    here, so a bad default fails at startup rather than in every job.
    """

    state_dir: "str | Path" = DEFAULT_STATE_DIR
    jobs: int = 1
    backend: Optional[str] = None
    engine: str = "fluid-batched"
    dispatchers: int = 2
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    policy: Optional[ResiliencePolicy] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", normalize_engine(self.engine))


class SimService:
    """The job API's synchronous core (see module docstring)."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.state_dir = Path(self.config.state_dir)
        self.records_dir = self.state_dir / "jobs"
        self.ledgers_dir = self.state_dir / "ledgers"
        self.cache = ResultCache(self.state_dir / "cache")
        self.store = ResultStore()
        self.queue = JobQueue(self.config.default_quota, self.config.quotas)
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        # Retained finished job ids, oldest first, and finished jobs whose
        # terminal record has not landed yet (they stay in memory).
        self._finished: Deque[str] = deque()
        self._unwritten: Set[str] = set()
        self._jobs_lock = threading.Lock()
        self._dispatchers: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._started = perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Resume durable jobs, then start the dispatcher threads."""
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self.ledgers_dir.mkdir(parents=True, exist_ok=True)
        self._resume()
        for index in range(max(self.config.dispatchers, 1)):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop dispatching; in-flight jobs get ``timeout`` to finish."""
        self._stopping.set()
        self.queue.close()
        for thread in self._dispatchers:
            thread.join(timeout)
        self._dispatchers = []

    @property
    def draining(self) -> bool:
        """Whether the service has stopped admitting work."""
        return self._draining.is_set()

    def drain(self, timeout: float = 30.0) -> bool:
        """Enter the draining state and wind down gracefully.

        From this instant :meth:`submit` answers
        :class:`ServiceUnavailable` (503 + Retry-After) and dispatchers
        stop *taking* new jobs; the ones mid-batch get ``timeout``
        seconds to finish (their per-job ledgers checkpoint continuously,
        so even an overrun loses no completed member).  Every job whose
        record may be stale is then persisted -- unfinished ones, and
        finished ones whose terminal write failed -- so the next
        incarnation resumes queued and interrupted work.  Returns whether
        all dispatchers finished in time -- the caller's signal that
        exiting now abandons nothing.
        """
        self._count("service.drains")
        self._draining.set()
        deadline = monotonic() + max(timeout, 0.0)
        for thread in self._dispatchers:
            thread.join(max(deadline - monotonic(), 0.0))
        clean = not any(thread.is_alive() for thread in self._dispatchers)
        for job in self.list_jobs():
            if job.finished:
                self._retry_terminal_write(job)
                continue
            try:
                self._persist(job)
            except OSError:
                pass  # best effort: the submit-time record still exists
        return clean

    def __enter__(self) -> "SimService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _validate(self, payload: dict) -> "tuple[list, dict, dict, Optional[float]]":
        """Parse a submission payload into (specs, config, options, deadline).

        Everything is normalized through the same constructors a direct
        ``run_batch`` uses, so a payload that validates here runs there
        -- and its canonical dict forms give a stable batch key.
        """
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        raw_specs = payload.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise ValidationError("'specs' must be a non-empty list")
        if len(raw_specs) > MAX_SPECS_PER_REQUEST:
            raise ValidationError(
                f"'specs' holds {len(raw_specs)} runs; at most "
                f"{MAX_SPECS_PER_REQUEST} per request"
            )
        try:
            specs = [RunSpec.from_dict(spec).to_dict() for spec in raw_specs]
        except (TypeError, ValueError) as error:
            raise ValidationError(f"bad spec: {error}") from error
        raw_config = payload.get("config", {})
        if not isinstance(raw_config, dict):
            raise ValidationError("'config' must be a JSON object")
        try:
            config = ExperimentConfig(**raw_config)
        except (TypeError, ValueError) as error:
            raise ValidationError(f"bad config: {error}") from error
        config_dict = {
            "regions": config.regions,
            "lines_per_region": config.lines_per_region,
            "q": config.q,
            "endurance_model": config.endurance_model,
            "spare_fraction": config.spare_fraction,
            "swr_fraction": config.swr_fraction,
            "seed": config.seed,
        }
        options: Dict[str, object] = {"engine": self.config.engine}
        try:
            if payload.get("engine") is not None:
                options["engine"] = normalize_engine(payload["engine"])
        except ValueError as error:
            raise ValidationError(f"bad option: {error}") from error
        deadline: Optional[float] = None
        if payload.get("deadline_seconds") is not None:
            try:
                deadline = float(payload["deadline_seconds"])
            except (TypeError, ValueError):
                raise ValidationError(
                    "'deadline_seconds' must be a number"
                ) from None
            if deadline <= 0:
                raise ValidationError(
                    f"'deadline_seconds' must be > 0, got {deadline:g}"
                )
        unknown = set(payload) - {
            "specs", "config", "tenant", "deadline_seconds", *_OPTION_FIELDS
        }
        if unknown:
            raise ValidationError(f"unknown request fields {sorted(unknown)}")
        return specs, config_dict, options, deadline

    def submit(self, tenant: str, payload: dict) -> Job:
        """Accept a batch for ``tenant``; returns the queued job.

        Raises :class:`ValidationError` on a bad payload,
        :class:`~repro.service.queue.QuotaExceeded` over quota, and
        :class:`ServiceUnavailable` while draining.  A batch whose body
        is already published completes immediately (a dedup hit)
        without consuming a queue slot.
        """
        tenant = tenant or "default"
        if self.draining:
            self._count("service.drain_rejections")
            raise ServiceUnavailable("service is draining; not admitting work")
        specs, config, options, deadline = self._validate(payload)
        key = batch_key(config, options, specs)
        job = Job(
            tenant=tenant, specs=specs, config=config,
            options=options, batch_key=key, deadline_seconds=deadline,
        )
        with self._jobs_lock:
            self._jobs[job.job_id] = job
        self._count("service.submitted")
        published = self.store.get(key)
        if published is not None:
            job.mark_done(
                published,
                dedup=True,
                before_notify=lambda: self._finalize(
                    job, "service.dedup_hits", "service.completed"
                ),
            )
            return job
        try:
            self.queue.submit(job)
        except QuotaExceeded:
            with self._jobs_lock:
                del self._jobs[job.job_id]
            self._count("service.quota_rejections")
            raise
        self._persist(job)
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def get_job(self, job_id: str) -> Optional[Job]:
        """The job with ``job_id``, if known.

        A finished job that has left memory is rebuilt from its durable
        record, as a restart would: its events are ``queued`` plus the
        terminal one.  Only an id of the minted shape is looked up on
        disk; any other id is unknown without touching a file.
        """
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is not None or not _JOB_ID.fullmatch(job_id):
            return job
        job = self._load_record(self.records_dir / f"{job_id}.json")
        return job if job is not None and job.finished else None

    def list_jobs(self) -> List[Job]:
        """Every retained job: the unfinished ones plus the newest
        finished window, in the order they entered memory."""
        with self._jobs_lock:
            return list(self._jobs.values())

    def manifest(self) -> dict:
        """Metrics manifest with the ``service.*`` counters folded in.

        The ``service.jobs_known`` gauge counts the retained jobs.  It is
        read after the queue gauges, so while no submission races the
        read it is at most ``RETAINED_FINISHED_JOBS`` plus their sum.
        """
        with self._metrics_lock:
            self.metrics.gauge("service.queue_depth", self.queue.depth())
            self.metrics.gauge("service.running", self.queue.running())
            self.metrics.gauge("service.jobs_known", len(self._jobs))
            snapshot = self.metrics.snapshot()
            return build_manifest(
                self.metrics,
                command="service",
                engine=self.config.engine,
                jobs=self.config.jobs,
                wall_seconds=perf_counter() - self._started,
                extra={
                    "backend": self.config.backend or "pool",
                    # The one-shot CLI writes counters as separate JSONL
                    # records; a long-lived service serves one document,
                    # so the counters/gauges ride in the manifest itself
                    # (clients assert on e.g. ``service.dedup_hits``).
                    "counters": snapshot["counters"],
                    "gauges": snapshot["gauges"],
                },
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set() and not self._draining.is_set():
            job = self.queue.take(timeout=0.25)
            if job is None:
                continue
            try:
                if job.deadline_passed:
                    # Load shedding: the deadline budget was spent while
                    # the job sat queued (quota backlog, restart outage).
                    # Executing it now can only delay jobs someone still
                    # wants.
                    job.mark_shed(
                        before_notify=lambda: self._finalize(
                            job, "service.shed_jobs"
                        )
                    )
                    continue
                self._execute(job)
            except Exception as error:  # noqa: BLE001 - dispatcher survival
                # _execute isolates batch failures itself; anything that
                # still escapes (e.g. an IO error persisting the running
                # record) must fail THIS job, not kill the dispatcher
                # thread and silently wedge every job behind it.
                if not job.finished:
                    job.mark_failed(
                        f"{type(error).__name__}: {error}",
                        before_notify=lambda: self._finalize(
                            job, "service.failed"
                        ),
                    )
            finally:
                self.queue.release(job)
                self._retry_terminal_write(job)

    def _execute(self, job: Job) -> None:
        """Run one job to a terminal state via the store's claim protocol."""
        job.mark_running()
        self._persist(job)
        injector = active_injector()
        if injector is not None and injector.service_kill_now(
            job.batch_key, job.dispatch_attempts - 1
        ):
            # Simulated kill -9 mid-dispatch.  The record (just
            # persisted, with the bumped dispatch counter) and the job's
            # checkpoint ledger are the recovery story; only a process
            # marked via faults.mark_service_process ever gets here.
            os._exit(CRASH_EXIT_CODE)
        while True:
            outcome = self.store.claim(job.batch_key)
            if outcome == ResultStore.OWNER:
                break  # run it below
            if outcome == ResultStore.PUBLISHED:
                body = self.store.get(job.batch_key)
            else:
                body = self.store.wait(job.batch_key, timeout=1.0)
            if body is not None:
                job.mark_done(
                    body,
                    dedup=True,
                    before_notify=lambda: self._finalize(
                        job, "service.dedup_hits", "service.completed"
                    ),
                )
                return
            # The owner failed or is still running, or the body already
            # left the store: re-claim (we may be promoted to owner and
            # run the batch ourselves).
        try:
            body = self._run_batch(job)
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            self.store.release(job.batch_key)
            job.mark_failed(
                f"{type(error).__name__}: {error}",
                before_notify=lambda: self._finalize(job, "service.failed"),
            )
            return
        self._publish(job.batch_key, body)
        job.mark_done(
            body,
            before_notify=lambda: self._finalize(job, "service.completed"),
        )

    def _run_batch(self, job: Job) -> str:
        """Execute the job's batch; returns the canonical result body."""
        options = job.options
        registry = MetricsRegistry()
        ledger = self._ledger_path(job)

        def on_result(index: int, result, elapsed: float) -> None:
            job.add_event(
                "result",
                index=index,
                label=job.specs[index]["label"],
                normalized_lifetime=result.normalized_lifetime,
                elapsed=elapsed,
            )

        batch = run_batch(
            [RunSpec.from_dict(spec) for spec in job.specs],
            ExperimentConfig(**job.config),
            jobs=self.config.jobs,
            cache=self.cache,
            engine=str(options.get("engine", self.config.engine)),
            policy=self.config.policy,
            checkpoint=ledger,
            metrics=registry,
            backend=self.config.backend,
            on_result=on_result,
        )
        body = batch.to_json()
        with self._metrics_lock:
            self.metrics.merge_snapshot(registry.snapshot())
        # The ledger only matters while the job can still be interrupted;
        # afterwards its durable record carries the result.
        ledger.unlink(missing_ok=True)
        return body

    def _ledger_path(self, job: Job) -> Path:
        return derive_checkpoint_path(
            "service",
            {"batch": job.batch_key},
            root=self.ledgers_dir,
            run_id=job.job_id,
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _finalize(self, job: Job, *counters: str) -> None:
        """Terminal-state side effects (record + counters).

        Runs as a ``before_notify`` hook inside the job's condition, so
        by the time any ``wait()``/streamer observes the terminal state,
        the durable record and the service counters already reflect it.
        """
        self._write_terminal(job)
        for name in counters:
            self._count(name)

    def _write_terminal(self, job: Job) -> None:
        """Persist a finished job's record, then retire it.

        A failed write keeps the job in memory and in ``_unwritten``, for
        :meth:`_retry_terminal_write`.
        """
        try:
            self._persist(job)
        except OSError:
            with self._jobs_lock:
                self._unwritten.add(job.job_id)
            return
        self._retire(job)

    def _retry_terminal_write(self, job: Job) -> None:
        """Write the terminal record again, only if it failed to land."""
        with self._jobs_lock:
            if job.job_id not in self._unwritten:
                return
            self._unwritten.discard(job.job_id)
        self._write_terminal(job)

    def _retire(self, job: Job) -> None:
        """Enter a durable finished job into the retention window; evict
        the oldest finished jobs past :data:`RETAINED_FINISHED_JOBS`."""
        with self._jobs_lock:
            self._finished.append(job.job_id)
            evicted = 0
            while len(self._finished) > RETAINED_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]
                evicted += 1
        if evicted:
            self._count("service.jobs_evicted", evicted)

    def _publish(self, key: str, body: str) -> None:
        evicted = self.store.publish(key, body)
        if evicted:
            self._count("service.bodies_evicted", evicted)

    def _persist(self, job: Job) -> None:
        """Write the job's durable record (write-then-rename).

        Serialized on the job's record lock: the submitting thread and
        a dispatcher can both persist the same job concurrently, and
        without the lock they would collide on the temp file (same pid,
        same name) or land a stale snapshot over a newer one.
        """
        with job.record_lock:
            self.records_dir.mkdir(parents=True, exist_ok=True)
            path = self.records_dir / f"{job.job_id}.json"
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(job.to_record(), indent=2))
            tmp.replace(path)

    @staticmethod
    def _load_record(path: Path) -> Optional[Job]:
        """The job a durable record describes; ``None`` if it is torn."""
        try:
            return Job.from_record(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _resume(self) -> None:
        """Reload durable jobs; interrupted ones re-enter the queue.

        Every ``queued``/``running`` job restarts as ``queued``, and its
        checkpoint ledger (keyed by job id) turns the re-run into a
        resume of the already-finished members.  Of the finished jobs
        only the newest :data:`RETAINED_FINISHED_JOBS` by
        ``submitted_at`` are loaded; their bodies re-publish into the
        result store, so dedup inside the window survives restarts.
        Older records stay on disk for :meth:`get_job`.
        """
        unfinished: List[Job] = []
        newest: List[tuple] = []  # min-heap of the finished window
        for path in self.records_dir.glob("j-*.json"):
            job = self._load_record(path)
            if job is None:
                continue  # torn record: the job is lost, not the service
            if not job.finished:
                unfinished.append(job)
                continue
            entry = (job.submitted_at, job.job_id, job)
            if len(newest) < RETAINED_FINISHED_JOBS:
                heapq.heappush(newest, entry)
            else:
                heapq.heappushpop(newest, entry)
        loaded = [job for _, _, job in newest] + unfinished
        for job in sorted(loaded, key=lambda j: (j.submitted_at, j.job_id)):
            with self._jobs_lock:
                self._jobs[job.job_id] = job
            if job.finished:
                self._retire(job)
                if job.result_text is not None:
                    self._publish(job.batch_key, job.result_text)
                continue
            try:
                self.queue.submit(job)
                self._count("service.resumed")
            except QuotaExceeded as error:
                job.mark_failed(str(error))
                self._write_terminal(job)

    def _count(self, name: str, value: int = 1) -> None:
        with self._metrics_lock:
            self.metrics.inc(name, value)
