"""Parallel simulation runner: fan independent lifetime runs over cores.

Every evaluation surface in the repo -- the paper sweeps in
:mod:`repro.sim.experiments`, the declarative batch runner in
:mod:`repro.sim.batch`, and :func:`repro.sim.montecarlo.monte_carlo_lifetime`
-- reduces to a list of *independent* lifetime simulations.  This module
gives them one execution engine:

* :class:`SimTask` -- a pickle-safe declarative spec (device config +
  attack/sparing/wear-leveling names + parameters + seed) that fully
  determines one simulation, reusing the batch :class:`RunSpec`
  vocabulary.  Declarative tasks are content-addressable, so they compose
  with the :class:`~repro.sim.cache.ResultCache`.
* :class:`CallableTask` -- a factory-based spec for callers (Monte-Carlo
  studies, custom harnesses) whose components cannot be named; runs
  through the same scheduler but bypasses the cache.
* :class:`SimRunner` -- executes a task list: checkpoint and cache
  lookups first, then the misses either serially (``jobs=1`` or small
  batches) or over a :class:`concurrent.futures.ProcessPoolExecutor`,
  under a :class:`~repro.sim.resilience.ResiliencePolicy` supervisor.
* :func:`run_tasks` -- the drivers' entry point: stamps the task
  options on every task and runs them on one :class:`SimRunner`.

Supervision (see :mod:`repro.sim.resilience`): every attempt runs under
an optional wall-clock timeout; failed attempts retry with exponential
backoff + deterministic jitter; a worker process dying (crash, OOM
kill) breaks only the tasks in flight -- the pool is respawned and the
run continues; tasks that exhaust their attempts surface as structured
:class:`~repro.sim.resilience.FailureRecord` entries in the stats
instead of killing the run.  With a
:class:`~repro.sim.resilience.Checkpoint` attached, completed results
stream to an append-only JSONL journal so an interrupted sweep resumes
without re-simulating finished work.

Determinism: a task carries every seed it needs, so parallel execution
is bit-identical to serial execution in any job count and any schedule
-- including schedules perturbed by retries, pool respawns, and
resumes; :func:`fork_task_seeds` derives per-task seeds the same way
the Monte-Carlo driver forks replica seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.attacks.base import AttackModel
from repro.obs.metrics import MetricsRegistry, maybe_span
from repro.sim.executor import (
    CompletionCallback,
    ExecutionSummary,
    ExecutorBackend,
    SupervisedTask,
    handle_attempt_failure,
    mark_skipped,
)
from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.repeated import RepeatedAddressAttack
from repro.attacks.suite import WORKLOAD_NAMES, workload
from repro.attacks.uaa import UniformAddressAttack
from repro.core.maxwe import MaxWE
from repro.endurance.emap import EnduranceMap
from repro.sim.cache import ResultCache, canonical_json, task_key
from repro.sim.config import ExperimentConfig
from repro.sim.faults import (
    InjectedCrash,
    TransientFault,
    active_injector,
    mark_worker_process,
    task_scope,
)
from repro.sim.ensemble import EnsembleMember, simulate_ensemble
from repro.sim.lifetime import normalize_engine
from repro.sim.resilience import (
    Checkpoint,
    FailureRecord,
    ResiliencePolicy,
    RunInterrupted,
    SimulationFailure,
    TaskTimeout,
    time_limit,
)
from repro.sim.result import SimulationResult
from repro.sparing.base import SpareScheme
from repro.sparing.none import NoSparing
from repro.sparing.pcd import PCD
from repro.sparing.ps import PS
from repro.util.events import EventLog, SimEvent
from repro.util.memo import memoized, run_memo
from repro.util.rng import fork_seeds
from repro.util.validation import require_fraction
from repro.verify import snapshot
from repro.verify.invariants import InvariantViolation, normalize_paranoia
from repro.wearlevel import make_scheme
from repro.wearlevel.base import WearLeveler

#: Attack names accepted by declarative tasks (plus any workload-suite name).
ATTACKS: Tuple[str, ...] = ("uaa", "bpa", "repeated")

#: Sparing-scheme names accepted by declarative tasks.
SPARINGS: Tuple[str, ...] = ("none", "pcd", "ps", "ps-worst", "max-we")

#: Wear-leveler names accepted by declarative tasks.
WEARLEVELERS: Tuple[str, ...] = (
    "none", "start-gap", "tlsr", "pcm-s", "bwl", "wawl", "toss-up"
)

#: Below this many uncached tasks a process pool costs more than it saves.
MIN_PARALLEL_TASKS: int = 2


# ----------------------------------------------------------------------
# Component builders (the CLI/batch vocabulary, shared by every surface)
# ----------------------------------------------------------------------


def build_attack(name: str) -> AttackModel:
    """Instantiate an attack or workload model by spec name."""
    if name == "uaa":
        return UniformAddressAttack()
    if name == "bpa":
        return BirthdayParadoxAttack()
    if name == "repeated":
        return RepeatedAddressAttack()
    if name in WORKLOAD_NAMES:
        return workload(name)
    raise ValueError(
        f"unknown attack {name!r}; choose from {ATTACKS} "
        f"or the workload suite {WORKLOAD_NAMES}"
    )


def build_sparing(name: str, p: float, swr: float) -> SpareScheme:
    """Instantiate a sparing scheme by spec name."""
    if name == "none":
        return NoSparing()
    if name == "pcd":
        return PCD(p)
    if name == "ps":
        return PS.average_case(p)
    if name == "ps-worst":
        return PS.worst_case(p)
    if name == "max-we":
        return MaxWE(p, swr)
    raise ValueError(f"unknown sparing {name!r}; choose from {SPARINGS}")


def build_wearleveler(name: str) -> Optional[WearLeveler]:
    """Instantiate a wear-leveler by spec name (``None`` for ``"none"``)."""
    if name == "none":
        return None
    if name in WEARLEVELERS:
        return make_scheme(name, lines_per_region=1)
    raise ValueError(f"unknown wearlevel {name!r}; choose from {WEARLEVELERS}")


# ----------------------------------------------------------------------
# Task specs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimTask:
    """One declarative, pickle-safe, content-addressable simulation.

    Attributes
    ----------
    attack / sparing / wearlevel:
        Component names from the batch vocabulary (:data:`ATTACKS`,
        :data:`SPARINGS`, :data:`WEARLEVELERS` / workload suite).
    p / swr:
        Spare fraction and SWR share for the schemes that take them.
    config:
        Device configuration; its seed drives endurance-map placement.
    seed:
        Simulation master seed (sparing / wear-leveling streams).
        ``None`` defaults to ``config.seed``, matching the sweep drivers.
    emap_seed:
        Optional placement-seed override: the endurance map is rebuilt
        from ``config`` with this seed (Monte-Carlo placement variance).
    engine:
        Lifetime engine (see :data:`repro.sim.lifetime.ENGINES`);
        defaults to the vectorized ``"fluid-batched"`` kernel.
    record_timeline:
        Whether the simulation records per-death timeline events.  Off by
        default: batch/sweep surfaces aggregate scalar results, and the
        timeline is never cached anyway.
    paranoia / shadow_sample:
        State-integrity verification knobs, forwarded to
        :class:`~repro.sim.lifetime.LifetimeSimulator`.  Excluded from
        the cache key: checks never change results, so a verified run and
        an unverified run are the same entry (a cache hit skips
        verification -- use ``--no-cache`` to force a checked re-run).
    label:
        Cosmetic row label; excluded from the cache key so relabelled
        reruns still hit.
    """

    attack: str = "uaa"
    sparing: str = "max-we"
    wearlevel: str = "none"
    p: float = 0.1
    swr: float = 0.9
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    seed: Optional[int] = None
    emap_seed: Optional[int] = None
    engine: str = "fluid-batched"
    record_timeline: bool = False
    paranoia: str = "off"
    shadow_sample: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", normalize_engine(self.engine))
        normalize_paranoia(self.paranoia)
        require_fraction(self.shadow_sample, "shadow_sample")
        if self.attack not in ATTACKS and self.attack not in WORKLOAD_NAMES:
            raise ValueError(
                f"unknown attack {self.attack!r}; choose from {ATTACKS} "
                f"or the workload suite {WORKLOAD_NAMES}"
            )
        if self.sparing not in SPARINGS:
            raise ValueError(
                f"unknown sparing {self.sparing!r}; choose from {SPARINGS}"
            )
        if self.wearlevel not in WEARLEVELERS:
            raise ValueError(
                f"unknown wearlevel {self.wearlevel!r}; choose from {WEARLEVELERS}"
            )
        require_fraction(self.p, "p")
        require_fraction(self.swr, "swr")

    @property
    def effective_seed(self) -> int:
        """The simulation seed actually used (defaults to the config's)."""
        return self.config.seed if self.seed is None else self.seed

    def make_emap(self) -> EnduranceMap:
        """Materialize the task's endurance map (placement override aware)."""
        if self.emap_seed is not None:
            return self.config.with_(seed=self.emap_seed).make_emap()
        return self.config.make_emap()

    def cache_payload(self) -> Dict[str, object]:
        """Canonical mapping of everything that determines the result.

        Exactly the execution-relevant fields: the label and the config
        knobs the task overrides (``spare_fraction`` / ``swr_fraction``)
        are deliberately excluded so cosmetic changes still hit.
        """
        return {
            "attack": self.attack,
            "sparing": self.sparing,
            "wearlevel": self.wearlevel,
            "p": float(self.p),
            "swr": float(self.swr),
            "seed": int(self.effective_seed),
            "emap_seed": None if self.emap_seed is None else int(self.emap_seed),
            "engine": self.engine,
            "config": {
                "regions": self.config.regions,
                "lines_per_region": self.config.lines_per_region,
                "q": float(self.config.q),
                "endurance_model": self.config.endurance_model,
                "seed": self.config.seed,
            },
        }

    def member(self, metrics: Optional[MetricsRegistry] = None) -> EnsembleMember:
        """Build the task's components: emap, attack, sparing, wear-leveler.

        Inside a :meth:`SimRunner.run` the endurance map is the run's
        shared one whenever the last task built the same device (see
        :mod:`repro.util.memo`); the map is read-only either way.
        """
        config = self.config
        device = (
            config.regions,
            config.lines_per_region,
            float(config.q),
            config.endurance_model,
            config.seed if self.emap_seed is None else self.emap_seed,
        )
        with maybe_span(metrics, "sim/endurance"):
            emap = memoized("emap", device, self.make_emap)
        with maybe_span(metrics, "sim/components"):
            return EnsembleMember(
                emap=emap,
                attack=build_attack(self.attack),
                sparing=build_sparing(self.sparing, self.p, self.swr),
                wearleveler=build_wearleveler(self.wearlevel),
                rng=self.effective_seed,
            )

    def execute(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> Tuple[SimulationResult, float]:
        """Run the simulation; returns ``(result, wall_seconds)``."""
        return _execute_solo(self, metrics)


@dataclass(frozen=True)
class CallableTask:
    """A factory-based simulation for components that cannot be named.

    Used by the Monte-Carlo driver (and any custom harness) whose
    attack/sparing/wear-leveling components come as zero-argument
    factories.  Parallel execution requires the factories to be picklable
    (module-level callables / functools.partial); the runner falls back
    to serial execution otherwise.  Not content-addressable, so never
    cached -- but checkpointable under a best-effort identity derived
    from the factories' qualified names plus the seed (see
    :func:`task_identity`).
    """

    attack_factory: Callable[[], AttackModel]
    sparing_factory: Callable[[], SpareScheme]
    emap_factory: Callable[[int], EnduranceMap]
    seed: int
    wearleveler_factory: Optional[Callable[[], WearLeveler]] = None
    engine: str = "fluid-batched"
    record_timeline: bool = False
    paranoia: str = "off"
    shadow_sample: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", normalize_engine(self.engine))
        normalize_paranoia(self.paranoia)
        require_fraction(self.shadow_sample, "shadow_sample")

    def member(self, metrics: Optional[MetricsRegistry] = None) -> EnsembleMember:
        """Build the task's components.

        Factories are invoked in the same order as the historical serial
        Monte-Carlo loop (wear-leveler, emap, attack, sparing) so stateful
        factories observe an identical call sequence.
        """
        with maybe_span(metrics, "sim/components"):
            wearleveler = (
                self.wearleveler_factory() if self.wearleveler_factory else None
            )
        with maybe_span(metrics, "sim/endurance"):
            emap = self.emap_factory(self.seed)
        return EnsembleMember(
            emap=emap,
            attack=self.attack_factory(),
            sparing=self.sparing_factory(),
            wearleveler=wearleveler,
            rng=self.seed,
        )

    def execute(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> Tuple[SimulationResult, float]:
        """Run the simulation; returns ``(result, wall_seconds)``."""
        return _execute_solo(self, metrics)


AnyTask = Union[SimTask, CallableTask]


def _execute_solo(
    task: AnyTask, metrics: Optional[MetricsRegistry]
) -> Tuple[SimulationResult, float]:
    """Run one task on the epoch kernel, labelled with its engine."""
    start = perf_counter()
    payload, options = _task_context_of(task)
    with snapshot.task_context(payload, options):
        result = simulate_ensemble(
            task.member(metrics),
            engine=task.engine,
            record_timeline=task.record_timeline,
            metrics=metrics,
            paranoia=task.paranoia,
            shadow_sample=task.shadow_sample,
        )
    return result, perf_counter() - start


def _task_context_of(task: AnyTask) -> Tuple[Optional[dict], dict]:
    """The ``(payload, options)`` a crash-dump bundle pins for a task.

    Declarative tasks pin their full cache payload, making their bundles
    replayable; callable tasks pin only the execution options (factories
    cannot be serialized declaratively).
    """
    payload = task.cache_payload() if isinstance(task, SimTask) else None
    options = {
        "paranoia": task.paranoia,
        "shadow_sample": float(task.shadow_sample),
        "record_timeline": task.record_timeline,
        "label": task.label,
    }
    return payload, options


def _describe_callable(obj: object) -> str:
    """Best-effort stable textual identity of a factory callable."""
    if obj is None:
        return "none"
    if isinstance(obj, functools.partial):
        keywords = sorted(obj.keywords.items()) if obj.keywords else []
        return (
            f"partial({_describe_callable(obj.func)}, args={obj.args!r}, "
            f"keywords={keywords!r})"
        )
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if module is not None and qualname is not None:
        return f"{module}.{qualname}"
    return repr(obj)


def task_identity(task: AnyTask) -> Tuple[str, str]:
    """Stable ``(key, label)`` of a task for checkpoints and reports.

    Declarative tasks reuse their cache content key.  Callable tasks get
    a best-effort identity from their factories' qualified names plus
    the seed/engine -- stable across runs of the same study, but two
    *different* inline lambdas can collide; callable-task checkpoints
    are therefore only sound within one study definition (the
    Monte-Carlo driver's usage).
    """
    if isinstance(task, SimTask):
        return task_key(task), task.label
    payload = {
        "attack_factory": _describe_callable(task.attack_factory),
        "sparing_factory": _describe_callable(task.sparing_factory),
        "emap_factory": _describe_callable(task.emap_factory),
        "wearleveler_factory": _describe_callable(task.wearleveler_factory),
        "seed": int(task.seed),
        "engine": task.engine,
        "record_timeline": task.record_timeline,
    }
    digest = hashlib.sha256(
        ("callable:" + canonical_json(payload)).encode()
    ).hexdigest()
    return digest, task.label


def fork_task_seeds(seed: Optional[int], count: int, label: str = "sim-runner") -> List[int]:
    """Derive ``count`` deterministic per-task seeds from a master seed."""
    return fork_seeds(seed, count, label)


@dataclass(frozen=True)
class _WorkerReport:
    """What one worker attempt ships back to the supervisor.

    ``started``/``ended`` are ``time.monotonic()`` stamps, comparable
    with the supervisor's own monotonic clock on the same host, so the
    supervisor can split an attempt's wall time into pool queue wait
    (``started - submitted``), worker run time (``elapsed``, measured
    around the simulation itself), and harvest latency (supervisor
    pickup minus ``ended``).  ``metrics`` is the worker registry's
    snapshot, merged into the supervisor's registry on harvest.
    """

    result: SimulationResult
    elapsed: float
    started: float
    ended: float
    metrics: Optional[dict] = None


def _execute_supervised(task: AnyTask, key: str, attempt: int) -> _WorkerReport:
    """Worker entry point with the fault-injection hook applied.

    ``attempt`` is 0-based; the injector's rolls are deterministic in
    ``(key, attempt)`` so retried attempts re-roll their faults
    identically on every run of the harness.
    """
    started = monotonic()
    injector = active_injector()
    if injector is not None:
        injector.before_execute(key, attempt)
    worker_metrics = MetricsRegistry()
    with task_scope(key):
        try:
            result, elapsed = task.execute(metrics=worker_metrics)
        except (InjectedCrash, TransientFault, InvariantViolation):
            # Injected faults are the supervisor's business; violations
            # already wrote their own bundle engine-side.
            raise
        except Exception as error:
            if (
                task.paranoia != "off"
                or os.environ.get(snapshot.DEBUG_DIR_ENV)
            ):
                payload, options = _task_context_of(task)
                with snapshot.task_context(payload, options):
                    snapshot.write_error_bundle(error, key=key)
            raise
    return _WorkerReport(
        result=result,
        elapsed=elapsed,
        started=started,
        ended=monotonic(),
        metrics=worker_metrics.snapshot(),
    )


def _fault_spec_text() -> str:
    """The active fault spec rendered for worker-process initializers."""
    injector = active_injector()
    return injector.spec.to_spec() if injector is not None else ""


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunnerStats:
    """Execution statistics of one :meth:`SimRunner.run_detailed` call.

    Attributes
    ----------
    tasks:
        Number of tasks submitted.
    simulated:
        Tasks dispatched to execution (everything not served by the
        checkpoint or the cache) -- including any that ultimately failed.
    cache_hits:
        Tasks served from the result cache without simulating.
    jobs:
        Worker-process count used for the simulated tasks (1 = serial).
    wall_seconds:
        End-to-end wall time of the call.
    task_seconds:
        Per-task simulation wall times, in submission order (0.0 for
        cache/checkpoint hits and failures).
    checkpoint_hits:
        Tasks served from the resume checkpoint without simulating.
    retries:
        Re-executions performed by the supervisor (attempts beyond each
        task's first).
    pool_respawns:
        Times the worker pool was torn down and rebuilt after a crash
        or a timed-out (hung) task.
    failures:
        One :class:`~repro.sim.resilience.FailureRecord` per task that
        did not produce a result; the matching ``results`` slots hold
        ``None``.
    interrupted:
        Whether the run was stopped by SIGINT/SIGTERM before finishing.
    events:
        The supervisor's event log (retries, timeouts, crashes,
        respawns) for forensics.
    queue_seconds:
        Total time completed tasks spent queued in the pool before a
        worker picked them up (supervisor overhead, not task runtime).
    harvest_seconds:
        Total latency between workers finishing and the supervisor
        collecting the result (bounded by the wait-loop granularity).
    requeue_wait_seconds:
        Total time tasks sat in pools that broke or hung before being
        requeued -- previously dropped silently by pool recovery.
    metrics:
        Snapshot of the run's :class:`~repro.obs.metrics.MetricsRegistry`
        (counters, per-phase timings, merged worker metrics).
    backend:
        Spec name of the execution backend used (``"pool"`` /
        ``"fabric"``).
    degraded:
        The run completed but on fewer resources than requested (fabric
        workers died and were not replaced; survivors -- or the
        coordinator itself -- absorbed the remaining work).
    """

    tasks: int
    simulated: int
    cache_hits: int
    jobs: int
    wall_seconds: float
    task_seconds: Tuple[float, ...] = ()
    checkpoint_hits: int = 0
    retries: int = 0
    pool_respawns: int = 0
    failures: Tuple[FailureRecord, ...] = ()
    interrupted: bool = False
    events: Tuple[SimEvent, ...] = ()
    queue_seconds: float = 0.0
    harvest_seconds: float = 0.0
    requeue_wait_seconds: float = 0.0
    metrics: Optional[dict] = None
    backend: str = "pool"
    degraded: bool = False

    @property
    def completed(self) -> int:
        """Tasks that produced a result (hits + successful simulations)."""
        return self.tasks - len(self.failures)

    @property
    def sims_per_second(self) -> float:
        """Simulated-task throughput over the call's wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.simulated / self.wall_seconds

    def __str__(self) -> str:
        text = (
            f"{self.tasks} tasks ({self.cache_hits} cached, "
            f"{self.simulated} simulated) in {self.wall_seconds:.2f}s "
            f"with {self.jobs} job(s) -- {self.sims_per_second:.1f} sims/s"
        )
        if self.checkpoint_hits:
            text += f"; {self.checkpoint_hits} resumed from checkpoint"
        if self.retries:
            text += f"; {self.retries} retries"
        if self.failures:
            text += f"; {len(self.failures)} FAILED"
        if self.degraded:
            text += "; DEGRADED"
        if self.interrupted:
            text += "; INTERRUPTED"
        return text


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def _picklable(tasks: Sequence[AnyTask]) -> bool:
    try:
        pickle.dumps(tuple(tasks))
        return True
    except Exception:
        return False


def _terminate_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Shut a pool down without leaving dangling worker processes.

    ``shutdown(wait=True)`` would block forever on a hung worker, so the
    workers are terminated explicitly (then killed if termination does
    not take) before the executor is abandoned.
    """
    if pool is None:
        return
    processes = list(getattr(pool, "_processes", {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=2.0)


class ProcessPoolBackend(ExecutorBackend):
    """The local backend: in-process serial or ``ProcessPoolExecutor``.

    Holds the PR-3 supervisor semantics verbatim: per-attempt deadlines,
    exponential-backoff retries, crash isolation with pool respawn, and
    innocent-requeue (in-flight tasks pulled unrun out of a torn-down
    pool get their attempt refunded).  Small or unpicklable batches fall
    back to the serial path automatically; ``summary.jobs_used`` reports
    which way it went.
    """

    name = "pool"

    def execute(
        self,
        pending: Sequence[SupervisedTask],
        *,
        jobs: int,
        policy: ResiliencePolicy,
        events: EventLog,
        on_complete: CompletionCallback,
        metrics: MetricsRegistry,
        checkpoint: "Optional[Checkpoint]" = None,
    ) -> ExecutionSummary:
        jobs_used = min(jobs, len(pending)) if pending else 1
        if (
            jobs_used >= MIN_PARALLEL_TASKS
            and len(pending) >= MIN_PARALLEL_TASKS
            and _picklable([state.task for state in pending])
        ):
            summary = self.run_parallel(
                pending, jobs_used, policy, events, on_complete, metrics
            )
        else:
            jobs_used = 1
            summary = self.run_serial(
                pending, policy, events, on_complete, metrics
            )
        summary.jobs_used = jobs_used
        return summary

    def run_serial(
        self,
        pending: Sequence[SupervisedTask],
        policy: ResiliencePolicy,
        events: EventLog,
        on_complete: CompletionCallback,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ExecutionSummary:
        """In-process supervised execution (jobs=1 / unpicklable tasks).

        Timeouts use the SIGALRM guard where available; injected or real
        crashes surface as exceptions (an in-process ``os._exit`` would
        take the caller down, so serial fault injection raises instead).
        """
        if metrics is None:
            metrics = MetricsRegistry()
        summary = ExecutionSummary()
        queue: deque[SupervisedTask] = deque(pending)
        try:
            while queue:
                state = queue[0]
                delay = state.not_before - monotonic()
                if delay > 0:
                    time.sleep(delay)
                started = perf_counter()
                state.attempts += 1
                try:
                    with time_limit(policy.timeout):
                        report = _execute_supervised(
                            state.task, state.key, state.attempts - 1
                        )
                except KeyboardInterrupt:
                    raise
                except TaskTimeout as error:
                    state.elapsed += perf_counter() - started
                    queue.popleft()
                    handle_attempt_failure(
                        policy, state, error, "timeout", queue, summary, events
                    )
                except Exception as error:
                    state.elapsed += perf_counter() - started
                    queue.popleft()
                    handle_attempt_failure(
                        policy, state, error, "exception", queue, summary, events
                    )
                else:
                    state.elapsed += report.elapsed
                    metrics.observe_seconds("runner/worker_run", report.elapsed)
                    if report.metrics is not None:
                        metrics.merge_snapshot(report.metrics)
                    queue.popleft()
                    on_complete(state, report.result, report.elapsed)
                if policy.fail_fast and summary.failures:
                    mark_skipped(queue, summary)
                    break
        except KeyboardInterrupt:
            summary.interrupted = True
            mark_skipped(queue, summary, kind="interrupted")
        return summary

    def run_parallel(
        self,
        pending: Sequence[SupervisedTask],
        jobs: int,
        policy: ResiliencePolicy,
        events: EventLog,
        on_complete: CompletionCallback,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ExecutionSummary:
        """Process-pool supervised execution with crash isolation.

        The supervisor dispatches at most ``jobs`` tasks at a time and
        watches their deadlines.  A worker death breaks only the futures
        in flight (each charged one attempt); the pool is rebuilt and the
        run continues.  A deadline overrun cannot cancel the running
        future -- ``ProcessPoolExecutor`` has no per-task kill -- so the
        pool is torn down (terminating the hung worker) and the
        *innocent* in-flight tasks are requeued without losing an
        attempt.

        Timing: ``submitted`` stamps are ``time.monotonic()``, the same
        clock the worker stamps its report with, so each attempt's wall
        time splits into pool queue wait (worker start - submit), worker
        run time (the worker's own measurement), and harvest latency
        (supervisor pickup - worker end, bounded by the wait-loop poll
        granularity).  Only worker run time is charged to the task;
        queue/harvest/requeue time is recorded as supervisor overhead.
        """
        if metrics is None:
            metrics = MetricsRegistry()
        summary = ExecutionSummary()
        ready: deque[SupervisedTask] = deque(pending)
        inflight: Dict[object, Tuple[SupervisedTask, Optional[float], float]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        timeout = policy.timeout

        def respawn_pool() -> ProcessPoolExecutor:
            nonlocal pool
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=jobs,
                    initializer=mark_worker_process,
                    initargs=(_fault_spec_text(),),
                )
            return pool

        def recover_broken_pool() -> None:
            """Tear down a broken/hung pool and requeue in-flight work.

            Futures that already resolved are harvested (a crash verdict
            charges the attempt); futures that never got a verdict are
            requeued without charging the attempt consumed by the doomed
            submission.  The time those innocents sat in the doomed pool
            is recorded as ``runner/requeue_wait`` -- it was previously
            dropped, under-reporting wall time on fault-heavy runs.
            """
            nonlocal pool
            for future, (state, _, submitted) in list(inflight.items()):
                if future.done():
                    harvest(future, state, submitted)
                else:
                    waited = max(monotonic() - submitted, 0.0)
                    state.requeue_seconds += waited
                    metrics.observe_seconds("runner/requeue_wait", waited)
                    events.record(
                        "task-requeued", state.index, key=state.key[:12]
                    )
                    state.attempts -= 1
                    ready.append(state)
            inflight.clear()
            _terminate_pool(pool)
            pool = None
            summary.pool_respawns += 1
            events.record("pool-respawn", -1, jobs=jobs)

        def harvest(future, state: SupervisedTask, submitted: float) -> bool:
            """Collect one finished future; returns True if the pool broke.

            On success only the worker's own run time is charged to the
            task; the queue wait before the worker picked it up and the
            latency until the supervisor collected it are accounted
            separately.  A failed attempt has no worker report, so the
            whole supervisor-observed attempt wall is charged.
            """
            try:
                report = future.result()
            except KeyboardInterrupt:
                raise
            except BrokenProcessPool as error:
                state.elapsed += max(monotonic() - submitted, 0.0)
                handle_attempt_failure(
                    policy, state, error, "crash", ready, summary, events
                )
                return True
            except Exception as error:
                state.elapsed += max(monotonic() - submitted, 0.0)
                handle_attempt_failure(
                    policy, state, error, "exception", ready, summary, events
                )
                return False
            else:
                queue_wait = max(report.started - submitted, 0.0)
                harvest_latency = max(monotonic() - report.ended, 0.0)
                state.elapsed += report.elapsed
                state.queue_seconds += queue_wait
                state.harvest_seconds += harvest_latency
                metrics.observe_seconds("runner/queue_wait", queue_wait)
                metrics.observe_seconds("runner/worker_run", report.elapsed)
                metrics.observe_seconds("runner/harvest_latency", harvest_latency)
                if report.metrics is not None:
                    metrics.merge_snapshot(report.metrics)
                on_complete(state, report.result, report.elapsed)
                return False

        try:
            while ready or inflight:
                now = monotonic()
                # Dispatch every ready state whose backoff has elapsed.
                for _ in range(len(ready)):
                    if len(inflight) >= jobs:
                        break
                    state = ready.popleft()
                    if state.not_before > now:
                        ready.append(state)  # rotate; try again next round
                        continue
                    try:
                        future = respawn_pool().submit(
                            _execute_supervised,
                            state.task,
                            state.key,
                            state.attempts,
                        )
                    except BrokenProcessPool:
                        # A crashing worker can break the pool between the
                        # last harvest and this submit, in which case the
                        # error surfaces here in the supervisor rather than
                        # through a future.  This task never ran: requeue
                        # it un-charged, recycle the pool, and go around.
                        ready.appendleft(state)
                        recover_broken_pool()
                        break
                    state.attempts += 1
                    deadline = None if timeout is None else monotonic() + timeout
                    inflight[future] = (state, deadline, monotonic())

                if not inflight:
                    # Everything is backing off; sleep to the earliest retry.
                    if ready:
                        next_ready = min(state.not_before for state in ready)
                        time.sleep(max(next_ready - monotonic(), 0.0) + 0.001)
                        continue
                    break

                wait_budgets = [
                    deadline - now
                    for _, deadline, _ in inflight.values()
                    if deadline is not None
                ]
                if ready:
                    wait_budgets.append(
                        max(min(s.not_before for s in ready) - now, 0.0) + 0.001
                    )
                wait_for = max(min(wait_budgets), 0.01) if wait_budgets else None
                done, _ = wait(
                    list(inflight), timeout=wait_for, return_when=FIRST_COMPLETED
                )

                pool_broken = False
                for future in done:
                    state, _, submitted = inflight.pop(future)
                    pool_broken |= harvest(future, state, submitted)

                now = monotonic()
                overdue = [
                    future
                    for future, (_, deadline, _) in inflight.items()
                    if deadline is not None and now >= deadline
                ]
                for future in overdue:
                    state, deadline, submitted = inflight.pop(future)
                    if future.done():
                        pool_broken |= harvest(future, state, submitted)
                        continue
                    state.elapsed += max(monotonic() - submitted, 0.0)
                    handle_attempt_failure(
                        policy,
                        state,
                        TaskTimeout(
                            f"task exceeded its {timeout:g}s wall-clock budget"
                        ),
                        "timeout",
                        ready,
                        summary,
                        events,
                    )
                    # The hung worker can only be removed by killing the
                    # pool; innocents in flight are requeued below.
                    pool_broken = True

                if pool_broken:
                    recover_broken_pool()

                if policy.fail_fast and summary.failures:
                    mark_skipped(ready, summary)
                    if not inflight:
                        break
        except KeyboardInterrupt:
            summary.interrupted = True
            for state, _, _ in inflight.values():
                summary.failures[state.index] = FailureRecord(
                    index=state.index,
                    key=state.key,
                    label=state.label,
                    kind="interrupted",
                    attempts=state.attempts,
                )
            inflight.clear()
            mark_skipped(ready, summary, kind="interrupted")
        finally:
            if pool is not None:
                if summary.interrupted:
                    # Workers may be mid-task; don't wait on them.
                    _terminate_pool(pool)
                else:
                    # Clean exit: workers are idle, a graceful shutdown
                    # reaps them without signals.
                    try:
                        pool.shutdown(wait=True, cancel_futures=True)
                    except Exception:
                        _terminate_pool(pool)
        return summary


def resolve_backend(
    backend: "str | ExecutorBackend | None",
    *,
    workers: Optional[int] = None,
    lease_ttl: Optional[float] = None,
) -> ExecutorBackend:
    """Resolve a backend spec (name, instance, or ``None``) to a backend.

    ``None`` and ``"pool"`` give the local process pool; ``"fabric"``
    lazily imports :class:`repro.fabric.backend.FabricBackend` (socket
    coordinator + worker-loop processes) with ``workers`` / ``lease_ttl``
    forwarded.  An :class:`ExecutorBackend` instance passes through
    (``workers``/``lease_ttl`` must then be unset -- the instance already
    made those choices).
    """
    if isinstance(backend, ExecutorBackend):
        if workers is not None or lease_ttl is not None:
            raise ValueError(
                "workers/lease_ttl only apply when the backend is named by "
                "spec; configure the backend instance directly instead"
            )
        return backend
    if backend is None or backend == "pool":
        return ProcessPoolBackend()
    if backend == "fabric":
        from repro.fabric.backend import FabricBackend

        kwargs = {}
        if workers is not None:
            kwargs["workers"] = workers
        if lease_ttl is not None:
            kwargs["lease_ttl"] = lease_ttl
        return FabricBackend(**kwargs)
    raise ValueError(
        f"unknown backend {backend!r}; choose from ('pool', 'fabric') "
        "or pass an ExecutorBackend instance"
    )


class SimRunner:
    """Execute independent simulation tasks, supervised and in parallel.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (default) runs serially in-process, 0 or
        ``None`` uses every CPU.
    cache:
        Optional :class:`ResultCache`; declarative :class:`SimTask`\\ s
        are looked up before simulating and stored after.
        :class:`CallableTask`\\ s always simulate.
    policy:
        The :class:`~repro.sim.resilience.ResiliencePolicy` governing
        timeouts, retries, backoff, and fail-fast; defaults to bounded
        retries with no timeout.
    checkpoint:
        Optional :class:`~repro.sim.resilience.Checkpoint` (or a path,
        opened in resume mode): completed results stream to the journal
        and previously journaled tasks are served without re-simulating.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to record
        into (so one registry can span several runner calls plus CLI
        overhead).  When omitted the runner uses a private registry;
        either way the final snapshot lands in ``stats.metrics``.
    backend:
        Execution backend: ``"pool"`` (default; local process pool),
        ``"fabric"`` (socket-served multi-host coordinator, see
        :mod:`repro.fabric`), or an :class:`ExecutorBackend` instance.
        Determinism holds across backends: the same task list yields
        bit-identical results on either.
    on_result:
        Optional ``(index, result, elapsed)`` observer invoked once per
        task as its result lands -- whether simulated, cache-served, or
        checkpoint-served (the latter two with ``elapsed=0.0``).  Runs
        on the supervisor thread in completion order (not submission
        order) and must not raise; the service layer uses it to stream
        partial results while a batch is still running.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        policy: Optional[ResiliencePolicy] = None,
        checkpoint: "Checkpoint | str | os.PathLike | None" = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: "str | ExecutorBackend | None" = None,
        on_result: Optional[Callable[[int, SimulationResult, float], None]] = None,
    ) -> None:
        self._jobs = resolve_jobs(jobs)
        self._cache = cache
        self._policy = policy if policy is not None else ResiliencePolicy()
        if checkpoint is not None and not isinstance(checkpoint, Checkpoint):
            checkpoint = Checkpoint(checkpoint, resume=True)
        self._checkpoint = checkpoint
        self._metrics = metrics
        self._backend = resolve_backend(backend)
        self._on_result = on_result

    @property
    def jobs(self) -> int:
        """Resolved worker count."""
        return self._jobs

    @property
    def cache(self) -> Optional[ResultCache]:
        """The attached result cache, if any."""
        return self._cache

    @property
    def policy(self) -> ResiliencePolicy:
        """The supervision policy in force."""
        return self._policy

    @property
    def checkpoint(self) -> Optional[Checkpoint]:
        """The attached resume checkpoint, if any."""
        return self._checkpoint

    @property
    def backend(self) -> ExecutorBackend:
        """The resolved execution backend."""
        return self._backend

    def run(self, tasks: Sequence[AnyTask]) -> List[SimulationResult]:
        """Execute ``tasks``; results in submission order.

        Raises :class:`~repro.sim.resilience.SimulationFailure` if any
        task exhausted its attempts; use :meth:`run_detailed` for the
        keep-going partial-results surface.
        """
        results, stats = self.run_detailed(tasks)
        if stats.failures:
            raise SimulationFailure(stats.failures)
        return results

    def run_detailed(
        self, tasks: Sequence[AnyTask]
    ) -> Tuple[List[Optional[SimulationResult]], RunnerStats]:
        """Execute ``tasks``; returns ordered results plus statistics.

        Graceful degradation: a task that exhausts its attempts leaves
        ``None`` in its results slot and a
        :class:`~repro.sim.resilience.FailureRecord` in
        ``stats.failures`` -- the other tasks' results are returned
        normally.  SIGINT/SIGTERM raise
        :class:`~repro.sim.resilience.RunInterrupted` (carrying the
        partial results and stats) after the pool is shut down cleanly
        and completed work is checkpointed.
        """
        tasks = list(tasks)
        started = perf_counter()
        metrics = self._metrics if self._metrics is not None else MetricsRegistry()
        total_span = metrics.span("runner/total")
        total_span.__enter__()
        if self._cache is not None:
            self._cache.attach_metrics(metrics)
        if self._checkpoint is not None:
            self._checkpoint.attach_metrics(metrics)
            # Absorb shard ledgers left by earlier distributed runs (or a
            # crashed coordinator) so their results resume like any other
            # journaled work.
            self._checkpoint.merge_shards()
        events = EventLog()
        results: List[Optional[SimulationResult]] = [None] * len(tasks)
        seconds = [0.0] * len(tasks)
        cache_hits = 0
        checkpoint_hits = 0

        pending: List[SupervisedTask] = []
        with metrics.span("runner/scan"):
            for index, task in enumerate(tasks):
                key, label = task_identity(task)
                if self._checkpoint is not None:
                    resumed = self._checkpoint.get(key)
                    if resumed is not None:
                        results[index] = resumed
                        checkpoint_hits += 1
                        # Heal the cache from the journal if the entry is gone.
                        if self._cache is not None and isinstance(task, SimTask):
                            self._cache.put(task, resumed)
                        if self._on_result is not None:
                            self._on_result(index, resumed, 0.0)
                        continue
                cached = (
                    self._cache.get(task)
                    if self._cache is not None and isinstance(task, SimTask)
                    else None
                )
                if cached is not None:
                    results[index] = cached
                    cache_hits += 1
                    if self._checkpoint is not None:
                        self._checkpoint.append(key, cached, 0.0, label)
                    if self._on_result is not None:
                        self._on_result(index, cached, 0.0)
                    continue
                pending.append(
                    SupervisedTask(index=index, task=task, key=key, label=label)
                )
        simulated = len(pending)

        def on_complete(
            state: SupervisedTask, result: SimulationResult, elapsed: float
        ) -> None:
            results[state.index] = result
            seconds[state.index] = elapsed
            task = tasks[state.index]
            if self._cache is not None and isinstance(task, SimTask):
                self._cache.put(task, result, elapsed)
            if self._checkpoint is not None:
                self._checkpoint.append(state.key, result, elapsed, state.label)
            if self._on_result is not None:
                self._on_result(state.index, result, elapsed)

        summary = ExecutionSummary()
        jobs_used = 1
        previous_sigterm = self._install_sigterm_handler()
        try:
            # Tasks run in this thread share one device and plan per
            # configuration; the memo goes when the run does.
            with metrics.span("runner/execute"), run_memo():
                if pending:
                    summary = self._backend.execute(
                        pending,
                        jobs=self._jobs,
                        policy=self._policy,
                        events=events,
                        on_complete=on_complete,
                        metrics=metrics,
                        checkpoint=self._checkpoint,
                    )
                    jobs_used = summary.jobs_used
        finally:
            self._restore_sigterm_handler(previous_sigterm)
            if self._checkpoint is not None:
                # Harvest shard ledgers written during this run (fabric
                # workers journal locally before committing over the
                # wire); idempotent per key, so results that also landed
                # in the primary journal merge to nothing.
                self._checkpoint.merge_shards()

        with metrics.span("runner/finalize"):
            metrics.inc("runner.tasks", len(tasks))
            metrics.inc("runner.cache_hits", cache_hits)
            metrics.inc("runner.checkpoint_hits", checkpoint_hits)
            metrics.inc("runner.simulated", simulated)
            metrics.inc("runner.retries", summary.retries)
            metrics.inc("runner.pool_respawns", summary.pool_respawns)
            metrics.inc("runner.failures", len(summary.failures))
            metrics.gauge("runner.jobs", jobs_used)
            metrics.gauge("runner.degraded", 1.0 if summary.degraded else 0.0)
        total_span.__exit__(None, None, None)

        stats = RunnerStats(
            tasks=len(tasks),
            simulated=simulated,
            cache_hits=cache_hits,
            jobs=jobs_used,
            wall_seconds=perf_counter() - started,
            task_seconds=tuple(seconds),
            checkpoint_hits=checkpoint_hits,
            retries=summary.retries,
            pool_respawns=summary.pool_respawns,
            failures=tuple(summary.failures[index] for index in sorted(summary.failures)),
            interrupted=summary.interrupted,
            events=tuple(events),
            queue_seconds=sum(state.queue_seconds for state in pending),
            harvest_seconds=sum(state.harvest_seconds for state in pending),
            requeue_wait_seconds=sum(state.requeue_seconds for state in pending),
            metrics=metrics.snapshot(),
            backend=self._backend.name,
            degraded=summary.degraded,
        )
        if summary.interrupted:
            raise RunInterrupted(results, stats)
        return results, stats

    # ------------------------------------------------------------------
    # Signal plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _install_sigterm_handler():
        """Convert SIGTERM into KeyboardInterrupt for the run's duration.

        Makes ``kill <pid>`` leave the same clean, resumable state as
        Ctrl-C.  Only possible on the main thread; elsewhere SIGTERM
        keeps its default (process-fatal) behaviour.
        """
        if threading.current_thread() is not threading.main_thread():
            return None
        if not hasattr(signal, "SIGTERM"):
            return None
        supervisor_pid = os.getpid()

        def _on_sigterm(signum, frame):
            if os.getpid() != supervisor_pid:
                # Inherited across fork: a pool worker terminated before
                # its initializer reset the handler.  Die quietly instead
                # of raising into the child's bootstrap code.
                os._exit(128 + signum)
            raise KeyboardInterrupt("SIGTERM")

        try:
            return signal.signal(signal.SIGTERM, _on_sigterm)
        except (ValueError, OSError):
            return None

    @staticmethod
    def _restore_sigterm_handler(previous) -> None:
        if previous is None:
            return
        try:
            signal.signal(signal.SIGTERM, previous)
        except (ValueError, OSError):
            pass


def run_tasks(
    tasks: Sequence[AnyTask],
    *,
    engine: str = "fluid-batched",
    paranoia: str = "off",
    shadow_sample: float = 0.0,
    **runner,
) -> List[SimulationResult]:
    """Run ``tasks`` under one set of execution options.

    This is the option list of every evaluation driver (the sweeps in
    :mod:`repro.sim.experiments`, :func:`~repro.sim.batch.run_batch`,
    :func:`~repro.sim.montecarlo.monte_carlo_lifetime` and
    :func:`~repro.sim.sensitivity.sensitivity_analysis`): each builds its
    tasks and forwards its ``**run`` keywords here.

    The task options are stamped on every task:

    engine:
        Lifetime engine (see :data:`repro.sim.lifetime.ENGINES`).
    paranoia / shadow_sample:
        State-integrity verification knobs (see :mod:`repro.verify`);
        results are bit-identical across levels.

    Every other keyword goes to :class:`SimRunner` (``jobs``, ``cache``,
    ``policy``, ``checkpoint``, ``metrics``, ``backend``,
    ``on_result``); an unknown one raises ``TypeError``.
    Results come back in task order.
    """
    stamped = [
        dataclasses.replace(
            task, engine=engine, paranoia=paranoia, shadow_sample=shadow_sample
        )
        for task in tasks
    ]
    return SimRunner(**runner).run(stamped)
