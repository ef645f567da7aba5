"""Executor protocol: one supervision contract, many execution backends.

:class:`~repro.sim.runner.SimRunner` owns everything that is backend
agnostic -- task identity, cache/checkpoint scanning, result delivery,
stats -- and delegates the actual *supervised execution* of the pending
tasks to an :class:`ExecutorBackend`.  Two backends ship with the repo:

* the in-tree process pool (``"pool"``, the default) -- jobs worth of
  local worker processes under the PR-3 supervisor (deadlines, retry
  backoff, crash isolation, innocent-requeue on pool teardown); and
* the multi-host fabric (``"fabric"``, :mod:`repro.fabric`) -- a
  socket-served coordinator handing lease-guarded work to remote worker
  loops, with work stealing, per-shard checkpoint ledgers, and graceful
  degradation onto survivors.

The contract is deliberately small: a backend receives the pending
:class:`SupervisedTask` states and must deliver every completion through
``on_complete`` *on the calling thread* (the callback touches the cache
and the primary checkpoint journal, which are not thread-safe), filling
an :class:`ExecutionSummary` with whatever did not complete.  Retry
bookkeeping is shared via :func:`handle_attempt_failure` /
:func:`mark_skipped` so every backend charges attempts, honors
:class:`~repro.sim.resilience.ResiliencePolicy` backoff, and shapes
:class:`~repro.sim.resilience.FailureRecord` entries identically --
that uniformity is what keeps fault-injected runs bit-identical across
backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from time import monotonic
from typing import Callable, Dict, Optional, Sequence, TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.sim.resilience import FailureRecord, ResiliencePolicy, is_retryable
from repro.util.events import EventLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.sim.resilience import Checkpoint
    from repro.sim.result import SimulationResult


@dataclass
class SupervisedTask:
    """Mutable supervision state of one pending task.

    ``elapsed`` accumulates *worker-measured* run time only (plus, for
    attempts that died without a worker report, the supervisor-observed
    attempt wall).  Pool queue wait, harvest latency, and time sat in a
    doomed pool are tracked separately -- they are supervisor overhead,
    not task runtime.

    ``attempts`` counts *started* attempts; the 0-based attempt number a
    backend passes to ``_execute_supervised`` (which seeds the fault
    injector's deterministic rolls) is the value *before* incrementing.
    Innocent requeues -- a task pulled back unrun from a torn-down pool
    or an expired lease -- decrement ``attempts`` so the re-dispatch
    replays the same attempt number, keeping injected faults and retry
    backoff bit-identical to an unperturbed schedule.
    """

    index: int
    task: object
    key: str
    label: str
    attempts: int = 0
    not_before: float = 0.0
    elapsed: float = 0.0
    queue_seconds: float = 0.0
    harvest_seconds: float = 0.0
    requeue_seconds: float = 0.0


@dataclass
class ExecutionSummary:
    """What a supervised execution pass observed.

    ``jobs_used`` is the parallelism the backend actually achieved (a
    pool falls back to 1 for unpicklable or tiny batches; the fabric
    reports surviving workers).  ``degraded`` flags a run that finished
    on fewer resources than requested -- completed, but worth surfacing
    in stats rather than silently shrugging off dead workers.
    """

    failures: Dict[int, FailureRecord] = field(default_factory=dict)
    retries: int = 0
    pool_respawns: int = 0
    interrupted: bool = False
    jobs_used: int = 1
    degraded: bool = False


#: Completion callback: ``(state, result, elapsed_seconds)``.
CompletionCallback = Callable[[SupervisedTask, object, float], None]


class ExecutorBackend(ABC):
    """Strategy interface for supervised execution of pending tasks."""

    #: Spec name (``"pool"`` / ``"fabric"``), for stats and error text.
    name: str = "backend"

    @abstractmethod
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
        """Run every pending task under supervision.

        Must call ``on_complete`` exactly once per completed state, on
        the calling thread, and record each terminal non-completion in
        the summary's ``failures``.  ``checkpoint`` (when attached) lets
        distributed backends derive per-shard ledger paths; the primary
        journal itself is written by ``on_complete`` on the caller, so
        backends must never append to it directly.
        """


def handle_attempt_failure(
    policy: ResiliencePolicy,
    state: SupervisedTask,
    error: BaseException,
    kind: str,
    ready: "deque[SupervisedTask]",
    summary: ExecutionSummary,
    events: EventLog,
) -> None:
    """Retry ``state`` with backoff, or record its terminal failure.

    The shared arbiter for every backend: one attempt has been charged,
    and either the policy grants a retry (backoff stamped into
    ``not_before``, state appended to ``ready``) or the task is failed
    with a structured :class:`~repro.sim.resilience.FailureRecord`.
    """
    events.record(
        f"task-{kind}",
        state.index,
        key=state.key[:12],
        attempt=state.attempts,
        error=type(error).__name__,
    )
    if state.attempts < policy.max_attempts and is_retryable(error):
        summary.retries += 1
        state.not_before = monotonic() + policy.retry_delay(
            state.key, state.attempts
        )
        events.record("task-retry", state.index, attempt=state.attempts)
        ready.append(state)
        return
    summary.failures[state.index] = FailureRecord.from_exception(
        index=state.index,
        key=state.key,
        label=state.label,
        kind=kind,
        attempts=state.attempts,
        error=error,
        elapsed_seconds=state.elapsed,
    )
    events.record(
        "task-failed", state.index, failure_kind=kind, attempts=state.attempts
    )


def mark_skipped(
    ready: "deque[SupervisedTask]",
    summary: ExecutionSummary,
    kind: str = "skipped",
) -> None:
    """Fail every still-queued state as ``kind`` (fail-fast / interrupt)."""
    while ready:
        state = ready.popleft()
        summary.failures[state.index] = FailureRecord(
            index=state.index,
            key=state.key,
            label=state.label,
            kind=kind,
            attempts=state.attempts,
        )
