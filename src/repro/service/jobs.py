"""Job records: the unit of work the service queues, runs, and serves.

A :class:`Job` is one submitted ``RunSpec`` batch with an identity, a
tenant, a status machine, and an append-only event stream that clients
poll or stream as NDJSON.  Jobs are plain threaded objects (a
``Condition`` guards every mutation) so the synchronous core is testable
without an event loop; the asyncio HTTP layer bridges in with
``asyncio.to_thread``.

Status machine::

    queued -> running -> done
                      -> failed

plus the O(1) shortcut ``queued -> done`` when the shared result store
already holds the batch's body (a dedup hit).  Every transition and
every per-spec result appends one event, so a streaming client sees the
job's whole history regardless of when it connects.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass, field
from time import monotonic, time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Legal job states.
STATUSES = ("queued", "running", "done", "failed")


def new_job_id() -> str:
    """Fresh opaque job identifier (``j-`` + 12 hex chars)."""
    return "j-" + uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One submitted batch, from acceptance to served results.

    Attributes
    ----------
    job_id:
        Opaque identity; also keys the job's durable record and its
        checkpoint ledger (so a restarted service resumes it).
    tenant:
        Submitting tenant (fairness/quota bucket).
    specs:
        The batch, as plain spec dicts (the wire format).
    config:
        Device-configuration overrides, as a plain dict.
    options:
        Execution options (``engine``).
    batch_key:
        Content key of (config, options, specs) -- the dedup identity
        shared with the result store.
    deadline_seconds:
        Optional per-request deadline budget, measured from
        ``submitted_at``.  A job still *queued* past its deadline is
        shed at dispatch instead of executed -- the client stopped
        caring, so burning a dispatcher on it only delays live jobs.
    submitted_at:
        Wall-clock submission instant (``time.time()``; wall clock
        because the deadline must survive a service restart, which
        resets any monotonic epoch).
    dispatch_attempts:
        How many times a dispatcher has started this job; durable, so a
        restarted service re-rolls per-dispatch fault decisions (e.g.
        ``service-kill``) under a fresh attempt number.
    """

    tenant: str
    specs: Sequence[dict]
    config: Dict
    options: Dict
    batch_key: str
    job_id: str = field(default_factory=new_job_id)
    status: str = "queued"
    error: str = ""
    dedup_hit: bool = False
    result_text: Optional[str] = None
    deadline_seconds: Optional[float] = None
    submitted_at: float = field(default_factory=time)
    dispatch_attempts: int = 0
    shed: bool = False

    def __post_init__(self) -> None:
        self._condition = threading.Condition()
        self._events: List[dict] = []
        self.add_event("queued", tenant=self.tenant, specs=len(self.specs))

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------

    def add_event(self, kind: str, **fields: object) -> None:
        """Append one event and wake every waiting streamer."""
        with self._condition:
            self._append_event_locked(kind, **fields)

    def _append_event_locked(self, kind: str, **fields: object) -> None:
        event = {"seq": len(self._events), "event": kind, "job_id": self.job_id}
        event.update(fields)
        self._events.append(event)
        self._condition.notify_all()

    def wait_events(self, cursor: int, timeout: float) -> Tuple[List[dict], bool]:
        """Events past ``cursor`` (blocking up to ``timeout`` for news).

        Returns ``(events, finished)``; ``finished`` means the job has
        reached a terminal state *and* every event has been handed out,
        so a streamer can close the connection.
        """
        deadline_waited = False
        with self._condition:
            while len(self._events) <= cursor and not self.finished and not deadline_waited:
                deadline_waited = not self._condition.wait(timeout)
            events = self._events[cursor:]
            done = self.finished and cursor + len(events) >= len(self._events)
            return events, done

    @property
    def events(self) -> List[dict]:
        """Snapshot of the full event list."""
        with self._condition:
            return list(self._events)

    @property
    def record_lock(self) -> threading.Condition:
        """Serializes this job's durable-record writers.

        Reentrant (a ``before_notify`` hook already holds it), and the
        same lock that guards the job's state: a writer that acquires
        it snapshots the *current* state, so concurrent writers (the
        submitting thread racing a dispatcher) can neither collide on
        the temp file nor overwrite a newer record with a stale one.
        """
        return self._condition

    # ------------------------------------------------------------------
    # Status machine
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.status in ("done", "failed")

    @property
    def deadline_passed(self) -> bool:
        """Whether the job's deadline budget is already spent."""
        if self.deadline_seconds is None:
            return False
        return time() > self.submitted_at + self.deadline_seconds

    def mark_running(self) -> None:
        self.status = "running"
        self.dispatch_attempts += 1
        self.add_event("started", dispatch=self.dispatch_attempts)

    def mark_shed(
        self,
        *,
        before_notify: Optional[Callable[[], None]] = None,
    ) -> None:
        """Fail the job as *shed*: its deadline passed while queued.

        A distinct event kind (and ``shed`` flag in the status document)
        separates "the service gave up admitting work it could no longer
        deliver in time" from an execution failure.
        """
        with self._condition:
            self.error = (
                f"shed: deadline of {self.deadline_seconds:g}s expired "
                "before dispatch"
            )
            self.status = "failed"
            self.shed = True
            if before_notify is not None:
                before_notify()
            self._append_event_locked(
                "shed", deadline_seconds=self.deadline_seconds
            )

    def mark_done(
        self,
        result_text: str,
        *,
        dedup: bool = False,
        before_notify: Optional[Callable[[], None]] = None,
    ) -> None:
        """Transition to ``done``.

        ``before_notify`` (e.g. persist-the-record, bump counters) runs
        with the terminal fields set but *before* any waiter can observe
        them -- the condition is held across the whole transition, so a
        ``wait()`` that returns is guaranteed to see its side effects.
        """
        with self._condition:
            self.result_text = result_text
            self.dedup_hit = dedup
            self.status = "done"
            if before_notify is not None:
                before_notify()
            self._append_event_locked("done", dedup=dedup, bytes=len(result_text))

    def mark_failed(
        self,
        error: str,
        *,
        before_notify: Optional[Callable[[], None]] = None,
    ) -> None:
        """Transition to ``failed`` (same ordering contract as mark_done)."""
        with self._condition:
            self.error = error
            self.status = "failed"
            if before_notify is not None:
                before_notify()
            self._append_event_locked("failed", error=error)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; returns whether it did."""
        deadline = None if timeout is None else monotonic() + timeout
        with self._condition:
            while not self.finished:
                remaining = None if deadline is None else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._condition.wait(remaining)
            return self.finished

    # ------------------------------------------------------------------
    # Serialization (status documents and durable records)
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Client-facing status document."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "status": self.status,
            "specs": len(self.specs),
            "events": len(self._events),
            "dedup_hit": self.dedup_hit,
            "shed": self.shed,
            "deadline_seconds": self.deadline_seconds,
            "error": self.error,
        }

    def to_record(self) -> dict:
        """Durable on-disk form (results included once done)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "specs": list(self.specs),
            "config": dict(self.config),
            "options": dict(self.options),
            "batch_key": self.batch_key,
            "status": self.status,
            "error": self.error,
            "dedup_hit": self.dedup_hit,
            "result": self.result_text,
            "deadline_seconds": self.deadline_seconds,
            "submitted_at": self.submitted_at,
            "dispatch_attempts": self.dispatch_attempts,
            "shed": self.shed,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Job":
        """Rebuild a job from its durable record.

        A job interrupted mid-flight (``queued``/``running`` at crash
        time) restarts as ``queued``; its checkpoint ledger makes the
        re-run resume rather than recompute.
        """
        deadline = record.get("deadline_seconds")
        job = cls(
            tenant=record["tenant"],
            specs=record["specs"],
            config=record.get("config", {}),
            options=record.get("options", {}),
            batch_key=record["batch_key"],
            job_id=record["job_id"],
            deadline_seconds=None if deadline is None else float(deadline),
            submitted_at=float(record.get("submitted_at", time())),
            dispatch_attempts=int(record.get("dispatch_attempts", 0)),
        )
        status = record.get("status", "queued")
        if status == "done" and record.get("result") is not None:
            job.mark_done(record["result"], dedup=bool(record.get("dedup_hit")))
        elif status == "failed":
            job.shed = bool(record.get("shed"))
            job.mark_failed(record.get("error", "unknown failure"))
        return job
