"""The fabric coordinator: lease-guarded work-stealing task server.

Runs inside the supervisor process.  An accept thread hands each worker
connection to a handler thread; every mutation of shared state happens
under one lock, and everything that must execute on the *calling* thread
(cache writes, primary-checkpoint appends, retry arbitration) is pushed
through ``outbox`` for :class:`~repro.fabric.backend.FabricBackend` to
drain.

Robustness model
----------------
* **Leases.**  A fetched task is leased to the worker; the lease is
  renewed by heartbeats and expires after ``lease_ttl`` without one.
  Expiry of a task's *last* lease is an innocent requeue: the attempt
  charged at grant time is refunded, so the re-dispatch replays the same
  attempt number and the same injected-fault rolls -- the distributed
  analogue of the pool's torn-down-pool requeue.
* **Stealing.**  A worker that finds the ready queue empty may be
  granted a *duplicate* lease on the oldest outstanding lease past half
  its TTL (at most two leases per task), under the *same* attempt
  number.  Whichever copy commits first wins; the loser's commit is a
  counted duplicate.
* **Idempotent commits.**  Commits are keyed on the task's SHA-256
  content key; the first wins, every later one (steal loser, duplicated
  frame, partition-healed straggler) is acknowledged and dropped.
  At-least-once message delivery therefore yields effectively-once
  completion.  A commit landing *after* the task was terminally failed
  or requeued still counts -- it heals the failure (``late_commits``).
* **Worker death.**  EOF on a connection holding an active lease is the
  crash verdict (charged, retryable), mirroring the pool's
  ``BrokenProcessPool`` path.  If a sibling lease is still running the
  loss is absorbed silently -- the survivor decides the task's fate.
* **Coordinator death.**  Every grant, commit, and lease release is
  journaled to an append-only fsynced :class:`CoordinatorLedger` (same
  torn-tail-tolerant idiom as the result :class:`~repro.sim.resilience.
  Checkpoint`).  A restarted coordinator replays the ledger to rebuild
  the done-set and every outstanding lease under its original id, so
  workers that reconnect keep heartbeating and committing against the
  leases they already hold; anything the ledger cannot prove was leased
  goes back on the ready queue.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from collections import deque

from repro.fabric.wire import FrameError, recv_frame, send_frame
from repro.obs.metrics import MetricsRegistry
from repro.sim.executor import SupervisedTask
from repro.util.events import EventLog


class WorkerCrash(RuntimeError):
    """A worker connection died while holding an active lease."""

    #: Honored by :func:`repro.sim.resilience.is_retryable`.
    retryable = True


class RemoteTaskError(RuntimeError):
    """A task attempt failed on a remote worker.

    Carries the worker-side exception's type name and retry verdict so
    the supervisor's shared retry arbiter treats remote failures exactly
    like local ones without unpickling arbitrary exception objects.
    """

    def __init__(self, error_type: str, message: str, retryable: bool) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.retryable = bool(retryable)


@dataclass
class Lease:
    """One outstanding grant of a task to a worker."""

    lease_id: int
    state: SupervisedTask
    worker: str
    attempt: int
    granted: float
    last_beat: float
    stolen: bool = False


@dataclass
class _TaskSlot:
    """Coordinator-side bookkeeping for one supervised task."""

    state: SupervisedTask
    leases: Set[int] = field(default_factory=set)
    done: bool = False


#: Schema header value of coordinator ledger files.
COORDINATOR_LEDGER_SCHEMA: int = 1


@dataclass
class LedgerSnapshot:
    """Control-plane state recovered from a coordinator ledger replay."""

    done_keys: Set[str] = field(default_factory=set)
    #: ``lease_id -> {"key", "worker", "attempt", "stolen"}``
    leases: Dict[int, dict] = field(default_factory=dict)
    next_lease: int = 0


class CoordinatorLedger:
    """Append-only fsynced journal of coordinator control-plane events.

    One JSON line per event -- ``grant`` (lease id, task key, worker,
    attempt, stolen), ``commit`` (task key), ``release`` (lease id) --
    after a schema header line, flushed and fsynced per append exactly
    like the result :class:`~repro.sim.resilience.Checkpoint`.  Replay
    stops-and-skips on torn or corrupt lines, so the ledger survives a
    kill at any instant with at most the in-flight event lost.

    The ledger holds *control-plane* state only: which tasks are proven
    done and which leases are outstanding.  Result durability is the
    workers' shard ledgers' job.  Appends are best-effort -- an
    ``OSError`` (disk full, dead mount) disables the ledger rather than
    failing the run, degrading a future restart to "requeue everything"
    (still convergent, since commits are idempotent; just more
    redundant re-execution).
    """

    def __init__(self, path: "str | Path", *, resume: bool = True) -> None:
        self._path = Path(path)
        self._header_written = False
        self._disabled = False
        if not resume and self._path.exists():
            try:
                self._path.unlink()
            except OSError:
                self._disabled = True

    @property
    def path(self) -> Path:
        return self._path

    @property
    def disabled(self) -> bool:
        """Whether a write error degraded this ledger to a no-op."""
        return self._disabled

    def append(self, event: dict) -> None:
        """Journal one event (flush + fsync; best effort)."""
        if self._disabled:
            return
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with open(self._path, "a", encoding="utf-8") as handle:
                if not self._header_written and handle.tell() == 0:
                    handle.write(
                        json.dumps({"coordinator_schema": COORDINATOR_LEDGER_SCHEMA})
                    )
                    handle.write("\n")
                self._header_written = True
                handle.write(json.dumps(event))
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            self._disabled = True

    def replay(self) -> LedgerSnapshot:
        """Rebuild the done-set and outstanding leases from the journal.

        A missing file, foreign header, or torn tail degrades to an
        empty (or truncated) snapshot -- never an exception.
        """
        snapshot = LedgerSnapshot()
        if not self._path.exists():
            return snapshot
        try:
            lines = self._path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return snapshot
        if not lines:
            return snapshot
        try:
            header = json.loads(lines[0])
        except ValueError:
            return snapshot
        if not isinstance(header, dict) or (
            header.get("coordinator_schema") != COORDINATOR_LEDGER_SCHEMA
        ):
            return snapshot
        for line in lines[1:]:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                kind = event["event"]
            except (ValueError, KeyError, TypeError):
                continue
            if kind == "grant":
                try:
                    lease_id = int(event["lease"])
                    snapshot.leases[lease_id] = {
                        "key": str(event["key"]),
                        "worker": str(event.get("worker", "?")),
                        "attempt": int(event.get("attempt", 0)),
                        "stolen": bool(event.get("stolen", False)),
                    }
                except (KeyError, TypeError, ValueError):
                    continue
                snapshot.next_lease = max(snapshot.next_lease, lease_id + 1)
            elif kind == "commit":
                key = event.get("key")
                if isinstance(key, str):
                    snapshot.done_keys.add(key)
            elif kind == "release":
                try:
                    snapshot.leases.pop(int(event["lease"]), None)
                except (KeyError, TypeError, ValueError):
                    continue
        return snapshot


class Coordinator:
    """Socket-served task queue with leases, stealing, idempotent commits.

    ``outbox`` carries ``("complete", state, report, granted, late)``
    and ``("verdict", state, error, kind)`` tuples to the backend's
    supervisor loop; nothing user-visible runs on coordinator threads.
    """

    def __init__(
        self,
        pending: Sequence[SupervisedTask],
        *,
        lease_ttl: float,
        metrics: MetricsRegistry,
        events: EventLog,
        host: str = "127.0.0.1",
        port: int = 0,
        parked: Sequence[SupervisedTask] = (),
        ledger: Optional[CoordinatorLedger] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self._lease_ttl = float(lease_ttl)
        self._metrics = metrics
        self._events = events
        self.lock = threading.Lock()
        self.ready: Deque[SupervisedTask] = deque(pending)
        self._slots: Dict[str, _TaskSlot] = {
            state.key: _TaskSlot(state=state) for state in pending
        }
        # Parked tasks (e.g. terminally failed, awaiting a possible late
        # commit to heal them) get a slot -- so their commits still
        # resolve -- but never enter the ready queue.
        for state in parked:
            self._slots.setdefault(state.key, _TaskSlot(state=state))
        self._leases: Dict[int, Lease] = {}
        self._next_lease = 0
        self._shutdown = False
        self._ledger = ledger
        self.outbox: "queue.Queue[tuple]" = queue.Queue()
        if ledger is not None:
            self._restore(ledger.replay())

        self._listener = socket.create_server((host, port), backlog=64)
        self._listener.settimeout(0.2)
        self._closing = threading.Event()
        self._crashed = False
        self._conns: Set[socket.socket] = set()
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-accept", daemon=True
        )
        self._accept_thread.start()

    def _restore(self, snapshot: LedgerSnapshot) -> None:
        """Rebuild outstanding leases from a ledger replay (restart path).

        Only leases over tasks this incarnation actually manages (and
        that the ledger does not prove done) are restored; each keeps
        its original lease id -- the id the worker holding it will keep
        heartbeating and committing with -- under a fresh
        ``last_beat``, so a lease whose worker really died simply
        expires one TTL later and requeues innocently.
        """
        now = monotonic()
        restored = 0
        for lease_id, info in sorted(snapshot.leases.items()):
            slot = self._slots.get(info["key"])
            if slot is None or slot.done or info["key"] in snapshot.done_keys:
                continue
            lease = Lease(
                lease_id=lease_id,
                state=slot.state,
                worker=info["worker"],
                attempt=info["attempt"],
                granted=now,
                last_beat=now,
                stolen=info["stolen"],
            )
            self._leases[lease_id] = lease
            slot.leases.add(lease_id)
            restored += 1
            try:
                self.ready.remove(slot.state)
            except ValueError:
                pass
        self._next_lease = max(self._next_lease, snapshot.next_lease)
        if restored:
            self._metrics.inc("fabric.leases_restored", restored)

    # ------------------------------------------------------------------
    # Supervisor-facing surface
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` workers should connect to."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def lease_ttl(self) -> float:
        return self._lease_ttl

    def listener_fileno(self) -> int:
        """Raw fd of the listening socket.

        Workers forked from the supervisor inherit a copy of this fd and
        must close it immediately: a forked copy left open keeps the
        port in LISTEN after :meth:`crash` closes the supervisor's copy,
        which both blocks the replacement coordinator's rebind
        (``EADDRINUSE`` despite ``SO_REUSEADDR``) and silently swallows
        worker reconnects into a queue nobody will ever accept from.
        """
        return self._listener.fileno()

    def request_shutdown(self) -> None:
        """Make every subsequent fetch answer ``shutdown``."""
        with self.lock:
            self._shutdown = True

    def _stop_listening(self) -> None:
        """Close the listener and wake the accept thread at once.

        ``shutdown`` makes an ``accept`` blocked in the accept thread
        return immediately; closing the socket alone leaves it blocked
        until its poll timeout, so every execute would end on a 0.2 s
        tick after the last worker connected.
        """
        self._closing.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass

    def close(self) -> None:
        """Stop accepting, close the listener, and join handler threads."""
        self._stop_listening()
        self._accept_thread.join(timeout=2.0)
        for thread in self._threads:
            thread.join(timeout=2.0)

    def crash(self) -> Tuple[str, int]:
        """Die abruptly, as a killed coordinator process would.

        Every worker connection is torn down mid-stream (workers see
        :class:`~repro.fabric.wire.ChannelClosed` and enter their
        reconnect backoff), *without* charging the usual EOF-holding-a-
        lease crash verdicts -- the workers are fine, the coordinator is
        the casualty, and the replacement rebuilt from the ledger will
        honor the leases they still hold.  Returns the ``(host, port)``
        the replacement must rebind (``create_server`` sets
        ``SO_REUSEADDR``, so the port is immediately reusable).

        The in-memory ``outbox`` survives -- it lives in the supervisor
        process, which drains it before rebuilding, exactly as a real
        restart would first absorb the journal's committed tail.
        """
        host, port = self.address
        self._crashed = True
        self._stop_listening()
        for conn in list(self._conns):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=2.0)
        for thread in self._threads:
            thread.join(timeout=2.0)
        return host, port

    def active_leases(self) -> int:
        """Leases outstanding over *undecided* tasks.

        A steal loser's lease over an already-committed task is excluded:
        it is administrative residue awaiting its duplicate commit (or
        TTL expiry), not a task anyone is still waiting on.  This is the
        "zero orphaned leases after recovery" number the backend gauges.
        """
        with self.lock:
            undecided = 0
            for lease in self._leases.values():
                slot = self._slots.get(lease.state.key)
                if slot is None or not slot.done:
                    undecided += 1
            return undecided

    def take_ready(self) -> List[SupervisedTask]:
        """Drain the ready queue (degraded local-fallback path)."""
        with self.lock:
            drained = [
                state for state in self.ready if not self._slots[state.key].done
            ]
            self.ready.clear()
            return drained

    def expire_leases(self, now: Optional[float] = None) -> int:
        """Expire leases past the TTL; returns how many lapsed.

        The last lease of a task requeues it innocently (attempt
        refunded); a lease with a surviving sibling is dropped silently.
        """
        if now is None:
            now = monotonic()
        expired = 0
        with self.lock:
            for lease_id, lease in list(self._leases.items()):
                if now - lease.last_beat <= self._lease_ttl:
                    continue
                expired += 1
                self._metrics.inc("fabric.leases_expired")
                self._events.record(
                    "lease-expired",
                    lease.state.index,
                    key=lease.state.key[:12],
                    worker=lease.worker,
                )
                self._drop_lease(lease_id, requeue=True)
        return expired

    def expire_all_leases(self) -> int:
        """Force-expire every lease (all workers known dead)."""
        expired = 0
        with self.lock:
            for lease_id in list(self._leases):
                expired += 1
                self._metrics.inc("fabric.leases_expired")
                self._drop_lease(lease_id, requeue=True)
        return expired

    # ------------------------------------------------------------------
    # Shared-state helpers (call with ``self.lock`` held)
    # ------------------------------------------------------------------

    def _drop_lease(self, lease_id: int, *, requeue: bool) -> None:
        """Remove a lease; requeue its task if it was the last copy."""
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return
        if self._ledger is not None:
            self._ledger.append({"event": "release", "lease": lease_id})
        slot = self._slots[lease.state.key]
        slot.leases.discard(lease_id)
        if slot.done or slot.leases:
            return
        if requeue:
            # Innocent requeue: refund the attempt charged at grant so
            # the re-dispatch replays the same attempt number (and the
            # same deterministic fault rolls).
            lease.state.attempts = lease.attempt
            self.ready.append(lease.state)
            self._metrics.inc("fabric.requeues")
            self._events.record(
                "task-requeued", lease.state.index, key=lease.state.key[:12]
            )

    def _grant(self, state: SupervisedTask, worker: str, *, attempt: int,
               stolen: bool) -> dict:
        now = monotonic()
        lease_id = self._next_lease
        self._next_lease += 1
        lease = Lease(
            lease_id=lease_id,
            state=state,
            worker=worker,
            attempt=attempt,
            granted=now,
            last_beat=now,
            stolen=stolen,
        )
        self._leases[lease_id] = lease
        self._slots[state.key].leases.add(lease_id)
        if self._ledger is not None:
            self._ledger.append(
                {
                    "event": "grant",
                    "lease": lease_id,
                    "key": state.key,
                    "worker": worker,
                    "attempt": attempt,
                    "stolen": stolen,
                }
            )
        self._metrics.inc("fabric.leases_granted")
        if stolen:
            self._metrics.inc("fabric.steals")
            self._events.record(
                "task-stolen", state.index, key=state.key[:12], worker=worker
            )
        return {
            "type": "task",
            "lease": lease_id,
            "key": state.key,
            "task": state.task,
            "attempt": attempt,
            "label": state.label,
        }

    # ------------------------------------------------------------------
    # Connection handling (coordinator threads)
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve, args=(conn,), name="fabric-conn", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve(self, conn: socket.socket) -> None:
        """Answer one worker connection until EOF.

        Tracks the lease currently held *through this connection* so a
        dead worker (EOF mid-task) is charged as a crash -- unless a
        sibling (stolen) lease survives to decide the task instead.
        """
        current_lease: Optional[int] = None
        try:
            while True:
                try:
                    message = recv_frame(conn)
                except (FrameError, OSError):
                    message = None
                if message is None:
                    break
                reply = self._dispatch(message)
                if message.get("type") == "fetch":
                    current_lease = (
                        reply["lease"] if reply.get("type") == "task" else None
                    )
                elif message.get("type") in ("commit", "fail"):
                    if message.get("lease") == current_lease:
                        current_lease = None
                try:
                    send_frame(conn, reply)
                except OSError:
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass
            self._conns.discard(conn)
            # A crashed coordinator charges nobody: the worker behind
            # this EOF is alive, and its (journaled) lease survives into
            # the rebuilt coordinator.
            if current_lease is not None and not self._crashed:
                self._on_connection_lost(current_lease)

    def _on_connection_lost(self, lease_id: int) -> None:
        with self.lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                return
            slot = self._slots[lease.state.key]
            survivors = len(slot.leases) - 1
            self._drop_lease(lease_id, requeue=False)
            if slot.done or survivors > 0:
                return
            self._metrics.inc("fabric.worker_crashes")
        self.outbox.put(
            (
                "verdict",
                lease.state,
                WorkerCrash(
                    f"worker {lease.worker} died holding lease {lease_id} "
                    f"(task {lease.state.key[:12]}..., attempt {lease.attempt})"
                ),
                "crash",
            )
        )

    def _dispatch(self, message: dict) -> dict:
        kind = message.get("type")
        if kind == "fetch":
            return self._handle_fetch(message)
        if kind == "commit":
            return self._handle_commit(message)
        if kind == "fail":
            return self._handle_fail(message)
        if kind == "heartbeat":
            return self._handle_heartbeat(message)
        return {"type": "error", "error": f"unknown message type {kind!r}"}

    def _handle_fetch(self, message: dict) -> dict:
        worker = str(message.get("worker", "?"))
        now = monotonic()
        with self.lock:
            if self._shutdown:
                return {"type": "shutdown"}
            # Ready work first: skip states already committed via a late
            # or duplicate path, honor retry backoff stamps.
            for _ in range(len(self.ready)):
                state = self.ready.popleft()
                if self._slots[state.key].done:
                    continue
                if state.not_before > now:
                    self.ready.append(state)
                    continue
                attempt = state.attempts
                state.attempts += 1
                return self._grant(state, worker, attempt=attempt, stolen=False)
            # Nothing queued: steal the oldest lease past half its TTL
            # (same attempt number; at most two leases per task).
            candidate: Optional[Lease] = None
            for lease in self._leases.values():
                slot = self._slots[lease.state.key]
                if slot.done or len(slot.leases) >= 2:
                    continue
                if lease.worker == worker:
                    continue
                if now - lease.granted < self._lease_ttl / 2.0:
                    continue
                if candidate is None or lease.granted < candidate.granted:
                    candidate = lease
            if candidate is not None:
                return self._grant(
                    candidate.state,
                    worker,
                    attempt=candidate.attempt,
                    stolen=True,
                )
            return {"type": "wait"}

    def _handle_commit(self, message: dict) -> dict:
        key = message.get("key")
        lease_id = message.get("lease")
        report = message.get("report")
        with self.lock:
            slot = self._slots.get(key)
            if slot is None:
                return {"type": "ack", "accepted": False}
            if slot.done:
                # Steal loser, duplicated frame, or retransmitted commit:
                # the first commit already decided this task.
                self._metrics.inc("fabric.duplicate_commits")
                self._drop_lease(lease_id, requeue=False)
                return {"type": "ack", "accepted": False}
            slot.done = True
            # Journal the commit *before* the release _drop_lease writes,
            # so a crash between the two replays as done-with-orphaned-
            # lease (the restore path skips leases over done keys) rather
            # than as still-pending.
            if self._ledger is not None:
                self._ledger.append({"event": "commit", "key": key})
            lease = self._leases.get(lease_id)
            granted = lease.granted if lease is not None else None
            # A commit whose lease already expired (partition healed,
            # failure overturned) is late but binding.
            late = lease is None
            if late:
                self._metrics.inc("fabric.late_commits")
            self._drop_lease(lease_id, requeue=False)
            # Drop any requeued copy still sitting in the ready queue.
            try:
                self.ready.remove(slot.state)
            except ValueError:
                pass
        self.outbox.put(("complete", slot.state, report, granted, late))
        return {"type": "ack", "accepted": True}

    def _handle_fail(self, message: dict) -> dict:
        key = message.get("key")
        lease_id = message.get("lease")
        with self.lock:
            slot = self._slots.get(key)
            if slot is None:
                return {"type": "ack", "accepted": False}
            lease = self._leases.get(lease_id)
            survivors = len(slot.leases) - (1 if lease is not None else 0)
            self._drop_lease(lease_id, requeue=False)
            if slot.done or survivors > 0 or lease is None:
                # A sibling lease is still running (or already decided
                # the task): absorb this copy's failure silently.
                return {"type": "ack", "accepted": False}
        error = RemoteTaskError(
            str(message.get("error_type", "Exception")),
            str(message.get("error_text", "")),
            bool(message.get("retryable", True)),
        )
        self.outbox.put(("verdict", slot.state, error, message.get("kind", "exception")))
        return {"type": "ack", "accepted": True}

    def _handle_heartbeat(self, message: dict) -> dict:
        lease_id = message.get("lease")
        with self.lock:
            lease = self._leases.get(lease_id)
            if lease is None:
                return {"type": "ack", "valid": False}
            lease.last_beat = monotonic()
            return {"type": "ack", "valid": True}
