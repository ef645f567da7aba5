"""The fabric worker loop: fetch, execute, journal to a shard, commit.

Each worker is a separate process running :func:`worker_main`.  It
shares the pool workers' execution entry point
(:func:`repro.sim.runner._execute_supervised`) and fault harness, so a
task attempt rolls exactly the same injected faults under either
backend -- the cornerstone of cross-backend bit-identical results.

Per-task flow::

    fetch ──► (partition? suppress heartbeats)
          ──► slow-worker stall
          ──► execute under the policy timeout (hang breaker)
          ──► append to the worker's own shard ledger   (durability)
          ──► (partition? sleep out the outage)
          ──► commit over the wire                      (delivery)

The shard ledger is written *before* the commit: if the commit frame is
lost or the coordinator dies, the result still survives on disk and the
next run's ``merge_shards`` resumes it.  The commit itself rides the
fault-perturbed :class:`~repro.fabric.wire.Channel`, so drops
retransmit and duplicates exercise the coordinator's idempotent path.

Crash faults hard-exit the process (``os._exit``), exactly like a pool
worker: the coordinator sees EOF on a live lease and charges the
attempt as a crash.

A dead coordinator socket is *not* fatal: every request retries through
capped, jittered exponential backoff (:func:`_request_with_backoff`), so
a worker rides out a coordinator crash-restart and then resumes against
the rebuilt endpoint -- committing under the same lease id the ledger
restored.  Only after ``RECONNECT_MAX_ATTEMPTS`` consecutive failures
does the worker conclude the coordinator is gone for good and exit
cleanly.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.fabric.wire import Channel, ChannelClosed, one_shot_request
from repro.sim.faults import active_injector, mark_worker_process
from repro.sim.resilience import (
    Checkpoint,
    CheckpointWriteError,
    TaskTimeout,
    is_retryable,
    time_limit,
)

#: Poll interval while the coordinator has nothing ready to hand out.
IDLE_POLL_SECONDS: float = 0.05

#: First reconnect delay; doubles per consecutive failure.
RECONNECT_BASE_SECONDS: float = 0.05

#: Ceiling on a single reconnect delay.
RECONNECT_CAP_SECONDS: float = 2.0

#: Consecutive connection failures before a worker gives up cleanly.
RECONNECT_MAX_ATTEMPTS: int = 12


def _reconnect_delay(worker_id: str, attempt: int) -> float:
    """Backoff before reconnect ``attempt``: exponential, capped, with
    deterministic jitter in ``[0.5, 1.5) ×`` so a restarted
    coordinator is not met by a synchronized thundering herd -- yet two
    runs of the same campaign still sleep identically."""
    base = min(RECONNECT_BASE_SECONDS * (2 ** attempt), RECONNECT_CAP_SECONDS)
    digest = hashlib.sha256(f"reconnect:{worker_id}:{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:8], "little") / 2**64
    return base * (0.5 + jitter)


def _request_with_backoff(
    channel: Channel, message: dict, worker_id: str
) -> Optional[dict]:
    """One request/reply, riding out coordinator downtime.

    Retrying is safe for every worker message: fetches are stateless,
    commits are idempotent (first wins), and fail reports for decided
    tasks are absorbed.  Returns ``None`` once
    :data:`RECONNECT_MAX_ATTEMPTS` consecutive attempts failed -- the
    worker's signal to degrade out cleanly.
    """
    for attempt in range(RECONNECT_MAX_ATTEMPTS + 1):
        try:
            return channel.request(message)
        except ChannelClosed:
            if attempt >= RECONNECT_MAX_ATTEMPTS:
                break
            time.sleep(_reconnect_delay(worker_id, attempt))
    return None


class _Heartbeat(threading.Thread):
    """Renew one lease every ``interval`` seconds until stopped.

    Each beat is a one-shot connection so it never interleaves with the
    control channel the main thread is blocked on.  Failures are
    swallowed: a missed beat is exactly the condition leases exist to
    survive.
    """

    def __init__(
        self, address: Tuple[str, int], worker: str, lease: int, interval: float
    ) -> None:
        super().__init__(name=f"heartbeat-{lease}", daemon=True)
        self._address = address
        self._worker = worker
        self._lease = lease
        self._interval = interval
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self._interval):
            one_shot_request(
                self._address,
                {"type": "heartbeat", "worker": self._worker, "lease": self._lease},
            )

    def stop(self) -> None:
        self._stop.set()


def worker_main(
    host: str,
    port: int,
    worker_id: str,
    fault_spec: str = "",
    timeout: Optional[float] = None,
    lease_ttl: float = 10.0,
    shard_ledger: Optional[str] = None,
    close_fds: Sequence[int] = (),
) -> None:
    """Run the worker loop until the coordinator says shutdown.

    ``timeout`` is the resilience policy's per-attempt wall budget,
    enforced worker-side (the coordinator cannot kill a remote attempt)
    -- it is what breaks injected hangs.  ``shard_ledger`` is this
    worker's private checkpoint journal path.  ``close_fds`` names
    control-plane fds this (forked) process inherited and must not keep
    alive -- above all the coordinator's listener: a worker-held copy
    would pin the port in LISTEN across a coordinator crash, blocking
    the replacement's rebind and black-holing sibling reconnects.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass  # already closed, or a start method that didn't inherit it
    # Installs the fault injector, resets SIGTERM, ignores SIGINT --
    # identical bootstrap to a process-pool worker.
    mark_worker_process(fault_spec)
    from repro.sim.runner import _execute_supervised

    shard: Optional[Checkpoint] = None
    if shard_ledger:
        # resume=True: a pre-existing shard under this id (same worker id
        # re-spawned after a crashed run, or a coordinator restart) must
        # *merge* with the new records, never be clobbered -- appends are
        # idempotent per content key, so re-executed tasks land once.
        shard = Checkpoint(Path(shard_ledger), resume=True)
    channel = Channel((host, port), name=f"worker-{worker_id}")
    injector = active_injector()
    heartbeat_interval = max(lease_ttl / 3.0, 0.01)
    lease_seq = 0

    try:
        while True:
            reply = _request_with_backoff(
                channel, {"type": "fetch", "worker": worker_id}, worker_id
            )
            if reply is None:
                return
            kind = reply.get("type")
            if kind == "shutdown":
                return
            if kind != "task":
                time.sleep(IDLE_POLL_SECONDS)
                continue

            lease_id = reply["lease"]
            task = reply["task"]
            key = reply["key"]
            attempt = reply["attempt"]
            lease_seq += 1

            # A partitioned worker falls silent: no heartbeats, and the
            # commit is deferred past the lease TTL, so the coordinator
            # expires the lease and requeues -- then the late commit
            # arrives when the partition heals.
            partitioned = (
                injector.partition_now(f"worker-{worker_id}", lease_seq)
                if injector is not None
                else False
            )
            beat: Optional[_Heartbeat] = None
            if not partitioned:
                beat = _Heartbeat(
                    (host, port), worker_id, lease_id, heartbeat_interval
                )
                beat.start()
            stall = (
                injector.slow_worker_stall(key, attempt)
                if injector is not None
                else 0.0
            )
            try:
                if stall:
                    time.sleep(stall)
                try:
                    with time_limit(timeout):
                        report = _execute_supervised(task, key, attempt)
                except TaskTimeout as error:
                    message = _fail_message(
                        worker_id, lease_id, key, error, "timeout"
                    )
                except Exception as error:
                    message = _fail_message(
                        worker_id, lease_id, key, error, "exception"
                    )
                else:
                    if shard is not None:
                        try:
                            shard.append(
                                key,
                                report.result,
                                report.elapsed,
                                getattr(task, "label", ""),
                            )
                        except CheckpointWriteError:
                            # The shard is durability, not delivery: a
                            # full disk must not kill the attempt.
                            pass
                    message = {
                        "type": "commit",
                        "worker": worker_id,
                        "lease": lease_id,
                        "key": key,
                        "report": report,
                    }
                if partitioned and injector is not None:
                    time.sleep(injector.spec.partition_seconds)
            finally:
                if beat is not None:
                    beat.stop()
            if _request_with_backoff(channel, message, worker_id) is None:
                return
    finally:
        channel.close()


def _fail_message(
    worker_id: str, lease_id: int, key: str, error: BaseException, kind: str
) -> dict:
    return {
        "type": "fail",
        "worker": worker_id,
        "lease": lease_id,
        "key": key,
        "kind": kind,
        "error_type": type(error).__name__,
        "error_text": str(error),
        "retryable": is_retryable(error),
    }
