"""Multi-tenant job queue: weighted round-robin fairness plus quotas.

The service serves many tenants from one runner, so admission and
dispatch order are policy, not accident:

* **Fairness** -- dispatch cycles tenants in weighted round-robin: a
  tenant with weight ``w`` receives up to ``w`` consecutive grants
  before the pointer advances, so a tenant that dumps 10k jobs cannot
  starve one that submits a single sweep.  Within a tenant, jobs are
  FIFO.
* **Quotas** -- ``max_queued`` bounds a tenant's waiting jobs at
  *submission* time (violations raise :class:`QuotaExceeded`, which the
  HTTP layer maps to 429 -- a clean rejection, never a hang);
  ``max_concurrent`` bounds a tenant's running jobs at *dispatch* time
  (the dispatcher simply skips the tenant until a slot frees).

The queue is a plain threaded structure (one ``Condition``), shared by
the submission path and the dispatcher threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from collections import deque

from repro.service.jobs import Job


@dataclass(frozen=True)
class TenantQuota:
    """Admission and concurrency limits for one tenant."""

    weight: int = 1
    max_queued: int = 64
    max_concurrent: int = 4

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")
        if self.max_queued < 1:
            raise ValueError(f"max_queued must be >= 1, got {self.max_queued}")
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )


class QuotaExceeded(Exception):
    """A submission violated its tenant's ``max_queued`` quota."""

    def __init__(self, tenant: str, queued: int, limit: int) -> None:
        self.tenant = tenant
        self.queued = queued
        self.limit = limit
        super().__init__(
            f"tenant {tenant!r} has {queued} queued jobs (quota {limit}); "
            "retry after some complete"
        )


class JobQueue:
    """Weighted round-robin queue of :class:`Job`\\ s across tenants."""

    def __init__(
        self,
        default_quota: Optional[TenantQuota] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
    ) -> None:
        self._default_quota = default_quota or TenantQuota()
        self._quotas: Dict[str, TenantQuota] = dict(quotas or {})
        self._condition = threading.Condition()
        self._queues: Dict[str, Deque[Job]] = {}
        self._order: List[str] = []  # round-robin ring of tenant names
        self._pointer = 0  # index into _order of the tenant holding the turn
        self._credit = 0  # grants already consumed from the turn's weight
        self._running: Dict[str, int] = {}
        self._closed = False

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota governing ``tenant``."""
        return self._quotas.get(tenant, self._default_quota)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue ``job``; raises :class:`QuotaExceeded` over quota."""
        quota = self.quota_for(job.tenant)
        with self._condition:
            if self._closed:
                raise RuntimeError("queue is closed")
            backlog = self._queues.setdefault(job.tenant, deque())
            if job.tenant not in self._order:
                self._order.append(job.tenant)
            if len(backlog) >= quota.max_queued:
                raise QuotaExceeded(job.tenant, len(backlog), quota.max_queued)
            backlog.append(job)
            self._condition.notify()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _eligible(self, tenant: str) -> bool:
        return bool(self._queues.get(tenant)) and self._running.get(
            tenant, 0
        ) < self.quota_for(tenant).max_concurrent

    def _take_locked(self) -> Optional[Job]:
        """One weighted-round-robin grant (caller holds the lock).

        Starts from the tenant currently holding the turn and scans the
        ring once; the first eligible tenant is granted.  A grant
        consumes one unit of the turn-holder's weight; exhausting the
        weight (or granting to a different tenant) advances the pointer,
        so bursts from one tenant interleave with everyone else at the
        ratio of their weights.
        """
        if not self._order:
            return None
        for step in range(len(self._order)):
            slot = (self._pointer + step) % len(self._order)
            tenant = self._order[slot]
            if not self._eligible(tenant):
                continue
            if slot != self._pointer:
                self._pointer = slot
                self._credit = 0
            job = self._queues[tenant].popleft()
            self._running[tenant] = self._running.get(tenant, 0) + 1
            self._credit += 1
            if self._credit >= self.quota_for(tenant).weight:
                self._pointer = (self._pointer + 1) % len(self._order)
                self._credit = 0
            return job
        return None

    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next job per fairness policy; ``None`` on timeout or close."""
        with self._condition:
            job = self._take_locked()
            while job is None and not self._closed:
                if not self._condition.wait(timeout):
                    return None
                job = self._take_locked()
            return job

    def release(self, job: Job) -> None:
        """Return ``job``'s concurrency slot (it finished or failed)."""
        with self._condition:
            count = self._running.get(job.tenant, 0)
            self._running[job.tenant] = max(count - 1, 0)
            # Freeing a slot can make a skipped tenant eligible again.
            self._condition.notify()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def depth(self, tenant: Optional[str] = None) -> int:
        """Waiting jobs for ``tenant`` (or every tenant)."""
        with self._condition:
            if tenant is not None:
                return len(self._queues.get(tenant, ()))
            return sum(len(backlog) for backlog in self._queues.values())

    def running(self, tenant: Optional[str] = None) -> int:
        """In-flight jobs for ``tenant`` (or every tenant)."""
        with self._condition:
            if tenant is not None:
                return self._running.get(tenant, 0)
            return sum(self._running.values())

    def close(self) -> None:
        """Wake every blocked :meth:`take` with ``None`` (shutdown)."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()
