"""Shared result store: the content-addressed cache promoted to dedup.

The per-task :class:`~repro.sim.cache.ResultCache` already dedups
*simulations* across tenants (identical tasks hit disk).  The service
additionally dedups whole *batches*: a published batch body is keyed by
the content of its (config, options, specs) triple, so a second tenant
submitting the identical batch is served the byte-identical body in
O(1) -- no runner dispatch, no per-task cache lookups.

The store also coalesces *in-flight* duplicates: the first job to claim
a key becomes its **owner** and runs the batch; concurrent claimants
become **waiters** and block until the owner publishes.  An owner that
fails releases the claim, promoting one waiter to owner (so a crashed
run never wedges its duplicates).  The protocol is claim -> (run ->
publish | fail -> release), with :meth:`wait` on the waiter side.

Memory is bounded: the store keeps the bodies of the newest
:data:`RETAINED_FINISHED_JOBS` published keys and drops the oldest on
each publish past that.  A key that has left the store claims as
``OWNER`` again, so its next batch runs as an ordinary job; every member
then hits the shared ``ResultCache``, and the body it publishes is
byte-identical to the dropped one.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Sequence

from repro.sim.cache import canonical_json

#: Finished jobs the service keeps in memory, and published bodies the
#: store keeps: the dedup window.  Older ones live only in their records.
RETAINED_FINISHED_JOBS: int = 64


def batch_key(config: dict, options: dict, specs: Sequence[dict]) -> str:
    """Content key of one batch submission (its dedup identity)."""
    document = canonical_json(
        {"config": dict(config), "options": dict(options), "specs": list(specs)}
    )
    return hashlib.sha256(document.encode()).hexdigest()


class ResultStore:
    """Published batch bodies plus in-flight ownership, by content key."""

    #: Claim outcomes.
    OWNER = "owner"
    WAIT = "wait"
    PUBLISHED = "published"

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._published: "OrderedDict[str, str]" = OrderedDict()  # oldest first
        self._owners: set = set()

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[str]:
        """The published body for ``key``, if any (no claim taken)."""
        with self._condition:
            return self._published.get(key)

    # ------------------------------------------------------------------
    # Claim protocol
    # ------------------------------------------------------------------

    def claim(self, key: str) -> str:
        """Try to own ``key``; returns OWNER, WAIT, or PUBLISHED.

        OWNER obliges the caller to eventually :meth:`publish` or
        :meth:`release` the key.
        """
        with self._condition:
            if key in self._published:
                return self.PUBLISHED
            if key in self._owners:
                return self.WAIT
            self._owners.add(key)
            return self.OWNER

    def wait(self, key: str, timeout: Optional[float] = None) -> Optional[str]:
        """Block until ``key`` publishes or its owner releases.

        Returns the published body, or ``None`` when the owner failed,
        the timeout lapsed, or the body already left the store -- the
        caller should re-:meth:`claim` and may find itself promoted to
        owner.
        """
        with self._condition:
            while key not in self._published and key in self._owners:
                if not self._condition.wait(timeout):
                    return None
            return self._published.get(key)

    def publish(self, key: str, body: str) -> int:
        """Publish the batch body for ``key`` and wake its waiters.

        ``key`` becomes the newest published key.  Returns how many of
        the oldest bodies left the store to keep it within
        :data:`RETAINED_FINISHED_JOBS`.
        """
        with self._condition:
            self._published[key] = body
            self._published.move_to_end(key)
            self._owners.discard(key)
            evicted = 0
            while len(self._published) > RETAINED_FINISHED_JOBS:
                self._published.popitem(last=False)
                evicted += 1
            self._condition.notify_all()
            return evicted

    def release(self, key: str) -> None:
        """Give up ownership of ``key`` without publishing (run failed)."""
        with self._condition:
            self._owners.discard(key)
            self._condition.notify_all()

    def __len__(self) -> int:
        with self._condition:
            return len(self._published)
