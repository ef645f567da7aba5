"""Incremental death-frontier index for the fluid lifetime kernel and oracle.

Both loops repeatedly answer one question: *which slots die next?*
The scalar oracle keeps a heap; the batched kernel rescans the whole
``current_death`` array per epoch, which degenerates to O(slots) per
death under concentrated-wear attacks (BPA) where every epoch holds a
single death.  :class:`DeathFrontier` makes that question incremental:

* a **lazy-deletion binary heap** of ``(death time, slot)`` tuples whose
  comparison order is exactly the batched kernel's
  ``np.lexsort((slots, times))`` -- tuple comparison breaks time ties by
  slot id -- and exactly the scalar oracle's heap order;
* **staleness by consultation**: the engine mutates its authoritative
  ``current_death`` array as it always did, and an entry is valid only
  while its recorded time still equals the array's (removed slots go to
  ``inf`` and invalidate implicitly);
* an optional **bounded work set**: with ``limit`` set, only the slots
  strictly below the ``(limit+1)``-th smallest death time are indexed
  and the threshold is kept as a *sentinel*; every excluded slot's time
  is ``>= sentinel``, so any epoch whose chronological bound stays at or
  below the sentinel provably sees the full array's selection.  When the
  work set drains, it is rebuilt from the array (a *refresh*); when the
  heap outgrows its cap with stale entries, it is rebuilt in place (a
  *compaction* -- the scalar oracle's historical ``heap_compactions``).

:meth:`pop_epoch` pops one chronologically safe epoch in exact
``(time, slot)`` order, or returns ``None`` whenever it cannot *prove*
the epoch identical to the vectorized selection (epoch bound past the
sentinel, batch regrown past the caller's cap, or a degenerate tie
class larger than the work set).  Callers fall back to the full scan on
``None``, so the index is an accelerator, never a semantic change.
:meth:`peek` shows the earliest indexed entry without popping it: the
batched kernel bounds a hot slot's run of one-death epochs by it (see
``sim/ensemble.py``).
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["DeathFrontier"]


class DeathFrontier:
    """Lazy-deletion heap over an authoritative death-time array.

    Parameters
    ----------
    times:
        The engine's ``current_death`` array.  The frontier keeps a
        reference and consults it for staleness; the engine keeps
        mutating it exactly as before.
    limit:
        Bounded work-set size (``None`` indexes every finite entry).
        With more than ``limit`` finite candidates, only the slots
        strictly below the ``(limit+1)``-th smallest time are indexed.
    cap:
        Heap length that triggers a compaction rebuild.  Defaults to
        twice the work-set bound (or twice the slot count, unbounded).
        The scalar oracle passes ``slots * HEAP_SLACK`` to preserve its
        historical compaction cadence.
    alive:
        Optional boolean liveness mask sharing the array's indexing;
        entries of non-alive slots are stale and rebuilds skip them
        (the scalar oracle's semantics).  Only supported unbounded.
    """

    __slots__ = (
        "_times",
        "_alive",
        "_limit",
        "_cap",
        "_heap",
        "_sentinel",
        "_degenerate",
        "builds",
        "refreshes",
        "compactions",
    )

    def __init__(
        self,
        times: np.ndarray,
        *,
        limit: Optional[int] = None,
        cap: Optional[int] = None,
        alive: Optional[np.ndarray] = None,
    ) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit!r}")
        if limit is not None and alive is not None:
            raise ValueError("an alive mask is only supported unbounded")
        self._times = times
        self._alive = alive
        self._limit = limit
        if cap is None:
            bound = limit if limit is not None else times.size
            cap = max(2 * bound, 16)
        self._cap = int(cap)
        self._heap: List[Tuple[float, int]] = []
        self._sentinel = math.inf
        self._degenerate = False
        self.builds = 0
        self.refreshes = 0
        self.compactions = 0
        self._build()
        self.builds += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def sentinel(self) -> float:
        """Smallest death time possibly *excluded* from the work set."""
        return self._sentinel

    @property
    def degenerate(self) -> bool:
        """True when the last rebuild could not isolate a work set."""
        return self._degenerate

    def __len__(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------
    # construction / rebuilds
    # ------------------------------------------------------------------

    def _build(self) -> bool:
        """Rebuild the heap from the authoritative array.

        Returns ``False`` (and flags :attr:`degenerate`) when more than
        ``limit`` candidates tie at the minimum, so no strict value
        partition can bound the work set.
        """
        times = self._times
        limit = self._limit
        self._degenerate = False
        if limit is not None and times.size > limit:
            # Value partition: the (limit+1)-th smallest time is the
            # sentinel; everything strictly below it is the work set.
            threshold = float(np.partition(times, limit)[limit])
            if math.isinf(threshold):
                # Fewer than limit+1 finite candidates: take them all.
                index = np.flatnonzero(np.isfinite(times))
                self._sentinel = math.inf
            else:
                index = np.flatnonzero(times < threshold)
                if index.size == 0:
                    # The whole minimum tie class exceeds the limit.
                    self._heap = []
                    self._degenerate = True
                    return False
                self._sentinel = threshold
        else:
            mask = np.isfinite(times)
            if self._alive is not None:
                mask &= self._alive
            index = np.flatnonzero(mask)
            self._sentinel = math.inf
        heap = list(zip(times[index].tolist(), index.tolist()))
        heapq.heapify(heap)
        self._heap = heap
        return True

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def push(self, slot: int, time: float) -> None:
        """Index ``slot``'s new death ``time`` (caller already stored it).

        Times at or above the sentinel are *not* indexed -- the refresh
        that drains the work set will pick them up from the array -- so
        replacement churn cannot bloat the bounded heap.
        """
        time = float(time)
        if not time < self._sentinel:
            return
        heapq.heappush(self._heap, (time, int(slot)))
        if len(self._heap) > self._cap:
            self._build()
            self.compactions += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _is_valid(self, entry: Tuple[float, int]) -> bool:
        time, slot = entry
        if self._times[slot] != time:
            return False
        alive = self._alive
        return alive is None or bool(alive[slot])

    def _pop_first(self) -> Optional[Tuple[float, int]]:
        """Pop the earliest valid entry, refreshing a drained work set.

        Returns ``None`` when no candidates remain anywhere; raises no
        signal for degenerate rebuilds -- callers check
        :attr:`degenerate` after a ``None``-ish result via
        :meth:`pop_epoch`.
        """
        heap = self._heap
        while True:
            while heap:
                entry = heapq.heappop(heap)
                if self._is_valid(entry):
                    return entry
            if self._sentinel < math.inf:
                if not self._build():
                    return None
                self.refreshes += 1
                heap = self._heap
                continue
            return None

    def peek(self) -> Optional[Tuple[float, int]]:
        """The earliest valid indexed ``(time, slot)`` entry, left in place.

        Returns ``None`` when the heap holds no valid entry; unlike
        :meth:`pop` it never refreshes a drained work set, so the caller
        bounds by :attr:`sentinel` instead.  Only stale entries at the top
        are discarded, exactly as :meth:`pop_epoch` discards them.
        """
        heap = self._heap
        while heap and not self._is_valid(heap[0]):
            heapq.heappop(heap)
        return heap[0] if heap else None

    def pop(self) -> Optional[Tuple[float, int]]:
        """Pop the next ``(time, slot)`` death, or ``None`` when empty.

        The scalar-engine entry point: exact heap semantics, stale
        entries skipped, drained bounded work sets refreshed.
        """
        entry = self._pop_first()
        if entry is None and self._degenerate:
            raise RuntimeError(
                "degenerate work set: pop() requires an unbounded frontier"
            )
        return entry

    def pop_epoch(
        self,
        floor: Optional[float],
        w_max: float,
        cap: int,
        ceiling: float = math.inf,
    ) -> Optional[Tuple[List[int], List[float]]]:
        """Pop one chronologically safe epoch in ``(time, slot)`` order.

        Mirrors the batched kernel's selection exactly: the epoch is
        ``{time < first + floor / w_max}`` clamped to at least the first
        death (``floor is None`` delivers exactly one death).  Returns
        ``(slots, times)`` -- empty lists when no candidates remain --
        or ``None`` when equivalence cannot be proven, in which case all
        popped entries are restored and the caller must run the
        vectorized selection:

        * the epoch bound exceeds the sentinel (excluded slots could
          belong in the epoch) or the caller's ``ceiling`` (same, for an
          outer candidate prefilter);
        * the epoch would exceed ``cap`` deaths (the batch regrew; the
          cap must stay *below* ``BATCH_LIMIT``, where the vectorized
          tie-trim could reshape the epoch);
        * the work set degenerated (minimum tie class above the limit).
        """
        first = self._pop_first()
        if first is None:
            if self._degenerate:
                return None
            return ([], [])
        time0, slot0 = first
        if not time0 < ceiling:
            heapq.heappush(self._heap, first)
            return None
        if floor is None:
            return ([slot0], [time0])
        bound = time0 + floor / w_max
        if not (bound <= self._sentinel and bound <= ceiling):
            heapq.heappush(self._heap, first)
            return None
        slots = [slot0]
        times = [time0]
        heap = self._heap
        while True:
            while heap and not self._is_valid(heap[0]):
                heapq.heappop(heap)
            if not heap or not heap[0][0] < bound:
                # A drained bounded heap needs no refresh here: every
                # unindexed candidate is >= sentinel >= bound.
                return (slots, times)
            if len(slots) >= cap:
                for entry in zip(times, slots):
                    heapq.heappush(heap, entry)
                return None
            time, slot = heapq.heappop(heap)
            slots.append(slot)
            times.append(time)
