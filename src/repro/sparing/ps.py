"""PS: Physical Sparing (Ferreira et al., DATE'11).

``S`` lines are held out of service as an excess-capacity pool; a failed
in-service line is replaced by a pool line.  How the pool is *selected*
and in what order it is *allocated* spans the paper's PS variants:

* **PS (average case)** -- ``selection="random"``: the pool is a uniform
  random sample; the paper approximates its lifetime by PCD's (within
  3%, citing Ferreira et al.).
* **PS-worst** -- ``selection="strongest"``: the pool wastes the
  strongest lines as spares while the weakest lines keep serving users
  (Equation 8: the ``(S+1)``-th weakest line bounds the lifetime).
* ``selection="weakest"`` -- the weak-priority half of Max-WE *without*
  the region pairing and hybrid mapping; used by the allocation ablation
  (bench ABL-MATCH) to isolate how much each Max-WE ingredient buys.

Allocation order (``allocation``): ``"strongest-first"`` (Max-WE's
policy), ``"random"``, or ``"weakest-first"``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.sparing.base import (
    BatchOutcome,
    FailDevice,
    Replacement,
    ReplaceWith,
    SpareScheme,
)
from repro.util.sorting import stable_rank_prefix, stable_rank_suffix
from repro.util.validation import require_fraction

#: Valid pool-selection policies.
SELECTIONS = ("random", "weakest", "strongest")

#: Valid pool-allocation orders.
ALLOCATIONS = ("strongest-first", "random", "weakest-first")


class PS(SpareScheme):
    """Physical sparing with configurable pool selection and allocation.

    Parameters
    ----------
    spare_fraction:
        Pool fraction ``p = S / N``.
    selection:
        Which lines form the pool: ``"random"`` (PS average case),
        ``"strongest"`` (PS-worst), or ``"weakest"`` (weak-priority).
    allocation:
        Order in which pool lines are handed out on failures.
    """

    name = "ps"

    #: PS only replaces or fails; it never degrades capacity.
    ensemble_never_removes = True

    def __init__(
        self,
        spare_fraction: float = 0.1,
        selection: str = "random",
        allocation: str = "strongest-first",
    ) -> None:
        require_fraction(spare_fraction, "spare_fraction")
        if selection not in SELECTIONS:
            raise ValueError(f"selection must be one of {SELECTIONS}, got {selection!r}")
        if allocation not in ALLOCATIONS:
            raise ValueError(f"allocation must be one of {ALLOCATIONS}, got {allocation!r}")
        super().__init__(spare_fraction=spare_fraction)
        self._selection = selection
        self._allocation = allocation
        # Allocation-ordered pool, consumed front-to-back via a cursor so
        # batch handouts are O(1) slices; ``_pool_floor`` holds the
        # minimum endurance over each suffix (the batching safety bound).
        self._pool_lines: np.ndarray = np.empty(0, dtype=np.intp)
        self._pool_floor: np.ndarray = np.empty(0, dtype=float)
        self._pool_pos: int = 0

    @classmethod
    def average_case(cls, spare_fraction: float = 0.1) -> "PS":
        """The paper's PS (average case): random pool selection."""
        return cls(spare_fraction, selection="random", allocation="random")

    @classmethod
    def worst_case(cls, spare_fraction: float = 0.1) -> "PS":
        """The paper's PS-worst: the strongest lines wasted as spares."""
        return cls(spare_fraction, selection="strongest", allocation="random")

    @property
    def selection(self) -> str:
        """Pool-selection policy."""
        return self._selection

    @property
    def allocation(self) -> str:
        """Pool-allocation order."""
        return self._allocation

    @property
    def pool_remaining(self) -> int:
        """Spare lines not yet handed out."""
        self._require_initialized()
        return int(self._pool_lines.size - self._pool_pos)

    def _build_backing(self) -> np.ndarray:
        assert self._emap is not None and self._rng is not None
        total = self._emap.lines
        spares = self.spare_lines(total)
        endurance = self._emap.line_endurance
        # The weakest or strongest lines by ascending endurance, ties by
        # line id: the ends of a stable argsort, without sorting the rest.
        if self._selection == "weakest":
            pool = stable_rank_prefix(endurance, spares)
        elif self._selection == "strongest":
            pool = stable_rank_suffix(endurance, spares)
        else:
            pool = self._rng.choice(total, size=spares, replace=False)

        in_pool = np.zeros(total, dtype=bool)
        in_pool[pool] = True
        backing = np.flatnonzero(~in_pool)
        # The pool's allocation order starts from a set's iteration order,
        # which depends on insertion order: keep inserting in pool order.
        self._pool_lines = self._ordered_pool(
            np.asarray(list(set(pool.tolist())), dtype=np.intp)
        )
        if self._pool_lines.size:
            self._pool_floor = np.minimum.accumulate(
                endurance[self._pool_lines][::-1]
            )[::-1]
        else:
            self._pool_floor = np.empty(0, dtype=float)
        self._pool_pos = 0
        return backing

    def _ordered_pool(self, pool: np.ndarray) -> np.ndarray:
        """Order the pool so allocation pops from the front.

        The sorted orders use a *stable* argsort over the incoming pool
        order, matching what a stable Python ``sorted`` would produce on
        the same list; the random order shuffles a copy of the array,
        which draws exactly what shuffling the same Python list draws.
        """
        assert self._emap is not None and self._rng is not None
        endurance = self._emap.line_endurance
        if self._allocation == "strongest-first":
            return pool[np.argsort(-endurance[pool], kind="stable")]
        if self._allocation == "weakest-first":
            return pool[np.argsort(endurance[pool], kind="stable")]
        shuffled = pool.copy()
        self._rng.shuffle(shuffled)
        return shuffled

    def replace(self, slot: int, dead_line: int) -> Replacement:
        """Hand out the next pool line; fail when the pool is dry."""
        self._require_initialized()
        if self._pool_pos >= self._pool_lines.size:
            return FailDevice(
                reason=f"line {dead_line} worn out with the spare pool exhausted"
            )
        line = int(self._pool_lines[self._pool_pos])
        self._pool_pos += 1
        return ReplaceWith(line=line)

    def replace_batch(
        self, slots: Sequence[int], dead_lines: Sequence[int]
    ) -> BatchOutcome:
        """Hand out the next ``len(slots)`` pool lines in allocation order."""
        self._require_initialized()
        count = len(slots)
        available = self._pool_lines.size - self._pool_pos
        granted = min(count, available)
        handed = self._pool_lines[self._pool_pos : self._pool_pos + granted]
        self._pool_pos += granted
        if granted < count:
            return BatchOutcome.replaced_then_fail(
                handed,
                reason=(
                    f"line {int(dead_lines[granted])} worn out with the spare "
                    "pool exhausted"
                ),
            )
        return BatchOutcome.all_replaced(handed)

    def replacement_extra_floor(self) -> float:
        """Minimum endurance over the not-yet-allocated pool suffix."""
        self._require_initialized()
        if self._pool_pos >= self._pool_lines.size:
            return math.inf  # next death fails the device; no replacement left
        return float(self._pool_floor[self._pool_pos])

    def ensemble_replacement_capacity(self) -> int:
        """PS can replace at most once per remaining pool line."""
        return self.pool_remaining

    def describe(self) -> str:
        return (
            f"PS (p={self.spare_fraction:.0%}, pool={self._selection}, "
            f"alloc={self._allocation})"
        )
