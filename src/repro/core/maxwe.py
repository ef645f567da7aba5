"""Max-WE as a spare-line replacement scheme (Sections 4.1-4.2).

:class:`MaxWE` plugs into the lifetime simulator through the
:class:`~repro.sparing.base.SpareScheme` interface and implements the
paper's replacement procedure:

* a wear-out in an **RWR** line fails over to its permanently matched SWR
  line (same intra-region offset), setting the RMT wear-out tag;
* a wear-out anywhere else is rescued by the **strongest remaining line of
  the additional spare regions**, recorded in the LMT; a rescued line may
  be re-rescued (the old LMT entry is dropped first);
* a wear-out of an SWR line already serving as a replacement falls
  through to the additional pool (the Section 4.2 "otherwise" branch; see
  the ``rwr_fallback_to_lmt`` parameter), and the device is worn out when
  a rescue finds the additional pool empty.

Slot bookkeeping is held in flat numpy arrays (state code and original
line per slot, allocation-ordered pool with a cursor) so that
:meth:`MaxWE.replace_batch` can decide every death of a chronological
batch with array operations: SWR failovers are a single gather over the
pre-computed region pairing, and pool rescues are one slice of the
pre-sorted spare ranking.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import AllocationPlan, plan_allocation
from repro.core.mapping import LineMappingTable, RegionMappingTable
from repro.device.errors import ConfigurationError
from repro.endurance.emap import EnduranceMap
from repro.sparing.base import (
    BATCH_FAIL,
    BATCH_REPLACE,
    BatchedSchemeState,
    BatchOutcome,
    FailDevice,
    Lookahead,
    RawBatchOutcome,
    Replacement,
    ReplaceWith,
    SchemeIntegrityError,
    SpareScheme,
)
from repro.util.memo import memoized
from repro.util.sorting import stable_rank_prefix
from repro.util.validation import require_fraction

#: Slot backing states (array codes).
_ORIGINAL = 0
_SWR_REPLACED = 1
_LMT_REPLACED = 2
#: Terminal code for the slot whose unservable death ended the device:
#: its mapping (if any) is dropped, so the LMT and the state ledger stay
#: consistent for the post-failure integrity sweep.
_RETIRED = 3

#: Failure reason when the dynamic pool runs dry (Section 4.2).
_POOL_EXHAUSTED = "additional spare regions exhausted (Section 4.2 failure)"


def _swr_worn_reason(line: int) -> str:
    """Failure reason when a strict-mode SWR replacement line dies."""
    return (
        f"SWR replacement line {line} worn out; region-mapped slots "
        "have no further rescue"
    )


class MaxWE(SpareScheme):
    """The paper's spare-line replacement scheme.

    Parameters
    ----------
    spare_fraction:
        Fraction ``p`` of capacity reserved as spare space (the paper
        settles on 10% after the Figure 6 sweep).
    swr_fraction:
        Fraction ``q`` of the spare space used as permanent SWRs (90%
        after the Figure 7 sweep).
    spare_selection / matching:
        Ablation knobs forwarded to
        :func:`~repro.core.allocation.plan_allocation`; the paper's scheme
        is ``("weak-priority", "weak-strong")``.
    rwr_fallback_to_lmt:
        When an RWR's dedicated SWR line dies, rescue it from the dynamic
        pool instead of failing the device.  On by default: in the
        Section 4.2 algorithm a dead SWR line's region is *not* among the
        RMT's ``pra`` entries, so its replacement falls through to the
        "otherwise" (additional-spare) branch.  Disable for the strictest
        reading in which region-mapped slots get exactly one rescue.
    region_metric:
        Region endurance summary used for ranking.
    """

    name = "max-we"

    #: Max-WE never retires a slot: every death is answered by an SWR
    #: failover, a pool rescue, or device failure.
    ensemble_never_removes = True

    def __init__(
        self,
        spare_fraction: float = 0.1,
        swr_fraction: float = 0.9,
        *,
        spare_selection: str = "weak-priority",
        matching: str = "weak-strong",
        rwr_fallback_to_lmt: bool = True,
        region_metric: str = "min",
    ) -> None:
        require_fraction(spare_fraction, "spare_fraction")
        require_fraction(swr_fraction, "swr_fraction")
        super().__init__(spare_fraction=spare_fraction)
        self._swr_fraction = swr_fraction
        self._spare_selection = spare_selection
        self._matching = matching
        self._rwr_fallback = rwr_fallback_to_lmt
        self._region_metric = region_metric
        self._plan: AllocationPlan | None = None
        self._rmt: RegionMappingTable | None = None
        self._lmt: LineMappingTable | None = None
        self._pool_lines: np.ndarray = np.empty(0, dtype=np.intp)
        self._pool_floor: np.ndarray = np.empty(0, dtype=float)
        self._pool_pos: int = 0
        self._state: np.ndarray = np.empty(0, dtype=np.int8)
        self._original_line: np.ndarray = np.empty(0, dtype=np.intp)
        self._sra_lookup: np.ndarray = np.empty(0, dtype=np.intp)
        self._rwr_originals_left: int = 0
        self._swr_line_floor: float = math.inf

    # ------------------------------------------------------------------
    # Configuration introspection
    # ------------------------------------------------------------------

    @property
    def swr_fraction(self) -> float:
        """Configured SWR share ``q`` of the spare space."""
        return self._swr_fraction

    @property
    def plan(self) -> AllocationPlan:
        """The static allocation plan (after :meth:`initialize`)."""
        self._require_initialized()
        assert self._plan is not None
        return self._plan

    @property
    def rmt(self) -> RegionMappingTable:
        """The region mapping table."""
        self._require_initialized()
        assert self._rmt is not None
        return self._rmt

    @property
    def lmt(self) -> LineMappingTable:
        """The line mapping table."""
        self._require_initialized()
        assert self._lmt is not None
        return self._lmt

    @property
    def pool_remaining(self) -> int:
        """Additional spare lines not yet handed out."""
        self._require_initialized()
        return int(self._pool_lines.size - self._pool_pos)

    def spare_lines(self, total_lines: int) -> int:
        """Spare line count; region-rounded so roles align with regions."""
        self._require_initialized()
        assert self._plan is not None
        assert self._emap is not None
        return self._plan.spare_region_count * self._emap.lines_per_region

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------

    def _build_backing(self) -> np.ndarray:
        assert self._emap is not None and self._rng is not None
        emap = self._emap
        self._plan = plan_allocation(
            emap,
            self.spare_fraction,
            self._swr_fraction,
            spare_selection=self._spare_selection,
            matching=self._matching,
            region_metric=self._region_metric,
            rng=self._rng,
        )
        per = emap.lines_per_region
        offsets = np.arange(per, dtype=np.intp)

        self._rmt = RegionMappingTable(
            pairs=zip(
                (int(region) for region in self._plan.rwr_regions),
                (int(region) for region in self._plan.swr_regions),
            ),
            lines_per_region=per,
            total_regions=emap.regions,
        )
        self._sra_lookup = np.full(emap.regions, -1, dtype=np.intp)
        self._sra_lookup[self._plan.rwr_regions] = self._plan.swr_regions

        # Additional pool: every line of the additional spare regions,
        # strongest first (Section 4.2's allocation order); consumed via a
        # cursor.  The suffix minimum is the batching safety bound.
        endurance = emap.line_endurance
        pool_lines = (
            self._plan.additional_regions[:, None] * per + offsets[None, :]
        ).ravel()
        order = np.argsort(-endurance[pool_lines], kind="stable")
        self._pool_lines = pool_lines[order]
        if self._pool_lines.size:
            self._pool_floor = np.minimum.accumulate(
                endurance[self._pool_lines][::-1]
            )[::-1]
        else:
            self._pool_floor = np.empty(0, dtype=float)
        self._pool_pos = 0
        self._lmt = LineMappingTable(
            capacity=int(self._pool_lines.size), total_lines=emap.lines
        )

        backing = (
            self._plan.working_regions[:, None] * per + offsets[None, :]
        ).ravel()
        self._state = np.full(backing.size, _ORIGINAL, dtype=np.int8)
        self._original_line = backing.copy()
        self._rwr_originals_left = int(self._plan.rwr_regions.size) * per
        swr_lines = (
            self._plan.swr_regions[:, None] * per + offsets[None, :]
        ).ravel()
        self._swr_line_floor = (
            float(endurance[swr_lines].min()) if swr_lines.size else math.inf
        )
        return backing

    @property
    def min_user_slots(self) -> int:
        """Max-WE never retires slots; every working line stays addressable."""
        return self.slots

    # ------------------------------------------------------------------
    # Replacement (Section 4.2)
    # ------------------------------------------------------------------

    def replace(self, slot: int, dead_line: int) -> Replacement:
        self._require_initialized()
        assert self._plan is not None and self._rmt is not None and self._lmt is not None
        assert self._emap is not None
        if not 0 <= slot < self._state.size:
            raise KeyError(f"unknown slot {slot}")
        state = int(self._state[slot])
        per = self._emap.lines_per_region

        if state == _ORIGINAL:
            region = dead_line // per
            offset = dead_line % per
            spare_region = int(self._sra_lookup[region])
            if spare_region >= 0:
                # RWR line: fail over to the matched SWR line.
                self._rmt.mark_worn(region, offset)
                replacement = spare_region * per + offset
                self._state[slot] = _SWR_REPLACED
                self._rwr_originals_left -= 1
                return ReplaceWith(line=replacement)
            return self._rescue_from_pool(slot, int(self._original_line[slot]))

        if state == _LMT_REPLACED:
            # Re-rescue: drop the stale entry, allocate a fresh spare line.
            original = int(self._original_line[slot])
            if original in self._lmt:
                self._lmt.remove(original)
            return self._rescue_from_pool(slot, original)

        # state == _SWR_REPLACED: the dedicated spare line died.
        if self._rwr_fallback:
            return self._rescue_from_pool(slot, int(self._original_line[slot]))
        return FailDevice(reason=_swr_worn_reason(dead_line))

    def _rescue_from_pool(self, slot: int, original_line: int) -> Replacement:
        assert self._lmt is not None
        if self._pool_pos >= self._pool_lines.size:
            # The slot's previous LMT entry (if it had one) was already
            # dropped by the re-rescue path; leaving the state code at
            # _LMT_REPLACED would desynchronize the LMT from the state
            # ledger exactly when the final integrity sweep runs.
            self._state[slot] = _RETIRED
            return FailDevice(reason=_POOL_EXHAUSTED)
        spare = int(self._pool_lines[self._pool_pos])
        self._pool_pos += 1
        self._lmt.insert(original_line, spare)
        self._state[slot] = _LMT_REPLACED
        return ReplaceWith(line=spare)

    def replace_batch(
        self, slots: Sequence[int], dead_lines: Sequence[int]
    ) -> BatchOutcome:
        """Vectorized Section 4.2 procedure for a chronological batch.

        Every death resolves to one of two replacement sources -- the
        matched SWR line (a pure index computation) or the next lines of
        the pre-sorted additional pool (one slice) -- so the whole batch
        is decided without per-death Python work.  A strict-mode SWR
        failure or pool exhaustion truncates the batch at the first
        unservable death, exactly as the scalar loop would.
        """
        self._require_initialized()
        assert self._rmt is not None and self._lmt is not None
        assert self._emap is not None
        per = self._emap.lines_per_region
        slots = np.asarray(slots, dtype=np.intp)
        dead_lines = np.asarray(dead_lines, dtype=np.intp)
        if np.any(slots < 0) or np.any(slots >= self._state.size):
            raise KeyError("unknown slot in batch")

        states = self._state[slots]
        regions = dead_lines // per
        offsets = dead_lines - regions * per
        sra = self._sra_lookup[regions]
        swr_mask = (states == _ORIGINAL) & (sra >= 0)

        fail_reason: Optional[str] = None
        count = slots.size
        if not self._rwr_fallback:
            strict = np.flatnonzero(states == _SWR_REPLACED)
            if strict.size:
                # The first strict-mode SWR death ends the device; deaths
                # before it are still served.
                count = int(strict[0]) + 1
                fail_reason = _swr_worn_reason(int(dead_lines[strict[0]]))

        rescue_mask = ~swr_mask
        rescue_mask[count:] = False
        if fail_reason is not None:
            rescue_mask[count - 1] = False
        rescue_positions = np.flatnonzero(rescue_mask)
        available = self._pool_lines.size - self._pool_pos
        if rescue_positions.size > available:
            # Pool exhaustion preempts any later strict-mode failure.
            count = int(rescue_positions[available]) + 1
            fail_reason = _POOL_EXHAUSTED
            rescue_positions = rescue_positions[:available]

        slots = slots[:count]
        swr_mask = swr_mask[:count]
        actions = np.full(count, BATCH_REPLACE, dtype=np.int8)
        lines = np.full(count, -1, dtype=np.intp)
        if fail_reason is not None:
            actions[count - 1] = BATCH_FAIL

        swr_positions = np.flatnonzero(swr_mask)
        if swr_positions.size:
            self._rmt.mark_worn_many(regions[swr_positions], offsets[swr_positions])
            lines[swr_positions] = sra[swr_positions] * per + offsets[swr_positions]
            self._state[slots[swr_positions]] = _SWR_REPLACED
            self._rwr_originals_left -= int(swr_positions.size)

        if rescue_positions.size:
            taken = self._pool_lines[
                self._pool_pos : self._pool_pos + rescue_positions.size
            ]
            self._pool_pos += int(rescue_positions.size)
            lines[rescue_positions] = taken
            rescued_slots = slots[rescue_positions]
            self._lmt.insert_many(self._original_line[rescued_slots], taken)
            self._state[rescued_slots] = _LMT_REPLACED

        if fail_reason is not None:
            # Retire the slot whose death could not be served, dropping
            # its live LMT entry (a re-death of a rescued slot would
            # otherwise leave a stale entry pointing at the dead spare).
            failing_slot = int(slots[count - 1])
            if self._state[failing_slot] == _LMT_REPLACED:
                original = int(self._original_line[failing_slot])
                if original in self._lmt:
                    self._lmt.remove(original)
            self._state[failing_slot] = _RETIRED

        return BatchOutcome(actions=actions, lines=lines, fail_reason=fail_reason)

    def replacement_extra_floor(self) -> float:
        """Safety bound: the weakest line any future rescue could hand out.

        Two replacement sources exist -- the not-yet-allocated suffix of
        the additional pool (exact suffix minimum) and, while any RWR slot
        still awaits its permanent failover, the SWR lines (static
        minimum).  The bound tightens as both sources drain.
        """
        self._require_initialized()
        floor = math.inf
        if self._pool_pos < self._pool_lines.size:
            floor = float(self._pool_floor[self._pool_pos])
        if self._rwr_originals_left > 0:
            floor = min(floor, self._swr_line_floor)
        return floor

    # ------------------------------------------------------------------
    # Integrity introspection
    # ------------------------------------------------------------------

    def pool_accounting(self) -> dict:
        """Additional-pool counters for the accounting invariant."""
        self._require_initialized()
        assert self._lmt is not None
        size = int(self._pool_lines.size)
        allocated = int(self._pool_pos)
        return {
            "size": size,
            "free": size - allocated,
            "allocated": allocated,
            "lmt_entries": len(self._lmt),
            "lmt_capacity": self._lmt.capacity,
            "rescued_slots": int((self._state == _LMT_REPLACED).sum()),
        }

    def check_integrity(
        self,
        backing: Optional[np.ndarray] = None,
        dead_lines: Optional[np.ndarray] = None,
    ) -> None:
        """Full RMT/LMT/pool cross-check (the ``mapping-consistency``
        invariant's scheme half).

        Verifies pool-cursor bounds, the worn-tag count against the
        failover ledger, LMT bijectivity (every rescued slot has exactly
        one live entry, spare lines are handed out once), and -- when the
        engine's live state is supplied -- that every slot's backing line
        is exactly what its state code and table entry say it must be,
        that no live table entry points at a dead line, and that no dead
        line sits in the unallocated pool suffix.
        """
        super().check_integrity(backing=backing, dead_lines=dead_lines)
        assert self._plan is not None and self._rmt is not None and self._lmt is not None
        assert self._emap is not None
        per = self._emap.lines_per_region
        size = int(self._pool_lines.size)
        if not 0 <= self._pool_pos <= size:
            raise SchemeIntegrityError(
                f"pool cursor {self._pool_pos} outside [0, {size}]"
            )

        rwr_lines = int(self._plan.rwr_regions.size) * per
        failed_over = rwr_lines - self._rwr_originals_left
        if self._rmt.worn_count() != failed_over:
            raise SchemeIntegrityError(
                f"RMT carries {self._rmt.worn_count()} worn tags but "
                f"{failed_over} RWR lines failed over"
            )

        lmt_slots = np.flatnonzero(self._state == _LMT_REPLACED)
        if len(self._lmt) != lmt_slots.size:
            raise SchemeIntegrityError(
                f"LMT holds {len(self._lmt)} entries for {lmt_slots.size} "
                "rescued slots (dangling or missing remaps)"
            )
        entries = dict(self._lmt.items())
        slas = list(entries.values())
        if len(set(slas)) != len(slas):
            raise SchemeIntegrityError("a spare line appears twice in the LMT")
        handed_out = set(map(int, self._pool_lines[: self._pool_pos]))
        for pla, sla in entries.items():
            if sla not in handed_out:
                raise SchemeIntegrityError(
                    f"LMT maps line {pla} to {sla}, which was never "
                    "allocated from the pool"
                )

        if backing is not None:
            original = np.flatnonzero(self._state == _ORIGINAL)
            if original.size and np.any(
                backing[original] != self._original_line[original]
            ):
                slot = int(
                    original[
                        np.flatnonzero(
                            backing[original] != self._original_line[original]
                        )[0]
                    ]
                )
                raise SchemeIntegrityError(
                    f"unreplaced slot {slot} is backed by line "
                    f"{int(backing[slot])} instead of its original "
                    f"{int(self._original_line[slot])}"
                )
            swr = np.flatnonzero(self._state == _SWR_REPLACED)
            if swr.size:
                originals = self._original_line[swr]
                regions = originals // per
                offsets = originals - regions * per
                expected = self._sra_lookup[regions] * per + offsets
                if np.any(backing[swr] != expected):
                    slot = int(swr[np.flatnonzero(backing[swr] != expected)[0]])
                    raise SchemeIntegrityError(
                        f"failed-over slot {slot} is backed by line "
                        f"{int(backing[slot])} instead of its matched SWR line"
                    )
                if not self._rmt.are_worn(regions, offsets).all():
                    raise SchemeIntegrityError(
                        "a failed-over RWR line is missing its RMT worn tag"
                    )
            for slot in lmt_slots:
                expected_sla = entries.get(int(self._original_line[slot]))
                if expected_sla is None or backing[slot] != expected_sla:
                    raise SchemeIntegrityError(
                        f"rescued slot {int(slot)} is backed by line "
                        f"{int(backing[slot])} but the LMT says "
                        f"{expected_sla!r}"
                    )

        if dead_lines is not None:
            free = self._pool_lines[self._pool_pos :]
            if free.size and dead_lines[free].any():
                line = int(free[np.flatnonzero(dead_lines[free])[0]])
                raise SchemeIntegrityError(
                    f"unallocated pool line {line} is marked dead "
                    "(pool cursor corrupted?)"
                )
            if slas and dead_lines[np.fromiter(slas, dtype=np.intp)].any():
                raise SchemeIntegrityError(
                    "a live LMT entry points at a dead spare line"
                )

    def describe(self) -> str:
        return (
            f"Max-WE (p={self.spare_fraction:.0%}, SWRs={self._swr_fraction:.0%}, "
            f"selection={self._spare_selection}, matching={self._matching})"
        )

    # ------------------------------------------------------------------
    # Kernel scheme state
    # ------------------------------------------------------------------

    @classmethod
    def make_batched_state(
        cls, scheme: SpareScheme, emap: EnduranceMap
    ) -> Optional[BatchedSchemeState]:
        """Max-WE's ledger-free kernel state for ``scheme`` on ``emap``.

        Only the paper's deterministic configuration has one:
        ``weak-priority`` selection with ``weak-strong`` matching (no
        allocation randomness).  Anything else runs on the real
        instance, which is bit-identical by construction.
        """
        if type(scheme) is not MaxWE or (
            scheme._spare_selection != "weak-priority"
            or scheme._matching != "weak-strong"
            or scheme._region_metric not in ("min", "mean", "max")
        ):
            return None
        return MaxWEStackedState(scheme, emap)


class _StackedPlan(NamedTuple):
    """One map's weak-priority / weak-strong allocation, read-only.

    Everything here is a pure function of the endurance map and the
    scheme's fractions, so the simulations of one map inside a run share
    one plan.  ``budgets`` and ``total_endurance`` are the engine's
    initial arrays under the map's nominal endurance.
    """

    sra_lookup: np.ndarray  # region -> paired SWR region, -1 if none
    pool_lines: np.ndarray  # additional-pool lines, strongest first
    pool_floor: np.ndarray  # suffix minima of the pool's endurance
    swr_line_floor: float  # weakest SWR line (inf without SWRs)
    backing: np.ndarray  # working lines, ascending
    budgets: np.ndarray  # line_endurance[backing]
    total_endurance: float  # float(line_endurance.sum())


def _stacked_plan(
    emap: EnduranceMap, swr_count: int, additional_count: int, metric: str
) -> _StackedPlan:
    """Build ``emap``'s :class:`_StackedPlan` (see :class:`MaxWEStackedState`).

    Only the ranking *prefix* (SWRs + RWRs + additional spares) is ever
    consulted -- the working set is just the complement's membership --
    so the full stable argsort collapses to an argpartition plus a small
    exact-tie-corrected sort.
    """
    regions = emap.regions
    per = emap.lines_per_region
    need = 2 * swr_count + additional_count
    offsets = np.arange(per, dtype=np.intp)
    line_endurance = emap.line_endurance
    # EnduranceMap.rank_regions prefix: stable, ties by region id.
    prefix = stable_rank_prefix(emap.region_endurance(metric), need)
    swr = prefix[:swr_count]
    rwr = prefix[swr_count : 2 * swr_count]
    additional = prefix[2 * swr_count : need]

    # Weak-strong pairing: sra_lookup[rwr_asc[::-1]] = swr_asc.
    sra_lookup = np.full(regions, -1, dtype=np.intp)
    sra_lookup[rwr] = swr[::-1]

    # Working regions: ascending complement of SWRs + additional spares
    # (RWRs stay in service), matching the solo plan.
    working_mask = np.ones(regions, dtype=bool)
    working_mask[swr] = False
    working_mask[additional] = False
    working = np.flatnonzero(working_mask)
    backing = (working[:, None] * per + offsets).reshape(-1)
    budgets = line_endurance[backing]

    # Additional pool, strongest-first, consumed via the state's cursor;
    # suffix minima are the batching safety bound.
    pool_lines = (additional[:, None] * per + offsets).ravel()
    pool_endurance = line_endurance[pool_lines]
    order = np.argsort(-pool_endurance, kind="stable")
    pool_lines = pool_lines[order]
    pool_floor = np.minimum.accumulate(pool_endurance[order][::-1])[::-1]
    swr_line_floor = math.inf
    if swr_count:
        swr_lines = (swr[:, None] * per + offsets).ravel()
        swr_line_floor = float(line_endurance[swr_lines].min())

    for array in (sra_lookup, pool_lines, pool_floor, backing, budgets):
        array.setflags(write=False)
    return _StackedPlan(
        sra_lookup=sra_lookup,
        pool_lines=pool_lines,
        pool_floor=pool_floor,
        swr_line_floor=swr_line_floor,
        backing=backing,
        budgets=budgets,
        total_endurance=float(line_endurance.sum()),
    )


class MaxWEStackedState(BatchedSchemeState):
    """Ledger-free Max-WE state for the batched epoch kernel.

    One run's slot states, pool cursor and failover count live over a
    read-only per-map plan (:class:`_StackedPlan`: SRA lookup,
    allocation-ordered pool, initial backing), built by one pass that
    skips every ledger the kernel never reads (RMT/LMT, original-line
    provenance).  Inside a :meth:`~repro.sim.runner.SimRunner.run` the
    plan of the run's device is built once and shared
    (:mod:`repro.util.memo`).  Decisions are bit-identical to a
    :class:`MaxWE` instance because

    * the weak-priority / weak-strong plan is a pure function of the
      endurance map -- :func:`~repro.util.sorting.stable_rank_prefix`
      reproduces the first ``2*swr + additional`` entries of the stable
      region ranking that :meth:`EnduranceMap.rank_regions` produces
      (both break ties by ascending region id), which is all the plan
      consumes, and the
      paired-slice identities ``swr_paired == ranking[:k]`` /
      ``rwr_paired == ranking[k:2k][::-1]`` hold because a stable argsort
      of an already-ascending slice is the identity permutation;
    * :meth:`replace_batch` and :meth:`replace` are line-for-line ports
      of :meth:`MaxWE.replace_batch` and :meth:`MaxWE.replace` minus the
      RMT/LMT ledgers, which no
      replacement decision reads (the SWR failover consults only the SRA
      lookup and slot-state codes, and the LMT capacity equals the pool
      size so its overflow check cannot fire before pool exhaustion
      truncates the batch; see :mod:`repro.core.mapping`), and
      :meth:`lookahead` / :meth:`commit_lookahead` walk the same chain
      :meth:`replace` would: the SWR hop, then the pool cursor.

    Every fluid run of the paper configuration starts from this state
    when paranoia guards are off: the RMT/LMT tables that
    :meth:`MaxWE.check_integrity` audits are deliberately not maintained
    here, so guarded runs and the scalar oracle
    (:func:`~repro.sim.reference.exact_lifetime`) keep real
    :class:`MaxWE` instances, the reference this state is tested
    against.
    """

    def __init__(self, scheme: MaxWE, emap: EnduranceMap) -> None:
        regions = emap.regions
        self._per = emap.lines_per_region
        self._rwr_fallback = scheme._rwr_fallback
        self._description = scheme.describe()

        spare_count = int(round(scheme.spare_fraction * regions))
        swr_count = int(round(scheme.swr_fraction * spare_count))
        additional_count = spare_count - swr_count
        if 2 * swr_count + additional_count > regions:
            raise ConfigurationError(
                f"{swr_count} SWRs need as many RWRs plus {additional_count} "
                f"additional regions, exceeding the {regions} available"
            )

        self._emap = emap
        self._shape = (swr_count, additional_count, scheme._region_metric)
        working_count = regions - swr_count - additional_count
        self._pool_pos = 0
        self._state = np.zeros(working_count * self._per, dtype=np.int8)
        self._rwr_originals_left = swr_count * self._per

    @functools.cached_property
    def _plan(self) -> _StackedPlan:
        """The map's plan, built (or taken from the run's memo) on first use."""
        return memoized(
            "maxwe-plan",
            self._shape,
            functools.partial(_stacked_plan, self._emap, *self._shape),
            owner=self._emap,
        )

    @property
    def never_removes(self) -> bool:
        return True

    def backing(self) -> np.ndarray:
        return self._plan.backing

    def initial_arrays(
        self, endurance: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        if endurance is not self._emap.line_endurance:
            return super().initial_arrays(endurance)
        plan = self._plan
        return plan.backing, plan.budgets, plan.total_endurance

    def min_user_slots(self) -> int:
        # Max-WE never retires slots; every working line stays addressable.
        return int(self._state.size)

    def replace_batch(
        self, slots: np.ndarray, dead_lines: np.ndarray
    ) -> RawBatchOutcome:
        per = self._per
        state_row = self._state
        states = state_row[slots]
        regions, offsets = np.divmod(dead_lines, per)
        plan = self._plan
        sra = plan.sra_lookup[regions]
        swr_mask = (states == _ORIGINAL) & (sra >= 0)

        fail_reason: Optional[str] = None
        count = slots.size
        if not self._rwr_fallback:
            strict = np.flatnonzero(states == _SWR_REPLACED)
            if strict.size:
                count = int(strict[0]) + 1
                fail_reason = _swr_worn_reason(int(dead_lines[strict[0]]))

        if fail_reason is None and count == slots.size:
            rescue_positions = np.flatnonzero(~swr_mask)
        else:
            rescue_mask = ~swr_mask
            rescue_mask[count:] = False
            if fail_reason is not None:
                rescue_mask[count - 1] = False
            rescue_positions = np.flatnonzero(rescue_mask)
        available = int(plan.pool_lines.size - self._pool_pos)
        if rescue_positions.size > available:
            count = int(rescue_positions[available]) + 1
            fail_reason = _POOL_EXHAUSTED
            rescue_positions = rescue_positions[:available]

        slots = slots[:count]
        swr_mask = swr_mask[:count]
        actions = np.full(count, BATCH_REPLACE, dtype=np.int8)
        lines = np.full(count, -1, dtype=np.intp)
        if fail_reason is not None:
            actions[count - 1] = BATCH_FAIL

        swr_positions = np.flatnonzero(swr_mask)
        if swr_positions.size:
            lines[swr_positions] = sra[swr_positions] * per + offsets[swr_positions]
            state_row[slots[swr_positions]] = _SWR_REPLACED
            self._rwr_originals_left -= int(swr_positions.size)

        if rescue_positions.size:
            pos = self._pool_pos
            taken = plan.pool_lines[pos : pos + rescue_positions.size]
            self._pool_pos = pos + int(rescue_positions.size)
            lines[rescue_positions] = taken
            state_row[slots[rescue_positions]] = _LMT_REPLACED

        if fail_reason is not None:
            # Mirror the real scheme: the unservable slot is retired so
            # state codes agree with a MaxWE instance's.
            state_row[slots[count - 1]] = _RETIRED

        return actions, lines, _NO_WEAR, fail_reason

    def replace(self, slot: int, dead_line: int) -> Replacement:
        # Line-for-line port of MaxWE.replace minus the RMT/LMT ledgers.
        state = int(self._state[slot])
        if state == _ORIGINAL:
            hop = self._swr_hop(dead_line)
            if hop >= 0:
                self._state[slot] = _SWR_REPLACED
                self._rwr_originals_left -= 1
                return ReplaceWith(line=hop)
            return self._rescue_from_pool(slot)
        if state == _LMT_REPLACED or self._rwr_fallback:
            return self._rescue_from_pool(slot)
        return FailDevice(reason=_swr_worn_reason(dead_line))

    def lookahead(self, slot: int, dead_line: int, limit: int) -> Lookahead:
        # The chain replace() would walk: an unreplaced RWR line's first
        # death takes its matched SWR line, every later death the next
        # pool line (strongest first) -- or, in strict mode, fails.
        state = int(self._state[slot])
        head = _NO_LINES
        if state == _ORIGINAL:
            hop = self._swr_hop(dead_line)
            if hop >= 0:
                head = np.array([hop], dtype=np.intp)
                state, dead_line, limit = _SWR_REPLACED, hop, limit - 1
        if state != _ORIGINAL and state != _LMT_REPLACED and not self._rwr_fallback:
            return head, _swr_worn_reason(dead_line)
        pos = self._pool_pos
        lines = self._plan.pool_lines[pos : pos + limit]
        fail = _POOL_EXHAUSTED if lines.size < limit else None
        if head.size:
            lines = np.concatenate((head, lines))
        return lines, fail

    def commit_lookahead(self, slot: int, dead_line: int, deaths: int) -> None:
        # The state ``deaths`` successive replace() calls leave behind.
        state = int(self._state[slot])
        if state == _ORIGINAL and self._swr_hop(dead_line) >= 0:
            state = self._state[slot] = _SWR_REPLACED
            self._rwr_originals_left -= 1
            deaths -= 1
        if not deaths or (
            state != _ORIGINAL and state != _LMT_REPLACED and not self._rwr_fallback
        ):
            return  # a strict-mode failure changes no state
        pos = self._pool_pos
        rescued = min(deaths, self._plan.pool_lines.size - pos)
        self._pool_pos = pos + rescued
        self._state[slot] = _LMT_REPLACED if rescued == deaths else _RETIRED

    def _swr_hop(self, dead_line: int) -> int:
        """The matched SWR line of RWR line ``dead_line``, else -1."""
        region, offset = divmod(dead_line, self._per)
        spare_region = int(self._plan.sra_lookup[region])
        return spare_region * self._per + offset if spare_region >= 0 else -1

    def _rescue_from_pool(self, slot: int) -> Replacement:
        pool_lines = self._plan.pool_lines
        pos = self._pool_pos
        if pos >= pool_lines.size:
            self._state[slot] = _RETIRED
            return FailDevice(reason=_POOL_EXHAUSTED)
        self._pool_pos = pos + 1
        self._state[slot] = _LMT_REPLACED
        return ReplaceWith(line=int(pool_lines[pos]))

    def replacement_extra_floor(self) -> float:
        plan = self._plan
        floor = math.inf
        if self._pool_pos < plan.pool_lines.size:
            floor = float(plan.pool_floor[self._pool_pos])
        if self._rwr_originals_left > 0:
            floor = min(floor, plan.swr_line_floor)
        return floor

    def replacement_capacity(self) -> int:
        # Each SWR failover consumes one paired spare line and each pool
        # rescue one pool line, so their sum bounds future replacements.
        return self._rwr_originals_left + int(
            self._plan.pool_lines.size - self._pool_pos
        )

    def describe(self) -> str:
        return self._description


#: Shared zero-length wear array: Max-WE never extends budgets, so the
#: engine never indexes the wear component of its raw outcomes.
_NO_WEAR = np.empty(0, dtype=float)

#: Shared zero-length line array: a lookahead without an SWR hop.
_NO_LINES = np.empty(0, dtype=np.intp)
