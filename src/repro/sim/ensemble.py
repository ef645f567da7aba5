"""The trial-stacked ``fluid-ensemble`` lifetime engine.

``simulate_lifetime`` runs one device; a Monte-Carlo study runs hundreds
of statistically independent replicas whose per-run cost is dominated by
dispatch and initialization, not kernel math (see BENCH_engine.json).
This engine amortizes that overhead by advancing ``T`` trials through
one engine invocation:

* **Stacked scheme state** -- per-trial sparing bookkeeping lives in
  ``(trials, ...)`` tensors behind the
  :class:`~repro.sparing.base.BatchedSchemeState` protocol.  Eligible
  schemes (Max-WE in the paper configuration) build all ``T`` allocation
  plans with one batch of cross-trial array operations; everything else
  falls back to real per-trial instances
  (:class:`~repro.sparing.base.FallbackSchemeState`), which is always
  correct, just without the stacked-init speedup.
* **Shared spectral quantities** -- the wear-weight total and ``w_max``
  are computed once per distinct weight vector and reused across trials
  (identical inputs give identical floats, so sharing is bit-safe).  The
  total is the exact (correctly rounded) sum, the same bits as
  ``math.fsum``, from :func:`~repro.util.exactsum.exact_sum`'s cheapest
  applicable tier: a constant vector (every UAA run), two values (a
  concentrated profile under background traffic), or exponent-bucketed
  integer mantissas (endurance-aware wear-levelers' distinct weights).
  A distribution that lists its prone slots (BPA without a wear-leveler
  wears one) is read at those slots alone.

The module also owns the one place a fluid run is initialized,
:func:`simulate_ensemble`, and the one epoch kernel,
:func:`_advance_trial`.  A solo run is a one-member ensemble:
:class:`~repro.sim.lifetime.LifetimeSimulator` hands every run here as
a one-member call that names its engine, so a solo
``fluid-batched`` run and an ensemble trial of the same seed start from
the same scheme state and execute the same loop on the same values.
Results therefore split back into per-trial
:class:`~repro.sim.result.SimulationResult` objects bit-identical to
solo ``fluid-batched`` runs -- timeline and regime counters included,
only ``metadata["engine"]`` differs -- independent of how members are
grouped, which the differential tests pin.  The kernel picks its
epoch-selection strategy from what it observes of the trial (see
:func:`_advance_trial` and ``docs/fluid_engine.md``, "Kernel regimes").
The oracle, :func:`~repro.sim.reference.exact_lifetime`, builds the same
per-trial arrays (:func:`_init_trial`) for its scalar event loop.

Trials that die early simply stop: advancement is per-trial over the
stacked state, so a trial failing in epoch 0 contributes no further
work.  Paranoia guards are supported through the fallback scheme state
(one :class:`~repro.verify.invariants.EngineGuard` per trial, views
tagged with the trial index).  The sampled shadow audit is one step per
member: after a member finishes, it may be re-executed on the oracle
and compared.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackModel
from repro.device.faults import FaultModel
from repro.endurance.emap import EnduranceMap
from repro.obs.metrics import MetricsRegistry, maybe_span
from repro.sim.faults import FaultInjector, active_injector, active_task_key
from repro.sim.result import SimulationResult, TimelineEvent
from repro.sparing.base import (
    BATCH_EXTEND,
    BATCH_FAIL,
    BATCH_REMOVE,
    BATCH_REPLACE,
    BatchedSchemeState,
    ExtendBudget,
    FailDevice,
    FallbackSchemeState,
    RemoveSlot,
    ReplaceWith,
    SpareScheme,
)
from repro.util.exactsum import exact_sum
from repro.util.rng import RandomState, derive_rng
from repro.verify.invariants import EngineGuard, InvariantViolation, normalize_paranoia
from repro.verify.shadow import compare_runs, should_audit
from repro.verify.snapshot import write_violation_bundle
from repro.wearlevel.base import WearLeveler, distinct_values
from repro.wearlevel.none import NoWearLeveling

#: The engine name this module implements.
ENGINE_NAME = "fluid-ensemble"

#: Shared empty index array: no removals, or no death left to select.
_EMPTY_POSITIONS = np.empty(0, dtype=np.intp)


@dataclasses.dataclass
class EnsembleMember:
    """One trial of an ensemble: a full device/attack/defence combination.

    Components must be fresh per member (schemes and wear-levelers are
    stateful); ``rng`` is the member's master seed, forked exactly as the
    solo engine forks it.
    """

    emap: EnduranceMap
    attack: AttackModel
    sparing: SpareScheme
    wearleveler: Optional[WearLeveler] = None
    fault_model: Optional[FaultModel] = None
    rng: RandomState = None


def _select_epoch(
    row: np.ndarray,
    floor: Optional[float],
    w_max: float,
    sentinel: float = math.inf,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Select the next chronologically safe epoch of deaths from ``row``.

    The epoch is driven by death-time *values*, so it never depends on
    how a partition breaks ties:

    * The chronological bound is ``t_min + floor / w_max`` (``t_min`` for
      an unknown floor, infinite for a scheme that never replaces); the
      epoch is every death strictly below it, or -- when that is empty
      (floor zero or unknown) -- the earliest death alone, ties broken by
      slot id.
    * At most ``BATCH_LIMIT`` deaths form an epoch.  When the bound holds
      at least that many and more than ``BATCH_LIMIT`` deaths are finite,
      the ``BATCH_LIMIT``-th smallest time caps the epoch: every death
      strictly below it, or the full tie class when all of them tie.  The
      common case (epochs much smaller than ``BATCH_LIMIT``) skips the
      partition entirely.
    * Infinite times (removed or non-prone slots) are never selected; a
      row without a finite time gives an empty epoch.

    Returns ``(positions, times)`` into ``row`` sorted by
    ``(time, position)``.

    ``row`` may be a compact work row (see :func:`_advance_trial`): the
    finite death times of an ascending subset of more than
    ``BATCH_LIMIT`` slots guaranteed to hold the smallest ones, every
    excluded time being ``>= sentinel``.  Selection criteria are strict
    ``<`` comparisons, so the subset sees exactly the full row's epoch
    unless that epoch may involve an excluded slot.  Only then does the
    function return ``None`` (the caller re-runs the selection on the
    full row, where the sentinel is infinite and nothing declines):

    * ``t_min`` reaches the sentinel: an excluded slot may tie first;
    * the epoch is capped and ``t_max`` reaches the sentinel: excluded
      slots may be among the ``BATCH_LIMIT`` smallest;
    * the epoch is uncapped and a finite bound lies above the sentinel:
      excluded slots may die below the bound, and may even tip the full
      row into the cap.

    A capped epoch with ``t_max`` below the sentinel is served whatever
    the bound: the ``BATCH_LIMIT`` smallest times all lie in the subset,
    and the epoch reads nothing else.

    The kernel passes each compact row as a :class:`_SortedRow`, which
    serves this same epoch (or decline) from its sorted head.
    """
    if isinstance(row, _SortedRow):
        return row.select(floor, w_max, sentinel)
    from repro.sim.lifetime import BATCH_LIMIT

    t_min = float(row.min()) if row.size else math.inf
    if not t_min < sentinel:
        return (_EMPTY_POSITIONS, row[:0]) if math.isinf(sentinel) else None
    bound = t_min if floor is None else t_min + floor / w_max
    # An infinite bound admits every finite death, so on a long row the
    # partition alone tells whether the cap applies.
    below = row < bound if bound < math.inf else None
    capped = row.size > BATCH_LIMIT and (
        below is None or np.count_nonzero(below) >= BATCH_LIMIT
    )
    if capped:
        part = np.partition(row, BATCH_LIMIT)
        capped = part[BATCH_LIMIT] < math.inf
    if capped:
        t_max = float(part[:BATCH_LIMIT].max())
        if not t_max < sentinel:
            return None
        pos = np.flatnonzero(row < t_max)
        if not pos.size:
            pos = np.flatnonzero(row == t_max)
    elif below is None:
        pos = np.flatnonzero(row < bound)
    elif sentinel < bound:
        return None
    else:
        pos = np.flatnonzero(below)
        if not pos.size:
            pos = np.flatnonzero(row == t_min)[:1]
    times = row[pos]
    # flatnonzero yields ascending positions, so a stable time sort
    # orders by (time, position).  Ties are common (region-mates share
    # an endurance), so sort stably outright.
    order = np.argsort(times, kind="stable")
    return pos[order], times[order]


class _SortedRow:
    """A compact work row, sorted once by ``(time, key)``, served from its head.

    Every epoch :func:`_select_epoch` picks is a prefix of the row in
    ``(time, key)`` order, so the row is sorted once (a stable argsort;
    keys ascend with the row) and each selection reads only the heads of
    three disjoint parts that together hold every key's current time:

    * the **initial order**: keys never served, whose times are still the
      row's initial ones; selections advance a head index over it;
    * the **merged** re-inserted times, as ``time + 1j * key``: numpy
      orders complex numbers lexicographically, so the part stays sorted
      by ``(time, key)`` and binary searches count it;
    * the **staged** keys served since they were last merged.  The kernel
      stores their new times in ``times`` before the next selection,
      which reads them back, unsorted, with their minimum.

    A selection decides the epoch from the initial order and the merged
    part, and names the staged times that could change the decision:
    those below the cap ``t_max`` (at or below it when the epoch is a
    whole tie class), else below the bound (at or below it when the
    earliest death alone is taken), else every finite one.  It merges
    them (only ``BATCH_LIMIT`` of the smallest at a time, unless they are
    needed whole) and decides again.  The count of finite times is kept
    exactly, which decides the cap without reading past it.  Max-WE under
    UAA re-inserts times above every cap but the last, so it merges one
    batch in its last epoch.  ``reads`` counts the entries the
    row has sorted, read back, gathered or merged
    (``sim.selection_slots``).

    The row stays valid while the kernel changes no entry of ``times``
    but the keys it was served; the frontier regime changes others, so
    the kernel drops the row on entering it.
    """

    __slots__ = (
        "times",
        "size",
        "reads",
        "_keys",
        "_sorted",
        "_head",
        "_finite",
        "_merged",
        "_staged",
        "_staged_min",
        "_served",
    )

    def __init__(self, times: np.ndarray) -> None:
        self.times = times
        self.size = int(times.size)
        order = np.argsort(times, kind="stable")
        self._sorted = times[order]
        # Half the memory of the order, for as long as the trial runs.
        self._keys = order.astype(np.int32 if self.size < 2**31 else np.intp)
        del order
        self._head = 0
        self._finite = int(np.searchsorted(self._sorted, math.inf))
        self._merged = np.empty(0, dtype=complex)
        self._staged: List[np.ndarray] = []
        self._staged_min = math.inf
        self._served = _EMPTY_POSITIONS
        self.reads = self.size

    def select(
        self, floor: Optional[float], w_max: float, sentinel: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """:func:`_select_epoch` of the current times, from the sorted heads."""
        served = self._served
        if served.size:
            new = self.times[served]
            self.reads += served.size
            self._finite -= int(np.count_nonzero(new == math.inf))
            self._staged_min = min(self._staged_min, float(new.min()))
            self._staged.append(served)
        while True:
            taken, cutoff, inclusive = self._decide(floor, w_max, sentinel)
            low = self._staged_min
            if not self._staged or not (low < cutoff or inclusive and low == cutoff):
                break
            self._merge(cutoff, inclusive)
        if taken is None:
            return None
        return self._take(*taken)

    def _decide(
        self, floor: Optional[float], w_max: float, sentinel: float
    ) -> Tuple[Optional[Tuple[int, int]], float, bool]:
        """How many initial and merged entries the epoch takes (``None``
        to decline), and which staged times could change that: those
        below the returned time, or at it too when ``inclusive``."""
        from repro.sim.lifetime import BATCH_LIMIT

        initial = self._sorted[self._head :]
        merged = self._merged
        t_initial = float(initial[0]) if initial.size else math.inf
        t_merged = float(merged[0].real) if merged.size else math.inf
        t_min = min(t_initial, t_merged)
        if not t_min < sentinel:
            return ((0, 0) if math.isinf(sentinel) else None), math.inf, False
        bound = t_min if floor is None else t_min + floor / w_max
        below = self._count(bound, "left") if bound < math.inf else None
        capped = (
            self.size > BATCH_LIMIT
            and self._finite > BATCH_LIMIT
            and (below is None or sum(below) >= BATCH_LIMIT)
        )
        if capped:
            t_max = self._rank(BATCH_LIMIT - 1)
            if not t_max < sentinel:
                return None, t_max, False
            taken = self._count(t_max, "left")
            if sum(taken):
                return taken, t_max, False
            # Every one of the BATCH_LIMIT smallest ties: the whole class.
            return self._count(t_max, "right"), t_max, True
        if below is None:
            return self._count(math.inf, "left"), math.inf, False
        if sentinel < bound:
            return None, bound, False
        if sum(below):
            return below, bound, False
        # The earliest death alone, ties broken by key.
        initial_first = t_initial < t_merged or (
            t_initial == t_merged and self._keys[self._head] < merged[0].imag
        )
        return ((1, 0) if initial_first else (0, 1)), bound, True

    def _count(self, time: float, side: str) -> Tuple[int, int]:
        """Initial and merged entries below ``time`` (``"left"``) or at
        or below it (``"right"``)."""
        initial = int(np.searchsorted(self._sorted[self._head :], time, side))
        if not self._merged.size:
            return initial, 0
        # Keys are non-negative: a probe ``time - 1j`` sorts before every
        # entry at ``time``, one at ``time + inf * 1j`` after all of them.
        probe = complex(time, -1.0 if side == "left" else math.inf)
        return initial, int(np.searchsorted(self._merged, probe))

    def _rank(self, rank: int) -> float:
        """The time of 0-based ``rank`` over the initial and merged
        entries, infinite past their end."""
        initial = self._sorted[self._head : self._head + rank + 1]
        merged = self._merged[: rank + 1]
        self.reads += initial.size + merged.size
        if merged.size:
            initial = np.concatenate([initial, merged.real])
            if initial.size > rank:
                initial = np.partition(initial, rank)
        return float(initial[rank]) if initial.size > rank else math.inf

    def _take(self, initial: int, merged: int) -> Tuple[np.ndarray, np.ndarray]:
        """Serve the first ``initial`` and ``merged`` entries, in
        ``(time, key)`` order."""
        head = self._head
        keys = self._keys[head : head + initial].astype(np.intp)
        times = self._sorted[head : head + initial]
        self._head = head + initial
        if merged:
            entries = self._merged[:merged]
            self._merged = self._merged[merged:]
            keys = np.concatenate([keys, entries.imag.astype(np.intp)])
            times = np.concatenate([times, entries.real])
            if initial:
                order = np.lexsort((keys, times))
                keys, times = keys[order], times[order]
        self.reads += keys.size
        self._served = keys
        return keys, times

    def _merge(self, cutoff: float, inclusive: bool) -> None:
        """Merge the staged times below ``cutoff`` (or at it too when
        ``inclusive``); unless ``inclusive``, only ``BATCH_LIMIT`` of the
        smallest, enough to decide a capped epoch.  Temporaries are freed
        as they go: the staged keys may span most of the row."""
        from repro.sim.lifetime import BATCH_LIMIT

        keys = np.concatenate(self._staged)
        self._staged = []
        times = self.times[keys]
        self.reads += keys.size
        due = times <= cutoff if inclusive else times < cutoff
        count = int(np.count_nonzero(due))
        if not inclusive and count > BATCH_LIMIT:
            # BATCH_LIMIT of the smallest times: every time below the
            # BATCH_LIMIT-th smallest, and enough of the ties at it.  The
            # ties left staged can change only a whole-tie-class epoch,
            # whose inclusive cutoff merges them on the next pass.
            candidates = times[due]
            candidates.partition(BATCH_LIMIT - 1)
            last = candidates[BATCH_LIMIT - 1]
            del candidates
            np.less(times, last, out=due)
            room = BATCH_LIMIT - int(np.count_nonzero(due))
            due[np.flatnonzero(times == last)[:room]] = True
            count = BATCH_LIMIT
        order = np.flatnonzero(due)
        order = order[np.lexsort((keys[order], times[order]))]
        entries = np.empty(count, dtype=complex)
        entries.real = times[order]
        entries.imag = keys[order]
        del order
        merged = self._merged
        if merged.size:
            entries = np.insert(merged, np.searchsorted(merged, entries), entries)
        self.reads += entries.size
        self._merged = entries
        self._staged_min = math.inf
        if count < keys.size:
            np.logical_not(due, out=due)
            self._staged_min = float(times[due].min())
            del times
            self._staged.append(keys[due])


def initialize_schemes(
    members: Sequence[EnsembleMember], *, stacked: bool
) -> BatchedSchemeState:
    """The one place a run's sparing scheme is initialized.

    Every member forks its ``"sparing"`` stream first -- a Generator
    seed's later forks depend on it, so the fork happens even when the
    stacked state never draws from it.  With ``stacked`` the scheme
    family may build a :class:`BatchedSchemeState` over all members;
    otherwise, or when it declines, each member's real scheme is
    initialized and wrapped in a :class:`FallbackSchemeState`.
    """
    rngs = [derive_rng(member.rng, "sparing") for member in members]
    schemes = [member.sparing for member in members]
    state: Optional[BatchedSchemeState] = None
    if stacked:
        state = type(schemes[0]).make_batched_state(
            schemes, [member.emap for member in members]
        )
    if state is None:
        for member, rng in zip(members, rngs):
            member.sparing.initialize(member.emap, rng)
        state = FallbackSchemeState(schemes)
    return state


def _death_times(
    slots: int, prone: np.ndarray, prone_death: np.ndarray
) -> np.ndarray:
    """Every slot's death time: ``prone_death`` at ``prone``, else never."""
    current_death = np.full(slots, math.inf)
    current_death[prone] = prone_death
    return current_death


class _Trial(NamedTuple):
    """One member's kernel inputs and result descriptions."""

    endurance: np.ndarray
    total_endurance: float
    backing: np.ndarray
    min_user_slots: int
    weights: np.ndarray
    eta: float
    current_death: Optional[np.ndarray]
    active_weight: float
    w_max: float
    w_scalar: Optional[float]
    prone: Optional[np.ndarray]
    prone_death: Optional[np.ndarray]
    describe: dict


def _init_trial(
    state: BatchedSchemeState,
    index: int,
    member: EnsembleMember,
    weight_cache: List[Tuple[Tuple[int, ...], np.ndarray, float, float]],
) -> _Trial:
    """Build member ``index``'s arrays from its scheme state and components.

    Distinct weight vectors are rare (one per attack/wear-level config),
    so the exact weight total (correctly rounded, the same bits as
    ``math.fsum``, from the constant, two-valued or bucketed tier of
    :func:`~repro.util.exactsum.exact_sum`) and ``w_max`` are shared
    through ``weight_cache`` across members with equal weights.  A
    constant weight vector (a uniform profile without a wear-leveler, a
    read-only broadcast view) sets ``w_scalar``, so the kernel divides by
    the scalar instead of gathering weights.  A distribution that lists
    its prone slots (BPA without a wear-leveler wears one slot) is read
    at those slots alone, past the cache.  Whenever some slot never
    wears, ``prone`` holds the ascending prone slots and ``prone_death``
    their death times, and ``current_death`` is ``None``.  The backing
    and budgets may be the scheme state's shared read-only arrays (see
    :meth:`~repro.sparing.base.BatchedSchemeState.initial_arrays`); the
    death times are always fresh arrays.
    """
    fault_model = member.fault_model if member.fault_model is not None else FaultModel()
    endurance = fault_model.effective_endurance(member.emap.line_endurance)
    backing, budgets, total_endurance = state.initial_arrays(index, endurance)
    slots = backing.size
    min_user_slots = min(state.min_user_slots(index), slots)
    if budgets.dtype != np.float64:
        budgets = budgets.astype(float)

    profile = member.attack.profile(slots)
    wl = member.wearleveler if member.wearleveler is not None else NoWearLeveling()
    wl.attach(budgets, derive_rng(member.rng, "wearlevel"))
    distribution = wl.wear_weights(profile)
    weights = np.asarray(distribution.weights, dtype=float)
    if weights.size != slots:
        raise ValueError(
            f"wear-leveler produced {weights.size} weights for {slots} slots"
        )
    eta = distribution.useful_fraction

    prone = distribution.prone
    if prone is not None:
        # A concentrated profile lists its few prone slots and leaves
        # every other weight zero, so the extremes, the exact total (the
        # zeros add nothing to it) and the death times read the prone
        # entries alone.
        prone_weights = weights[prone]
        w_lo, w_max = float(prone_weights.min()), float(prone_weights.max())
        active_weight = exact_sum(prone_weights, w_lo, w_max)
        w_min = w_lo if prone.size == slots else 0.0
    else:
        # ``min() > 0`` is the allocation-free spelling of
        # ``(weights > 0).all()``; weights are finite by contract.
        values = distinct_values(weights)
        w_min = float(values.min()) if slots else 0.0
        active_weight = None
        w_max = 0.0
        for shape, cached, cached_sum, cached_max in weight_cache:
            # Comparing a constant view by its one value may miss an equal
            # dense vector; a miss only recomputes the same exact sum.
            if shape == weights.shape and np.array_equal(cached, values):
                active_weight, w_max = cached_sum, cached_max
                break
        if active_weight is None:
            # The initial active weight is the one sum every served-writes
            # increment multiplies, so it is exact: correctly rounded, the
            # same bits as ``math.fsum`` (a uniform 20-slot profile must
            # sum to 1.0).  The extremes pick the cheapest exact tier.
            w_max = float(values.max()) if slots else 0.0
            active_weight = exact_sum(weights, w_min, w_max)
            if len(weight_cache) < 8:
                weight_cache.append((weights.shape, values, active_weight, w_max))
    all_prone = slots > 0 and w_min > 0.0

    # With every slot wear-prone the masked assignment collapses to one
    # full divide, and with constant weights to a divide by the scalar:
    # every branch produces the same quotients bit for bit.  When some
    # slot never wears, the prone slots' times are all the compact rows
    # read, and the full array is left to the paths that read it
    # (:func:`_death_times`).
    w_scalar = w_min if all_prone and w_min == w_max else None
    prone_death = current_death = None
    if w_scalar is not None:
        current_death = budgets / w_scalar
        prone = None
    elif all_prone:
        current_death = budgets / weights
        prone = None
    else:
        if prone is None:
            prone = np.flatnonzero(weights > 0.0)
        prone_death = budgets[prone] / weights[prone]

    return _Trial(
        endurance=endurance,
        total_endurance=total_endurance,
        backing=backing,
        min_user_slots=min_user_slots,
        weights=weights,
        eta=eta,
        current_death=current_death,
        active_weight=active_weight,
        w_max=w_max,
        w_scalar=w_scalar,
        prone=prone,
        prone_death=prone_death,
        describe={
            "attack": member.attack.describe(),
            "sparing": state.describe(index),
            "wearleveler": wl.describe(),
            "fault_model": fault_model.describe(),
        },
    )


def _shadow_audit(
    member: EnsembleMember,
    primary: SimulationResult,
    repro: dict,
    metrics: Optional[MetricsRegistry],
) -> None:
    """Re-run ``member`` on the exact oracle and compare results."""
    from repro.sim.reference import exact_lifetime

    with maybe_span(metrics, "verify/shadow"):
        if metrics is not None:
            metrics.inc("verify.shadow_audits")
        reference = exact_lifetime(
            member.emap,
            member.attack,
            member.sparing,
            member.wearleveler,
            member.fault_model,
            member.rng,
            record_timeline=False,
        )
        try:
            compare_runs(primary, reference, rounds=primary.deaths, repro=repro)
        except InvariantViolation:
            if metrics is not None:
                metrics.inc("verify.violations")
            raise


def simulate_ensemble(
    members: Sequence[EnsembleMember],
    *,
    engine: str = ENGINE_NAME,
    record_timeline: bool = False,
    max_timeline_events: int = 100_000,
    metrics: Optional[MetricsRegistry] = None,
    paranoia: str = "off",
    shadow_sample: float = 0.0,
) -> List[SimulationResult]:
    """Advance every member to device failure; one result per member.

    The one place an engine run is initialized: a solo
    :class:`~repro.sim.lifetime.LifetimeSimulator` run is a one-member
    call, ``engine`` names the engine its results report.  Every member
    runs the epoch kernel, on the stacked scheme state when one applies
    and no paranoia guard needs real schemes.  Results are index-aligned
    with ``members`` and bit-identical to one-member calls of the same
    members (``metadata["engine"]`` aside), independent of how members
    are grouped.

    Each member is re-executed on
    :func:`~repro.sim.reference.exact_lifetime` with probability
    ``shadow_sample`` (deterministic in its integrity key) and escalates
    a divergence as a :class:`~repro.verify.shadow.ShadowDivergence`.
    """
    from repro.sim.lifetime import accounting_tolerance, build_result, normalize_engine

    if not members:
        raise ValueError("an ensemble needs at least one member")
    engine = normalize_engine(engine)
    paranoia = normalize_paranoia(paranoia)
    shadow_sample = float(shadow_sample)
    if not 0.0 <= shadow_sample <= 1.0:
        raise ValueError(f"shadow_sample must be in [0, 1], got {shadow_sample!r}")
    if shadow_sample > 0.0:
        for member in members:
            if not isinstance(member.rng, (int, np.integer)):
                raise ValueError(
                    "shadow audits require integer rng seeds: the audit "
                    "re-executes each member from scratch, which a stateful "
                    "Generator (or None) cannot reproduce deterministically"
                )

    with maybe_span(metrics, "sim/init"):
        # Stacked scheme state skips the RMT/LMT ledgers the guards audit.
        state = initialize_schemes(members, stacked=paranoia == "off")

    injector = active_injector()
    corruptor: Optional[FaultInjector] = (
        injector
        if injector is not None and injector.spec.corrupt_state > 0.0
        else None
    )
    task_key = active_task_key()
    weight_cache: List[Tuple[Tuple[int, ...], np.ndarray, float, float]] = []

    results: List[SimulationResult] = []
    for index, member in enumerate(members):
        try:
            with maybe_span(metrics, "sim/init"):
                trial = _init_trial(state, index, member, weight_cache)
                # Corruption rolls and shadow sampling are keyed by the
                # supervising runner's task key (per trial in an
                # ensemble); standalone runs use the run's own identity.
                describe = trial.describe
                if task_key:
                    integrity_key = (
                        f"{task_key}#trial={index}" if engine == ENGINE_NAME else task_key
                    )
                else:
                    integrity_key = "|".join(
                        (
                            describe["attack"],
                            describe["sparing"],
                            describe["wearleveler"],
                            repr(member.rng),
                            engine,
                        )
                    )
                repro = {
                    "seed": repr(member.rng),
                    "engine": engine,
                    "attack": describe["attack"],
                    "sparing": describe["sparing"],
                    "wearleveler": describe["wearleveler"],
                    "paranoia": paranoia,
                    "shadow_sample": shadow_sample,
                }
                if engine == ENGINE_NAME:
                    repro["trial"] = index
                guard: Optional[EngineGuard] = None
                if paranoia != "off":
                    guard = EngineGuard(
                        paranoia,
                        sparing=state.scheme(index),
                        endurance=trial.endurance,
                        weights=trial.weights,
                        eta=trial.eta,
                        total_endurance=trial.total_endurance,
                        tolerance=accounting_tolerance,
                        metrics=metrics,
                        repro=repro,
                    )
                    guard.start(trial.backing)

            with maybe_span(metrics, "sim/kernel"):
                outcome = _advance_trial(
                    state,
                    index,
                    endurance=trial.endurance,
                    backing=trial.backing,
                    weights=trial.weights,
                    eta=trial.eta,
                    current_death=trial.current_death,
                    min_user_slots=trial.min_user_slots,
                    active_weight=trial.active_weight,
                    w_max=trial.w_max,
                    guard=guard,
                    corruptor=corruptor,
                    integrity_key=integrity_key if corruptor is not None else "",
                    total_endurance=trial.total_endurance,
                    record_timeline=record_timeline,
                    max_timeline_events=max_timeline_events,
                    w_scalar=trial.w_scalar,
                    prone=trial.prone,
                    prone_death=trial.prone_death,
                    metrics=metrics,
                )
            result = build_result(
                outcome,
                total_endurance=trial.total_endurance,
                slots=trial.backing.size,
                engine=engine,
                metrics=metrics,
                **describe,
            )
            if shadow_sample > 0.0 and should_audit(shadow_sample, integrity_key):
                _shadow_audit(member, result, repro, metrics)
        except InvariantViolation as violation:
            write_violation_bundle(violation)
            raise
        results.append(result)
    if metrics is not None:
        metrics.inc("sim.ensembles")
    return results


def _advance_trial(
    state: BatchedSchemeState,
    trial: int,
    *,
    endurance: np.ndarray,
    backing: np.ndarray,
    weights: np.ndarray,
    eta: float,
    current_death: Optional[np.ndarray],
    min_user_slots: int,
    active_weight: float,
    w_max: float,
    guard: Optional[EngineGuard],
    corruptor: Optional[FaultInjector],
    integrity_key: str,
    total_endurance: float,
    record_timeline: bool,
    max_timeline_events: int,
    w_scalar: Optional[float] = None,
    prone: Optional[np.ndarray] = None,
    prone_death: Optional[np.ndarray] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[float, int, int, str, List[TimelineEvent], dict]:
    """Advance one trial to device failure: the batched epoch kernel.

    Every ``fluid-batched`` run (as the one trial of a one-member
    ensemble) and every ``fluid-ensemble`` trial runs this loop.  Each
    pass selects the next
    chronologically safe epoch of deaths, decides it in one
    ``replace_batch`` call and integrates the served writes of the epoch
    with a cumulative sum.  The floor is fetched once before the loop;
    ``w_scalar`` may be set when every entry of ``weights`` equals it, and
    scalar divisions then replace the elementwise gathers
    bit-identically.  ``backing`` may be shared and read-only: the loop
    then writes only its compact rows, or a copy.  ``current_death`` is
    ``None`` when ``prone`` lists the only slots that wear, with their
    times in ``prone_death``: the loop builds the full array only for
    full rows.

    The selection strategy follows from what the loop can observe, never
    from an option; every strategy selects exactly the same epochs:

    * the **value partition** (:func:`_select_epoch`) over the full
      arrays;
    * the **sorted candidate row** (:class:`_SortedRow`) over **compact
      work rows**, when the scheme never removes slots and no guard or
      corruptor inspects or mutates the full arrays: the prone slots when
      some slots never wear (``prone``, listed by the trial's init), else
      the candidates the replacement capacity allows, if it is known.
      The row is sorted once by ``(time, key)`` and each epoch is read
      from its head and the few re-inserted times it may involve, so a
      selection costs O(epoch), not O(row);
    * the **death-frontier** sequential regime after
      :data:`~repro.sim.lifetime.SEQUENTIAL_ENTER_STREAK` consecutive
      one-death epochs, handing back to the vectorized selection the
      moment an epoch cannot be proven identical to it.  A one-death
      frontier epoch opens a *run*: the slot's next deaths that are
      one-death epochs too, settled in one vectorized step from the
      state's ``lookahead()``, or through its scalar ``replace()`` when
      the state has no lookahead or the runner-up leaves no room.
    """
    from repro.sim.frontier import DeathFrontier
    from repro.sim.lifetime import (
        BATCH_LIMIT,
        FRONTIER_LIMIT,
        SEQUENTIAL_ENTER_STREAK,
        SEQUENTIAL_EPOCH_CAP,
        _ACTION_NAMES,
        _DEGENERATE_REASON,
        _EXHAUSTED_REASON,
        _apply_state_corruption,
    )

    served = 0.0
    v_now = 0.0
    deaths = 0
    rounds = 0
    replacements = 0
    epochs = 0
    live_count = backing.size
    failure_reason = _DEGENERATE_REASON
    timeline: List[TimelineEvent] = []
    floor = state.replacement_extra_floor(trial)
    # Tightened safe-prefix bound: the largest weight among *still prone*
    # slots.  Slots only ever leave the prone set (removal or terminal
    # failure), so the last recomputed maximum stays a valid upper bound;
    # ``w_max_live`` lazily counts the prone slots at that maximum and
    # triggers a recompute only when it hits zero.
    w_max_active = w_max
    w_max_live = -1  # -1 = count not yet materialized
    tighten = floor is not None and not math.isinf(floor)
    # Adaptive regime switch: consecutive one-death epochs (the
    # concentrated-wear signature) hand selection to the incremental
    # death-frontier index.  Guards re-inspect full state every round and
    # corruption mutates it behind the index's back, so both pin the
    # kernel to the vectorized regime.
    frontier: Optional[DeathFrontier] = None
    sequential_ok = guard is None and corruptor is None
    epoch_cap = min(SEQUENTIAL_EPOCH_CAP, BATCH_LIMIT - 1)
    size1_streak = 0
    sequential_rounds = 0
    # One-death frontier rounds not yet recorded in ``sim.epoch_size``:
    # recorded in bulk when the regime exits and when the trial ends.
    unrecorded_singles = 0
    # Deaths settled inside runs of two or more (``sim.run_deaths``).
    run_deaths = 0
    regime_switches = 0
    full_scans = 0

    # The live rows the loop reads and scatters into, indexed by epoch
    # *keys*: the full arrays (keys are slots), or compact work rows
    # (keys are positions in ``work``, an ascending slot subset).  Compact
    # rows need a scheme that never removes slots and nobody reading or
    # corrupting the full arrays; they hold every slot that may die before
    # the trial ends, with every excluded death time ``>= work_sentinel``:
    #
    # * Some slots never wear (zero weight, an infinite death time): the
    #   rows are the prone slots (``prone``, from the trial's init) and
    #   the sentinel is infinite, so the selection never declines.
    # * Every slot wears: a replacement's new death time always lands at
    #   or above the epoch bound that selected it -- that is exactly why
    #   epoch grouping is chronologically safe -- so with at most
    #   ``capacity`` replacements ever granted and at most ``BATCH_LIMIT``
    #   slots selected per epoch, every epoch draws from the ``capacity +
    #   BATCH_LIMIT`` smallest initial death times.  The rows are those
    #   candidates while each epoch's bound stays at or below the smallest
    #   excluded time, ``work_sentinel``.
    #
    # The rows copy the death times, backing lines and weights (same float
    # values, so decisions and accounting are unchanged) into dense rows
    # that fit the cache, and are scattered back into the full arrays when
    # the trial ends or the guarantee slips.  Vectorized selections on
    # compact rows read ``rows``, the death-time row sorted once by
    # (time, key), from its head; the frontier regime drops it, and the
    # next vectorized selection sorts the row again.
    death_row, backing_row, weight_row = current_death, backing, weights
    rows: Optional[_SortedRow] = None
    # Entries the vectorized selections read (``sim.selection_slots``).
    selection_slots = 0
    work: Optional[np.ndarray] = None
    work_sentinel = math.inf
    if state.never_removes and sequential_ok and backing.size > 0:
        if prone is not None:
            work = prone
        else:
            capacity = state.replacement_capacity(trial)
            limit = None if capacity is None else int(capacity) + BATCH_LIMIT + 1
            if limit is not None and limit < current_death.size:
                # Value partition: every slot strictly below the
                # (limit+1)-th smallest death time, ascending (and so
                # already sorted), every excluded time >= the sentinel.
                # Ties at the threshold land outside the set, so require
                # enough candidates for the in-set partitions.
                threshold = float(np.partition(current_death, limit)[limit])
                candidates = np.flatnonzero(current_death < threshold)
                if candidates.size > BATCH_LIMIT:
                    work = candidates
                    work_sentinel = threshold
    if work is not None:
        death_row = prone_death if prone is not None else current_death[work]
        backing_row = backing[work]
        if w_scalar is None:
            weight_row = weights[work]
    else:
        if current_death is None:
            death_row = current_death = _death_times(backing.size, prone, prone_death)
        if not backing.flags.writeable:
            # Full rows write the backing: copy a shared one first.
            backing = backing_row = backing.copy()

    def view():
        assert guard is not None
        return guard.make_view(
            served=served,
            v_now=v_now,
            deaths=deaths,
            backing=backing,
            current_death=current_death,
            trial=trial,
        )

    while True:
        # A "round" is every pass through the loop (including the final
        # empty one); ``epochs`` counts passes that processed deaths.
        rounds += 1
        if corruptor is not None:
            kind = corruptor.corrupt_state(integrity_key, rounds)
            if kind is not None:
                served = _apply_state_corruption(
                    kind, served, backing, current_death, total_endurance
                )
        if guard is not None:
            guard.on_round(view)

        keys = None
        if frontier is not None:
            # Sequential micro-loop: pop the epoch straight off the index
            # -- O(epoch log workset), independent of device size -- and
            # fall back the moment equivalence to the vectorized
            # selection cannot be proven.
            picked = frontier.pop_epoch(floor, w_max_active, epoch_cap, work_sentinel)
            if picked is None:
                frontier = None
                size1_streak = 0
                regime_switches += 1
                if metrics is not None and unrecorded_singles:
                    metrics.observe("sim.epoch_size", 1, count=unrecorded_singles)
                unrecorded_singles = 0
            elif not picked[0]:
                if deaths > 0:
                    failure_reason = _EXHAUSTED_REASON
                break
            elif len(picked[0]) == 1:
                # A one-death epoch opens a *run*: the same slot's next
                # deaths, for as long as each is a one-death epoch of its
                # own (a concentrated attack's hot slot dies over and
                # over while every other slot waits).  Given the state's
                # lookahead, the whole run settles in one vectorized
                # step; otherwise, or when the runner-up leaves no room
                # for a second death, the state's scalar replace()
                # settles the one death.  Every expression is the
                # element-wise form of the scalar loop's, in its order,
                # so results stay bit-identical either way.
                key = picked[0][0]
                v = picked[1][0]
                slot = key if work is None else int(work[key])
                dead_line = int(backing_row[key])
                divisor = weight_row[key] if w_scalar is None else w_scalar
                # No run death may reach the runner-up or a sentinel,
                # and each adds at least ``reach`` to the slot's time.
                runner = frontier.peek()
                limit = min(frontier.sentinel, work_sentinel)
                if runner is not None:
                    limit = min(limit, runner[0])
                reach = floor / w_max_active if floor is not None else 0.0
                want = _run_limit(limit - v, reach, BATCH_LIMIT)
                ahead = (
                    state.lookahead(trial, slot, dead_line, want) if want > 1 else None
                )
                if ahead is not None:
                    lines, fail = ahead
                    size = lines.size
                    # Death times t[j + 1] = t[j] + endurance / weight:
                    # add.accumulate sums left to right, as the loop did.
                    t = np.empty(size + 1)
                    t[0] = v
                    np.divide(endurance[lines], divisor, out=t[1:])
                    np.add.accumulate(t, out=t)
                    run = 1 + _run_prefix(
                        t[1 : size + (fail is not None)], limit, reach
                    )
                    state.commit_lookahead(trial, slot, dead_line, run)
                    # Served writes: served + (t[j] - t[j - 1]) * weight * eta.
                    served_at = np.empty(run + 1)
                    served_at[0] = served
                    served_at[1] = v - v_now
                    np.subtract(t[1:run], t[: run - 1], out=served_at[2:])
                    served_at[1:] *= active_weight
                    served_at[1:] *= eta
                    np.add.accumulate(served_at, out=served_at)
                    served = float(served_at[run])
                    v_now = float(t[run - 1])
                    replaced = min(run, size)
                    replacements += replaced
                    if replaced:
                        backing_row[key] = lines[replaced - 1]
                    if run > size:
                        action = BATCH_FAIL
                        failure_reason = fail
                        death_row[key] = math.inf
                    else:
                        action = BATCH_REPLACE
                        new_death = float(t[run])
                        death_row[key] = new_death
                        frontier.push(key, new_death)
                    if record_timeline and len(timeline) < max_timeline_events:
                        dead = [dead_line] + lines[: run - 1].tolist()
                        for j in range(min(run, max_timeline_events - len(timeline))):
                            timeline.append(
                                TimelineEvent(
                                    writes_served=float(served_at[j + 1]),
                                    slot=slot,
                                    dead_line=dead[j],
                                    action=_ACTION_NAMES[
                                        BATCH_REPLACE if j < size else BATCH_FAIL
                                    ],
                                    replacement_line=int(lines[j]) if j < size else None,
                                )
                            )
                    if run > 1:
                        run_deaths += run
                else:
                    run = 1
                    served = served + (v - v_now) * active_weight * eta
                    v_now = v
                    outcome = state.replace(trial, slot, dead_line)
                    line = None
                    if isinstance(outcome, ReplaceWith):
                        action, line = BATCH_REPLACE, int(outcome.line)
                        backing_row[key] = line
                        extra = endurance[line]
                    elif isinstance(outcome, ExtendBudget):
                        action, extra = BATCH_EXTEND, outcome.wear
                    else:
                        extra = None
                        death_row[key] = math.inf
                        if isinstance(outcome, RemoveSlot):
                            action = BATCH_REMOVE
                            live_count -= 1
                            active_weight -= float(weights[slot])
                            if tighten:
                                w_max_active, w_max_live = _retire_max_weight(
                                    weights,
                                    current_death,
                                    weights[slot],
                                    w_max_active,
                                    w_max_live,
                                )
                        else:
                            assert isinstance(outcome, FailDevice)
                            action = BATCH_FAIL
                            failure_reason = outcome.reason
                    if extra is not None:
                        replacements += 1
                        new_death = v + extra / divisor
                        death_row[key] = new_death
                        frontier.push(key, new_death)
                    if record_timeline and len(timeline) < max_timeline_events:
                        timeline.append(
                            TimelineEvent(
                                writes_served=served,
                                slot=slot,
                                dead_line=dead_line,
                                action=_ACTION_NAMES[action],
                                replacement_line=line,
                            )
                        )
                # Each death of the run counts as the one-death epoch
                # (and round) the scalar loop would have made of it.
                rounds += run - 1
                epochs += run
                sequential_rounds += run
                deaths += run
                unrecorded_singles += run
                if action == BATCH_FAIL:
                    break
                if live_count < min_user_slots:
                    failure_reason = (
                        f"capacity degraded below user capacity "
                        f"({live_count} < {min_user_slots} slots)"
                    )
                    break
                continue
            else:
                sequential_rounds += 1
                keys = np.asarray(picked[0], dtype=np.intp)
                times = np.asarray(picked[1], dtype=float)
        if keys is None:
            full_scans += 1
            if work is not None and rows is None:
                rows = _SortedRow(death_row)
            found = _select_epoch(
                death_row if rows is None else rows,
                floor,
                w_max_active,
                work_sentinel,
            )
            if rows is None:
                selection_slots += death_row.size
            if found is None:
                # Guarantee slipped: full rows from here on.  Counted in
                # the registry only (``sim.compact_exits``), so result
                # bodies stay byte-identical.
                if metrics is not None:
                    metrics.inc("sim.compact_exits")
                if not backing.flags.writeable:
                    backing = backing.copy()
                current_death[work] = death_row
                backing[work] = backing_row
                death_row, backing_row, weight_row = current_death, backing, weights
                work = None
                work_sentinel = math.inf
                selection_slots += rows.reads + current_death.size
                rows = None
                found = _select_epoch(current_death, floor, w_max_active)
            keys, times = found
            if not keys.size:
                if deaths > 0:
                    failure_reason = _EXHAUSTED_REASON
                break
        epochs += 1

        sel = keys if work is None else work[keys]
        dead_lines = backing_row[keys]  # fancy index: a copy, safe to keep
        actions, out_lines, out_wear, fail_reason = state.replace_batch(
            trial, sel, dead_lines
        )
        count = int(actions.size)

        # Capacity-degradation failure truncates like the scalar loop: the
        # first removal dropping live slots below the floor is still
        # counted, everything after it never happens.  never_removes
        # schemes cannot emit BATCH_REMOVE, so they skip the scan.
        if state.never_removes:
            removal_positions = _EMPTY_POSITIONS
        else:
            removal_positions = np.flatnonzero(actions == BATCH_REMOVE)
        allowed_removals = live_count - min_user_slots
        if removal_positions.size > allowed_removals:
            count = int(removal_positions[allowed_removals]) + 1
            actions = actions[:count]
            removal_positions = removal_positions[: allowed_removals + 1]
            fail_reason = None  # capacity failure preempts a later one
            capacity_failed = True
        else:
            capacity_failed = False
        sel = sel[:count]
        keys = keys[:count]
        times = times[:count]
        dead_lines = dead_lines[:count]
        lines = out_lines[:count]
        wear = out_wear[:count]
        deaths += count
        if guard is not None:
            guard.record_batch(sel, dead_lines, actions, lines, wear)

        # Served-writes integral over the epoch: per-segment active weight
        # drops by the weight of each slot removed so far.  With no
        # removals the active weight is constant, and `active_weight - 0.0`
        # is exact, so the scalar product keeps the elementwise rounding.
        # The manual difference is the same subtractions
        # ``np.diff(..., prepend=)`` performs, minus its concatenate.
        dv = np.empty(count)
        dv[0] = times[0] - v_now
        if count > 1:
            np.subtract(times[1:], times[:-1], out=dv[1:])
        if removal_positions.size:
            removed_w = np.zeros(count)
            removed_w[removal_positions] = weights[sel[removal_positions]]
            drained = np.cumsum(removed_w)
            seg_active = active_weight - (drained - removed_w)
            increments = dv * seg_active * eta
        else:
            increments = dv * active_weight * eta
        served_at = served + np.cumsum(increments)
        served = float(served_at[-1])
        v_now = float(times[-1])
        if removal_positions.size:
            active_weight -= float(drained[-1])

        # Apply the verdicts.  Constant weight vectors divide by the
        # scalar: the elementwise quotients are bit-identical and the
        # weights row stays untouched.
        rep = np.flatnonzero(actions == BATCH_REPLACE)
        if rep.size:
            replacements += int(rep.size)
            if rep.size == count:
                # All-replace epoch (the Max-WE steady state): the gather
                # by ``rep`` is the identity, so skip it.
                rep_keys, rep_lines, rep_times = keys, lines, times
            else:
                rep_keys, rep_lines, rep_times = keys[rep], lines[rep], times[rep]
            backing_row[rep_keys] = rep_lines
            divisor = weight_row[rep_keys] if w_scalar is None else w_scalar
            rep_deaths = rep_times + endurance[rep_lines] / divisor
            death_row[rep_keys] = rep_deaths
            if frontier is not None:
                for key, death in zip(rep_keys.tolist(), rep_deaths.tolist()):
                    frontier.push(key, death)
        ext = np.flatnonzero(actions == BATCH_EXTEND)
        if ext.size:
            replacements += int(ext.size)
            ext_keys = keys[ext]
            divisor = weight_row[ext_keys] if w_scalar is None else w_scalar
            ext_deaths = times[ext] + wear[ext] / divisor
            death_row[ext_keys] = ext_deaths
            if frontier is not None:
                for key, death in zip(ext_keys.tolist(), ext_deaths.tolist()):
                    frontier.push(key, death)
        if removal_positions.size:
            # Removals imply the full rows (compact rows need
            # never_removes), so ``sel`` indexes them directly.
            removed_slots = sel[removal_positions]
            current_death[removed_slots] = math.inf
            live_count -= int(removal_positions.size)
            if tighten:
                w_max_active, w_max_live = _retire_max_weight(
                    weights,
                    current_death,
                    weights[removed_slots],
                    w_max_active,
                    w_max_live,
                )
        if fail_reason is not None:
            death_row[keys[count - 1]] = math.inf

        if record_timeline and len(timeline) < max_timeline_events:
            room = max_timeline_events - len(timeline)
            for k in range(min(count, room)):
                action = int(actions[k])
                timeline.append(
                    TimelineEvent(
                        writes_served=float(served_at[k]),
                        slot=int(sel[k]),
                        dead_line=int(dead_lines[k]),
                        action=_ACTION_NAMES[action],
                        replacement_line=int(lines[k])
                        if action == BATCH_REPLACE
                        else None,
                    )
                )

        if metrics is not None:
            metrics.observe("sim.epoch_size", count)
        if capacity_failed:
            failure_reason = (
                f"capacity degraded below user capacity "
                f"({live_count} < {min_user_slots} slots)"
            )
            break
        if fail_reason is not None:
            failure_reason = fail_reason
            break
        if frontier is None and sequential_ok:
            if count == 1:
                size1_streak += 1
                if size1_streak >= SEQUENTIAL_ENTER_STREAK and BATCH_LIMIT > 1:
                    candidate = DeathFrontier(death_row, limit=FRONTIER_LIMIT)
                    if candidate.degenerate:
                        # A minimum tie class wider than the work set can
                        # only keep degenerating; stay vectorized.
                        sequential_ok = False
                    else:
                        frontier = candidate
                        size1_streak = 0
                        regime_switches += 1
                        if rows is not None:
                            selection_slots += rows.reads
                            rows = None
            else:
                size1_streak = 0

    if metrics is not None and unrecorded_singles:
        metrics.observe("sim.epoch_size", 1, count=unrecorded_singles)
    if metrics is not None and run_deaths:
        metrics.inc("sim.run_deaths", run_deaths)
    if rows is not None:
        selection_slots += rows.reads
    if metrics is not None:
        metrics.observe("sim.selection_slots", selection_slots)
    if work is not None:
        # Publish the compact rows so post-trial consumers of the full
        # arrays observe exactly the values the loop computed; a shared
        # backing and unbuilt death times stay as they are.
        if current_death is not None:
            current_death[work] = death_row
        if backing.flags.writeable:
            backing[work] = backing_row
    if guard is not None:
        guard.final_check(view)
    extra_meta = {
        "epochs": epochs,
        "sequential_rounds": sequential_rounds,
        "regime_switches": regime_switches,
        "full_scans": full_scans,
    }
    return served, deaths, replacements, failure_reason, timeline, extra_meta


def _run_limit(gap: float, reach: float, cap: int) -> int:
    """How many lines a run's lookahead should cover, at most ``cap``.

    ``gap`` is the distance from the run's first death to the ``limit``
    no run death may reach (the runner-up or a sentinel).  Every death
    adds at least ``reach = floor / w_max`` to the slot's death time
    (the floor bounds every replacement, ``w_max`` every prone weight),
    so about ``gap / reach`` deaths fit.  Without a positive reach the
    gap bounds nothing, and the death settles alone through
    ``replace()`` (a lookahead of 1).  The estimate only sizes the
    lookahead; :func:`_run_prefix` decides the run exactly.
    """
    if not reach > 0.0:
        return 1
    if gap < cap * reach:
        return int(gap / reach) + 1
    return cap


def _run_prefix(times: np.ndarray, limit: float, reach: float) -> int:
    """How many of a run's further death ``times`` are one-death epochs.

    A death joins the run while :meth:`DeathFrontier.pop_epoch` would
    return it alone: it and its epoch bound ``time + reach`` stay below
    ``limit`` (the runner-up's time, or the smaller sentinel).  The time
    test is strict, so a time tie with the runner-up ends the run and
    ``pop_epoch`` breaks it by slot id.  Times ascend, so the run is a
    prefix.
    """
    ok = (times < limit) & (times + reach <= limit)
    stop = np.flatnonzero(~ok)
    return int(stop[0]) if stop.size else int(times.size)


def _retire_max_weight(
    weights: np.ndarray,
    current_death: np.ndarray,
    dead_w,
    w_max_active: float,
    w_max_live: int,
) -> Tuple[float, int]:
    """Keep the tightened safe-prefix bound honest after removals.

    ``dead_w`` holds the weights of the slots just removed (their death
    times already ``inf``).  When the last prone slot at ``w_max_active``
    goes, the next maximum among the survivors takes its place.  Returns
    the updated ``(w_max_active, w_max_live)``.
    """
    hits = int(np.count_nonzero(dead_w == w_max_active))
    if not hits:
        return w_max_active, w_max_live
    if w_max_live < 0:
        w_max_live = int(
            np.count_nonzero(weights[np.isfinite(current_death)] == w_max_active)
        )
    else:
        w_max_live -= hits
    if w_max_live == 0:
        survivors = weights[np.isfinite(current_death)]
        if survivors.size:
            w_max_active = float(survivors.max())
            w_max_live = int(np.count_nonzero(survivors == w_max_active))
    return w_max_active, w_max_live
