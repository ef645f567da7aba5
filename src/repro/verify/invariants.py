"""Runtime state-integrity invariants for the lifetime engines.

The figures this repository reproduces are only as trustworthy as the
simulator's bookkeeping: normalized lifetime is computed from mapping
tables, spare-pool accounting, and per-line wear budgets, and a single
silently-corrupted entry invalidates every downstream number.  This
module is the defensive layer that makes such corruption *loud*: a
declarative registry of invariants over live engine state, evaluated by
an :class:`EngineGuard` at a configurable cadence (the ``paranoia``
level), raising a structured :class:`InvariantViolation` the moment a
predicate fails.

Paranoia levels
---------------
``off``
    No guard is constructed; the engine runs exactly as before.
``cheap``
    O(1) scalar invariants every :data:`CHEAP_CADENCE` rounds, plus one
    *full* sweep after the final round -- persistent corruption is
    always caught by end of run, at near-zero steady-state cost.
``full``
    Every invariant, every round.  Corruption is caught on the round it
    happens (the fault-injection CI job relies on this to prove 100%
    detection).

Checks never mutate engine or scheme state, so results are bit-identical
across all three levels.

The wear-conservation invariant
-------------------------------
The guard maintains its own shadow ledger: a per-slot wear budget
(seeded from the endurance of each slot's backing line and updated from
the replacement verdicts), the total wear retired by deaths, and the
total budget added by in-place repairs.  At any instant the engine's
served-writes integral must equal ``eta`` times the wear consumed::

    served  ==  eta * (retired + sum_alive(budget_i - remaining_i))

where ``remaining_i = (current_death_i - v_now) * weight_i``.  Because
the ledger is derived from the *verdict stream* rather than the engine's
own integral, the two sides are independent computations of the same
quantity; the comparison tolerance is supplied by the engine
(:func:`repro.sim.lifetime.accounting_tolerance`), derived from its
float accumulation depth rather than a magic epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry, maybe_span
from repro.sparing.base import (
    BATCH_EXTEND,
    BATCH_FAIL,
    BATCH_REMOVE,
    BATCH_REPLACE,
    SchemeIntegrityError,
    SpareScheme,
)

#: Paranoia levels accepted by the engine, runner surfaces, and CLI.
PARANOIA_LEVELS = ("off", "cheap", "full")

#: Rounds between check sweeps in ``cheap`` mode.
CHEAP_CADENCE = 64

#: Invariant cost tiers: ``cheap`` = O(1) scalars, ``full`` = O(slots).
COST_CHEAP = "cheap"
COST_FULL = "full"


def normalize_paranoia(level: str) -> str:
    """Validate a paranoia level or raise ``ValueError``."""
    if level not in PARANOIA_LEVELS:
        raise ValueError(
            f"paranoia must be one of {PARANOIA_LEVELS}, got {level!r}"
        )
    return level


def _rebuild_violation(cls, invariant, round_index, message, details, repro, bundle):
    violation = cls(invariant, round_index, message, details=details, repro=repro)
    violation.bundle_path = bundle
    return violation


class InvariantViolation(RuntimeError):
    """A state-integrity predicate failed mid-run.

    Attributes
    ----------
    invariant:
        Name of the failing predicate (registry entry).
    round_index:
        1-based engine round (epoch for the batched engine, death event
        for the scalar one) at which the check fired.
    message:
        Human-readable description of the failed predicate.
    details:
        Minimal state snapshot: the scalar values the predicate compared
        (picklable, crosses process boundaries intact).
    repro:
        Pinned reproduction key (seed, scheme, engine, attack, round
        window) identifying the failing run.
    arrays:
        Full state arrays attached at raise time for the crash-dump
        bundle; not pickled (the bundle is written worker-side).
    bundle_path:
        Path of the ``.repro-debug/`` bundle, once written.

    Deliberately *not* retryable by the supervision policy: the failure
    is deterministic in the task, so re-running cannot help.
    """

    def __init__(
        self,
        invariant: str,
        round_index: int,
        message: str,
        *,
        details: Optional[dict] = None,
        repro: Optional[dict] = None,
    ) -> None:
        super().__init__(
            f"invariant {invariant!r} violated at round {round_index}: {message}"
        )
        self.invariant = invariant
        self.round_index = int(round_index)
        self.message = message
        self.details: Dict[str, object] = dict(details or {})
        self.repro: Dict[str, object] = dict(repro or {})
        self.arrays: Dict[str, np.ndarray] = {}
        self.bundle_path: Optional[str] = None

    def __reduce__(self):
        return (
            _rebuild_violation,
            (
                type(self),
                self.invariant,
                self.round_index,
                self.message,
                self.details,
                self.repro,
                self.bundle_path,
            ),
        )


@dataclass(frozen=True)
class EngineView:
    """Read-only snapshot of live engine + guard state for one check.

    Engine-owned fields reference the engine's live arrays (never
    mutated by checks); ledger fields come from the guard's shadow
    bookkeeping.
    """

    # Engine-owned state.
    served: float
    v_now: float
    deaths: int
    eta: float
    weights: np.ndarray
    backing: np.ndarray
    current_death: np.ndarray
    endurance: np.ndarray
    total_endurance: float
    sparing: SpareScheme
    # Guard ledger.
    budget: np.ndarray
    in_service: np.ndarray
    dead_mask: np.ndarray
    wear_retired: float
    wear_extended: float
    guard_deaths: int
    last_served: float
    last_v: float
    rounds: int
    tolerance: float
    final: bool


#: An invariant check returns ``None`` on success or a failure message.
CheckFn = Callable[[EngineView], Optional[str]]


@dataclass(frozen=True)
class Invariant:
    """One declarative state-integrity predicate.

    Attributes
    ----------
    name:
        Stable identifier (appears in violations, metrics, and docs).
    cost:
        :data:`COST_CHEAP` (O(1) scalars, run at every cadence tick) or
        :data:`COST_FULL` (O(slots) array scans, run in ``full`` mode
        and in every level's final sweep).
    description:
        One-line statement of the predicate, for the catalog.
    check:
        The predicate; returns ``None`` or a failure message.
    """

    name: str
    cost: str
    description: str
    check: CheckFn

    def __post_init__(self) -> None:
        if self.cost not in (COST_CHEAP, COST_FULL):
            raise ValueError(f"invariant cost must be cheap|full, got {self.cost!r}")


# ----------------------------------------------------------------------
# The built-in predicates
# ----------------------------------------------------------------------


def _check_clock_monotone(view: EngineView) -> Optional[str]:
    if view.v_now < 0.0:
        return f"virtual clock is negative (v_now={view.v_now!r})"
    if view.v_now < view.last_v:
        return (
            f"virtual clock moved backwards (v_now={view.v_now!r} < "
            f"previous {view.last_v!r})"
        )
    return None


def _check_served_bounds(view: EngineView) -> Optional[str]:
    tol = view.tolerance
    if view.served < -tol:
        return f"served writes negative ({view.served!r})"
    if view.served < view.last_served - tol:
        return (
            f"served writes decreased ({view.served!r} < previous "
            f"{view.last_served!r})"
        )
    ceiling = view.eta * (view.total_endurance + view.wear_extended)
    if view.served > ceiling + tol:
        return (
            f"served writes {view.served!r} exceed the device's total "
            f"serveable wear {ceiling!r} (endurance {view.total_endurance!r} "
            f"+ extensions {view.wear_extended!r}, eta={view.eta!r})"
        )
    return None


def _check_death_count(view: EngineView) -> Optional[str]:
    if view.deaths != view.guard_deaths:
        return (
            f"engine death counter ({view.deaths}) disagrees with the "
            f"verdict-stream ledger ({view.guard_deaths})"
        )
    return None


def _check_pool_accounting(view: EngineView) -> Optional[str]:
    accounting = view.sparing.pool_accounting()
    if accounting is None:
        return None
    size = int(accounting.get("size", 0))
    free = int(accounting.get("free", 0))
    allocated = int(accounting.get("allocated", 0))
    if free < 0 or allocated < 0:
        return f"negative spare-pool counters (free={free}, allocated={allocated})"
    if free + allocated != size:
        return (
            f"spare pool does not account for itself: free ({free}) + "
            f"allocated ({allocated}) != size ({size})"
        )
    entries = accounting.get("lmt_entries")
    if entries is not None:
        entries = int(entries)
        rescued = accounting.get("rescued_slots")
        capacity = accounting.get("lmt_capacity")
        if entries > allocated:
            return (
                f"LMT holds {entries} entries but only {allocated} spares "
                "were ever allocated"
            )
        if capacity is not None and entries > int(capacity):
            return f"LMT holds {entries} entries over its capacity {capacity}"
        if rescued is not None and entries != int(rescued):
            return (
                f"LMT entry count ({entries}) disagrees with the number of "
                f"rescued slots ({rescued})"
            )
    return None


def _check_wear_conservation(view: EngineView) -> Optional[str]:
    finite = np.isfinite(view.current_death)
    remaining = (view.current_death[finite] - view.v_now) * view.weights[finite]
    consumed_alive = float(view.budget[finite].sum() - remaining.sum())
    expected = view.eta * (view.wear_retired + consumed_alive)
    drift = abs(view.served - expected)
    if drift > view.tolerance:
        return (
            f"served writes ({view.served!r}) disagree with wear consumed "
            f"({expected!r}; retired={view.wear_retired!r}, "
            f"alive={consumed_alive!r}, eta={view.eta!r}) by {drift!r} "
            f"> tolerance {view.tolerance!r}"
        )
    return None


def _check_nonnegative_endurance(view: EngineView) -> Optional[str]:
    if view.budget.size and float(view.budget.min()) < 0.0:
        slot = int(view.budget.argmin())
        return f"slot {slot} carries a negative wear budget ({float(view.budget[slot])!r})"
    finite = np.isfinite(view.current_death)
    if not finite.any():
        return None
    deadline = view.current_death[finite]
    if float(deadline.min()) < view.v_now - view.tolerance:
        slots = np.flatnonzero(finite)
        slot = int(slots[deadline.argmin()])
        return (
            f"slot {slot} is scheduled to die in the past "
            f"(death={float(view.current_death[slot])!r} < v_now={view.v_now!r}): "
            "its remaining endurance is negative"
        )
    remaining = (deadline - view.v_now) * view.weights[finite]
    excess = remaining - view.budget[finite]
    if float(excess.max(initial=-np.inf)) > view.tolerance:
        slots = np.flatnonzero(finite)
        slot = int(slots[excess.argmax()])
        return (
            f"slot {slot} has more endurance remaining "
            f"({remaining[excess.argmax()]!r}) than its ledger budget "
            f"({view.budget[slot]!r})"
        )
    return None


def _check_mapping_consistency(view: EngineView) -> Optional[str]:
    lines = view.backing[view.in_service]
    if lines.size:
        if int(lines.min()) < 0 or int(lines.max()) >= view.endurance.size:
            return "a slot is backed by a line outside the device"
        # bincount is linear in slots + lines; a sort-based duplicate
        # check (np.unique) dominated the whole sweep at device scale.
        counts = np.bincount(lines, minlength=view.endurance.size)
        if int(counts.max()) > 1:
            line = int(counts.argmax())
            slots = np.flatnonzero(view.in_service & (view.backing == line))
            return (
                f"physical line {line} backs {counts[line]} slots at once "
                f"(slots {slots[:8].tolist()})"
            )
    try:
        view.sparing.check_integrity(backing=view.backing, dead_lines=view.dead_mask)
    except SchemeIntegrityError as error:
        return f"scheme tables inconsistent: {error}"
    return None


def _check_no_dead_line_writes(view: EngineView) -> Optional[str]:
    active = view.in_service & np.isfinite(view.current_death)
    if not active.any():
        return None
    dead = view.dead_mask[view.backing[active]]
    if dead.any():
        slots = np.flatnonzero(active)
        slot = int(slots[int(np.flatnonzero(dead)[0])])
        return (
            f"slot {slot} is still being written through dead line "
            f"{int(view.backing[slot])}"
        )
    return None


#: The built-in invariant catalog (see docs/verification.md).
DEFAULT_INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "clock-monotone",
        COST_CHEAP,
        "the virtual clock never moves backwards or goes negative",
        _check_clock_monotone,
    ),
    Invariant(
        "served-bounds",
        COST_CHEAP,
        "served writes are non-negative, monotone, and bounded by the "
        "device's total serveable wear",
        _check_served_bounds,
    ),
    Invariant(
        "death-count",
        COST_CHEAP,
        "the engine's death counter matches the verdict-stream ledger",
        _check_death_count,
    ),
    Invariant(
        "spare-pool-accounting",
        COST_CHEAP,
        "free + allocated spares equal the pool size and LMT occupancy "
        "matches the rescued-slot count",
        _check_pool_accounting,
    ),
    # non-negative-endurance precedes wear-conservation: a slot scheduled
    # to die in the past also skews the wear ledger, and the specific
    # diagnosis should win over the aggregate one.
    Invariant(
        "non-negative-endurance",
        COST_FULL,
        "no slot's remaining endurance is negative or exceeds its ledger "
        "budget",
        _check_nonnegative_endurance,
    ),
    Invariant(
        "wear-conservation",
        COST_FULL,
        "writes served equal wear consumed (retired + in-flight) within "
        "the engine's accounting tolerance",
        _check_wear_conservation,
    ),
    Invariant(
        "mapping-consistency",
        COST_FULL,
        "no two slots share a physical line and the scheme's RMT/LMT "
        "tables are internally consistent with the live backing",
        _check_mapping_consistency,
    ),
    Invariant(
        "no-dead-line-writes",
        COST_FULL,
        "no actively written slot is backed by a line that already died",
        _check_no_dead_line_writes,
    ),
)


class InvariantRegistry:
    """An ordered, extensible collection of invariants."""

    def __init__(self, invariants: Iterable[Invariant] = DEFAULT_INVARIANTS) -> None:
        self._invariants: list[Invariant] = []
        self._names: set[str] = set()
        for invariant in invariants:
            self.register(invariant)

    def register(self, invariant: Invariant) -> None:
        """Add an invariant; names must be unique."""
        if invariant.name in self._names:
            raise ValueError(f"invariant {invariant.name!r} already registered")
        self._names.add(invariant.name)
        self._invariants.append(invariant)

    def select(self, include_full: bool) -> Tuple[Invariant, ...]:
        """The invariants to run for one sweep."""
        if include_full:
            return tuple(self._invariants)
        return tuple(i for i in self._invariants if i.cost == COST_CHEAP)

    def __iter__(self):
        return iter(self._invariants)

    def __len__(self) -> int:
        return len(self._invariants)


#: Process-wide default registry used by every guard unless overridden.
REGISTRY = InvariantRegistry()


class EngineGuard:
    """The engine-side integrity monitor: ledger + cadenced checking.

    One guard is constructed per :class:`~repro.sim.lifetime
    .LifetimeSimulator` run when ``paranoia != "off"``.  The engine feeds
    it the replacement-verdict stream (:meth:`record_batch` /
    :meth:`record_death`) and calls :meth:`on_round` at the top of every
    kernel round plus :meth:`final_check` after the loop; the guard keeps
    its shadow wear ledger and evaluates the registry at the level's
    cadence, raising :class:`InvariantViolation` on the first failure.
    """

    def __init__(
        self,
        paranoia: str,
        *,
        sparing: SpareScheme,
        endurance: np.ndarray,
        weights: np.ndarray,
        eta: float,
        total_endurance: float,
        tolerance: Callable[[float, int], float],
        metrics: Optional[MetricsRegistry] = None,
        repro: Optional[dict] = None,
        registry: Optional[InvariantRegistry] = None,
        cadence: int = CHEAP_CADENCE,
    ) -> None:
        self._paranoia = normalize_paranoia(paranoia)
        if self._paranoia == "off":
            raise ValueError("no guard should be constructed at paranoia='off'")
        self._sparing = sparing
        self._endurance = endurance
        self._weights = weights
        self._eta = float(eta)
        self._total_endurance = float(total_endurance)
        self._tolerance = tolerance
        self._metrics = metrics
        self._repro = dict(repro or {})
        self._registry = registry if registry is not None else REGISTRY
        self._cadence = max(int(cadence), 1)
        # Ledger state (populated by start()).
        self.budget = np.empty(0, dtype=float)
        self.in_service = np.empty(0, dtype=bool)
        self.dead_mask = np.empty(0, dtype=bool)
        self.wear_retired = 0.0
        self.wear_extended = 0.0
        self.guard_deaths = 0
        self.rounds = 0
        self.checks = 0
        self._last_served = 0.0
        self._last_v = 0.0

    @property
    def paranoia(self) -> str:
        """The level this guard runs at (never ``"off"``)."""
        return self._paranoia

    def start(self, backing: np.ndarray) -> None:
        """Seed the ledger from the initial slot-to-line assignment."""
        self.budget = self._endurance[backing].astype(float)
        self.in_service = np.ones(backing.size, dtype=bool)
        self.dead_mask = np.zeros(self._endurance.size, dtype=bool)
        self.wear_retired = 0.0
        self.wear_extended = 0.0
        self.guard_deaths = 0
        self.rounds = 0
        self.checks = 0
        self._last_served = 0.0
        self._last_v = 0.0

    # ------------------------------------------------------------------
    # Ledger updates (verdict stream)
    # ------------------------------------------------------------------

    def record_batch(
        self,
        sel: np.ndarray,
        dead_lines: np.ndarray,
        actions: np.ndarray,
        lines: np.ndarray,
        wear: np.ndarray,
    ) -> None:
        """Fold one epoch's (truncated) verdict arrays into the ledger."""
        self.guard_deaths += int(sel.size)
        self.wear_retired += float(self.budget[sel].sum())
        rep = actions == BATCH_REPLACE
        ext = actions == BATCH_EXTEND
        gone = (actions == BATCH_REMOVE) | (actions == BATCH_FAIL)
        # In-place repairs keep serving through the same line; every
        # other verdict leaves the old backing line dead for good.
        self.dead_mask[dead_lines[~ext]] = True
        if rep.any():
            self.budget[sel[rep]] = self._endurance[lines[rep]]
        if ext.any():
            extensions = wear[ext]
            self.budget[sel[ext]] = extensions
            self.wear_extended += float(extensions.sum())
        if gone.any():
            self.budget[sel[gone]] = 0.0
            self.in_service[sel[gone]] = False

    def record_death(
        self,
        slot: int,
        dead_line: int,
        action: int,
        line: int = -1,
        wear: float = 0.0,
    ) -> None:
        """Scalar-engine counterpart of :meth:`record_batch`."""
        self.guard_deaths += 1
        self.wear_retired += float(self.budget[slot])
        if action == BATCH_EXTEND:
            self.budget[slot] = wear
            self.wear_extended += float(wear)
            return
        self.dead_mask[dead_line] = True
        if action == BATCH_REPLACE:
            self.budget[slot] = float(self._endurance[line])
        else:
            self.budget[slot] = 0.0
            self.in_service[slot] = False

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def make_view(
        self,
        *,
        served: float,
        v_now: float,
        deaths: int,
        backing: np.ndarray,
        current_death: np.ndarray,
        final: bool = False,
    ) -> EngineView:
        """Join the engine's live state with the ledger for one check."""
        events = self.guard_deaths + backing.size
        return EngineView(
            served=float(served),
            v_now=float(v_now),
            deaths=int(deaths),
            eta=self._eta,
            weights=self._weights,
            backing=backing,
            current_death=current_death,
            endurance=self._endurance,
            total_endurance=self._total_endurance,
            sparing=self._sparing,
            budget=self.budget,
            in_service=self.in_service,
            dead_mask=self.dead_mask,
            wear_retired=self.wear_retired,
            wear_extended=self.wear_extended,
            guard_deaths=self.guard_deaths,
            last_served=self._last_served,
            last_v=self._last_v,
            rounds=self.rounds,
            tolerance=self._tolerance(
                self._total_endurance + self.wear_extended, events
            ),
            final=final,
        )

    def on_round(self, view_of: Callable[[], EngineView]) -> None:
        """Round hook: advance the cadence and check when it ticks.

        ``view_of`` is a zero-argument view builder so the (cheap but
        not free) view construction is skipped on non-checking rounds.
        """
        self.rounds += 1
        if self._paranoia == "full" or self.rounds % self._cadence == 0:
            self._sweep(view_of(), include_full=self._paranoia == "full")

    def final_check(self, view_of: Callable[[], EngineView]) -> None:
        """End-of-run hook: a full sweep at every paranoia level."""
        self._sweep(view_of(), include_full=True)

    def _sweep(self, view: EngineView, include_full: bool) -> None:
        invariants = self._registry.select(include_full)
        with maybe_span(self._metrics, "verify/invariants"):
            for invariant in invariants:
                self.checks += 1
                message = invariant.check(view)
                if message is not None:
                    self._fail(invariant, message, view)
        if self._metrics is not None:
            self._metrics.inc("verify.checks", len(invariants))
        self._last_served = view.served
        self._last_v = view.v_now

    def _fail(self, invariant: Invariant, message: str, view: EngineView) -> None:
        if self._metrics is not None:
            self._metrics.inc("verify.violations")
        repro = dict(self._repro)
        repro["round_window"] = [0, view.rounds]
        violation = InvariantViolation(
            invariant.name,
            view.rounds,
            message,
            details={
                "served": view.served,
                "v_now": view.v_now,
                "deaths": view.deaths,
                "wear_retired": view.wear_retired,
                "wear_extended": view.wear_extended,
                "eta": view.eta,
                "total_endurance": view.total_endurance,
                "tolerance": view.tolerance,
                "paranoia": self._paranoia,
                "final": view.final,
            },
            repro=repro,
        )
        violation.arrays = {
            "backing": np.array(view.backing, copy=True),
            "current_death": np.array(view.current_death, copy=True),
            "budget": np.array(view.budget, copy=True),
            "in_service": np.array(view.in_service, copy=True),
            "dead_mask": np.array(view.dead_mask, copy=True),
            "weights": np.array(view.weights, copy=True),
            "endurance": np.array(view.endurance, copy=True),
        }
        raise violation
