"""The fluid (mean-field) lifetime engines.

Both engines advance a *virtual clock* tau under which the wear on the
line backing slot ``i`` is ``u_i * tau``, where ``u_i`` is the slot's
stationary wear weight from the wear-leveling scheme.  Death events
trigger the sparing scheme; replacements extend a slot's budget, capacity
degradation removes slots.  User writes served are integrated as
``eta * sum(u_alive) dtau`` where ``eta`` is the useful-write fraction
(remap overhead discounts it).

Why this is exact under stationarity: however capacity shrinks, relative
wear rates between surviving slots are fixed by the stationary
distribution, so expressing wear directly in tau (rather than in user-
write time) linearizes every trajectory; the monotone map back to served
writes is the integral above.  The exact per-write
:class:`~repro.sim.reference.ReferenceSimulator` validates the
approximation end to end in the test suite.

Two engines implement this model:

* ``fluid-exact`` -- the scalar event loop: a heap of death times,
  one :meth:`~repro.sparing.base.SpareScheme.replace` call per death.
  It is the reference the shadow audit re-executes runs against.
* ``fluid-batched`` (default) -- the vectorized epoch kernel,
  :func:`repro.sim.ensemble._advance_trial`: death times live in one
  numpy array; each epoch selects the next batch of deaths, trims it
  to a *chronologically safe prefix*, decides the whole prefix in one
  :meth:`~repro.sparing.base.SpareScheme.replace_batch` call, and
  integrates the served writes of the epoch with a cumulative sum.  A
  solo run is the one-trial case of the ``fluid-ensemble`` engine: it
  wraps its initialized scheme in a one-scheme
  :class:`~repro.sparing.base.FallbackSchemeState` and runs the same
  loop as trial 0.

The safe prefix is what keeps batching exact rather than approximate.
From a batch sorted by ``(death time, slot)`` -- the same order the heap
pops -- only deaths with ``v < v_first + floor / w_max`` are processed
together, where ``floor`` is the scheme's lower bound on the wear budget
any single replacement adds (:meth:`SpareScheme.replacement_extra_floor`)
and ``w_max`` the largest wear weight among still-prone slots.  Within
such a window no replacement can push its slot's *next* death back
inside the window, so deciding the prefix in one call observes exactly
the event order the scalar loop would.  Death times themselves are
computed with the same float expression in both engines, so death and
replacement counts agree exactly; only the summation order of the
served-writes integral differs (agreement to ~1e-12 relative, tested at
1e-9).

The kernel picks how it *selects* each epoch from what it can observe
of the run -- never from an option -- and every strategy selects the
same epochs (``docs/fluid_engine.md``, "Kernel regimes"):

* a value partition over compact work rows when the scheme never
  removes slots, every slot is wear-prone, the replacement capacity is
  known, and no guard or corruptor is active (the full-row value
  partition when the capacity is unknown);
* the argpartition / safe-prefix scan otherwise;
* after ``SEQUENTIAL_ENTER_STREAK`` consecutive one-death epochs (the
  BPA signature), a :class:`~repro.sim.frontier.DeathFrontier` -- a
  lazy-deletion heap over the death times in exact ``(time, slot)``
  order, bounded to the ``FRONTIER_LIMIT`` soonest deaths -- pops
  provably-identical epochs in O(log work-set) per death, and a
  one-death epoch of a run backed by a real scheme instance collapses
  to the scheme's scalar ``replace()``.  The frontier bails back to the
  vectorized selection whenever equivalence cannot be proven.

Result metadata counts the bookkeeping: ``epochs`` (passes that
processed deaths), ``sequential_rounds`` (frontier-served passes),
``regime_switches`` (transitions either way), and ``full_scans``
(vectorized selection passes); the same names land in the metrics
registry as ``sim.*`` counters next to a ``sim.epoch_size`` histogram.
``fluid-exact`` routes its heap through the same index, so its
compaction rebuilds stopped rescanning the device (``heap_compactions``
keeps its historical meaning).
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from repro.attacks.base import AttackModel
from repro.device.faults import FaultModel
from repro.endurance.emap import EnduranceMap
from repro.obs.metrics import MetricsRegistry, maybe_span
from repro.sim.faults import FaultInjector, active_injector, active_task_key
from repro.sim.frontier import DeathFrontier
from repro.sim.result import SimulationResult, TimelineEvent
from repro.sparing.base import (
    BATCH_EXTEND,
    BATCH_FAIL,
    BATCH_REMOVE,
    BATCH_REPLACE,
    ExtendBudget,
    FailDevice,
    FallbackSchemeState,
    RemoveSlot,
    ReplaceWith,
    SpareScheme,
)
from repro.util.rng import RandomState, derive_rng
from repro.verify.invariants import EngineGuard, InvariantViolation, normalize_paranoia
from repro.verify.shadow import compare_runs, should_audit
from repro.verify.snapshot import write_violation_bundle
from repro.wearlevel.base import WearLeveler
from repro.wearlevel.none import NoWearLeveling

#: Engine names accepted by :class:`LifetimeSimulator` and the CLI.
#: ``fluid-ensemble`` runs the batched epoch kernel but advances many
#: Monte-Carlo trials per invocation (see :mod:`repro.sim.ensemble`);
#: a single run on it is bit-identical to ``fluid-batched``.
ENGINES = ("fluid-batched", "fluid-exact", "fluid-ensemble")

#: Historical aliases for engine names.
_ENGINE_ALIASES = {"fluid": "fluid-exact"}

#: The scalar engine compacts its heap when it outgrows ``slots`` by this
#: factor (stale entries from repeated replacements); kept as a module
#: constant so tests can force compaction.
HEAP_SLACK = 2

#: Upper bound on deaths pulled into one epoch of the batched engine.
BATCH_LIMIT = 4096

#: Consecutive one-death epochs before the batched kernel drops into its
#: frontier-driven sequential regime (the BPA / concentrated-wear
#: signature: safe prefixes collapsed to a single death, so every
#: vectorized full-array scan buys exactly one event).
SEQUENTIAL_ENTER_STREAK = 4

#: Largest epoch the sequential regime serves before handing back to the
#: vectorized scan.  Must stay strictly below ``BATCH_LIMIT``: a frontier
#: epoch smaller than ``BATCH_LIMIT`` is provably the exact vectorized
#: selection, while at ``BATCH_LIMIT`` the argpartition tie-trim could
#: reshape it (see :meth:`DeathFrontier.pop_epoch`).
SEQUENTIAL_EPOCH_CAP = 64

#: Work-set size of the sequential regime's death-frontier index.
FRONTIER_LIMIT = 8192

_DEGENERATE_REASON = "no wear-prone traffic (simulation degenerate)"
_EXHAUSTED_REASON = "all wear-prone slots exhausted"

_ACTION_NAMES = {
    BATCH_REPLACE: "replaced",
    BATCH_EXTEND: "extended",
    BATCH_REMOVE: "removed",
    BATCH_FAIL: "device-failed",
}


def normalize_engine(engine: str) -> str:
    """Resolve an engine name (accepting aliases) or raise ``ValueError``."""
    resolved = _ENGINE_ALIASES.get(engine, engine)
    if resolved not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return resolved


def accounting_tolerance(scale: float, events: int) -> float:
    """Absolute float tolerance of the served-writes accounting.

    Derived from the engines' accumulation structure rather than a magic
    epsilon: the served integral and the guard's shadow ledger each
    perform O(1) roundings per event (a death, or one slot's initial
    budget), every intermediate bounded in magnitude by ``scale`` (the
    device's total serveable wear).  Each rounding contributes at most
    ``eps * scale``; the factor 64 covers the constant number of
    operations per event in both engines with a wide margin.  The
    wear-conservation invariant and any round-trip accounting comparison
    must use this bound so engine numerics changes (e.g. compensated
    summation) automatically retune it.
    """
    return 64.0 * sys.float_info.epsilon * max(scale, 1.0) * float(max(events, 64))


def _apply_state_corruption(
    kind: str,
    served: float,
    backing: np.ndarray,
    current_death: np.ndarray,
    total_endurance: float,
) -> float:
    """Apply one injected ``corrupt-state`` fault to live engine state.

    Returns the (possibly corrupted) served-writes accumulator.  Three
    deterministic corruption shapes, each targeted at a different
    invariant family:

    * ``wear`` -- inflate the served-writes integral (wear conservation);
    * ``mapping`` -- point one live slot at another's backing line
      (mapping consistency / duplicate physical lines);
    * ``death`` -- schedule a slot to die in the past (non-negative
      endurance).

    Falls back to ``wear`` when the targeted corruption needs live slots
    the current state no longer has, so an injection never no-ops.
    """
    finite = np.flatnonzero(np.isfinite(current_death))
    if kind == "mapping" and finite.size >= 2:
        backing[finite[0]] = backing[finite[1]]
        return served
    if kind == "death":
        slot = int(finite[0]) if finite.size else 0
        current_death[slot] = -1.0
        return served
    return served + 0.25 * total_endurance + 1.0


def build_result(
    outcome: tuple,
    *,
    total_endurance: float,
    slots: int,
    engine: str,
    attack: str,
    wearleveler: str,
    sparing: str,
    fault_model: str,
    metrics: Optional[MetricsRegistry] = None,
) -> SimulationResult:
    """Wrap one kernel run's outcome tuple into its :class:`SimulationResult`.

    ``outcome`` is ``(served, deaths, replacements, failure_reason,
    timeline, extra_meta)``; the remaining arguments are the run's
    descriptions.  Also records the run's ``sim.*`` counters (the
    kernel's ``extra_meta`` included) and ``sim.deaths_per_run``.
    """
    served, deaths, replacements, failure_reason, timeline, extra_meta = outcome
    if metrics is not None:
        metrics.inc("sim.runs")
        metrics.inc("sim.deaths", deaths)
        metrics.inc("sim.replacements", replacements)
        for name, value in extra_meta.items():
            metrics.inc(f"sim.{name}", value)
        metrics.observe("sim.deaths_per_run", deaths)
    return SimulationResult(
        writes_served=served,
        total_endurance=total_endurance,
        deaths=deaths,
        replacements=replacements,
        failure_reason=failure_reason,
        metadata={
            "attack": attack,
            "wearleveler": wearleveler,
            "sparing": sparing,
            "fault_model": fault_model,
            "slots": slots,
            "engine": engine,
            **extra_meta,
        },
        timeline=tuple(timeline),
    )


class LifetimeSimulator:
    """Fluid lifetime simulation of one device/attack/defence combination.

    Parameters
    ----------
    emap:
        Device endurance map.
    attack:
        Attack or workload model.
    sparing:
        Spare-line replacement scheme (fresh instance; initialized here).
    wearleveler:
        Wear-leveling scheme (fresh instance; attached here); defaults to
        the identity scheme.
    fault_model:
        Optional fault model adjusting effective endurance (e.g. ECP).
    rng:
        Master seed; forked deterministically into per-component streams.
    engine:
        ``"fluid-batched"`` (vectorized epoch kernel, the default) or
        ``"fluid-exact"`` (scalar event loop, kept for differential
        testing).  Both produce identical death/replacement counts.
    record_timeline:
        Whether to record per-death :class:`TimelineEvent` entries.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: the run
        records ``sim/init`` and ``sim/kernel`` spans plus deterministic
        counters (``sim.deaths``, ``sim.replacements``, per-engine
        ``sim.epochs`` / ``sim.sequential_rounds`` /
        ``sim.regime_switches`` / ``sim.full_scans`` /
        ``sim.heap_compactions``) and the ``sim.deaths_per_run`` and
        ``sim.epoch_size`` histograms (the latter makes the batched
        kernel's regime visible: 1-wide epochs are the sequential
        signature).  With verification enabled it also records
        ``verify.checks`` / ``verify.violations`` counters and
        ``verify/invariants`` / ``verify/shadow`` spans.
    paranoia:
        State-integrity checking level (``"off"``, ``"cheap"``,
        ``"full"``); see :mod:`repro.verify.invariants`.  Checks never
        mutate state, so results are bit-identical across levels.
    shadow_sample:
        Probability in ``[0, 1]`` that this run (when on the default
        ``fluid-batched`` engine) is differentially re-executed on the
        exact reference engine, escalating divergence as a
        :class:`~repro.verify.shadow.ShadowDivergence`.  Sampling is
        deterministic in the task key; requires an integer ``rng`` seed
        so the shadow re-execution is exact.
    """

    def __init__(
        self,
        emap: EnduranceMap,
        attack: AttackModel,
        sparing: SpareScheme,
        wearleveler: Optional[WearLeveler] = None,
        fault_model: Optional[FaultModel] = None,
        rng: RandomState = None,
        record_timeline: bool = True,
        max_timeline_events: int = 100_000,
        engine: str = "fluid-batched",
        metrics: Optional[MetricsRegistry] = None,
        paranoia: str = "off",
        shadow_sample: float = 0.0,
    ) -> None:
        self._emap = emap
        self._attack = attack
        self._sparing = sparing
        self._wl = wearleveler if wearleveler is not None else NoWearLeveling()
        self._fault_model = fault_model if fault_model is not None else FaultModel()
        self._rng = rng
        self._record_timeline = record_timeline
        self._max_timeline_events = max_timeline_events
        self._engine = normalize_engine(engine)
        self._metrics = metrics
        self._paranoia = normalize_paranoia(paranoia)
        shadow_sample = float(shadow_sample)
        if not 0.0 <= shadow_sample <= 1.0:
            raise ValueError(
                f"shadow_sample must be in [0, 1], got {shadow_sample!r}"
            )
        if shadow_sample > 0.0 and not isinstance(rng, (int, np.integer)):
            raise ValueError(
                "shadow audits require an integer rng seed: the audit "
                "re-executes the run from scratch, which a stateful "
                "Generator (or None) cannot reproduce deterministically"
            )
        self._shadow_sample = shadow_sample

    def _integrity_key(self) -> str:
        """Stable key for corruption rolls and shadow sampling.

        Prefers the supervising runner's task key (set via
        :func:`repro.sim.faults.task_scope`); standalone runs derive an
        equivalent key from the run's own identity.
        """
        key = active_task_key()
        if key:
            return key
        return "|".join(
            (
                self._attack.describe(),
                self._sparing.describe(),
                self._wl.describe(),
                repr(self._rng),
                self._engine,
            )
        )

    def _repro_key(self) -> dict:
        """The pinned reproduction key violations carry."""
        return {
            "seed": repr(self._rng),
            "engine": self._engine,
            "attack": self._attack.describe(),
            "sparing": self._sparing.describe(),
            "wearleveler": self._wl.describe(),
            "paranoia": self._paranoia,
            "shadow_sample": self._shadow_sample,
        }

    def run(self) -> SimulationResult:
        """Simulate until device failure; returns the lifetime result.

        Raises :class:`~repro.verify.invariants.InvariantViolation` (after
        writing a ``.repro-debug/`` bundle) if state-integrity checking is
        enabled and a predicate fails, or if a sampled shadow audit
        diverges.
        """
        if self._engine == "fluid-ensemble":
            # A single run is a one-trial ensemble; the ensemble module
            # owns guard wiring and shadow delegation for its members.
            from repro.sim.ensemble import EnsembleMember, simulate_ensemble

            [result] = simulate_ensemble(
                [
                    EnsembleMember(
                        emap=self._emap,
                        attack=self._attack,
                        sparing=self._sparing,
                        wearleveler=self._wl,
                        fault_model=self._fault_model,
                        rng=self._rng,
                    )
                ],
                record_timeline=self._record_timeline,
                max_timeline_events=self._max_timeline_events,
                metrics=self._metrics,
                paranoia=self._paranoia,
                shadow_sample=self._shadow_sample,
            )
            return result
        try:
            result = self._run_once()
        except InvariantViolation as violation:
            write_violation_bundle(violation)
            raise
        if (
            self._shadow_sample > 0.0
            and self._engine == "fluid-batched"
            and should_audit(self._shadow_sample, self._integrity_key())
        ):
            try:
                self._shadow_audit(result)
            except InvariantViolation as violation:
                if self._metrics is not None:
                    self._metrics.inc("verify.violations")
                write_violation_bundle(violation)
                raise
        return result

    def _shadow_audit(self, primary: SimulationResult) -> None:
        """Re-run on the exact reference engine and compare results."""
        with maybe_span(self._metrics, "verify/shadow"):
            if self._metrics is not None:
                self._metrics.inc("verify.shadow_audits")
            reference = LifetimeSimulator(
                self._emap,
                self._attack,
                self._sparing,
                self._wl,
                self._fault_model,
                self._rng,
                record_timeline=False,
                engine="fluid-exact",
                paranoia="off",
            )
            shadow_result = reference._run_once()
            compare_runs(
                primary,
                shadow_result,
                rounds=primary.deaths,
                repro=self._repro_key(),
            )

    def _run_once(self) -> SimulationResult:
        with maybe_span(self._metrics, "sim/init"):
            emap = self._emap
            endurance = self._fault_model.effective_endurance(emap.line_endurance)
            total_endurance = float(endurance.sum())

            sparing_rng = derive_rng(self._rng, "sparing")
            self._sparing.initialize(emap, sparing_rng)
            backing = self._sparing.initial_backing
            slots = backing.size
            min_user_slots = min(self._sparing.min_user_slots, slots)

            wl_rng = derive_rng(self._rng, "wearlevel")
            self._wl.attach(endurance[backing], wl_rng)
            profile = self._attack.profile(slots)
            distribution = self._wl.wear_weights(profile)
            weights = np.asarray(distribution.weights, dtype=float)
            if weights.size != slots:
                raise ValueError(
                    f"wear-leveler produced {weights.size} weights for {slots} slots"
                )
            eta = distribution.useful_fraction

            budgets = endurance[backing].astype(float)
            current_death = np.full(slots, math.inf)
            prone = weights > 0.0
            current_death[prone] = budgets[prone] / weights[prone]

            guard: Optional[EngineGuard] = None
            if self._paranoia != "off":
                guard = EngineGuard(
                    self._paranoia,
                    sparing=self._sparing,
                    endurance=endurance,
                    weights=weights,
                    eta=eta,
                    total_endurance=total_endurance,
                    tolerance=accounting_tolerance,
                    metrics=self._metrics,
                    repro=self._repro_key(),
                )
                guard.start(backing)
            injector = active_injector()
            corruptor: Optional[FaultInjector] = (
                injector
                if injector is not None and injector.spec.corrupt_state > 0.0
                else None
            )

        with maybe_span(self._metrics, "sim/kernel"):
            if self._engine == "fluid-exact":
                outcome = self._run_exact(
                    endurance=endurance,
                    backing=backing,
                    weights=weights,
                    eta=eta,
                    current_death=current_death,
                    min_user_slots=min_user_slots,
                    guard=guard,
                    corruptor=corruptor,
                    total_endurance=total_endurance,
                )
            else:
                # The epoch kernel, with this run as the one trial of a
                # one-scheme ensemble state.
                from repro.sim.ensemble import _advance_trial

                outcome = _advance_trial(
                    FallbackSchemeState([self._sparing]),
                    0,
                    endurance=endurance,
                    backing=backing,
                    weights=weights,
                    eta=eta,
                    current_death=current_death,
                    min_user_slots=min_user_slots,
                    # fsum: the initial active weight is the one sum every
                    # served-writes increment multiplies, so compute it
                    # exactly (a uniform 20-slot profile must sum to 1.0).
                    active_weight=math.fsum(weights),
                    w_max=float(weights.max()) if weights.size else 0.0,
                    guard=guard,
                    corruptor=corruptor,
                    integrity_key=(
                        self._integrity_key() if corruptor is not None else ""
                    ),
                    total_endurance=total_endurance,
                    record_timeline=self._record_timeline,
                    max_timeline_events=self._max_timeline_events,
                    metrics=self._metrics,
                )
        return build_result(
            outcome,
            total_endurance=total_endurance,
            slots=slots,
            engine=self._engine,
            attack=self._attack.describe(),
            wearleveler=self._wl.describe(),
            sparing=self._sparing.describe(),
            fault_model=self._fault_model.describe(),
            metrics=self._metrics,
        )

    # ------------------------------------------------------------------
    # fluid-exact: scalar event loop
    # ------------------------------------------------------------------

    def _run_exact(
        self,
        endurance: np.ndarray,
        backing: np.ndarray,
        weights: np.ndarray,
        eta: float,
        current_death: np.ndarray,
        min_user_slots: int,
        guard: Optional[EngineGuard] = None,
        corruptor: Optional[FaultInjector] = None,
        total_endurance: float = 0.0,
    ) -> tuple[float, int, int, str, list[TimelineEvent], dict]:
        slots = backing.size
        alive = np.ones(slots, dtype=bool)
        # The shared death-frontier index is the historical heap: same
        # (time, slot) entries, same lazy deletion, and its compaction
        # cadence is pinned by the same ``slots * HEAP_SLACK`` cap -- but
        # rebuilds reuse the index's single implementation instead of an
        # ad-hoc flatnonzero reconstruction per overflow.
        frontier = DeathFrontier(
            current_death, cap=slots * HEAP_SLACK, alive=alive
        )
        # fsum: the initial active weight is the one sum every served-
        # writes increment multiplies, so compute it exactly (a uniform
        # 20-slot profile must sum to 1.0, not 1.0 + 1ulp).
        active_weight = math.fsum(weights)
        served = 0.0
        served_error = 0.0  # Kahan compensation for the served integral
        v_now = 0.0
        deaths = 0
        rounds = 0
        replacements = 0
        failure_reason = _DEGENERATE_REASON
        timeline: list[TimelineEvent] = []
        integrity_key = (
            self._integrity_key() if corruptor is not None else ""
        )

        def view():
            assert guard is not None
            return guard.make_view(
                served=served,
                v_now=v_now,
                deaths=deaths,
                backing=backing,
                current_death=current_death,
            )

        def record(slot: int, dead_line: int, action: str, replacement: int | None) -> None:
            if self._record_timeline and len(timeline) < self._max_timeline_events:
                timeline.append(
                    TimelineEvent(
                        writes_served=served,
                        slot=slot,
                        dead_line=dead_line,
                        action=action,
                        replacement_line=replacement,
                    )
                )

        while (entry := frontier.pop()) is not None:
            v, slot = entry
            rounds += 1
            if corruptor is not None:
                kind = corruptor.corrupt_state(integrity_key, rounds)
                if kind is not None:
                    served = _apply_state_corruption(
                        kind, served, backing, current_death, total_endurance
                    )
                    v = float(current_death[slot])
            if guard is not None:
                guard.on_round(view)
            # Kahan-compensated accumulation: each increment is tiny
            # relative to the running total late in long runs.
            increment = (v - v_now) * active_weight * eta - served_error
            fresh = served + increment
            served_error = (fresh - served) - increment
            served = fresh
            v_now = v
            deaths += 1
            dead_line = int(backing[slot])

            outcome = self._sparing.replace(slot, dead_line)
            if isinstance(outcome, ReplaceWith):
                replacements += 1
                if guard is not None:
                    guard.record_death(
                        slot, dead_line, BATCH_REPLACE, line=outcome.line
                    )
                backing[slot] = outcome.line
                extra = float(endurance[outcome.line])
                new_death = v_now + extra / weights[slot]
                current_death[slot] = new_death
                frontier.push(slot, new_death)
                record(slot, dead_line, "replaced", outcome.line)
                continue
            if isinstance(outcome, ExtendBudget):
                replacements += 1
                if guard is not None:
                    guard.record_death(
                        slot, dead_line, BATCH_EXTEND, wear=outcome.wear
                    )
                new_death = v_now + outcome.wear / weights[slot]
                current_death[slot] = new_death
                frontier.push(slot, new_death)
                record(slot, dead_line, "extended", None)
                continue
            if isinstance(outcome, RemoveSlot):
                if guard is not None:
                    guard.record_death(slot, dead_line, BATCH_REMOVE)
                alive[slot] = False
                active_weight -= float(weights[slot])
                current_death[slot] = math.inf
                record(slot, dead_line, "removed", None)
                live_count = int(alive.sum())
                if live_count < min_user_slots:
                    failure_reason = (
                        f"capacity degraded below user capacity "
                        f"({live_count} < {min_user_slots} slots)"
                    )
                    break
                continue
            assert isinstance(outcome, FailDevice)
            if guard is not None:
                guard.record_death(slot, dead_line, BATCH_FAIL)
            failure_reason = outcome.reason
            record(slot, dead_line, "device-failed", None)
            break
        else:
            if deaths > 0:
                failure_reason = _EXHAUSTED_REASON

        if guard is not None:
            guard.final_check(view)
        extra_meta = {"heap_compactions": frontier.compactions}
        return served, deaths, replacements, failure_reason, timeline, extra_meta


def simulate_lifetime(
    emap: EnduranceMap,
    attack: AttackModel,
    sparing: SpareScheme,
    wearleveler: Optional[WearLeveler] = None,
    fault_model: Optional[FaultModel] = None,
    rng: RandomState = None,
    *,
    engine: str = "fluid-batched",
    record_timeline: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    paranoia: str = "off",
    shadow_sample: float = 0.0,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`LifetimeSimulator`."""
    simulator = LifetimeSimulator(
        emap,
        attack,
        sparing,
        wearleveler,
        fault_model,
        rng,
        record_timeline=record_timeline,
        engine=engine,
        metrics=metrics,
        paranoia=paranoia,
        shadow_sample=shadow_sample,
    )
    return simulator.run()
