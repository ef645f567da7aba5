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

Every run is one :func:`~repro.sim.ensemble.simulate_ensemble` call:
that function is the one place a run's scheme state and kernel arrays
are built, and :func:`repro.sim.ensemble._advance_trial` -- the
vectorized epoch kernel -- is the one loop that advances them.  Death
times live in one numpy array; each epoch selects the next batch of
deaths, trims it to a *chronologically safe prefix*, decides the whole
prefix in one :meth:`~repro.sparing.base.SpareScheme.replace_batch`
call, and integrates the served writes of the epoch with a cumulative
sum.  The two engine names (:data:`ENGINES`) run the same code and
differ only in the ``metadata["engine"]`` label of their results.

The scalar event loop -- a heap of death times, one scalar ``replace``
call per death, always on a real initialized scheme -- is not an
engine but the verification oracle,
:func:`~repro.sim.reference.exact_lifetime`: the shadow audit
(``--shadow-sample``) and the differential tests re-execute runs on it.

The safe prefix is what keeps batching exact rather than approximate.
From a batch sorted by ``(death time, slot)`` -- the same order the
oracle's heap pops -- only deaths with ``v < v_first + floor / w_max``
are processed together, where ``floor`` is the scheme's lower bound on the wear budget
any single replacement adds (:meth:`SpareScheme.replacement_extra_floor`)
and ``w_max`` the largest wear weight among still-prone slots.  Within
such a window no replacement can push its slot's *next* death back
inside the window, so deciding the prefix in one call observes exactly
the event order the scalar loop would.  Death times themselves are
computed with the same float expression in the kernel and the oracle,
so death and replacement counts agree exactly; only the summation order of the
served-writes integral differs (agreement to ~1e-12 relative, tested at
1e-9).

The kernel picks how it *selects* each epoch from what it can observe
of the run -- never from an option -- and every strategy selects the
same epochs (``docs/fluid_engine.md``, "Kernel regimes"):

* a value partition, over compact work rows when the scheme never
  removes slots, every slot is wear-prone, the replacement capacity is
  known, and no guard or corruptor is active, and over the full arrays
  otherwise;
* after ``SEQUENTIAL_ENTER_STREAK`` consecutive one-death epochs (the
  BPA signature), a :class:`~repro.sim.frontier.DeathFrontier` -- a
  lazy-deletion heap over the death times in exact ``(time, slot)``
  order, bounded to the ``FRONTIER_LIMIT`` soonest deaths -- pops
  provably-identical epochs in O(log work-set) per death, and a
  one-death epoch collapses to the scheme state's scalar
  ``replace()``.  The frontier bails back to the vectorized selection
  whenever equivalence cannot be proven.

Result metadata counts the bookkeeping: ``epochs`` (passes that
processed deaths), ``sequential_rounds`` (frontier-served passes),
``regime_switches`` (transitions either way), and ``full_scans``
(value-partition passes); the same names land in the metrics
registry as ``sim.*`` counters next to a ``sim.epoch_size`` histogram.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from repro.attacks.base import AttackModel
from repro.device.faults import FaultModel
from repro.endurance.emap import EnduranceMap
from repro.obs.metrics import MetricsRegistry
from repro.sim.ensemble import EnsembleMember, simulate_ensemble
from repro.sim.result import SimulationResult
from repro.sparing.base import (
    BATCH_EXTEND,
    BATCH_FAIL,
    BATCH_REMOVE,
    BATCH_REPLACE,
    SpareScheme,
)
from repro.util.rng import RandomState
from repro.wearlevel.base import WearLeveler

#: Engine names accepted by :class:`LifetimeSimulator` and the CLI.
#: Both run the batched epoch kernel, one run per call, with identical
#: results; ``fluid-ensemble`` is only a result label.  It stays accepted
#: so that the cache keys, golden digests, checkpoints and result bodies
#: of runs that name it keep their identity.
ENGINES = ("fluid-batched", "fluid-ensemble")

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
#: reshape it (see :meth:`~repro.sim.frontier.DeathFrontier.pop_epoch`).
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
    """Return ``engine`` if it names an engine, else raise ``ValueError``.

    The message points the former ``fluid-exact`` engine (alias
    ``fluid``) at its place as the oracle.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {ENGINES}, got {engine!r} (the scalar "
            "event loop is the verification oracle repro.sim.exact_lifetime; "
            "re-check runs on it with --shadow-sample)"
        )
    return engine


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

    A run is one :func:`~repro.sim.ensemble.simulate_ensemble` call,
    which owns initialization, guard wiring and the shadow audit.

    Parameters
    ----------
    emap:
        Device endurance map.
    attack:
        Attack or workload model.
    sparing:
        Spare-line replacement scheme (fresh instance).  Runs that need a
        real scheme -- paranoia guards, and schemes without a lean
        kernel state -- initialize it; the others leave it
        uninitialized and keep their bookkeeping in the lean state.
    wearleveler:
        Wear-leveling scheme (fresh instance; attached here); defaults to
        the identity scheme.
    fault_model:
        Optional fault model adjusting effective endurance (e.g. ECP).
    rng:
        Master seed; forked deterministically into per-component streams.
    engine:
        ``"fluid-batched"`` (the default) or ``"fluid-ensemble"``; both
        run the epoch kernel and produce identical results, apart from
        this label (see :data:`ENGINES`).
    record_timeline:
        Whether to record per-death :class:`TimelineEvent` entries.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`: the run
        records ``sim/init`` and ``sim/kernel`` spans plus deterministic
        counters (``sim.runs``, ``sim.deaths``,
        ``sim.replacements``, ``sim.epochs`` /
        ``sim.sequential_rounds`` / ``sim.regime_switches`` /
        ``sim.full_scans``) and the
        ``sim.deaths_per_run`` and ``sim.epoch_size`` histograms (the
        latter makes the batched kernel's regime visible: 1-wide epochs
        are the sequential signature).  With verification enabled it
        also records ``verify.checks`` / ``verify.violations`` counters
        and ``verify/invariants`` / ``verify/shadow`` spans.
    paranoia:
        State-integrity checking level (``"off"``, ``"cheap"``,
        ``"full"``); see :mod:`repro.verify.invariants`.  Checks never
        mutate state, so results are bit-identical across levels.
    shadow_sample:
        Probability in ``[0, 1]`` that this run is differentially
        re-executed on the :func:`~repro.sim.reference.exact_lifetime`
        oracle, escalating divergence as a
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
        self._member = EnsembleMember(
            emap=emap,
            attack=attack,
            sparing=sparing,
            wearleveler=wearleveler,
            fault_model=fault_model,
            rng=rng,
        )
        self._engine = normalize_engine(engine)
        self._record_timeline = record_timeline
        self._max_timeline_events = max_timeline_events
        self._metrics = metrics
        self._paranoia = paranoia
        self._shadow_sample = shadow_sample

    def run(self) -> SimulationResult:
        """Simulate until device failure; returns the lifetime result.

        Raises :class:`~repro.verify.invariants.InvariantViolation` (after
        writing a ``.repro-debug/`` bundle) if state-integrity checking is
        enabled and a predicate fails, or if a sampled shadow audit
        diverges.
        """
        return simulate_ensemble(
            self._member,
            engine=self._engine,
            record_timeline=self._record_timeline,
            max_timeline_events=self._max_timeline_events,
            metrics=self._metrics,
            paranoia=self._paranoia,
            shadow_sample=self._shadow_sample,
        )


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
