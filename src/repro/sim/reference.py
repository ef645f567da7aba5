"""The verification oracles: the per-write reference and the scalar loop.

:class:`ReferenceSimulator` drives a real
:class:`~repro.device.bank.NVMBank` with an attack's per-write address
stream through a real wear-leveling mechanism and a sparing scheme,
counting every write (including remap data movement) against per-line
endurance.  It makes no stationarity assumption, so it
validates the fluid engine -- at per-write cost, which restricts it to
small banks (hundreds of lines, endurance in the thousands).

Capacity-degrading schemes (PCD) are supported with the identity
wear-leveler only: slot removal shrinks the logical space, which the
region-permutation wear-levelers cannot re-index mid-flight.

:func:`exact_lifetime` is the fluid kernel's oracle: the kernel's
per-trial arrays, advanced one death at a time by a scalar event loop;
the shadow audit and the differential tests check the kernel against it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.attacks.base import AttackModel
from repro.device.bank import NVMBank
from repro.device.faults import FaultModel
from repro.endurance.emap import EnduranceMap
from repro.sim.ensemble import (
    EnsembleMember,
    _death_times,
    _init_trial,
    _Trial,
    initialize_schemes,
)
from repro.sim.frontier import DeathFrontier
from repro.sim.lifetime import _DEGENERATE_REASON, _EXHAUSTED_REASON, build_result
from repro.sim.result import SimulationResult, TimelineEvent
from repro.sparing.base import (
    BatchedSchemeState,
    ExtendBudget,
    FailDevice,
    RemoveSlot,
    ReplaceWith,
    SpareScheme,
)
from repro.util.rng import RandomState, derive_rng
from repro.wearlevel.base import WearLeveler
from repro.wearlevel.none import NoWearLeveling


class ReferenceSimulator:
    """Exact, per-write lifetime simulation.

    Parameters mirror :class:`~repro.sim.lifetime.LifetimeSimulator`; an
    additional ``max_writes`` guards against unbounded runs when a
    configuration never fails.
    """

    def __init__(
        self,
        emap: EnduranceMap,
        attack: AttackModel,
        sparing: SpareScheme,
        wearleveler: Optional[WearLeveler] = None,
        fault_model: Optional[FaultModel] = None,
        rng: RandomState = None,
        max_writes: int = 50_000_000,
    ) -> None:
        if max_writes <= 0:
            raise ValueError(f"max_writes must be positive, got {max_writes}")
        self._emap = emap
        self._attack = attack
        self._sparing = sparing
        self._wl = wearleveler if wearleveler is not None else NoWearLeveling()
        self._fault_model = fault_model if fault_model is not None else FaultModel()
        self._rng = rng
        self._max_writes = max_writes

    def run(self) -> SimulationResult:
        """Simulate write by write until device failure (or the guard)."""
        bank = NVMBank(self._emap, fault_model=self._fault_model)
        initialize_schemes(
            [EnsembleMember(self._emap, self._attack, self._sparing, rng=self._rng)],
            stacked=False,
        )
        backing = self._sparing.initial_backing.copy()
        slots = backing.size
        min_user_slots = min(self._sparing.min_user_slots, slots)

        wl_rng = derive_rng(self._rng, "wearlevel")
        self._wl.attach(bank.endurance[backing], wl_rng)
        removable = not isinstance(self._wl, NoWearLeveling)
        alive_slots = list(range(slots))
        slot_alive = np.ones(slots, dtype=bool)

        user_lines = getattr(self._wl, "logical_lines", slots)
        stream_rng = derive_rng(self._rng, "attack")
        stream = self._attack.stream(user_lines, stream_rng)

        served = 0
        deaths = 0
        replacements = 0
        failure_reason = f"write guard reached ({self._max_writes} writes)"
        failed = False

        def write_slot(slot: int, count: int) -> bool:
            """Apply writes to a slot's backing line; True if device failed."""
            nonlocal deaths, replacements, failure_reason
            for _ in range(count):
                line = int(backing[slot])
                if not bank.is_alive(line):
                    # A replacement line independently died (can only
                    # happen through fault injection); treat as failure.
                    failure_reason = f"backing line {line} dead with no event"
                    return True
                if not bank.write(line, 1):
                    continue
                deaths += 1
                outcome = self._sparing.replace(slot, line)
                if isinstance(outcome, ReplaceWith):
                    replacements += 1
                    backing[slot] = outcome.line
                elif isinstance(outcome, ExtendBudget):
                    replacements += 1
                    bank.salvage(line, outcome.wear)
                elif isinstance(outcome, RemoveSlot):
                    slot_alive[slot] = False
                    alive_slots.remove(slot)
                    if len(alive_slots) < min_user_slots:
                        failure_reason = (
                            f"capacity degraded below user capacity "
                            f"({len(alive_slots)} < {min_user_slots} slots)"
                        )
                        return True
                else:
                    assert isinstance(outcome, FailDevice)
                    failure_reason = outcome.reason
                    return True
            return False

        for request in stream:
            if served >= self._max_writes or failed:
                break
            if removable and len(alive_slots) < slots:
                raise RuntimeError(
                    "capacity-degrading schemes require the identity wear-leveler "
                    "in the reference simulator"
                )
            if slot_alive.all():
                slot = self._wl.translate(request.address)
            else:
                # Degraded mode (identity WL): fold the address onto the
                # surviving slots.
                slot = alive_slots[request.address % len(alive_slots)]
            failed = write_slot(slot, 1)
            if failed:
                break
            served += 1
            for side_slot, extra in self._wl.record_write(request.address):
                if not slot_alive[side_slot]:
                    continue
                failed = write_slot(side_slot, extra)
                if failed:
                    break
            if failed:
                break

        metadata = {
            "attack": self._attack.describe(),
            "wearleveler": self._wl.describe(),
            "sparing": self._sparing.describe(),
            "fault_model": self._fault_model.describe(),
            "slots": slots,
            "engine": "reference",
        }
        return SimulationResult(
            writes_served=float(served),
            total_endurance=bank.total_endurance,
            deaths=deaths,
            replacements=replacements,
            failure_reason=failure_reason,
            metadata=metadata,
        )


#: The scalar loop compacts its heap when it outgrows ``slots`` by this
#: factor; a module constant so tests can force compaction.
HEAP_SLACK = 2


def exact_lifetime(
    emap: EnduranceMap,
    attack: AttackModel,
    sparing: SpareScheme,
    wearleveler: Optional[WearLeveler] = None,
    fault_model: Optional[FaultModel] = None,
    rng: RandomState = None,
    *,
    record_timeline: bool = True,
    max_timeline_events: int = 100_000,
) -> SimulationResult:
    """Run one device to failure on the scalar event loop (the oracle).

    Takes :func:`~repro.sim.lifetime.simulate_lifetime`'s components and
    builds the kernel's per-trial arrays on a real initialized scheme;
    results report ``metadata["engine"] == "fluid-exact"``.
    """
    member = EnsembleMember(emap, attack, sparing, wearleveler, fault_model, rng)
    state = initialize_schemes([member], stacked=False)
    trial = _init_trial(state, 0, member, [])
    outcome = _run_exact(state, trial, record_timeline, max_timeline_events)
    return build_result(
        outcome,
        total_endurance=trial.total_endurance,
        slots=trial.backing.size,
        engine="fluid-exact",
        **trial.describe,
    )


def _run_exact(
    state: BatchedSchemeState,
    trial: _Trial,
    record_timeline: bool,
    max_timeline_events: int,
) -> tuple[float, int, int, str, list[TimelineEvent], dict]:
    """Advance ``state``'s trial 0 to device failure, one death at a time.

    Every death is decided through ``state.replace``, which
    :func:`exact_lifetime` always backs with a real initialized scheme.
    """
    endurance, backing, weights = trial.endurance, trial.backing, trial.weights
    current_death, active_weight = trial.current_death, trial.active_weight
    slots = backing.size
    if current_death is None:
        current_death = _death_times(slots, trial.prone, trial.prone_death)
    alive = np.ones(slots, dtype=bool)
    # The kernel's death-frontier index serves as the heap: (time, slot)
    # entries, lazy deletion, and compaction once it outgrows
    # ``slots * HEAP_SLACK``.
    frontier = DeathFrontier(current_death, cap=slots * HEAP_SLACK, alive=alive)
    served = 0.0
    served_error = 0.0  # Kahan compensation for the served integral
    v_now = 0.0
    deaths = 0
    replacements = 0
    failure_reason = _DEGENERATE_REASON
    timeline: list[TimelineEvent] = []

    def record(slot: int, dead_line: int, action: str, replacement: int | None) -> None:
        if record_timeline and len(timeline) < max_timeline_events:
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
        # Kahan-compensated accumulation: each increment is tiny
        # relative to the running total late in long runs.
        increment = (v - v_now) * active_weight * trial.eta - served_error
        fresh = served + increment
        served_error = (fresh - served) - increment
        served = fresh
        v_now = v
        deaths += 1
        dead_line = int(backing[slot])

        outcome = state.replace(0, slot, dead_line)
        if isinstance(outcome, ReplaceWith):
            replacements += 1
            backing[slot] = outcome.line
            extra = float(endurance[outcome.line])
            new_death = v_now + extra / weights[slot]
            current_death[slot] = new_death
            frontier.push(slot, new_death)
            record(slot, dead_line, "replaced", outcome.line)
            continue
        if isinstance(outcome, ExtendBudget):
            replacements += 1
            new_death = v_now + outcome.wear / weights[slot]
            current_death[slot] = new_death
            frontier.push(slot, new_death)
            record(slot, dead_line, "extended", None)
            continue
        if isinstance(outcome, RemoveSlot):
            alive[slot] = False
            active_weight -= float(weights[slot])
            current_death[slot] = math.inf
            record(slot, dead_line, "removed", None)
            live_count = int(alive.sum())
            if live_count < trial.min_user_slots:
                failure_reason = (
                    f"capacity degraded below user capacity "
                    f"({live_count} < {trial.min_user_slots} slots)"
                )
                break
            continue
        assert isinstance(outcome, FailDevice)
        failure_reason = outcome.reason
        record(slot, dead_line, "device-failed", None)
        break
    else:
        if deaths > 0:
            failure_reason = _EXHAUSTED_REASON

    extra_meta = {"heap_compactions": frontier.compactions}
    return served, deaths, replacements, failure_reason, timeline, extra_meta
