"""Crash-dump bundles: serialize failing state, replay it post-mortem.

When a run raises an :class:`~repro.verify.invariants.InvariantViolation`
(or a supervised worker dies on an unexpected exception), the state that
produced it is perishable -- it lives in worker-process memory and is
gone by the time the failure surfaces.  This module freezes it first: a
``.repro-debug/<name>/`` bundle holding

* ``meta.json`` -- the violation (predicate, round, details, repro key),
  the declarative task payload that produced it (when known), the active
  fault spec, and the guard's scalar ledger; and
* ``state.npz`` -- the full state arrays (backing, death schedule, wear
  budgets, dead-line mask, weights, endurance) at the moment of failure.

``python -m repro.verify replay <bundle>`` rebuilds the task from the
payload, re-installs the recorded fault spec, and re-runs it at
``paranoia=full`` -- deterministically reproducing the violation (or
reporting that it no longer fires).  ``check <bundle>`` re-evaluates the
scheme-independent invariants statically over the stored arrays.

The bundle root is ``.repro-debug/`` under the working directory;
override it with the ``REPRO_DEBUG_DIR`` environment variable, or set
that variable to the empty string to disable bundle writing entirely.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

from repro.verify.invariants import InvariantViolation

#: Environment variable overriding (or, when empty, disabling) the root.
DEBUG_DIR_ENV = "REPRO_DEBUG_DIR"

#: Default bundle root, relative to the working directory.
DEFAULT_DEBUG_DIR = ".repro-debug"

#: Environment variable overriding the bundle cap.
DEBUG_CAP_ENV = "REPRO_DEBUG_CAP"

#: Most crash bundles kept on disk; writing one past this bound evicts
#: the oldest bundles (same policy as the cache quarantine: bundles are
#: for debugging recent failures, and a violation storm must not turn
#: the debug directory into a disk leak).
DEFAULT_DEBUG_CAP: int = 32

_META_NAME = "meta.json"
_STATE_NAME = "state.npz"

# Per-thread state: the declarative payload of the task currently
# executing (set by the runner / CLI so engine-level bundle writes can
# pin it) and a suppression flag so replays don't write bundles of
# their own.  Thread-local rather than module-global: the job service
# runs dispatcher threads that execute tasks concurrently with other
# code in the same process, and a bundle written by one thread must
# never pick up another thread's task payload.
_local = threading.local()


def _task_state() -> "tuple[Optional[dict], Optional[dict]]":
    return getattr(_local, "task", (None, None))


@contextlib.contextmanager
def task_context(payload: Optional[dict], options: Optional[dict] = None) -> Iterator[None]:
    """Pin the executing task's declarative payload for bundle writes.

    The pin is visible only to the calling thread -- the thread that
    runs the task is the thread that writes its bundles.
    """
    previous = _task_state()
    _local.task = (payload, options)
    try:
        yield
    finally:
        _local.task = previous


@contextlib.contextmanager
def suppress_bundles() -> Iterator[None]:
    """Disable bundle writing inside the block (used by replays/tests).

    Per-thread, like :func:`task_context`: a replay running in one
    thread must not silence bundles from tasks on other threads.
    """
    previous = getattr(_local, "suppressed", False)
    _local.suppressed = True
    try:
        yield
    finally:
        _local.suppressed = previous


def bundle_root(root: "str | os.PathLike | None" = None) -> Optional[Path]:
    """Resolve the bundle root; ``None`` means bundles are disabled."""
    if getattr(_local, "suppressed", False):
        return None
    if root is not None:
        return Path(root)
    env = os.environ.get(DEBUG_DIR_ENV)
    if env is not None:
        return Path(env) if env else None
    return Path(DEFAULT_DEBUG_DIR)


def _active_fault_spec() -> str:
    from repro.sim.faults import active_injector

    injector = active_injector()
    return injector.spec.to_spec() if injector is not None else ""


def _allocate_dir(root: Path, stem: str) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    candidate = root / stem
    suffix = 1
    while candidate.exists():
        suffix += 1
        candidate = root / f"{stem}-{suffix}"
    candidate.mkdir()
    return candidate


def _prune_bundles(root: Path, keep: Path) -> int:
    """Evict the oldest bundle dirs past the cap; returns the count.

    ``keep`` (the bundle just written) is never evicted, even when its
    mtime sorts it oldest on a coarse-grained filesystem clock.
    """
    from repro.sim.cache import _resolve_cap, prune_oldest

    cap = _resolve_cap(None, DEBUG_CAP_ENV, DEFAULT_DEBUG_CAP)
    candidates = [
        entry
        for entry in root.iterdir()
        if entry.is_dir() and (entry / _META_NAME).is_file() and entry != keep
    ]
    return prune_oldest(
        candidates, max(cap - 1, 0), lambda entry: shutil.rmtree(entry)
    )


def _jsonable(value: object) -> object:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return str(value)


def _write_meta(directory: Path, meta: dict) -> None:
    path = directory / _META_NAME
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True, default=_jsonable)
        handle.write("\n")


def write_violation_bundle(
    violation: InvariantViolation,
    *,
    scalars: Optional[dict] = None,
    root: "str | os.PathLike | None" = None,
) -> Optional[Path]:
    """Serialize a violation (and its attached arrays) to a bundle.

    Returns the bundle directory, or ``None`` when bundles are disabled.
    Idempotent per violation: a violation already bundled (e.g. by the
    engine, before the supervisor saw it) is not bundled again.
    """
    if violation.bundle_path is not None:
        return Path(violation.bundle_path)
    resolved = bundle_root(root)
    if resolved is None:
        return None
    directory = _allocate_dir(resolved, f"violation-{violation.invariant}")
    meta = {
        "kind": "violation",
        "invariant": violation.invariant,
        "round": violation.round_index,
        "message": violation.message,
        "details": violation.details,
        "repro": violation.repro,
        "scalars": dict(scalars or {}),
        "task": _task_state()[0],
        "task_options": _task_state()[1],
        "fault_spec": _active_fault_spec(),
        "divergence": type(violation).__name__,
    }
    _write_meta(directory, meta)
    if violation.arrays:
        np.savez_compressed(directory / _STATE_NAME, **violation.arrays)
    violation.bundle_path = str(directory)
    _prune_bundles(resolved, directory)
    return directory


def write_error_bundle(
    error: BaseException,
    *,
    key: str = "",
    root: "str | os.PathLike | None" = None,
) -> Optional[Path]:
    """Serialize an unexpected worker exception's context to a bundle."""
    resolved = bundle_root(root)
    if resolved is None:
        return None
    directory = _allocate_dir(resolved, f"error-{type(error).__name__.lower()}")
    meta = {
        "kind": "error",
        "error": type(error).__name__,
        "message": str(error),
        "traceback": traceback.format_exception(type(error), error, error.__traceback__),
        "task_key": key,
        "task": _task_state()[0],
        "task_options": _task_state()[1],
        "fault_spec": _active_fault_spec(),
    }
    _write_meta(directory, meta)
    _prune_bundles(resolved, directory)
    return directory


# ----------------------------------------------------------------------
# Loading and replaying
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Bundle:
    """One loaded ``.repro-debug`` bundle."""

    path: Path
    meta: dict
    arrays: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """``"violation"`` or ``"error"``."""
        return str(self.meta.get("kind", "unknown"))

    @property
    def replayable(self) -> bool:
        """Whether the bundle pins a declarative task to re-run."""
        return isinstance(self.meta.get("task"), dict)


def load_bundle(path: "str | os.PathLike") -> Bundle:
    """Load a bundle directory written by this module."""
    directory = Path(path)
    meta_path = directory / _META_NAME
    if not meta_path.is_file():
        raise FileNotFoundError(f"{directory} is not a repro-debug bundle (no meta.json)")
    with open(meta_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    arrays = {}
    state_path = directory / _STATE_NAME
    if state_path.is_file():
        with np.load(state_path) as stored:
            arrays = {name: stored[name] for name in stored.files}
    return Bundle(path=directory, meta=meta, arrays=arrays)


def list_bundles(root: "str | os.PathLike | None" = None) -> List[Path]:
    """Bundle directories under the root, oldest first."""
    resolved = Path(root) if root is not None else bundle_root()
    if resolved is None or not resolved.is_dir():
        return []
    found = [
        entry
        for entry in resolved.iterdir()
        if entry.is_dir() and (entry / _META_NAME).is_file()
    ]
    return sorted(found, key=lambda entry: (entry.stat().st_mtime, entry.name))


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of deterministically re-running a bundle's task."""

    bundle: Path
    reproduced: bool
    notes: str
    violation: Optional[InvariantViolation] = None

    def __str__(self) -> str:
        status = "REPRODUCED" if self.reproduced else "not reproduced"
        return f"{self.bundle}: {status} -- {self.notes}"


def _rebuild_task(meta: dict):
    from repro.sim.config import ExperimentConfig
    from repro.sim.runner import SimTask

    payload = meta["task"]
    options = meta.get("task_options") or {}
    config = ExperimentConfig(**payload["config"])
    return SimTask(
        attack=payload["attack"],
        sparing=payload["sparing"],
        wearlevel=payload["wearlevel"],
        p=payload["p"],
        swr=payload["swr"],
        config=config,
        seed=payload["seed"],
        emap_seed=payload["emap_seed"],
        engine=payload["engine"],
        paranoia="full",
        shadow_sample=float(options.get("shadow_sample", 0.0)),
    )


def replay(path: "str | os.PathLike") -> ReplayReport:
    """Re-run a bundle's pinned task at ``paranoia=full``.

    The recorded fault spec is re-installed for the duration (injection
    is deterministic in the task key, so the same corruption recurs) and
    bundle writing is suppressed so the replay leaves no new bundles.
    """
    from repro.sim import faults

    bundle = load_bundle(path)
    if not bundle.replayable:
        return ReplayReport(
            bundle=bundle.path,
            reproduced=False,
            notes=(
                "bundle carries no declarative task payload "
                "(non-SimTask origin); inspect meta.json/state.npz manually"
            ),
        )
    task = _rebuild_task(bundle.meta)
    expected = bundle.meta.get("invariant")
    previous = faults.active_injector()
    faults.install(bundle.meta.get("fault_spec") or None)
    try:
        with suppress_bundles():
            task.execute()
    except InvariantViolation as violation:
        matches = expected is None or violation.invariant == expected
        return ReplayReport(
            bundle=bundle.path,
            reproduced=matches,
            notes=(
                f"raised {type(violation).__name__} on invariant "
                f"{violation.invariant!r} at round {violation.round_index}"
                + ("" if matches else f" (bundle recorded {expected!r})")
            ),
            violation=violation,
        )
    finally:
        faults.install(previous.spec if previous is not None else None)
    return ReplayReport(
        bundle=bundle.path,
        reproduced=False,
        notes=(
            "task completed cleanly at paranoia=full"
            + (f"; bundled violation was {expected!r}" if expected else "")
        ),
    )


def static_check(bundle: Bundle) -> List[str]:
    """Re-evaluate scheme-independent invariants over stored arrays.

    Returns the failure messages (empty = the stored state satisfies
    every applicable predicate).  Useful to confirm a bundle captured
    genuinely corrupt state, without re-running anything.
    """
    from repro.verify.invariants import (
        _check_mapping_consistency,
        _check_no_dead_line_writes,
        _check_nonnegative_endurance,
        _check_wear_conservation,
        EngineView,
    )

    required = {"backing", "current_death", "budget", "in_service", "dead_mask"}
    if not required.issubset(bundle.arrays):
        return [f"bundle has no state arrays ({sorted(required)} required)"]
    scalars = bundle.meta.get("scalars") or {}
    details = bundle.meta.get("details") or {}

    def scalar(name: str, default: float = 0.0) -> float:
        return float(scalars.get(name, details.get(name, default)))

    view = EngineView(
        served=scalar("served"),
        v_now=scalar("v_now"),
        deaths=int(scalar("deaths")),
        eta=scalar("eta", 1.0),
        weights=bundle.arrays.get("weights", np.ones(bundle.arrays["backing"].size)),
        backing=bundle.arrays["backing"],
        current_death=bundle.arrays["current_death"],
        endurance=bundle.arrays.get(
            "endurance", np.full(int(bundle.arrays["backing"].max()) + 1, np.inf)
        ),
        total_endurance=scalar("total_endurance", np.inf),
        sparing=_StatelessScheme(),
        budget=bundle.arrays["budget"],
        in_service=bundle.arrays["in_service"].astype(bool),
        dead_mask=bundle.arrays["dead_mask"].astype(bool),
        wear_retired=scalar("wear_retired"),
        wear_extended=scalar("wear_extended"),
        guard_deaths=int(scalar("deaths")),
        last_served=0.0,
        last_v=0.0,
        rounds=int(bundle.meta.get("round", 0)),
        tolerance=scalar("tolerance", 1e-6),
        final=True,
    )
    failures = []
    for check in (
        _check_wear_conservation,
        _check_nonnegative_endurance,
        _check_mapping_consistency,
        _check_no_dead_line_writes,
    ):
        message = check(view)
        if message is not None:
            failures.append(message)
    return failures


class _StatelessScheme:
    """Stand-in scheme for static bundle checks (tables not serialized)."""

    def pool_accounting(self):
        return None

    def check_integrity(self, backing=None, dead_lines=None) -> None:
        return None
