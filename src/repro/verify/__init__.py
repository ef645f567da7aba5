"""State-integrity verification: invariants, shadow audits, crash dumps.

Three layers of defence against silently corrupted simulator state:

* :mod:`repro.verify.invariants` -- a declarative invariant registry
  evaluated over live engine state at a configurable cadence
  (``paranoia={off,cheap,full}``), raising a structured
  :class:`InvariantViolation` on the first failed predicate;
* :mod:`repro.verify.shadow` -- sampled differential audits re-running
  the batched engine on the exact scalar oracle and escalating
  divergence as a violation with a pinned repro key;
* :mod:`repro.verify.snapshot` -- ``.repro-debug/`` crash-dump bundles
  written on violation or unexpected worker death, deterministically
  replayable via ``python -m repro.verify replay``.

See ``docs/verification.md`` for the invariant catalog and workflows.
"""

from repro.verify.invariants import (
    CHEAP_CADENCE,
    DEFAULT_INVARIANTS,
    EngineGuard,
    EngineView,
    Invariant,
    InvariantRegistry,
    InvariantViolation,
    PARANOIA_LEVELS,
    REGISTRY,
    normalize_paranoia,
)
from repro.verify.shadow import (
    SHADOW_WRITES_RTOL,
    ShadowDivergence,
    compare_runs,
    should_audit,
)
from repro.verify.snapshot import (
    Bundle,
    ReplayReport,
    list_bundles,
    load_bundle,
    replay,
    static_check,
    suppress_bundles,
    task_context,
    write_error_bundle,
    write_violation_bundle,
)

__all__ = [
    "CHEAP_CADENCE",
    "DEFAULT_INVARIANTS",
    "EngineGuard",
    "EngineView",
    "Invariant",
    "InvariantRegistry",
    "InvariantViolation",
    "PARANOIA_LEVELS",
    "REGISTRY",
    "normalize_paranoia",
    "SHADOW_WRITES_RTOL",
    "ShadowDivergence",
    "compare_runs",
    "should_audit",
    "Bundle",
    "ReplayReport",
    "list_bundles",
    "load_bundle",
    "replay",
    "static_check",
    "suppress_bundles",
    "task_context",
    "write_error_bundle",
    "write_violation_bundle",
]
