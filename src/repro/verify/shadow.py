"""Sampled differential shadow audits of the batched engine.

The differential suites prove the vectorized epoch kernel equivalent to
the scalar event loop (:func:`~repro.sim.reference.exact_lifetime`,
whose results report engine ``fluid-exact``); this module turns that
equivalence into an *always-on production check*.  At a configurable
sample rate, a run is transparently re-executed on that oracle and the
two results are compared; any divergence escalates as a :class:`ShadowDivergence`
carrying a pinned repro key (seed, scheme, engine pair, round window) so
the failing run can be replayed byte-for-byte.

Sampling is deterministic in the task key (the same hash-roll scheme the
fault injector uses), so a sweep audits the same subset of its tasks on
every invocation -- a diverging task keeps diverging until fixed, and a
clean sweep stays bit-identical run to run.  The audit reads the primary
result only after it is complete, so sampled and unsampled runs return
identical results; the cost of a sampled run is one extra scalar-engine
execution.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

from repro.sim.result import SimulationResult
from repro.verify.invariants import InvariantViolation

#: Relative tolerance on the served-writes comparison -- the same bound
#: PR2's offline equivalence suite tests at (the engines share every
#: death-time expression; only the integral's summation order differs).
SHADOW_WRITES_RTOL = 1e-9

#: Fields that must match exactly between the two engines.
_EXACT_FIELDS = ("deaths", "replacements", "failure_reason")


class ShadowDivergence(InvariantViolation):
    """The batched engine and the exact scalar oracle disagreed."""


def should_audit(sample: float, key: str) -> bool:
    """Deterministic sampling decision for one run.

    A pure function of ``(sample, key)``: the same task is audited (or
    not) on every run of a campaign, independent of scheduling.
    """
    if sample <= 0.0:
        return False
    if sample >= 1.0:
        return True
    digest = hashlib.sha256(f"shadow:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2**64 < sample


def compare_runs(
    primary: SimulationResult,
    shadow: SimulationResult,
    *,
    rounds: int,
    repro: Optional[dict] = None,
    rtol: float = SHADOW_WRITES_RTOL,
) -> None:
    """Raise :class:`ShadowDivergence` unless the two results agree.

    Death/replacement counts and the failure reason must match exactly;
    ``writes_served`` must agree to ``rtol`` (summation order is the only
    legitimate difference between the engines).
    """
    mismatches = {}
    for fld in _EXACT_FIELDS:
        lhs, rhs = getattr(primary, fld), getattr(shadow, fld)
        if lhs != rhs:
            mismatches[fld] = {"batched": lhs, "exact": rhs}
    if not math.isclose(
        primary.writes_served, shadow.writes_served, rel_tol=rtol, abs_tol=rtol
    ):
        mismatches["writes_served"] = {
            "batched": primary.writes_served,
            "exact": shadow.writes_served,
        }
    if not mismatches:
        return
    details = {
        f"{fld}.{side}": value
        for fld, sides in mismatches.items()
        for side, value in sides.items()
    }
    repro = dict(repro or {})
    repro.setdefault("round_window", [0, rounds])
    repro["engines"] = ["fluid-batched", "fluid-exact"]
    raise ShadowDivergence(
        "shadow-audit",
        rounds,
        "batched engine diverged from the exact reference on "
        + ", ".join(sorted(mismatches)),
        details=details,
        repro=repro,
    )
