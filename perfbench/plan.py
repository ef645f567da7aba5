"""Workload table, seeded inputs and latency statistics (stdlib only).

Everything here is a pure function of its arguments: the benchmark's
inputs -- device seeds per op, the service's two-tenant submission plan
-- derive from the workload seed alone, so two runs at one seed feed the
program identical inputs.  The orchestrator imports this module without
importing the program, so fresh interpreters it starts pay their own
import cost.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Fresh interpreters started per run to sample ``setup_s``; the last one
#: goes on to run the timed loop.
SETUP_STARTS: int = 3

#: Server starts per service run.  A start costs ~0.5 s, against ~1.2 s
#: for an in-process one, and its samples scatter more (0.39-0.74 s in
#: one run), so the service takes more of them.
SERVICE_SETUP_STARTS: int = 7

#: Ops that must lie beyond the tail percentile.
TAIL_BEYOND: int = 10

#: ``anchor_err_pp`` is the worst over this many first ops in plan order;
#: every run long enough for its tail reaches them.
ANCHOR_OPS: int = 20

#: Allowed |simulated - analytic| on an anchored cell, percentage points.
ANCHOR_TOL_PP: float = 0.5

#: One in this many service ops resubmits a batch the other tenant ran
#: DEDUP_LAG ops earlier.  With tenant 1's positions shifted by 2, the
#: batch a dedup op names was always run cold: (-DEDUP_LAG + 2 - 4t) is
#: never 0 mod DEDUP_EVERY for t in {0, 1}.
DEDUP_EVERY: int = 5
DEDUP_LAG: int = 4

#: Ensemble replicas per Monte-Carlo headline cell in the figures op.
CI_REPLICAS: int = 16

#: Config seeds live in [1, 2**31): the default endurance-map builder
#: takes a 31-bit seed.  The modulus is prime, so stepping by any stride
#: it does not divide visits every residue once.
_SEED_MOD: int = 2**31 - 1
_SEED_STRIDE: int = 0x5DEECE66D


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each exists: ``README.md``).

    ``device`` is (regions, lines per region); ``smoke_device`` is the
    small shape of ``--smoke`` runs, still within the anchor tolerance.
    ``tail_pct`` is a nearest-rank percentile fixed per workload, so runs
    compare: high enough to be a tail, low enough that a run of the
    benchmark's length leaves at least :data:`TAIL_BEYOND` ops beyond it.
    ``ops_per_s`` (per tenant for ``service``) sizes the traced run.
    """

    name: str
    clients: str
    device: Tuple[int, int]
    smoke_device: Tuple[int, int]
    sims_per_op: int
    tail_pct: float
    ops_per_s: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="figures",
            clients="1 serial in-process caller",
            device=(2048, 8),
            smoke_device=(512, 2),
            sims_per_op=7 + 24 + 12 + 4 + 2 * CI_REPLICAS,
            tail_pct=70.0,
            ops_per_s=1.8,
        ),
        Workload(
            name="fullscale",
            clients="1 serial in-process caller",
            device=(16384, 64),
            smoke_device=(1024, 4),
            sims_per_op=2,
            tail_pct=70.0,
            ops_per_s=1.3,
        ),
        Workload(
            name="fabric_sweep",
            clients="1 caller, 2 local fabric workers",
            device=(2048, 8),
            smoke_device=(512, 2),
            sims_per_op=24 + 4,
            tail_pct=70.0,
            ops_per_s=1.7,
        ),
        Workload(
            name="service",
            clients="1 client thread alternating 2 tenants",
            device=(4096, 16),
            smoke_device=(512, 2),
            sims_per_op=4,
            tail_pct=80.0,
            ops_per_s=5.0,
        ),
    )
}


def _base(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % _SEED_MOD


def op_seed(workload: str, seed: int, index: int) -> int:
    """Device seed of op ``index``: distinct for every index of one
    workload seed, so no op reuses another op's device."""
    if index < 0:
        raise ValueError(f"op index must be >= 0, got {index}")
    return 1 + (_base(workload, seed) + index * _SEED_STRIDE) % _SEED_MOD


#: Op indexes at and above this are warm-up ops (one per fresh start).
WARMUP_INDEX: int = 1 << 30


def warmup_seed(workload: str, seed: int, start: int) -> int:
    """Device seed of the warm-up op of fresh start ``start``."""
    return op_seed(workload, seed, WARMUP_INDEX + start)


def trace_ops(workload: str, seconds: float) -> int:
    """Ops per pass of the traced run (per tenant for ``service``): fixed
    by workload and run length, so its exact counts repeat at one seed.
    A service pass always reaches each tenant's first dedup op."""
    least = DEDUP_LAG + DEDUP_EVERY if workload == "service" else 3
    return max(least, int(WORKLOADS[workload].ops_per_s * seconds / 2))


def _unit(workload: str, seed: int, label: str) -> float:
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


def service_op(seed: int, tenant: int, index: int) -> Tuple[str, int]:
    """``(kind, batch_seed)`` of tenant ``tenant``'s op ``index``.

    ``kind`` is ``"cold"`` (a fresh batch) or ``"dedup"`` (resubmits the
    batch the other tenant ran as its op ``index - DEDUP_LAG``); the
    dedup positions are shifted by a seeded phase.  Tenant ops
    interleave in one seed sequence, so cold batches never collide.
    """
    if tenant not in (0, 1):
        raise ValueError(f"tenant must be 0 or 1, got {tenant}")
    phase = _base("service-dedup", seed) % DEDUP_EVERY
    if index >= DEDUP_LAG and (index + 2 * tenant + phase) % DEDUP_EVERY == 0:
        other = 1 - tenant
        return "dedup", op_seed("service", seed, 2 * (index - DEDUP_LAG) + other)
    return "cold", op_seed("service", seed, 2 * index + tenant)


def sample_indexes(workload: str, seed: int, count: int, size: int) -> List[int]:
    """A seeded sample of ``size`` distinct op indexes out of ``count``."""
    ranked = sorted(range(count), key=lambda i: _unit(workload, seed, f"sample:{i}"))
    return sorted(ranked[:size])


def replica_index(seed: int, op_seed_value: int) -> int:
    """Which ensemble replica of a figures op is re-run solo."""
    return int(_unit("figures", seed, f"replica:{op_seed_value}") * CI_REPLICAS)


class RunTooShort(ValueError):
    """A timed run finished too few ops to report a tail."""


def tail(latencies: Sequence[float], percentile: float) -> Tuple[float, int]:
    """``(value, ops beyond it)`` of the nearest-rank ``percentile``.

    Raises :class:`RunTooShort` when fewer than :data:`TAIL_BEYOND` ops
    lie beyond it: such a run has no tail to report.
    """
    count = len(latencies)
    rank = math.ceil(percentile / 100.0 * count)
    beyond = count - rank
    if rank < 1 or beyond < TAIL_BEYOND:
        raise RunTooShort(
            f"{count} ops leave {beyond} beyond p{percentile:g}; the tail needs "
            f"{TAIL_BEYOND}: run longer"
        )
    return sorted(latencies)[rank - 1], beyond


def min_tail_ops(percentile: float) -> int:
    """Fewest ops that leave :data:`TAIL_BEYOND` beyond ``percentile``."""
    count = TAIL_BEYOND + 1
    while count - math.ceil(percentile / 100.0 * count) < TAIL_BEYOND:
        count += 1
    return count


def median(values: Sequence[float]) -> float:
    """Median; ``nan`` for no values."""
    return statistics.median(values) if values else math.nan
