"""BENCH_ensemble -- trial-stacked ensemble engine vs per-task dispatch.

Runs the same Monte-Carlo lifetime studies twice -- once with every
replica dispatched as its own ``fluid-batched`` task (the historical
path) and once through the ``fluid-ensemble`` engine that advances a
whole chunk of replicas per kernel pass -- across a replicas x scheme
grid on the 64k-line benchmark device under UAA.  Asserts every
per-replica result is *bit-identical* between the two dispatches, then
emits ``BENCH_ensemble.json`` at the repo root (and a copy under
``benchmarks/results/``):

    PYTHONPATH=src python benchmarks/bench_ensemble.py [--quick]

Methodology: the box this runs on drifts between slow and fast phases,
so each (scheme, replicas) cell measures its two legs *interleaved* and
keeps the minimum over ``--reps`` repetitions per leg -- comparing two
mins taken seconds apart, not a fast-phase leg against a slow-phase one.
Results are deterministic, so repetitions change timings only.

The headline cell -- 256 replicas of Max-WE(0.1, 0.9) -- carries the
acceptance bar: the ensemble engine must be >= 5x faster than per-task
dispatch.  ``--quick`` shrinks the device and the grid for the CI smoke
job, which gates on bit-identity only (CI boxes are too noisy to gate
on speedup).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.attacks.uaa import UniformAddressAttack
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import ExperimentConfig
from repro.sim.montecarlo import monte_carlo_lifetime
from repro.sim.runner import build_sparing

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_bench  # noqa: E402

#: 64k-line measurement device (8192 regions x 8 lines).
BENCH_CONFIG = ExperimentConfig(regions=8192, lines_per_region=8, seed=2019)

#: Smaller device for the CI smoke run (--quick).
QUICK_CONFIG = ExperimentConfig(regions=1024, lines_per_region=8, seed=2019)

#: Sparing schemes on the grid, in runner vocabulary.
BENCH_SCHEMES = ("max-we", "ps", "pcd", "none")

#: Replica counts on the grid; the largest is the headline cell.
BENCH_REPLICAS = (32, 256)
QUICK_REPLICAS = (8, 16)

#: Acceptance bar: ensemble speedup over per-task dispatch at the
#: headline cell (256 replicas of Max-WE on the 64k-line device).
REQUIRED_SPEEDUP = 5.0

#: Engine phase spans worth surfacing in the per-leg breakdown.
PHASE_SPANS = (
    "sim/init",
    "sim/kernel",
    "sim/endurance",
    "sim/components",
    "runner/total",
)


def _study(engine, config, replicas, scheme):
    """One timed Monte-Carlo study; returns ``(study, seconds, phases)``."""
    sparing_factory = functools.partial(
        build_sparing, scheme, config.spare_fraction, config.swr_fraction
    )
    metrics = MetricsRegistry()
    start = perf_counter()
    study = monte_carlo_lifetime(
        UniformAddressAttack,
        sparing_factory,
        config=config,
        replicas=replicas,
        engine=engine,
        metrics=metrics,
        jobs=1,
    )
    seconds = perf_counter() - start
    timings = metrics.snapshot()["timings"]
    phases = {
        name: round(float(timings[name]["sum"]), 4)
        for name in PHASE_SPANS
        if name in timings
    }
    return study, seconds, phases


def _identical(per_task, ensemble) -> tuple[bool, str]:
    """Bit-identity verdict across every replica of the two studies."""
    if not np.array_equal(per_task.lifetimes, ensemble.lifetimes):
        drift = np.max(np.abs(per_task.lifetimes - ensemble.lifetimes))
        return False, f"lifetimes differ (max abs drift {drift:.3e})"
    for index, (solo, stacked) in enumerate(
        zip(per_task.results, ensemble.results)
    ):
        if solo.writes_served != stacked.writes_served:
            return False, f"replica {index}: writes_served differs"
        if solo.deaths != stacked.deaths:
            return False, f"replica {index}: deaths differ"
        if solo.replacements != stacked.replacements:
            return False, f"replica {index}: replacements differ"
        if solo.failure_reason != stacked.failure_reason:
            return False, f"replica {index}: failure_reason differs"
    return True, "identical"


def _measure_cell(config, scheme, replicas, reps):
    """Interleaved min-of-``reps`` measurement of one grid cell."""
    best = {"per-task": None, "ensemble": None}
    studies = {}
    for _ in range(reps):
        for leg, engine in (
            ("per-task", "fluid-batched"),
            ("ensemble", "fluid-ensemble"),
        ):
            study, seconds, phases = _study(engine, config, replicas, scheme)
            if best[leg] is None or seconds < best[leg][0]:
                best[leg] = (seconds, phases)
            studies[leg] = study  # deterministic: any rep's results do
    per_task_seconds, per_task_phases = best["per-task"]
    ensemble_seconds, ensemble_phases = best["ensemble"]
    identical, detail = _identical(studies["per-task"], studies["ensemble"])
    return {
        "replicas": replicas,
        "scheme": scheme,
        "mean_lifetime": round(studies["per-task"].mean, 9),
        "per_task_seconds": round(per_task_seconds, 4),
        "ensemble_seconds": round(ensemble_seconds, 4),
        "per_task_ms_per_replica": round(1000.0 * per_task_seconds / replicas, 3),
        "ensemble_ms_per_replica": round(1000.0 * ensemble_seconds / replicas, 3),
        "per_task_phases": per_task_phases,
        "ensemble_phases": ensemble_phases,
        "speedup": round(per_task_seconds / ensemble_seconds, 2)
        if ensemble_seconds
        else None,
        "identical": identical,
        "detail": detail,
    }


def run_bench(quick: bool = False, reps: int = 2) -> dict:
    """Measure the grid; returns the BENCH_ensemble payload."""
    config = QUICK_CONFIG if quick else BENCH_CONFIG
    replica_counts = QUICK_REPLICAS if quick else BENCH_REPLICAS
    warmup = ExperimentConfig(regions=64, lines_per_region=2, seed=2019)
    for engine in ("fluid-batched", "fluid-ensemble"):
        _study(engine, warmup, 4, "max-we")  # untimed warm-up

    cells = {}
    all_identical = True
    for replicas in replica_counts:
        for scheme in BENCH_SCHEMES:
            cell = _measure_cell(config, scheme, replicas, reps)
            cells[f"{scheme}@{replicas}"] = cell
            all_identical = all_identical and cell["identical"]

    headline = cells[f"max-we@{replica_counts[-1]}"]
    return {
        "bench": "ensemble",
        "description": "fluid-ensemble trial-stacked Monte-Carlo dispatch vs "
        "per-task fluid-batched dispatch under UAA, interleaved min-of-reps "
        "per (scheme, replicas) cell",
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "quick": quick,
        "reps": reps,
        "config": {
            "regions": config.regions,
            "lines_per_region": config.lines_per_region,
            "lines": config.regions * config.lines_per_region,
            "q": config.q,
            "endurance_model": config.endurance_model,
            "seed": config.seed,
        },
        "attack": "uaa",
        "cells": cells,
        "headline": {
            "cell": f"max-we@{replica_counts[-1]}",
            "speedup": headline["speedup"],
            "per_task_ms_per_replica": headline["per_task_ms_per_replica"],
            "ensemble_ms_per_replica": headline["ensemble_ms_per_replica"],
            "required_speedup": REQUIRED_SPEEDUP,
        },
        "results_identical": all_identical,
    }


def emit(payload: dict) -> Path:
    """Write the payload under benchmarks/results/ with a root copy."""
    return emit_bench("ensemble", payload)


def test_ensemble_speedup_bench():
    """Pytest entry point: every grid cell must be bit-identical between
    dispatches and the headline cell must clear the speedup bar; emits
    BENCH_ensemble.json as a side effect."""
    payload = run_bench()
    emit(payload)
    assert payload["results_identical"], payload["cells"]
    assert payload["headline"]["speedup"] >= REQUIRED_SPEEDUP


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller device and grid (CI smoke; gates on bit-identity only)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=2,
        help="interleaved repetitions per leg; the minimum is reported",
    )
    args = parser.parse_args()
    payload = run_bench(quick=args.quick, reps=args.reps)
    target = emit(payload)
    print(json.dumps(payload, indent=2))
    print(f"[saved to {target}]")
    if not payload["results_identical"]:
        print("DISPATCH DIVERGENCE DETECTED", flush=True)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
