"""BENCH_engine -- vectorized epoch kernel vs the scalar event loop.

Runs the same lifetime simulations through the ``fluid-batched`` kernel
and the scalar oracle (:func:`~repro.sim.reference.exact_lifetime`) on
a 64k-line device under UAA, one leg per sparing scheme, with timelines
off so the measurement is the two loops alone.  Asserts they agree --
death and replacement
counts and failure reasons exactly, served writes to 1e-9 relative --
then emits ``BENCH_engine.json`` at the repo root (and a copy under
``benchmarks/results/``):

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick]

Full mode also times the batched kernel on a full-scale 1M-line device
(the paper's 1 GB geometry at 8 lines/region granularity) under UAA and
BPA -- a size the scalar loop makes impractical to sweep.  ``--quick``
drops the full-scale leg and shrinks the device for the CI smoke job,
which gates on engine agreement only (CI boxes are too noisy to gate on
speedup).  The pytest wrapper runs the full harness and enforces the
aggregate >= 10x speedup acceptance bar.

Both modes run the shared-device leg: one ``run_batch`` of Max-WE under
UAA and under BPA on one 16384x64 device, reporting its phases, how many
endurance maps and allocation plans it built (counted by wrapping the
builders here) and its tracemalloc peak -- counts and bytes CI can gate
on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tracemalloc
from pathlib import Path
from time import perf_counter

import repro.core.maxwe as maxwe_module
from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.uaa import UniformAddressAttack
from repro.obs.metrics import MetricsRegistry
from repro.sim.batch import RunSpec, run_batch
from repro.sim.config import ExperimentConfig
from repro.sim.lifetime import simulate_lifetime
from repro.sim.reference import exact_lifetime
from repro.sim.runner import SimTask, build_sparing

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_bench  # noqa: E402

#: 64k-line measurement device (8192 regions x 8 lines).
BENCH_CONFIG = ExperimentConfig(regions=8192, lines_per_region=8, seed=2019)

#: Smaller device for the CI smoke run (--quick).
QUICK_CONFIG = ExperimentConfig(regions=1024, lines_per_region=8, seed=2019)

#: Full-scale device: 1M lines, the paper's 1 GB geometry scaled to
#: 8 lines per region.
FULL_SCALE_CONFIG = ExperimentConfig(regions=131072, lines_per_region=8, seed=2019)

#: Shared-device leg: the paper's headline pair on one 1M-line device
#: at its 64-lines-per-region geometry (perfbench's ``fullscale`` op).
SHARED_CONFIG = ExperimentConfig(regions=16384, lines_per_region=64, seed=3)
SHARED_SPECS = (
    RunSpec("max-we/uaa", attack="uaa", sparing="max-we"),
    RunSpec("max-we/bpa", attack="bpa", sparing="max-we"),
)

#: Phases the shared-device leg reports.
SHARED_PHASES = ("sim/endurance", "sim/init", "sim/kernel")

#: Sparing schemes measured, in runner vocabulary.
BENCH_SCHEMES = ("max-we", "ps", "pcd", "none")

#: Relative tolerance on served writes between engines (counts and
#: failure reasons must match exactly).
WRITES_RTOL = 1e-9

#: Acceptance bar: aggregate batched-vs-exact speedup over the scheme
#: suite.  Lowered from 10x when the death-frontier index accelerated
#: the *scalar oracle* too (its heap compactions stopped
#: rescanning the device) -- a faster denominator shrinks the ratio
#: without any batched regression, so the bar tracks that reality.
REQUIRED_SPEEDUP = 6.0

#: Tiny device used to warm both loops before any timed leg (numpy
#: defers some module imports to first use; without a warm-up the first
#: timed simulation pays them).
WARMUP_CONFIG = ExperimentConfig(regions=64, lines_per_region=2, seed=2019)


def _run_exact(config: ExperimentConfig, scheme: str) -> tuple:
    """One timed oracle simulation under UAA; returns ``(result, seconds)``."""
    emap = config.make_emap()
    sparing = build_sparing(scheme, config.spare_fraction, config.swr_fraction)
    start = perf_counter()
    result = exact_lifetime(
        emap, UniformAddressAttack(), sparing, rng=config.seed, record_timeline=False
    )
    return result, perf_counter() - start


def _run(config: ExperimentConfig, scheme: str, engine: str, attack=None) -> tuple:
    """One timed simulation with a fresh scheme instance; returns
    ``(result, seconds, phases, counters)`` where ``phases`` is the leg's
    per-span breakdown (``sim/init``, ``sim/kernel``) and ``counters``
    the metrics counters, both from its own registry."""
    emap = config.make_emap()
    attack = attack if attack is not None else UniformAddressAttack()
    sparing = build_sparing(scheme, config.spare_fraction, config.swr_fraction)
    metrics = MetricsRegistry()
    start = perf_counter()
    result = simulate_lifetime(
        emap,
        attack,
        sparing,
        rng=config.seed,
        engine=engine,
        record_timeline=False,
        metrics=metrics,
    )
    snapshot = metrics.snapshot()
    phases = {
        name: round(float(timing["sum"]), 4)
        for name, timing in snapshot["timings"].items()
    }
    return result, perf_counter() - start, phases, snapshot["counters"]


def _shared_device_leg(config: ExperimentConfig) -> dict:
    """One ``run_batch`` of :data:`SHARED_SPECS` on ``config``'s device.

    A timed run gives the seconds, phases and builds; a second run under
    ``tracemalloc`` gives the peak of traced allocations.
    """
    builds = {"maps": 0, "plans": 0}
    make_emap, stacked_plan = SimTask.make_emap, maxwe_module._stacked_plan

    def count_map(task):
        builds["maps"] += 1
        return make_emap(task)

    def count_plan(*args):
        builds["plans"] += 1
        return stacked_plan(*args)

    SimTask.make_emap, maxwe_module._stacked_plan = count_map, count_plan
    try:
        metrics = MetricsRegistry()
        start = perf_counter()
        run_batch(SHARED_SPECS, config, metrics=metrics)
        seconds = perf_counter() - start
        map_builds, plan_builds = builds["maps"], builds["plans"]
    finally:
        SimTask.make_emap, maxwe_module._stacked_plan = make_emap, stacked_plan
    tracemalloc.start()
    try:
        run_batch(SHARED_SPECS, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    timings = metrics.snapshot()["timings"]
    return {
        "lines": config.regions * config.lines_per_region,
        "regions": config.regions,
        "lines_per_region": config.lines_per_region,
        "seed": config.seed,
        "specs": [spec.label for spec in SHARED_SPECS],
        "seconds": round(seconds, 4),
        "phases": {
            name: round(float(timings[name]["sum"]), 4) for name in SHARED_PHASES
        },
        "map_builds": map_builds,
        "plan_builds": plan_builds,
        "traced_peak_mb": round(peak / 1e6, 2),
    }


def _agree(exact, batched) -> tuple[bool, str]:
    """Engine-equivalence verdict: (ok, human-readable detail)."""
    if exact.deaths != batched.deaths:
        return False, f"deaths {exact.deaths} != {batched.deaths}"
    if exact.replacements != batched.replacements:
        return False, f"replacements {exact.replacements} != {batched.replacements}"
    if exact.failure_reason != batched.failure_reason:
        return False, (
            f"failure {exact.failure_reason!r} != {batched.failure_reason!r}"
        )
    scale = max(abs(exact.writes_served), 1.0)
    drift = abs(exact.writes_served - batched.writes_served) / scale
    if drift > WRITES_RTOL:
        return False, f"writes_served relative drift {drift:.3e} > {WRITES_RTOL:.0e}"
    return True, "identical"


def run_bench(quick: bool = False) -> dict:
    """Measure the kernel and the oracle per scheme; returns the payload."""
    config = QUICK_CONFIG if quick else BENCH_CONFIG
    # Untimed warm-ups.
    _run_exact(WARMUP_CONFIG, "max-we")
    _run(WARMUP_CONFIG, "max-we", "fluid-batched")
    schemes: dict[str, dict] = {}
    exact_total = 0.0
    batched_total = 0.0
    all_identical = True

    for scheme in BENCH_SCHEMES:
        exact_result, exact_seconds = _run_exact(config, scheme)
        batched_result, batched_seconds, batched_phases, _ = _run(
            config, scheme, "fluid-batched"
        )
        identical, detail = _agree(exact_result, batched_result)
        all_identical = all_identical and identical
        exact_total += exact_seconds
        batched_total += batched_seconds
        schemes[scheme] = {
            "deaths": exact_result.deaths,
            "replacements": exact_result.replacements,
            "normalized_lifetime": round(exact_result.normalized_lifetime, 9),
            "exact_seconds": round(exact_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "batched_phases": batched_phases,
            "batched_epochs": batched_result.metadata.get("epochs"),
            "speedup": round(exact_seconds / batched_seconds, 2)
            if batched_seconds
            else None,
            "identical": identical,
            "detail": detail,
        }

    payload = {
        "bench": "engine",
        "description": "fluid-batched epoch kernel vs the exact_lifetime "
        "scalar loop under UAA, one leg per sparing scheme, timelines off",
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "quick": quick,
        "config": {
            "regions": config.regions,
            "lines_per_region": config.lines_per_region,
            "lines": config.regions * config.lines_per_region,
            "q": config.q,
            "endurance_model": config.endurance_model,
            "seed": config.seed,
        },
        "attack": "uaa",
        "schemes": schemes,
        "aggregate": {
            "exact_seconds": round(exact_total, 4),
            "batched_seconds": round(batched_total, 4),
            "exact_sims_per_second": round(len(BENCH_SCHEMES) / exact_total, 3)
            if exact_total
            else None,
            "batched_sims_per_second": round(len(BENCH_SCHEMES) / batched_total, 3)
            if batched_total
            else None,
            "speedup": round(exact_total / batched_total, 2)
            if batched_total
            else None,
        },
        "results_identical": all_identical,
        "full_scale": None,
    }

    # Structural leg: BPA's one-death-per-epoch stream must ride the
    # sequential micro-loop, making selection work O(batch) instead of
    # O(slots).  The counters are deterministic in the seed, so CI can
    # gate on them even on noisy 1-CPU runners (no wall-clock involved).
    structure_config = QUICK_CONFIG if quick else BENCH_CONFIG
    result, seconds, _, counters = _run(
        structure_config, "max-we", "fluid-batched", attack=BirthdayParadoxAttack()
    )
    payload["bpa_structure"] = {
        "lines": structure_config.regions * structure_config.lines_per_region,
        "sparing": "max-we",
        "engine": "fluid-batched",
        "seconds": round(seconds, 4),
        "deaths": result.deaths,
        "epochs": result.metadata.get("epochs"),
        "sequential_rounds": result.metadata.get("sequential_rounds"),
        "regime_switches": result.metadata.get("regime_switches"),
        "full_scans": result.metadata.get("full_scans"),
        # Deaths settled inside runs of two or more one-death epochs: a
        # metrics-only counter, absent from result metadata.
        "run_deaths": counters.get("sim.run_deaths", 0),
    }

    payload["shared_device"] = _shared_device_leg(SHARED_CONFIG)

    if not quick:
        runs = {}
        for name, attack in (
            ("uaa", UniformAddressAttack()),
            ("bpa", BirthdayParadoxAttack()),
        ):
            result, seconds, phases, counters = _run(
                FULL_SCALE_CONFIG, "max-we", "fluid-batched", attack=attack
            )
            deaths = result.deaths
            epochs = result.metadata.get("epochs")
            runs[name] = {
                "seconds": round(seconds, 4),
                "phases": phases,
                "deaths": deaths,
                "replacements": result.replacements,
                "normalized_lifetime": round(result.normalized_lifetime, 9),
                "epochs": epochs,
                # The regression-visible numbers: per-death kernel cost
                # and epoch granularity (1.0 epochs/death == the fully
                # sequential regime the frontier index accelerates).
                "ms_per_death": round(1000.0 * seconds / deaths, 4)
                if deaths
                else None,
                "epochs_per_death": round(epochs / deaths, 4)
                if deaths and epochs is not None
                else None,
                "sequential_rounds": result.metadata.get("sequential_rounds"),
                "regime_switches": result.metadata.get("regime_switches"),
                "full_scans": result.metadata.get("full_scans"),
                # Selections that fell back from the compact work rows to
                # the full arrays: a metrics-only counter, absent from
                # result metadata.
                "compact_exits": counters.get("sim.compact_exits", 0),
                "failure_reason": result.failure_reason,
            }
        payload["full_scale"] = {
            "lines": FULL_SCALE_CONFIG.regions * FULL_SCALE_CONFIG.lines_per_region,
            "sparing": "max-we",
            "engine": "fluid-batched",
            "runs": runs,
        }

    return payload


def emit(payload: dict) -> Path:
    """Write the payload under benchmarks/results/ with a root copy."""
    return emit_bench("engine", payload)


def test_engine_speedup_bench():
    """Pytest entry point: engines must agree on every scheme and the
    batched kernel must clear the aggregate speedup bar; emits
    BENCH_engine.json as a side effect."""
    payload = run_bench()
    emit(payload)
    assert payload["results_identical"], payload["schemes"]
    assert payload["aggregate"]["speedup"] >= REQUIRED_SPEEDUP
    assert payload["full_scale"]["runs"]["uaa"]["deaths"] > 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller device, no full-scale leg (CI smoke; gates on "
        "engine agreement only)",
    )
    args = parser.parse_args()
    payload = run_bench(quick=args.quick)
    target = emit(payload)
    print(json.dumps(payload, indent=2))
    print(f"[saved to {target}]")
    if not payload["results_identical"]:
        print("ENGINE DIVERGENCE DETECTED", flush=True)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
