"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs start real processes (fabric workers, a live service) on
small devices; the whole file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import plan  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*flags: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *flags],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


# ----------------------------------------------------------------------
# Inputs are a pure function of the workload seed
# ----------------------------------------------------------------------


def test_op_seeds_are_a_pure_function_of_the_workload_seed():
    first = [plan.op_seed("figures", 7, i) for i in range(200)]
    assert first == [plan.op_seed("figures", 7, i) for i in range(200)]
    assert first != [plan.op_seed("figures", 8, i) for i in range(200)]
    assert first != [plan.op_seed("fullscale", 7, i) for i in range(200)]
    assert len(set(first)) == len(first), "two ops share a device"
    assert all(1 <= seed < 2**31 for seed in first)
    warmups = {plan.warmup_seed("figures", 7, k) for k in range(plan.SETUP_STARTS)}
    assert len(warmups) == plan.SETUP_STARTS and not warmups & set(first)


def test_service_plan_is_pure_and_dedups_only_cold_batches():
    plans = [[plan.service_op(3, t, i) for i in range(400)] for t in (0, 1)]
    assert plans == [[plan.service_op(3, t, i) for i in range(400)] for t in (0, 1)]
    assert plans != [[plan.service_op(4, t, i) for i in range(400)] for t in (0, 1)]
    cold = {seed for ops in plans for kind, seed in ops if kind == "cold"}
    assert len(cold) == sum(kind == "cold" for ops in plans for kind, _ in ops)
    dedups = [(t, i, seed) for t in (0, 1) for i, (kind, seed) in enumerate(plans[t]) if kind == "dedup"]
    assert len(dedups) == 2 * (400 - plan.DEDUP_LAG) // plan.DEDUP_EVERY
    for tenant, index, seed in dedups:
        assert plans[1 - tenant][index - plan.DEDUP_LAG] == ("cold", seed)


def test_tail_has_ten_ops_beyond_it_or_fails_loudly():
    latencies = [float(i) for i in reversed(range(40))]
    assert plan.tail(latencies, 75.0) == (29.0, 10)
    assert plan.tail(latencies, 60.0) == (23.0, 16)
    with pytest.raises(plan.RunTooShort):
        plan.tail(latencies[:39], 75.0)
    for info in plan.WORKLOADS.values():
        assert info.tail_pct > 50.0


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------


def test_service_check_rejects_a_tampered_body():
    import workloads
    from repro.sim.batch import run_batch

    session = workloads.Session("service", 1, 1.0, ROOT, smoke=True)
    config = session.config(12345)
    reference = run_batch(list(workloads.SERVICE_SPECS), config).to_json()

    clean = workloads.Op(config.seed, check=reference)
    workloads.check_body(clean, reference, config)
    assert clean.failures == [] and 0 < clean.anchor_err_pp < plan.ANCHOR_TOL_PP

    document = json.loads(reference)
    document["runs"][1]["result"]["normalized_lifetime"] += 0.01
    tampered = workloads.Op(config.seed, check=json.dumps(document, indent=2))
    workloads.check_body(tampered, reference, config)
    assert any("differs" in f for f in tampered.failures)
    assert any("anchor uaa/max-we" in f for f in tampered.failures)

    garbage = workloads.Op(config.seed, check=reference[:-10])
    workloads.check_body(garbage, reference, config)
    assert len(garbage.failures) == 2


def test_anchor_check_fails_a_cell_beyond_tolerance():
    import workloads

    op = workloads.Op(1)
    workloads.check_anchors(op, {"ok": (0.381, 0.3812), "bad": (0.40, 0.381)})
    assert op.anchor_err_pp == pytest.approx(1.9)
    assert len(op.failures) == 1 and "bad" in op.failures[0]


# ----------------------------------------------------------------------
# End to end: smoke runs, printed metrics, a checkout without the program
# ----------------------------------------------------------------------


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, seconds",
    [("figures", 9), ("fullscale", 4), ("fabric_sweep", 20), ("service", 8)],
)
def test_smoke_run_prints_every_end_to_end_metric(workload, seconds):
    done = run_bench("--workload", workload, "--seed", "5", "--seconds", str(seconds), "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.split()[:1] == [name] and f" {unit}" in line for line in done.stdout.splitlines()
        ), f"{name} not printed with its unit"
        assert result["metrics"][name]["value"] > 0
    percentile = plan.WORKLOADS[workload].tail_pct
    assert f"(p{percentile:g}: " in done.stdout
    assert f"of {result['attempted']} ops beyond it" in done.stdout


@pytest.mark.parametrize("workload", ["figures", "fabric_sweep", "service"])
def test_traced_smoke_run_reports_every_layer_metric_and_repeats_counts(workload):
    runs = [
        run_bench("--workload", workload, "--seed", "9", "--seconds", "2", "--smoke", "--trace", "1")
        for _ in range(2)
    ]
    for done in runs:
        assert done.returncode == 0, done.stderr
    first, second = (last_json(done.stdout)["metrics"] for done in runs)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    for name in expected:
        assert any(line.split()[:1] == [name] for line in runs[0].stdout.splitlines())
    exact = [n for n, u in expected.items() if u == "count"] + ["service.dedup_ratio"]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    assert first["sim.deaths"]["value"] > 0 and first["runner.tasks"]["value"] > 0
    assert first["core.maxwe_init_calls"]["value"] > 0
    if workload == "service":
        assert first["service.dedup_ratio"]["value"] > 0
        assert first["cache.stores"]["value"] > 0
    elif workload == "fabric_sweep":
        assert first["fabric.leases_granted"]["value"] > 0
    else:
        assert first["sim.ensemble_s"]["value"] > 0


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "figures", "--seed", "1", "--seconds", "5", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
