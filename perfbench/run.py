"""The benchmark: run one workload (or all), check it, print its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (see ``perfbench/README.md``).
Each metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when every op passed its checks, 1 when
some op failed one, and 2 when the run could not be measured at all (no
program source, a crashed child, or too few ops for a tail) -- then no
JSON line is printed.

Everything the run writes stays under ``.perfbench-out/`` in the
checkout: scratch directories (removed at the end) and the span file of
each traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: One run, children included, must end well inside three minutes.
RUN_BUDGET_S: float = 170.0

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "sims_per_s": "1/s",
    "peak_rss_mb": "MB",
    "anchor_err_pp": "pp",
}


class BenchError(RuntimeError):
    """The run could not be measured."""


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Closed-loop benchmark of the NVM lifetime simulator.",
    )
    parser.add_argument("--workload", required=True, choices=[*plan.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="timed loop length")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced run reporting per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small devices, for a quick check that each workload runs",
    )
    # Internal: how the orchestrator starts its fresh interpreters.
    parser.add_argument("--role", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ----------------------------------------------------------------------
# Child side: a fresh interpreter that imports the program
# ----------------------------------------------------------------------


def child(args: argparse.Namespace) -> int:
    import workloads

    session = workloads.Session(
        args.workload, args.seed, args.seconds, Path(args.workdir), args.smoke
    )
    try:
        if args.role == "trace":
            result = workloads.trace(session, trace_path(args.workload, args.seed))
        elif args.workload == "service":
            result = workloads.measure_service(session)
        else:
            workloads.warm_up(session, args.start)
            print("READY", flush=True)
            if args.role == "setup":
                return 0
            result = workloads.measure(session)
    except plan.RunTooShort as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 2
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def trace_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"trace-{workload}-{seed}.jsonl"


# ----------------------------------------------------------------------
# Orchestrator side
# ----------------------------------------------------------------------


def child_env(workdir: Path) -> Dict[str, str]:
    """The program's environment: source on the path, every scratch
    location inside the run's work directory, no injected faults."""
    env = dict(os.environ)
    env.pop("REPRO_FAULT_SPEC", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    for variable, name in (
        ("TMPDIR", "tmp"),
        ("REPRO_CACHE_DIR", "cache"),
        ("REPRO_CHECKPOINT_DIR", "checkpoints"),
        ("REPRO_DEBUG_DIR", "debug"),
    ):
        path = workdir / name
        path.mkdir(exist_ok=True)
        env[variable] = str(path)
    return env


def spawn(args: argparse.Namespace, workload: str, role: str, workdir: Path,
          start: int, deadline: float) -> "tuple[float, Optional[dict]]":
    """Run one child; returns (seconds until it printed READY, its
    result or ``None``).  A child past ``deadline`` is killed."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--role", role, "--start", str(start), "--workdir", str(workdir),
    ] + (["--smoke"] if args.smoke else [])
    started = perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=child_env(workdir), cwd=workdir
    )
    watchdog = threading.Timer(max(deadline - started, 1.0), process.kill)
    watchdog.start()
    ready = 0.0
    result = None
    try:
        for line in process.stdout:
            if line == "READY\n":
                ready = perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchError(f"{role} child exited with code {code}")
    return ready, result


def run_workload(args: argparse.Namespace, workload: str, deadline: float) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{args.seed}-", dir=OUT_DIR))
    try:
        if args.trace:
            return spawn(args, workload, "trace", workdir, 0, deadline)[1]
        if workload == "service":
            result = spawn(args, workload, "measure", workdir, 0, deadline)[1]
        else:
            setups = []
            for start in range(plan.SETUP_STARTS):
                last = start == plan.SETUP_STARTS - 1
                role = "measure" if last else "setup"
                ready, result = spawn(args, workload, role, workdir, start, deadline)
                setups.append(ready)
            result["setup_samples"] = setups
        result["metrics"]["setup_s"] = plan.median(result["setup_samples"])
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args: argparse.Namespace, workload: str, result: dict) -> Dict[str, dict]:
    """Print a workload's metrics by name with units; returns them in
    the JSON line's ``{name: {value, unit}}`` form."""
    info = plan.WORKLOADS[workload]
    regions, lines = info.smoke_device if args.smoke else info.device
    print(
        f"perfbench {workload} seed={args.seed} trace={args.trace}: "
        f"{result['attempted']} ops, {result['failed']} failed; "
        f"closed loop, {info.clients}; {regions}x{lines} lines, "
        f"{info.sims_per_op} sims/op" + (" (smoke devices)" if args.smoke else "")
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    metrics: Dict[str, dict] = {}
    if args.trace:
        for name, (value, unit) in result["metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<28} {value:>14.6g} {unit}")
        print(f"  layer self time over {result['trace_ops']} traced ops (calls, total s, self s):")
        for name, (calls, spent, own) in sorted(result["self_times"].items()):
            print(f"    {name:<30} {calls:>6} {spent:>10.4f} {own:>10.4f}")
        print(f"  spans written to {trace_path(workload, args.seed).relative_to(ROOT)}")
        return metrics
    notes = {
        "setup_s": "median of {} fresh starts: {}".format(
            len(result["setup_samples"]),
            " ".join(f"{v:.3f}" for v in result["setup_samples"]),
        ),
        "op_tail_s": "p{:g}: {} of {} ops beyond it".format(
            result["tail_percentile"], result["tail_beyond"], result["attempted"]
        ),
    }
    for name, unit in END_TO_END.items():
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<14} {value:>12.6g} {unit}{note}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.role:
        return child(args)
    deadline = perf_counter() + RUN_BUDGET_S
    names = list(plan.WORKLOADS) if args.workload == "all" else [args.workload]
    if len(names) > 1:
        deadline += RUN_BUDGET_S * (len(names) - 1)
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        try:
            result = run_workload(args, name, deadline)
        except BenchError as error:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
            return 2
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, entry in report(args, name, result).items():
            metrics[prefix + metric] = entry
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
