"""Merge every BENCH_*.json into one per-PR perf trend table.

Each bench harness emits a JSON payload with its own shape; this tool
flattens the headline numbers of each into a uniform row set and prints
a table (plus optional JSON/Markdown), so the bench trajectory across
PRs is one command instead of four files to eyeball:

    PYTHONPATH=src python benchmarks/trajectory.py [--dir DIR] [--json] [--markdown]

Rows are extracted defensively -- a bench that predates a field (or a
payload from an older PR) simply contributes fewer rows, never an
error, so the tool can be pointed at historical checkouts with --dir.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Iterator, Optional

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _get(payload: dict, *path, default=None):
    node = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _row(bench: str, metric: str, value, unit: str, detail: str = "") -> dict:
    return {
        "bench": bench,
        "metric": metric,
        "value": value,
        "unit": unit,
        "detail": detail,
    }


def _engine_rows(payload: dict) -> Iterator[dict]:
    agg = payload.get("aggregate") or {}
    if agg.get("speedup") is not None:
        yield _row("engine", "batched_vs_exact", agg["speedup"], "x",
                   "aggregate over scheme suite")
    if agg.get("batched_sims_per_second") is not None:
        yield _row("engine", "batched_throughput",
                   agg["batched_sims_per_second"], "sims/s")
    for name, run in (_get(payload, "full_scale", "runs") or {}).items():
        if run.get("seconds") is not None:
            yield _row("engine", f"full_scale_{name}", run["seconds"], "s",
                       f"{run.get('deaths')} deaths")
        if run.get("ms_per_death") is not None:
            yield _row("engine", f"full_scale_{name}_per_death",
                       run["ms_per_death"], "ms/death",
                       f"{run.get('epochs_per_death')} epochs/death")
        if run.get("full_scans") is not None:
            yield _row("engine", f"full_scale_{name}_full_scans",
                       run["full_scans"], "selections",
                       f"{run.get('epochs')} epochs")
        if run.get("compact_exits") is not None:
            yield _row("engine", f"full_scale_{name}_compact_exits",
                       run["compact_exits"], "exits",
                       "compact work rows left for the full arrays")
        if run.get("selection_slots") is not None:
            yield _row("engine", f"full_scale_{name}_selection_slots",
                       run["selection_slots"], "entries",
                       f"{run.get('deaths')} deaths")
    shared = payload.get("shared_device") or {}
    if shared.get("seconds") is not None:
        phases = shared.get("phases") or {}
        yield _row("engine", "shared_device", shared["seconds"], "s",
                   ", ".join(f"{name} {value}" for name, value in phases.items()))
    for name in ("map_builds", "plan_builds"):
        if shared.get(name) is not None:
            yield _row("engine", f"shared_device_{name}", shared[name], "builds",
                       f"{shared.get('lines')} lines, {len(shared.get('specs', ()))} sims")
    for label, ms in (shared.get("init_trial_ms") or {}).items():
        yield _row("engine", f"shared_device_init_trial_{label.split('/')[-1]}",
                   ms, "ms", f"_init_trial, {label}")
    if shared.get("selection_slots") is not None:
        yield _row("engine", "shared_device_selection_slots",
                   shared["selection_slots"], "entries",
                   f"{shared.get('deaths')} deaths")
    if shared.get("traced_peak_mb") is not None:
        yield _row("engine", "shared_device_traced_peak", shared["traced_peak_mb"],
                   "MB", "tracemalloc peak of one run_batch")
    structure = payload.get("bpa_structure") or {}
    if structure.get("sequential_rounds") is not None:
        yield _row("engine", "bpa_sequential_rounds",
                   structure["sequential_rounds"], "epochs",
                   f"{structure.get('full_scans')} full scans, "
                   f"{structure.get('deaths')} deaths")
    if payload.get("results_identical") is not None:
        yield _row("engine", "results_identical",
                   payload["results_identical"], "bool")


def _ensemble_rows(payload: dict) -> Iterator[dict]:
    headline = payload.get("headline") or {}
    if headline.get("speedup") is not None:
        yield _row("ensemble", "stacked_vs_per_task", headline["speedup"], "x",
                   f"cell {headline.get('cell')}")
    if headline.get("ensemble_ms_per_replica") is not None:
        yield _row("ensemble", "ms_per_replica",
                   headline["ensemble_ms_per_replica"], "ms")
    if payload.get("results_identical") is not None:
        yield _row("ensemble", "results_identical",
                   payload["results_identical"], "bool")


def _events_rows(payload: dict) -> Iterator[dict]:
    record = payload.get("record") or {}
    if record.get("ns_per_call") is not None:
        yield _row("events", "record", record["ns_per_call"], "ns/call")


def _runner_rows(payload: dict) -> Iterator[dict]:
    if payload.get("speedup") is not None:
        yield _row("runner", "parallel_vs_serial", payload["speedup"], "x",
                   f"{_get(payload, 'tasks')} tasks")
    if payload.get("results_identical") is not None:
        yield _row("runner", "results_identical",
                   payload["results_identical"], "bool")


_EXTRACTORS = {
    "engine": _engine_rows,
    "ensemble": _ensemble_rows,
    "events": _events_rows,
    "runner": _runner_rows,
}


def collect(directory: Path) -> list[dict]:
    """Flatten every readable BENCH_*.json under ``directory``."""
    rows: list[dict] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        bench = payload.get("bench") or path.stem.removeprefix("BENCH_")
        extractor = _EXTRACTORS.get(bench)
        if extractor is None:
            # Unknown bench: still surface its identity bit if present.
            if payload.get("results_identical") is not None:
                rows.append(_row(bench, "results_identical",
                                 payload["results_identical"], "bool"))
            continue
        for row in extractor(payload):
            row["quick"] = bool(payload.get("quick", False))
            rows.append(row)
    return rows


def render_table(rows: list[dict]) -> str:
    headers = ("bench", "metric", "value", "unit", "detail")
    table = [headers] + [
        tuple(str(row.get(h, "")) for h in headers) for row in rows
    ]
    widths = [max(len(line[col]) for line in table) for col in range(len(headers))]
    out = []
    for index, line in enumerate(table):
        out.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
        if index == 0:
            out.append("  ".join("-" * width for width in widths))
    return "\n".join(out)


def render_markdown(rows: list[dict]) -> str:
    headers = ("bench", "metric", "value", "unit", "detail")
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(row.get(h, "")) for h in headers) + " |")
    return "\n".join(out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dir", type=Path, default=RESULTS_DIR,
        help="directory holding BENCH_*.json (default: benchmarks/results/)",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the flattened rows as JSON")
    parser.add_argument("--markdown", action="store_true",
                        help="emit a Markdown table (for PR descriptions)")
    args = parser.parse_args(argv)
    rows = collect(args.dir)
    if not rows:
        print(f"no BENCH_*.json found under {args.dir}")
        return 1
    if args.json:
        print(json.dumps(rows, indent=2))
    elif args.markdown:
        print(render_markdown(rows))
    else:
        print(render_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
