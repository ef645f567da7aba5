"""Ops, correctness checks and timed loops of the four workloads.

Imported only by the benchmark's child processes, because it imports
the program.  Every op calls the program's public functions on inputs
from :mod:`plan`.  In the traced pass a :class:`spans.Tracer` records a
span around each of those calls and a ``MetricsRegistry`` collects the
program's own spans and counters; the untraced pass passes neither.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, sleep
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import lifetime as analytic
from repro.core.maxwe import MaxWE
from repro.fabric import backend as fabric_backend
from repro.fabric.backend import FabricBackend
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.sim import experiments
from repro.sim.batch import RunSpec, run_batch
from repro.sim.config import ExperimentConfig
from repro.sim.montecarlo import EMAP_SEED_MOD, monte_carlo_lifetime
from repro.sim.runner import (
    CallableTask,
    SimRunner,
    build_attack,
    build_sparing,
    build_wearleveler,
)
from repro.util.rng import fork_seeds

import plan
import spans as spans_module
from spans import Tracer

HERE = Path(__file__).resolve().parent

#: Monte-Carlo headline cells of the figures op: (attack, wear-leveler),
#: both Max-WE.
CI_CELLS: Dict[str, Tuple[str, str]] = {
    "max-we/uaa": ("uaa", "none"),
    "max-we/bpa/tlsr": ("bpa", "tlsr"),
}

FULLSCALE_SPECS: Tuple[RunSpec, ...] = (
    RunSpec("max-we/uaa", attack="uaa", sparing="max-we"),
    RunSpec("max-we/bpa", attack="bpa", sparing="max-we"),
)

FABRIC_WORKERS: int = 2

#: The service batch: the paper's UAA table, every cell anchored.
SERVICE_SPECS: Tuple[dict, ...] = tuple(
    {"label": label, "attack": "uaa", "sparing": sparing}
    for label, sparing in (
        ("no-protection", "none"),
        ("max-we", "max-we"),
        ("pcd-ps", "pcd"),
        ("ps-worst", "ps-worst"),
    )
)

#: Fabric ops re-run serially to check bit-identity, per run.
FABRIC_CHECKS: int = 4

#: Processes computing the service's reference bodies after the loop.
REFERENCE_WORKERS: int = 2

#: Seconds a server may take to answer /healthz, or to drain and exit.
SERVER_START_TIMEOUT: float = 60.0
SERVER_STOP_TIMEOUT: float = 40.0


@dataclass
class Session:
    """One benchmark run: what to run, where, and whether traced."""

    workload: str
    seed: int
    seconds: float
    workdir: Path
    smoke: bool = False
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None

    @property
    def device(self) -> Tuple[int, int]:
        info = plan.WORKLOADS[self.workload]
        return info.smoke_device if self.smoke else info.device

    def config(self, seed: int) -> ExperimentConfig:
        regions, lines = self.device
        return ExperimentConfig(regions=regions, lines_per_region=lines, seed=seed)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


@dataclass
class Op:
    """One op's outcome; ``failures`` lists every check it failed.

    ``check`` holds what the post-loop check compares: the sampled
    ensemble replica (figures), the result records (fabric_sweep) or the
    result body (service).
    """

    seed: int
    tenant: int = 0
    index: int = 0
    latency: float = 0.0
    sims: int = 0
    anchor_err_pp: float = 0.0
    failures: List[str] = field(default_factory=list)
    check: object = None
    dedup: bool = False
    phases: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------


def uaa_anchors(config: ExperimentConfig) -> Dict[str, float]:
    """Section 4.3's analytic UAA lifetimes (linear model) by scheme."""
    p, q = config.spare_fraction, config.q
    return {
        "no-protection": analytic.uaa_fraction(q),
        "max-we": analytic.maxwe_normalized(p, q),
        "pcd-ps": analytic.pcd_ps_normalized(p, q),
        "ps-worst": analytic.ps_worst_normalized(p, q),
    }


def check_anchors(op: Op, cells: Dict[str, Tuple[float, float]]) -> None:
    """Record the op's largest |simulated - analytic| (pp) and fail every
    cell beyond :data:`plan.ANCHOR_TOL_PP`."""
    for label, (simulated, expected) in cells.items():
        error = abs(simulated - expected) * 100.0
        op.anchor_err_pp = max(op.anchor_err_pp, error)
        if error > plan.ANCHOR_TOL_PP:
            op.failures.append(
                f"anchor {label}: {simulated:.4%} vs analytic {expected:.4%}"
            )


def result_record(result) -> dict:
    """A result's numbers and metadata, minus the engine name (an
    ensemble replica and its solo run differ only there)."""
    record = result.to_dict(include_timeline=False)
    record["metadata"].pop("engine", None)
    return record


def check_body(op: Op, reference: str, config: ExperimentConfig) -> None:
    """Check a service op's result body (``op.check``) against the
    in-process ``run_batch(...).to_json()`` of the same batch, and its
    cells against the analytic anchors."""
    body = op.check
    if body != reference:
        op.failures.append("body differs from in-process run_batch().to_json()")
    anchors = uaa_anchors(config)
    try:
        cells = {
            f"uaa/{run['spec']['label']}": (
                run["result"]["normalized_lifetime"],
                anchors[run["spec"]["label"]],
            )
            for run in json.loads(body)["runs"]
        }
    except (ValueError, KeyError, TypeError):
        op.failures.append("body is not a UAA-table batch result")
        return
    check_anchors(op, cells)


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------


def _replica_emap(config: ExperimentConfig, seed: int):
    return config.with_(seed=seed % EMAP_SEED_MOD).make_emap()


def _ci_factories(config: ExperimentConfig, attack: str, wearlevel: str):
    return (
        functools.partial(build_attack, attack),
        functools.partial(
            build_sparing, "max-we", config.spare_fraction, config.swr_fraction
        ),
        functools.partial(build_wearleveler, wearlevel) if wearlevel != "none" else None,
    )


def figures_op(s: Session, seed: int) -> Op:
    """FIG6, FIG7, FIG8 and the UAA table, then ensemble CIs on the
    Max-WE UAA and BPA headline cells."""
    config, metrics, op = s.config(seed), s.metrics, Op(seed)
    with s.span("spare_fraction_sweep"):
        fig6 = dict(experiments.spare_fraction_sweep(config, metrics=metrics))
    with s.span("swr_fraction_sweep"):
        fig7 = experiments.swr_fraction_sweep(config, metrics=metrics)
    with s.span("bpa_scheme_comparison"):
        fig8 = experiments.bpa_scheme_comparison(config, metrics=metrics)
    with s.span("uaa_scheme_comparison"):
        table = experiments.uaa_scheme_comparison(config, metrics=metrics)
    cis = {}
    for cell, (attack, wearlevel) in CI_CELLS.items():
        attack_f, sparing_f, wearlevel_f = _ci_factories(config, attack, wearlevel)
        with s.span("monte_carlo_lifetime"):
            cis[cell] = monte_carlo_lifetime(
                attack_f,
                sparing_f,
                wearleveler_factory=wearlevel_f,
                config=config,
                replicas=plan.CI_REPLICAS,
                engine="fluid-ensemble",
                metrics=metrics,
            )
    op.sims = (
        len(fig6)
        + sum(len(row) for row in fig7.values())
        + sum(len(row) for row in fig8.values())
        + len(table)
        + sum(ci.replicas for ci in cis.values())
    )
    anchors = uaa_anchors(config)
    cells = {f"uaa/{name}": (table[name].normalized_lifetime, anchors[name]) for name in anchors}
    cells["fig6/0%"] = (fig6[0.0].normalized_lifetime, anchors["no-protection"])
    cells["fig6/p"] = (fig6[config.spare_fraction].normalized_lifetime, anchors["max-we"])
    check_anchors(op, cells)
    cell = sorted(CI_CELLS)[seed % len(CI_CELLS)]
    replica = plan.replica_index(s.seed, seed)
    op.check = (cell, replica, result_record(cis[cell].results[replica]))
    return op


def check_figures_op(s: Session, op: Op) -> None:
    """Re-run the op's sampled ensemble replica solo (fluid-batched)."""
    cell, replica, expected = op.check
    config = s.config(op.seed)
    attack_f, sparing_f, wearlevel_f = _ci_factories(config, *CI_CELLS[cell])
    seeds = fork_seeds(
        config.seed, plan.CI_REPLICAS, "monte-carlo", distinct_mod=EMAP_SEED_MOD
    )
    task = CallableTask(
        attack_factory=attack_f,
        sparing_factory=sparing_f,
        emap_factory=functools.partial(_replica_emap, config),
        seed=seeds[replica],
        wearleveler_factory=wearlevel_f,
        engine="fluid-batched",
    )
    if result_record(SimRunner().run([task])[0]) != expected:
        op.failures.append(f"ensemble replica {cell}[{replica}] differs from its solo run")


def fullscale_op(s: Session, seed: int) -> Op:
    """Max-WE under UAA and under BPA, sharing one 1M-line device."""
    config, op = s.config(seed), Op(seed)
    with s.span("run_batch"):
        batch = run_batch(FULLSCALE_SPECS, config, metrics=s.metrics)
    op.sims = len(batch)
    check_anchors(
        op,
        {"uaa/max-we": (batch.lifetime("max-we/uaa"), uaa_anchors(config)["max-we"])},
    )
    return op


def _fabric_results(s: Session, config: ExperimentConfig, **run) -> list:
    with s.span("swr_fraction_sweep"):
        fig7 = experiments.swr_fraction_sweep(config, metrics=s.metrics, **run)
    with s.span("uaa_scheme_comparison"):
        table = experiments.uaa_scheme_comparison(config, metrics=s.metrics, **run)
    results = [result for row in fig7.values() for _swr, result in row]
    return results + [table[name] for name in uaa_anchors(config)]


def fabric_op(s: Session, seed: int) -> Op:
    """The FIG7 grid and the UAA table through the socket fabric."""
    config, op = s.config(seed), Op(seed)
    backend = FabricBackend(workers=FABRIC_WORKERS)
    results = _fabric_results(s, config, jobs=FABRIC_WORKERS, backend=backend)
    op.sims = len(results)
    anchors = uaa_anchors(config)
    check_anchors(
        op,
        {
            f"uaa/{name}": (result.normalized_lifetime, anchors[name])
            for name, result in zip(anchors, results[-len(anchors):])
        },
    )
    op.check = [result_record(result) for result in results]
    return op


def check_fabric_op(s: Session, op: Op) -> None:
    """Fabric results must equal the serial results at the same seed."""
    serial = dataclasses.replace(s, tracer=None, metrics=None)
    expected = _fabric_results(serial, s.config(op.seed))
    if [result_record(result) for result in expected] != op.check:
        op.failures.append("fabric results differ from the serial run")


OPS: Dict[str, Callable[[Session, int], Op]] = {
    "figures": figures_op,
    "fullscale": fullscale_op,
    "fabric_sweep": fabric_op,
}


def run_op(s: Session, op_id: str, call: Callable[[], Op], seed: int) -> Op:
    """Time one op; an op that raises is a failed op, not a crash."""
    if s.tracer is not None:
        s.tracer.set_op(op_id)
    started = perf_counter()
    try:
        op = call()
    except Exception:  # noqa: BLE001 - the loop must go on and report it
        op = Op(seed, failures=[traceback.format_exc(limit=3).strip().splitlines()[-1]])
    op.latency = perf_counter() - started
    return op


def closed_loop(s: Session, count: Optional[int], op_at: Callable[[int], Op]) -> Tuple[List[Op], float]:
    """One closed-loop caller: runs ``op_at(0)``, ``op_at(1)``, ... --
    ``count`` ops, or as many as start before ``s.seconds`` run out.  A
    timed loop on a slow host runs on until its tail has
    :data:`plan.TAIL_BEYOND` ops beyond it, rather than fail the run."""
    least = plan.min_tail_ops(plan.WORKLOADS[s.workload].tail_pct)
    ops: List[Op] = []
    started = perf_counter()
    deadline = started + s.seconds
    while (len(ops) < count) if count is not None else (
        len(ops) < least or perf_counter() < deadline
    ):
        ops.append(op_at(len(ops)))
    return ops, perf_counter() - started


def in_process_ops(s: Session, count: Optional[int] = None) -> Tuple[List[Op], float]:
    """The serial in-process caller of figures, fullscale, fabric_sweep."""
    op_fn = OPS[s.workload]

    def op_at(index: int) -> Op:
        seed = plan.op_seed(s.workload, s.seed, index)
        op = run_op(s, f"op{index}", functools.partial(op_fn, s, seed), seed)
        op.index = index
        return op

    return closed_loop(s, count, op_at)


def warm_up(s: Session, start: int) -> None:
    """The untimed first op of a fresh start."""
    op = OPS[s.workload](s, plan.warmup_seed(s.workload, s.seed, start))
    if op.failures:
        raise RuntimeError(f"warm-up op failed: {op.failures}")


def check_in_process(s: Session, ops: List[Op]) -> None:
    """Post-loop checks, outside the timed region."""
    if s.workload == "figures":
        for op in ops:
            if op.check is not None:
                check_figures_op(s, op)
    elif s.workload == "fabric_sweep":
        done = [i for i, op in enumerate(ops) if op.check is not None]
        for i in plan.sample_indexes(s.workload, s.seed, len(done), FABRIC_CHECKS):
            check_fabric_op(s, ops[done[i]])


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------


class Server:
    """A live ``python -m repro.service`` on a free port."""

    def __init__(self, s: Session, name: str, trace_out: Optional[Path] = None) -> None:
        state = s.workdir / name
        command = [sys.executable]
        if trace_out is None:
            command += ["-m", "repro.service"]
        else:
            command += [str(HERE / "serve.py"), "--trace-out", str(trace_out)]
        self.command = command + ["--port", "0", "--state-dir", str(state)]
        self.stderr_path = s.workdir / f"{name}.stderr"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server; returns seconds until /healthz answers."""
        started = perf_counter()
        with open(self.stderr_path, "ab") as stderr:
            self.process = subprocess.Popen(
                self.command, stdout=subprocess.PIPE, stderr=stderr, text=True
            )
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        client = ServiceClient(port=self.port, timeout=5.0, retries=0)
        while not client.healthz():
            if perf_counter() - started > SERVER_START_TIMEOUT:
                self.stop()
                raise RuntimeError("service never answered /healthz")
            sleep(0.002)
        return perf_counter() - started

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it overstays."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=SERVER_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def service_op(s: Session, client: ServiceClient, tenant: int, index: int) -> Op:
    """Submit a 4-spec batch, stream its events to the end, fetch the body."""
    kind, batch_seed = plan.service_op(s.seed, tenant, index)
    regions, lines = s.device
    config = {"regions": regions, "lines_per_region": lines, "seed": batch_seed}
    op = Op(batch_seed, tenant=tenant, index=index, sims=len(SERVICE_SPECS))
    started = perf_counter()
    with s.span("ServiceClient.submit"):
        job = client.submit(list(SERVICE_SPECS), config, tenant=f"tenant-{tenant}")
    submitted = running = perf_counter()
    final: dict = {}
    with s.span("ServiceClient.stream_events"):
        for event in client.stream_events(job["job_id"]):
            if event["event"] == "started":
                running = perf_counter()
            elif event["event"] in ("done", "failed"):
                final = event
    finished = perf_counter()
    with s.span("ServiceClient.results"):
        op.check = client.results(job["job_id"])
    op.dedup = bool(final.get("dedup"))
    op.phases = {
        "submit": submitted - started,
        "queue_wait": running - submitted,
        "run": finished - running,
        "results": perf_counter() - finished,
    }
    return op


def service_ops(s: Session, port: int, count: Optional[int] = None) -> Tuple[List[Op], float]:
    """One client thread alternating the two tenants' ops (``count``
    per tenant).  Two concurrent clients keep both CPUs busy, which about
    doubles how much host CPU steal slows the run."""
    client = ServiceClient(port=port, timeout=60.0)

    def op_at(n: int) -> Op:
        index, tenant = divmod(n, 2)
        op = run_op(
            s,
            f"t{tenant}-op{index}",
            functools.partial(service_op, s, client, tenant, index),
            plan.service_op(s.seed, tenant, index)[1],
        )
        op.tenant, op.index = tenant, index
        return op

    return closed_loop(s, None if count is None else 2 * count, op_at)


def reference_body(config: ExperimentConfig) -> str:
    """The in-process result body of the service batch on ``config``."""
    return run_batch(list(SERVICE_SPECS), config).to_json()


def check_service(s: Session, ops: List[Op]) -> None:
    """Every body against an in-process run of the same batch.  The
    loop is over, so the references run on every CPU."""
    checked = [op for op in ops if op.check is not None]
    configs = {op.seed: s.config(op.seed) for op in checked}
    with ProcessPoolExecutor(
        REFERENCE_WORKERS, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        references = dict(
            zip(configs, pool.map(reference_body, configs.values(), chunksize=16))
        )
    for op in checked:
        check_body(op, references[op.seed], configs[op.seed])
        op.check = None


# ----------------------------------------------------------------------
# Measured runs
# ----------------------------------------------------------------------


def summarize(s: Session, ops: List[Op], wall: float, rss_mb: float) -> dict:
    """End-to-end metrics of a timed loop.

    ``anchor_err_pp`` takes the first :data:`plan.ANCHOR_OPS` ops in plan
    order, so it repeats exactly at one seed however many ops the time
    allowed.
    """
    latencies = [op.latency for op in ops]
    percentile = plan.WORKLOADS[s.workload].tail_pct
    tail_s, beyond = plan.tail(latencies, percentile)
    first = sorted(ops, key=lambda op: (op.index, op.tenant))[: plan.ANCHOR_OPS]
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failures),
        "failures": sorted({f for op in ops for f in op.failures})[:10],
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "metrics": {
            "op_p50_s": plan.median(latencies),
            "op_tail_s": tail_s,
            "sims_per_s": sum(op.sims for op in ops) / wall,
            "peak_rss_mb": rss_mb,
            "anchor_err_pp": max(op.anchor_err_pp for op in first),
        },
    }


def measure(s: Session) -> dict:
    """The timed loop of an in-process workload (already warmed up)."""
    ops, wall = in_process_ops(s)
    if s.workload == "fabric_sweep":
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)  # the largest worker
    else:
        rss = peak_rss_mb()
    check_in_process(s, ops)
    return summarize(s, ops, wall, rss)


def measure_service(s: Session) -> dict:
    """Setup samples over fresh servers, then the two-tenant loop."""
    setups = []
    for start in range(plan.SERVICE_SETUP_STARTS):
        server = Server(s, f"state-{start}")
        try:
            setups.append(server.start())
        finally:
            if start < plan.SERVICE_SETUP_STARTS - 1:
                server.stop()
    try:
        ops, wall = service_ops(s, server.port)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    check_service(s, ops)
    summary = summarize(s, ops, wall, rss)
    summary["setup_samples"] = setups
    return summary


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _install(s: Session, trace_dir: Path) -> None:
    """Attach tracer and registry; wrap the methods the program calls
    itself.  Forked fabric workers inherit the wrappers and write their
    spans out when they finish (other start methods pickle the worker
    target, so their spans are not collected)."""
    tracer = s.tracer = Tracer()
    s.metrics = MetricsRegistry()
    tracer.wrap(MaxWE, "initialize", "MaxWE.initialize")
    tracer.wrap(FabricBackend, "execute", "FabricBackend.execute")
    if multiprocessing.get_start_method() == "fork":
        worker_main = fabric_backend.worker_main

        @functools.wraps(worker_main)
        def traced_worker(*args, **kwargs):
            tracer.spans.clear()  # the fork's copy of the harness spans
            try:
                return worker_main(*args, **kwargs)
            finally:
                # pid and clock: a recycled pid gets a file of its own
                tracer.dump(trace_dir / f"worker-{os.getpid()}-{perf_counter_ns()}.jsonl")

        tracer.patch(fabric_backend, "worker_main", traced_worker)


def trace(s: Session, trace_file: Path) -> dict:
    """Untraced pass, then traced pass, over one fixed op list."""
    count = plan.trace_ops(s.workload, s.seconds)
    trace_dir = s.workdir / "spans"
    trace_dir.mkdir()
    if s.workload == "service":
        ops, untraced_wall, traced_wall, snapshot = _trace_service(s, count, trace_dir)
    else:
        warm_up(s, 0)
        _, untraced_wall = in_process_ops(s, count)
        _install(s, trace_dir)
        try:
            ops, traced_wall = in_process_ops(s, count)
        finally:
            s.tracer.unwrap_all()
        snapshot = s.metrics.snapshot()
        check_in_process(s, ops)
    spans = s.tracer.spans + spans_module.load(sorted(trace_dir.glob("*.jsonl")))
    spans_module.dump(spans, trace_file)
    failed = [op for op in ops if op.failures]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "failures": sorted({f for op in failed for f in op.failures})[:10],
        "metrics": layer_metrics(snapshot, spans, ops, untraced_wall, traced_wall),
        "self_times": spans_module.self_times(spans),
        "trace_ops": len(ops),
    }


def _trace_service(s: Session, count: int, trace_dir: Path):
    server = Server(s, "state-untraced")
    try:
        server.start()
        _, untraced_wall = service_ops(s, server.port, count)
    finally:
        server.stop()
    s.tracer = Tracer()
    server = Server(s, "state-traced", trace_out=trace_dir / "server.jsonl")
    try:
        server.start()
        ops, traced_wall = service_ops(s, server.port, count)
        snapshot = ServiceClient(port=server.port).metrics()
    finally:
        server.stop()
    check_service(s, ops)
    return ops, untraced_wall, traced_wall, snapshot


def layer_metrics(
    snapshot: dict, spans: List[dict], ops: List[Op], untraced_wall: float, traced_wall: float
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: seconds per op, counts over the whole traced
    pass, service phases as medians over its ops."""
    timings, counters = snapshot.get("timings", {}), snapshot.get("counters", {})
    per_op = 1.0 / len(ops)

    def seconds(name: str) -> float:
        return timings.get(name, {}).get("sum", 0.0)

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    init, kernel, deaths = seconds("sim/init"), seconds("sim/kernel"), count("sim.deaths")
    maxwe_calls, maxwe_s = spans_module.total(spans, "MaxWE.initialize")
    _, ensemble_s = spans_module.total(spans, "monte_carlo_lifetime")
    executes, execute_s = spans_module.total(spans, "FabricBackend.execute")
    replicas = len(CI_CELLS) * plan.CI_REPLICAS * len(ops) if ensemble_s else 0
    served = [op for op in ops if op.phases]
    cold = [op for op in served if not op.dedup]
    dedup = [op for op in served if op.dedup]

    def phase(name: str, among: List[Op]) -> float:
        return plan.median([op.phases[name] for op in among]) if among else 0.0

    submitted = count("service.submitted")
    return {
        "endurance.map_s": (seconds("sim/endurance") * per_op, "s"),
        "endurance.maps": (float(timings.get("sim/endurance", {}).get("count", 0)), "count"),
        "core.maxwe_init_s": (maxwe_s * per_op, "s"),
        "core.maxwe_init_calls": (float(maxwe_calls), "count"),
        "sim.init_s": (init * per_op, "s"),
        "sim.kernel_s": (kernel * per_op, "s"),
        "sim.init_share": (init / (init + kernel) if init + kernel else 0.0, "ratio"),
        "sim.kernel_us_per_death": (kernel / deaths * 1e6 if deaths else 0.0, "us"),
        "sim.deaths": (deaths, "count"),
        "sim.epochs": (count("sim.epochs"), "count"),
        "sim.full_scans": (count("sim.full_scans"), "count"),
        "sim.sequential_rounds": (count("sim.sequential_rounds"), "count"),
        "sim.ensemble_s": (ensemble_s * per_op, "s"),
        "sim.ensemble_ms_per_replica": (ensemble_s / replicas * 1e3 if replicas else 0.0, "ms"),
        "runner.overhead_s": ((seconds("runner/total") - seconds("runner/worker_run")) * per_op, "s"),
        "runner.tasks": (count("runner.tasks"), "count"),
        "runner.retries": (count("runner.retries"), "count"),
        "runner.failures": (count("runner.failures"), "count"),
        "fabric.overhead_s": (
            (execute_s - seconds("runner/worker_run") / FABRIC_WORKERS) * per_op
            if executes else 0.0,
            "s",
        ),
        "fabric.leases_granted": (count("fabric.leases_granted"), "count"),
        "fabric.requeues": (count("fabric.requeues"), "count"),
        "fabric.steals": (count("fabric.steals"), "count"),
        "fabric.leases_expired": (count("fabric.leases_expired"), "count"),
        "service.submit_s": (phase("submit", served), "s"),
        "service.queue_wait_s": (phase("queue_wait", cold), "s"),
        "service.run_s": (phase("run", cold), "s"),
        "service.results_s": (phase("results", served), "s"),
        "service.dedup_p50_s": (plan.median([op.latency for op in dedup]) if dedup else 0.0, "s"),
        "service.dedup_ratio": (count("service.dedup_hits") / submitted if submitted else 0.0, "ratio"),
        "cache.stores": (count("cache.stores"), "count"),
        "checkpoint.appends": (count("checkpoint.appends"), "count"),
        "obs.trace_overhead_pct": ((traced_wall / untraced_wall - 1.0) * 100.0, "%"),
    }
