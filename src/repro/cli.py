"""Command-line interface: ``python -m repro`` / ``repro-nvm``.

Subcommands map one-to-one onto the paper's experiments:

* ``analyze``      -- closed-form lifetimes (Eq. 3-8) for given p, q;
* ``simulate``     -- one lifetime simulation (attack x WL x sparing);
* ``sweep-spare``  -- Figure 6's spare-capacity sweep under UAA;
* ``sweep-swr``    -- Figure 7's SWR-share sweep under BPA;
* ``compare-uaa``  -- Section 5.3.1's UAA scheme comparison;
* ``compare-bpa``  -- Figure 8's BPA scheme comparison;
* ``overhead``     -- Section 5.3.2's mapping-table overhead report.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis.lifetime import (
    maxwe_normalized,
    pcd_ps_normalized,
    ps_worst_normalized,
    uaa_fraction,
)
from repro.core.overhead import mapping_overhead_report, paper_overhead_geometry
from repro.obs.metrics import MetricsRegistry, maybe_span
from repro.obs.sink import build_manifest, profile_report, write_metrics
from repro.device.errors import ConfigurationError
from repro.sim.config import ExperimentConfig
from repro.sim.experiments import (
    bpa_scheme_comparison,
    spare_fraction_sweep,
    swr_fraction_sweep,
    uaa_scheme_comparison,
)
from repro.sim.faults import FAULT_SPEC_ENV, FaultSpec, FaultSpecError
from repro.sim.lifetime import ENGINES, normalize_engine, simulate_lifetime
from repro.verify.invariants import PARANOIA_LEVELS, InvariantViolation
from repro.sim.resilience import (
    Checkpoint,
    ResiliencePolicy,
    RunInterrupted,
    SimulationFailure,
    derive_checkpoint_path,
)
from repro.sim.runner import SimTask, build_attack, build_sparing
from repro.util.stats import geometric_mean
from repro.util.tables import render_table
from repro.util.validation import (
    fraction_arg,
    nonnegative_int_arg,
    positive_float_arg,
    positive_int_arg,
)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--regions", type=positive_int_arg, default=2048, help="region count"
    )
    parser.add_argument(
        "--lines-per-region",
        type=positive_int_arg,
        default=8,
        help="lines per region (scaled)",
    )
    parser.add_argument(
        "--q", type=positive_float_arg, default=50.0, help="variation degree EH/EL"
    )
    parser.add_argument(
        "--endurance-model",
        choices=("linear", "zhang-li", "lognormal"),
        default="linear",
        help="endurance distribution family",
    )
    parser.add_argument("--seed", type=int, default=2019, help="experiment seed")


def _engine_arg(value: str) -> str:
    try:
        return normalize_engine(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        type=_engine_arg,
        choices=ENGINES,
        default="fluid-batched",
        help="lifetime engine: the epoch kernel, one run per task; "
        "fluid-ensemble runs the same code and only labels its results "
        "differently (kept for existing cache keys and checkpoints)",
    )


def _fault_spec_arg(text: str) -> str:
    try:
        FaultSpec.parse(text)
    except FaultSpecError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _add_verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paranoia",
        choices=PARANOIA_LEVELS,
        default="off",
        help="state-integrity checking level: 'cheap' = O(1) invariants "
        "at a cadence plus a full end-of-run sweep, 'full' = every "
        "invariant every round; never changes results (see "
        "docs/verification.md)",
    )
    parser.add_argument(
        "--shadow-sample",
        type=fraction_arg,
        default=0.0,
        metavar="P",
        help="probability of differentially re-running a simulation on "
        "the scalar oracle (exact_lifetime) and escalating any divergence "
        "(deterministic per-task sampling)",
    )


def _verify_kwargs(args: argparse.Namespace) -> dict:
    return {
        "paranoia": getattr(args, "paranoia", "off"),
        "shadow_sample": getattr(args, "shadow_sample", 0.0),
    }


def _add_metrics_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write a JSONL metrics file (manifest + deterministic "
        "counters/histograms/spans; see docs/observability.md)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall-time breakdown after the command",
    )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    _add_metrics_arguments(parser)
    _add_verify_arguments(parser)
    parser.add_argument(
        "--jobs",
        type=nonnegative_int_arg,
        default=1,
        help="worker processes for independent simulations (0 = all CPUs)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache (.repro-cache/)",
    )
    parser.add_argument(
        "--timeout",
        type=positive_float_arg,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock limit; a task over it is retried, then "
        "recorded as failed (default: no limit)",
    )
    parser.add_argument(
        "--retries",
        type=nonnegative_int_arg,
        default=2,
        metavar="N",
        help="extra attempts per task after crash/timeout/transient "
        "errors (default: 2)",
    )
    outcome = parser.add_mutually_exclusive_group()
    outcome.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop dispatching new tasks after the first terminal failure",
    )
    outcome.add_argument(
        "--keep-going",
        action="store_false",
        dest="fail_fast",
        help="run every task even if some fail (default)",
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help="append finished results to this JSONL journal and skip "
        "entries already in it (implies --resume semantics)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint under a derived path in .repro-checkpoints/ "
        "(or $REPRO_CHECKPOINT_DIR); re-running the same command skips "
        "finished work",
    )
    parser.add_argument(
        "--inject-faults",
        type=_fault_spec_arg,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for resilience testing, e.g. "
        "'crash=0.2,hang=0.05,transient=0.1,seed=7' (see repro.sim.faults)",
    )
    parser.add_argument(
        "--backend",
        choices=("pool", "fabric"),
        default="pool",
        help="execution backend: local process pool (default) or the "
        "lease-based multi-host fabric (results are bit-identical)",
    )
    parser.add_argument(
        "--workers",
        type=positive_int_arg,
        default=None,
        metavar="N",
        help="fabric worker processes (default: --jobs); fabric only",
    )
    parser.add_argument(
        "--lease-ttl",
        type=positive_float_arg,
        default=None,
        metavar="SECONDS",
        help="fabric lease time-to-live without a heartbeat before the "
        "task is requeued (default: 10); fabric only",
    )


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        regions=args.regions,
        lines_per_region=args.lines_per_region,
        q=args.q,
        endurance_model=args.endurance_model,
        seed=args.seed,
    )


def _cache_from(args: argparse.Namespace):
    if getattr(args, "no_cache", False):
        return None
    from repro.sim.cache import ResultCache

    return ResultCache()


def _print_cache_stats(cache) -> None:
    if cache is not None and cache.stats.lookups:
        print(f"[cache {cache.stats} under {cache.root}]")


def _metrics_from(args: argparse.Namespace) -> "MetricsRegistry | None":
    """A registry when ``--metrics-out``/``--profile`` asked for one."""
    if getattr(args, "metrics_out", None) or getattr(args, "profile", False):
        return MetricsRegistry()
    return None


def _emit_metrics(
    args: argparse.Namespace,
    metrics: "MetricsRegistry | None",
    config: ExperimentConfig | None = None,
) -> None:
    """Write ``--metrics-out`` and print ``--profile`` for the command.

    The manifest carries the run's identity (command, config + hash,
    engine, jobs) plus the headline resilience counters; every
    wall-clock quantity stays manifest-only so the body is reproducible.
    """
    if metrics is None:
        return
    config_payload = None
    if config is not None:
        config_payload = {
            "regions": config.regions,
            "lines_per_region": config.lines_per_region,
            "q": config.q,
            "endurance_model": config.endurance_model,
            "seed": config.seed,
        }
    manifest = build_manifest(
        metrics,
        command=args.command,
        config=config_payload,
        engine=getattr(args, "engine", None),
        jobs=getattr(args, "jobs", None),
        extra={
            "cache_hits": metrics.counter("cache.hits"),
            "cache_misses": metrics.counter("cache.misses"),
            "retries": metrics.counter("runner.retries"),
            "pool_respawns": metrics.counter("runner.pool_respawns"),
            **(
                {
                    "backend": "fabric",
                    "leases_granted": metrics.counter("fabric.leases_granted"),
                    "leases_expired": metrics.counter("fabric.leases_expired"),
                    "steals": metrics.counter("fabric.steals"),
                    "requeues": metrics.counter("fabric.requeues"),
                    "duplicate_commits": metrics.counter(
                        "fabric.duplicate_commits"
                    ),
                    "late_commits": metrics.counter("fabric.late_commits"),
                    "workers_lost": metrics.counter("fabric.workers_lost"),
                    "workers_respawned": metrics.counter(
                        "fabric.workers_respawned"
                    ),
                    "local_fallback_tasks": metrics.counter(
                        "fabric.local_fallback_tasks"
                    ),
                    "coordinator_restarts": metrics.counter(
                        "fabric.coordinator_restarts"
                    ),
                    "active_leases": metrics.gauge_value("fabric.active_leases"),
                    "degraded": bool(metrics.gauge_value("runner.degraded")),
                }
                if getattr(args, "backend", "pool") == "fabric"
                else {}
            ),
        },
    )
    if getattr(args, "metrics_out", None):
        path = write_metrics(args.metrics_out, metrics, manifest)
        print(f"[metrics written to {path}]")
    if getattr(args, "profile", False):
        print(profile_report(manifest))


def _backend_from(args: argparse.Namespace):
    """Build the executor backend the command asked for.

    ``None`` keeps the runner's default process pool; ``--backend
    fabric`` constructs a :class:`~repro.fabric.backend.FabricBackend`
    with ``--workers`` / ``--lease-ttl`` applied.
    """
    name = getattr(args, "backend", "pool")
    if name != "fabric":
        return None
    from repro.fabric.backend import DEFAULT_LEASE_TTL, FabricBackend

    lease_ttl = getattr(args, "lease_ttl", None)
    return FabricBackend(
        workers=getattr(args, "workers", None),
        lease_ttl=DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl,
    )


def _policy_from(args: argparse.Namespace) -> ResiliencePolicy:
    return ResiliencePolicy(
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 2),
        fail_fast=getattr(args, "fail_fast", False),
    )


def _checkpoint_from(
    args: argparse.Namespace, config: ExperimentConfig, extra: dict | None = None
) -> "Checkpoint | None":
    """The run's checkpoint journal, or ``None`` when not requested.

    ``--checkpoint PATH`` names the journal explicitly; ``--resume``
    derives a content-keyed path from the command + configuration +
    engine so re-running the identical command resumes the same journal.
    """
    if getattr(args, "checkpoint", None):
        return Checkpoint(args.checkpoint, resume=True)
    if not getattr(args, "resume", False):
        return None
    payload = {
        "command": args.command,
        "engine": getattr(args, "engine", None),
        "config": {
            "regions": config.regions,
            "lines_per_region": config.lines_per_region,
            "q": config.q,
            "endurance_model": config.endurance_model,
            "seed": config.seed,
        },
    }
    if extra:
        payload.update(extra)
    path = derive_checkpoint_path(args.command, payload)
    print(f"[checkpoint journal: {path}]")
    return Checkpoint(path, resume=True)


def _run_options(
    args: argparse.Namespace, config: ExperimentConfig, extra: dict | None = None
) -> dict:
    """The execution options of a runner-backed command.

    Keyed as :func:`~repro.sim.runner.run_tasks` takes them; ``extra``
    joins the ``--resume`` journal key (see :func:`_checkpoint_from`).
    """
    return {
        "jobs": args.jobs,
        "cache": _cache_from(args),
        "engine": args.engine,
        "policy": _policy_from(args),
        "checkpoint": _checkpoint_from(args, config, extra),
        "metrics": _metrics_from(args),
        "backend": _backend_from(args),
        **_verify_kwargs(args),
    }


def _install_faults(args: argparse.Namespace) -> None:
    """Activate ``--inject-faults`` for this process and all pool workers.

    The variable is restored by :func:`main` after the command finishes,
    so in-process callers (tests, notebooks) are not left with an active
    fault campaign.
    """
    spec = getattr(args, "inject_faults", None)
    if spec:
        os.environ[FAULT_SPEC_ENV] = spec


def _cmd_analyze(args: argparse.Namespace) -> int:
    rows = [
        ["no-protection (Eq. 5)", uaa_fraction(args.q)],
        ["ps-worst (Eq. 8)", ps_worst_normalized(args.p, args.q)],
        ["pcd-ps (Eq. 7)", pcd_ps_normalized(args.p, args.q)],
        ["max-we (Eq. 6)", maxwe_normalized(args.p, args.q)],
    ]
    print(
        render_table(
            ["scheme", "normalized lifetime"],
            rows,
            title=f"Closed-form lifetimes under UAA (p={args.p}, q={args.q})",
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    metrics = _metrics_from(args)
    _install_faults(args)
    # Routed through a declarative task (rather than a direct
    # simulate_lifetime call) so a violation's crash-dump bundle pins the
    # full task payload and `python -m repro.verify replay` can re-run it.
    task = SimTask(
        attack=args.attack,
        sparing=args.sparing,
        wearlevel=args.wearlevel,
        p=args.p,
        swr=args.swr,
        config=config,
        engine=args.engine,
        record_timeline=True,
        **_verify_kwargs(args),
    )
    with maybe_span(metrics, "cli/total"):
        result, _ = task.execute(metrics=metrics)
    print(f"attack:      {result.metadata['attack']}")
    print(f"wear-level:  {result.metadata['wearleveler']}")
    print(f"sparing:     {result.metadata['sparing']}")
    print(f"lifetime:    {result.normalized_lifetime:.2%} of ideal")
    print(f"deaths:      {result.deaths} ({result.replacements} replaced)")
    print(f"failure:     {result.failure_reason}")
    _emit_metrics(args, metrics, config)
    return 0


def _cmd_sweep_spare(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run = _run_options(args, config)
    _install_faults(args)
    with maybe_span(run["metrics"], "cli/total"):
        rows = [
            [f"{fraction:.0%}", result.normalized_lifetime]
            for fraction, result in spare_fraction_sweep(config, **run)
        ]
    print(
        render_table(
            ["spare capacity", "normalized lifetime"],
            rows,
            title="Figure 6: Max-WE under UAA vs spare capacity",
        )
    )
    _print_cache_stats(run["cache"])
    _emit_metrics(args, run["metrics"], config)
    return 0


def _cmd_sweep_swr(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run = _run_options(args, config)
    _install_faults(args)
    with maybe_span(run["metrics"], "cli/total"):
        sweeps = swr_fraction_sweep(config, **run)
    fractions = [fraction for fraction, _ in next(iter(sweeps.values()))]
    headers = ["wear-leveler"] + [f"{fraction:.0%}" for fraction in fractions]
    rows = [
        [name] + [result.normalized_lifetime for _, result in series]
        for name, series in sweeps.items()
    ]
    print(
        render_table(
            headers, rows, title="Figure 7: Max-WE under BPA vs SWR share of spares"
        )
    )
    _print_cache_stats(run["cache"])
    _emit_metrics(args, run["metrics"], config)
    return 0


def _cmd_compare_uaa(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run = _run_options(args, config)
    _install_faults(args)
    with maybe_span(run["metrics"], "cli/total"):
        results = uaa_scheme_comparison(config, **run)
    baseline = results["no-protection"].normalized_lifetime
    rows = [
        [name, result.normalized_lifetime, result.normalized_lifetime / baseline]
        for name, result in results.items()
    ]
    print(
        render_table(
            ["scheme", "normalized lifetime", "improvement (X)"],
            rows,
            title="Section 5.3.1: lifetimes under UAA (10% spares)",
        )
    )
    _print_cache_stats(run["cache"])
    _emit_metrics(args, run["metrics"], config)
    return 0


def _cmd_compare_bpa(args: argparse.Namespace) -> int:
    config = _config_from(args)
    run = _run_options(args, config)
    _install_faults(args)
    with maybe_span(run["metrics"], "cli/total"):
        comparison = bpa_scheme_comparison(config, **run)
    wearlevelers = list(next(iter(comparison.values())).keys())
    headers = ["scheme"] + wearlevelers + ["gmean"]
    rows = []
    for name, row in comparison.items():
        lifetimes = [row[wl].normalized_lifetime for wl in wearlevelers]
        rows.append([name] + lifetimes + [geometric_mean(lifetimes)])
    print(
        render_table(
            headers, rows, title="Figure 8: sparing schemes under BPA (90% SWRs)"
        )
    )
    _print_cache_stats(run["cache"])
    _emit_metrics(args, run["metrics"], config)
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    geometry = paper_overhead_geometry()
    report = mapping_overhead_report(geometry, args.p, args.swr)
    print("Section 5.3.2: mapping-table overhead (1 GB, 2048 regions)")
    print(f"  LMT:              {report.lmt_bits} bits")
    print(f"  RMT:              {report.rmt_bits} bits")
    print(f"  wear-out tags:    {report.tag_bits} bits")
    print(f"  Max-WE total:     {report.hybrid_mib:.2f} MB")
    print(f"  all-line-level:   {report.line_level_mib:.2f} MB")
    print(f"  reduction:        {report.reduction:.1%}")
    print(f"  share of device:  {report.mapping_fraction_of_capacity:.3%}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json as _json

    from repro.sim.batch import run_batch

    try:
        specs = _json.loads(open(args.specs).read())
    except FileNotFoundError:
        print(f"error: spec file {args.specs!r} not found")
        return 1
    except _json.JSONDecodeError as error:
        print(f"error: spec file {args.specs!r} is not valid JSON: {error}")
        return 1
    config = _config_from(args)
    run = _run_options(args, config, {"specs": specs})
    _install_faults(args)
    try:
        with maybe_span(run["metrics"], "cli/total"):
            batch = run_batch(specs, config, **run)
    except (ValueError, TypeError) as error:
        print(f"error: invalid batch spec: {error}")
        return 1
    print(batch.to_table())
    _print_cache_stats(run["cache"])
    _emit_metrics(args, run["metrics"], config)
    if args.output:
        batch.to_json(args.output)
        print(f"\narchive written to {args.output}")
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.host, args.port)


def _cmd_service_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.client import ServiceError

    try:
        specs = _json.loads(open(args.specs).read())
    except FileNotFoundError:
        print(f"error: spec file {args.specs!r} not found")
        return 1
    except _json.JSONDecodeError as error:
        print(f"error: spec file {args.specs!r} is not valid JSON: {error}")
        return 1
    config = _config_from(args)
    config_dict = {
        "regions": config.regions,
        "lines_per_region": config.lines_per_region,
        "q": config.q,
        "endurance_model": config.endurance_model,
        "seed": config.seed,
    }
    client = _service_client(args)
    try:
        document = client.submit(
            specs,
            config_dict,
            tenant=args.tenant,
            engine=args.engine,
        )
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"error: cannot reach service at {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 1
    print(f"job {document['job_id']} {document['status']}")
    if not args.wait:
        return 0
    for event in client.stream_events(document["job_id"]):
        print(_json.dumps(event))
    final = client.status(document["job_id"])
    if final["status"] != "done":
        print(f"error: job {final['status']}: {final['error']}", file=sys.stderr)
        return 1
    text = client.results(document["job_id"])
    if args.output:
        open(args.output, "w").write(text)
        print(f"results written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_service_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        if args.job_id:
            print(_json.dumps(client.status(args.job_id), indent=2))
        else:
            for document in client.list_jobs():
                print(_json.dumps(document))
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"error: cannot reach service at {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_service_results(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        text = client.results(args.job_id)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(
            f"error: cannot reach service at {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 1
    if args.output:
        open(args.output, "w").write(text)
        print(f"results written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_record_trace(args: argparse.Namespace) -> int:
    from repro.trace.record import record_trace

    trace = record_trace(
        build_attack(args.attack), args.user_lines, args.length, rng=args.seed
    )
    path = trace.save(args.output)
    print(f"recorded {len(trace)} writes from {trace.source!r} to {path}")
    return 0


def _cmd_classify_trace(args: argparse.Namespace) -> int:
    from repro.trace.format import WriteTrace
    from repro.trace.stats import analyze_trace

    trace = WriteTrace.load(args.trace)
    stats = analyze_trace(trace)
    print(f"trace:        {args.trace} ({len(trace)} writes, {trace.source!r})")
    print(f"kind:         {stats.kind}")
    print(f"uniformity:   {stats.uniformity:.2f} (1 = indistinguishable from uniform)")
    print(f"burstiness:   {stats.burstiness:.2f}")
    print(f"touched:      {stats.touched_lines}/{stats.user_lines} lines")
    print(f"max share:    {stats.max_share:.2%}")
    return 0


def _cmd_replay_trace(args: argparse.Namespace) -> int:
    from repro.trace.format import WriteTrace
    from repro.trace.replay import TraceAttack

    config = _config_from(args)
    trace = WriteTrace.load(args.trace)
    emap = config.make_emap()
    sparing = build_sparing(args.sparing, args.p, args.swr)
    try:
        result = simulate_lifetime(
            emap, TraceAttack(trace), sparing, rng=config.seed, engine=args.engine
        )
    except ValueError as error:
        print(
            f"error: {error}\nadjust --regions/--lines-per-region/--p so the "
            "device's user space matches the trace's address space"
        )
        return 1
    print(f"trace:       {trace.source!r} ({len(trace)} writes, looped)")
    print(f"sparing:     {result.metadata['sparing']}")
    print(f"lifetime:    {result.normalized_lifetime:.2%} of ideal")
    print(f"failure:     {result.failure_reason}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting.report import generate_report

    document = generate_report(_config_from(args), args.output)
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(document)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-nvm",
        description="Reproduction of the DAC'19 Max-WE spare-line replacement paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="closed-form lifetimes (Eq. 3-8)")
    analyze.add_argument("--p", type=fraction_arg, default=0.1, help="spare fraction")
    analyze.add_argument(
        "--q", type=positive_float_arg, default=50.0, help="variation degree"
    )
    analyze.set_defaults(handler=_cmd_analyze)

    simulate = subparsers.add_parser("simulate", help="one lifetime simulation")
    _add_config_arguments(simulate)
    simulate.add_argument(
        "--attack", choices=("uaa", "bpa", "repeated"), default="uaa"
    )
    simulate.add_argument(
        "--wearlevel",
        choices=("none", "start-gap", "tlsr", "pcm-s", "bwl", "wawl", "toss-up"),
        default="none",
    )
    simulate.add_argument(
        "--sparing",
        choices=("none", "pcd", "ps", "ps-worst", "max-we"),
        default="max-we",
    )
    _add_engine_argument(simulate)
    _add_metrics_arguments(simulate)
    _add_verify_arguments(simulate)
    simulate.add_argument(
        "--inject-faults",
        type=_fault_spec_arg,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. 'corrupt-state=1,seed=7' "
        "(see repro.sim.faults); pair with --paranoia to exercise the "
        "integrity guards",
    )
    simulate.add_argument("--p", type=fraction_arg, default=0.1, help="spare fraction")
    simulate.add_argument(
        "--swr", type=fraction_arg, default=0.9, help="SWR share of spares"
    )
    simulate.set_defaults(handler=_cmd_simulate)

    sweep_spare = subparsers.add_parser("sweep-spare", help="Figure 6 sweep")
    _add_config_arguments(sweep_spare)
    _add_runner_arguments(sweep_spare)
    _add_engine_argument(sweep_spare)
    sweep_spare.set_defaults(handler=_cmd_sweep_spare)

    sweep_swr = subparsers.add_parser("sweep-swr", help="Figure 7 sweep")
    _add_config_arguments(sweep_swr)
    _add_runner_arguments(sweep_swr)
    _add_engine_argument(sweep_swr)
    sweep_swr.set_defaults(handler=_cmd_sweep_swr)

    compare_uaa = subparsers.add_parser("compare-uaa", help="Section 5.3.1 table")
    _add_config_arguments(compare_uaa)
    _add_runner_arguments(compare_uaa)
    _add_engine_argument(compare_uaa)
    compare_uaa.set_defaults(handler=_cmd_compare_uaa)

    compare_bpa = subparsers.add_parser("compare-bpa", help="Figure 8 comparison")
    _add_config_arguments(compare_bpa)
    _add_runner_arguments(compare_bpa)
    _add_engine_argument(compare_bpa)
    compare_bpa.set_defaults(handler=_cmd_compare_bpa)

    overhead = subparsers.add_parser("overhead", help="Section 5.3.2 overhead")
    overhead.add_argument("--p", type=fraction_arg, default=0.1, help="spare fraction")
    overhead.add_argument(
        "--swr", type=fraction_arg, default=0.9, help="SWR share of spares"
    )
    overhead.set_defaults(handler=_cmd_overhead)

    batch = subparsers.add_parser(
        "batch", help="run a JSON list of experiment specs"
    )
    batch.add_argument("specs", type=str, help="path to a JSON spec list")
    _add_config_arguments(batch)
    _add_runner_arguments(batch)
    _add_engine_argument(batch)
    batch.add_argument(
        "--output", type=str, default=None, help="also archive results as JSON"
    )
    batch.set_defaults(handler=_cmd_batch)

    def _add_service_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument("--host", default="127.0.0.1", help="service host")
        command.add_argument("--port", type=int, default=8437, help="service port")

    service_submit = subparsers.add_parser(
        "service-submit",
        help="submit a JSON spec list to a running repro service",
    )
    service_submit.add_argument("specs", type=str, help="path to a JSON spec list")
    _add_service_arguments(service_submit)
    _add_config_arguments(service_submit)
    _add_engine_argument(service_submit)
    service_submit.add_argument(
        "--tenant", default="default", help="tenant the job is billed to"
    )
    service_submit.add_argument(
        "--wait", action="store_true",
        help="stream NDJSON events until done, then print/fetch results",
    )
    service_submit.add_argument(
        "--output", type=str, default=None,
        help="with --wait: write the result body to this path",
    )
    service_submit.set_defaults(handler=_cmd_service_submit)

    service_status = subparsers.add_parser(
        "service-status", help="job status (or all jobs) from a repro service"
    )
    service_status.add_argument(
        "job_id", nargs="?", default=None, help="job id (omit to list all)"
    )
    _add_service_arguments(service_status)
    service_status.set_defaults(handler=_cmd_service_status)

    service_results = subparsers.add_parser(
        "service-results", help="fetch a finished job's result body"
    )
    service_results.add_argument("job_id", type=str, help="job id")
    _add_service_arguments(service_results)
    service_results.add_argument(
        "--output", type=str, default=None, help="write the body to this path"
    )
    service_results.set_defaults(handler=_cmd_service_results)

    record = subparsers.add_parser("record-trace", help="record an attack to a file")
    record.add_argument("--attack", choices=("uaa", "bpa", "repeated"), default="uaa")
    record.add_argument("--user-lines", type=int, default=16384)
    record.add_argument("--length", type=int, default=163840)
    record.add_argument("--seed", type=int, default=2019)
    record.add_argument("--output", type=str, required=True)
    record.set_defaults(handler=_cmd_record_trace)

    classify = subparsers.add_parser(
        "classify-trace", help="classify a trace from its statistics"
    )
    classify.add_argument("trace", type=str, help="path to a .npz trace")
    classify.set_defaults(handler=_cmd_classify_trace)

    replay = subparsers.add_parser(
        "replay-trace", help="run a lifetime simulation from a trace file"
    )
    replay.add_argument("trace", type=str, help="path to a .npz trace")
    _add_config_arguments(replay)
    replay.add_argument(
        "--sparing",
        choices=("none", "pcd", "ps", "ps-worst", "max-we"),
        default="max-we",
    )
    _add_engine_argument(replay)
    replay.add_argument("--p", type=fraction_arg, default=0.1, help="spare fraction")
    replay.add_argument(
        "--swr", type=fraction_arg, default=0.9, help="SWR share of spares"
    )
    replay.set_defaults(handler=_cmd_replay_trace)

    report = subparsers.add_parser(
        "report", help="run the full evaluation and emit a Markdown report"
    )
    _add_config_arguments(report)
    report.add_argument(
        "--output", type=str, default=None, help="write the report to this path"
    )
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Exit codes: 0 on success, 1 on failed tasks or bad inputs, 130 on
    interruption (the conventional 128 + SIGINT).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "regions"):
        try:
            _config_from(args)
        except ConfigurationError as error:
            parser.error(str(error))
    previous_fault_spec = os.environ.get(FAULT_SPEC_ENV)
    try:
        return args.handler(args)
    except InvariantViolation as violation:
        print(f"error: {violation}", file=sys.stderr)
        if violation.bundle_path:
            print(f"crash-dump bundle: {violation.bundle_path}", file=sys.stderr)
        return 1
    except SimulationFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        for record in failure.failures:
            print(f"  - {record}", file=sys.stderr)
        return 1
    except RunInterrupted as interrupt:
        done = sum(1 for result in interrupt.results if result is not None)
        print(
            f"\ninterrupted: {done}/{len(interrupt.results)} tasks finished",
            file=sys.stderr,
        )
        if getattr(args, "checkpoint", None) or getattr(args, "resume", False):
            print(
                "finished work is checkpointed; re-run the same command "
                "with --resume (or the same --checkpoint) to continue",
                file=sys.stderr,
            )
        else:
            print(
                "hint: add --resume so an interrupted run can pick up "
                "where it left off",
                file=sys.stderr,
            )
        return 130
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130
    finally:
        if getattr(args, "inject_faults", None):
            if previous_fault_spec is None:
                os.environ.pop(FAULT_SPEC_ENV, None)
            else:
                os.environ[FAULT_SPEC_ENV] = previous_fault_spec


if __name__ == "__main__":
    sys.exit(main())
