"""``python -m repro.service`` -- run the simulation job API.

Example::

    python -m repro.service --port 8437 --state-dir .repro-service \\
        --jobs 4 --dispatchers 2 --max-queued 64 --max-concurrent 4

The state directory holds durable job records, per-job checkpoint
ledgers, and the shared result cache; kill the process at any instant
and a restart resumes interrupted jobs from their ledgers.

SIGTERM triggers a *graceful drain*: the server keeps answering (new
submissions get 503 + Retry-After, health reports ``draining``),
dispatchers finish the batches they already started (their ledgers
checkpoint continuously), every job record is persisted, and the
process exits 0.  SIGINT stays the abrupt path (exit 130) -- the
durable records make even that recoverable.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.obs.sink import write_metrics
from repro.service.core import ServiceConfig, SimService
from repro.service.http import ServiceServer
from repro.service.queue import TenantQuota
from repro.sim.faults import mark_service_process
from repro.sim.lifetime import ENGINES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="HTTP job API over the NVM spare-line simulation runner",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8437, help="bind port (0 = any free port)"
    )
    parser.add_argument(
        "--state-dir", default=".repro-service",
        help="durable state: job records, ledgers, shared cache",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per batch (1 = serial, 0 = all CPUs)",
    )
    parser.add_argument(
        "--dispatchers", type=int, default=2,
        help="concurrent batches the service runs",
    )
    parser.add_argument(
        "--backend", choices=("pool", "fabric"), default="pool",
        help="execution backend for every batch",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default="fluid-batched",
        help="default lifetime engine",
    )
    parser.add_argument(
        "--max-queued", type=int, default=64,
        help="per-tenant cap on waiting jobs (excess submissions get 429)",
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=4,
        help="per-tenant cap on running jobs",
    )
    parser.add_argument(
        "--weight", type=int, default=1,
        help="default tenant weight in the round-robin",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds a SIGTERM drain waits for in-flight batches",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="write the final metrics manifest (JSONL) here on exit -- "
        "the counters a graceful shutdown would otherwise take with it",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A dedicated service process arms the ``service-kill`` fault kind
    # (embedded test services never do -- a hard exit there would take
    # the test runner down).
    mark_service_process()
    service = SimService(
        ServiceConfig(
            state_dir=args.state_dir,
            jobs=args.jobs,
            backend=args.backend,
            engine=args.engine,
            dispatchers=args.dispatchers,
            default_quota=TenantQuota(
                weight=args.weight,
                max_queued=args.max_queued,
                max_concurrent=args.max_concurrent,
            ),
        )
    )

    async def run() -> int:
        service.start()
        server = ServiceServer(service, args.host, args.port)
        await server.start()
        loop = asyncio.get_running_loop()
        sigterm = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal-handler support: no drain path
        print(
            f"repro service listening on http://{args.host}:{server.port} "
            f"(state: {args.state_dir})",
            flush=True,
        )
        serve_task = asyncio.ensure_future(server.serve_forever())
        drain_task = asyncio.ensure_future(sigterm.wait())
        try:
            await asyncio.wait(
                (serve_task, drain_task), return_when=asyncio.FIRST_COMPLETED
            )
            if not sigterm.is_set():
                return 0
            # Graceful drain: flip to draining *while still listening*
            # (in-flight clients keep streaming; new submissions see
            # 503 + Retry-After), wait out the dispatchers, then stop.
            clean = await asyncio.to_thread(service.drain, args.drain_timeout)
            print(
                "repro service drained"
                + ("" if clean else " (timeout: in-flight work abandoned)"),
                flush=True,
            )
            return 0
        finally:
            for task in (serve_task, drain_task):
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
            await server.close()
            service.stop()
            if args.metrics_out:
                try:
                    write_metrics(
                        args.metrics_out, service.metrics, service.manifest()
                    )
                except OSError:
                    pass  # exiting anyway; the manifest is best-effort

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
