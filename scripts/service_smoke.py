#!/usr/bin/env python
"""Service smoke: submit over HTTP, kill -9 mid-run, restart, resume.

The acceptance bar for the job API's durability story, runnable locally
and in CI (the ``service-smoke`` job):

1. start ``python -m repro.service`` against a scratch state dir;
2. submit a sweep over HTTP and stream NDJSON events until at least
   two per-spec results have arrived (the job is genuinely mid-run);
3. ``kill -9`` the service process;
4. restart it on the same state dir, wait for the job to finish;
5. assert the served body is byte-identical to a direct
   :func:`run_batch` of the same specs, that the restart actually
   *resumed* (``service.resumed`` >= 1 and ``runner.checkpoint_hits``
   >= 1 in the manifest -- the killed run's ledger was honored), and
   that a cache-warm resubmission from another tenant completes as a
   dedup hit without dispatching the runner;
6. on a fresh service, submit ``RETAINED_FINISHED_JOBS + EXTRA_JOBS``
   distinct small batches and assert from the counters that exactly
   ``EXTRA_JOBS`` finished jobs and bodies left memory, that
   ``service.jobs_known`` never exceeds the window plus the jobs in
   flight, and that an evicted job's body -- now served from its
   record -- is byte-identical to a direct :func:`run_batch`.

Exits non-zero on any violation.  Usage::

    python scripts/service_smoke.py [--port 8437] [--state-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

SPECS = [
    {"label": f"s{i}", "attack": "bpa", "sparing": "max-we", "p": 0.02 + i * 0.005}
    for i in range(12)
]
CONFIG = {"regions": 4096, "lines_per_region": 16}

#: Jobs past the retention window in step 6, and their small batches.
EXTRA_JOBS = 5
WINDOW_CONFIG = {"regions": 64, "lines_per_region": 2}


def window_specs(index: int) -> list:
    return [{"label": f"w{index}", "attack": "uaa", "p": 0.01 + index * 1e-4}]


def start_server(port: int, state_dir: str) -> subprocess.Popen:
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", str(port), "--state-dir", state_dir, "--dispatchers", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    return process


def wait_healthy(client, process: subprocess.Popen, deadline: float = 30.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if process.poll() is not None:
            output = process.stdout.read().decode() if process.stdout else ""
            raise SystemExit(f"service exited {process.returncode}:\n{output}")
        if client.healthz():
            return
        time.sleep(0.2)
    raise SystemExit("service never became healthy")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=8437)
    parser.add_argument(
        "--state-dir", default=None, help="state dir (default: fresh temp dir)"
    )
    args = parser.parse_args()

    from repro.service.client import ServiceClient
    from repro.sim.batch import run_batch
    from repro.sim.config import ExperimentConfig

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-service-smoke-")
    client = ServiceClient(port=args.port, timeout=120.0)

    print(f"[smoke] starting service (state: {state_dir})")
    server = start_server(args.port, state_dir)
    try:
        wait_healthy(client, server)
        document = client.submit(SPECS, CONFIG, tenant="smoke")
        job_id = document["job_id"]
        print(f"[smoke] submitted {job_id}")

        streamed = 0
        for event in client.stream_events(job_id):
            if event["event"] == "result":
                streamed += 1
                if streamed >= 2:
                    break
        print(f"[smoke] streamed {streamed} results; killing -9 mid-run")
        os.kill(server.pid, signal.SIGKILL)
        server.wait()

        print("[smoke] restarting on the same state dir")
        server = start_server(args.port, state_dir)
        wait_healthy(client, server)
        final = client.wait(job_id)
        if final["status"] != "done":
            raise SystemExit(f"resumed job ended {final['status']}: {final['error']}")
        body = client.results(job_id)

        direct = run_batch(SPECS, ExperimentConfig(**CONFIG)).to_json()
        if body != direct:
            raise SystemExit("resumed body is NOT byte-identical to run_batch")
        print("[smoke] resumed body byte-identical to direct run_batch")

        manifest = client.metrics()
        counters = manifest["counters"]
        if counters.get("service.resumed", 0) < 1:
            raise SystemExit(f"no resumed jobs in manifest: {counters}")
        if counters.get("runner.checkpoint_hits", 0) < 1:
            raise SystemExit(
                f"restart recomputed everything (no checkpoint hits): {counters}"
            )
        print(
            f"[smoke] resume honored the ledger "
            f"(checkpoint_hits={counters['runner.checkpoint_hits']})"
        )

        # Warm resubmission from another tenant: O(1) dedup, no dispatch.
        simulated_before = counters.get("runner.simulated", 0)
        duplicate = client.submit(SPECS, CONFIG, tenant="other-tenant")
        final = client.wait(duplicate["job_id"])
        if not final.get("dedup_hit"):
            raise SystemExit(f"warm resubmission was not a dedup hit: {final}")
        if client.results(duplicate["job_id"]) != direct:
            raise SystemExit("dedup body differs from original")
        counters = client.metrics()["counters"]
        if counters.get("runner.simulated", 0) != simulated_before:
            raise SystemExit("warm resubmission dispatched the runner")
        if counters.get("service.dedup_hits", 0) < 1:
            raise SystemExit(f"service.dedup_hits missing from manifest: {counters}")
        print("[smoke] warm resubmission deduped without touching the runner")

        server.terminate()
        server.wait(timeout=60)
        window_state = tempfile.mkdtemp(prefix="window-", dir=state_dir)
        print(f"[smoke] fresh service for the retention window ({window_state})")
        server = start_server(args.port, window_state)
        wait_healthy(client, server)
        check_retention_window(client)
        print("[smoke] OK")
        return 0
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()


def check_retention_window(client) -> None:
    """Step 6: counters, not wall clock, pin the bounded job state."""
    from repro.service.store import RETAINED_FINISHED_JOBS
    from repro.sim.batch import run_batch
    from repro.sim.config import ExperimentConfig

    total = RETAINED_FINISHED_JOBS + EXTRA_JOBS
    job_ids = []
    for index in range(total):
        job_ids.append(client.submit(window_specs(index), WINDOW_CONFIG)["job_id"])
        gauges = client.metrics()["gauges"]
        in_flight = gauges["service.queue_depth"] + gauges["service.running"]
        if gauges["service.jobs_known"] > RETAINED_FINISHED_JOBS + in_flight:
            raise SystemExit(f"jobs_known over the window plus in-flight: {gauges}")
    for job_id in job_ids:
        if client.wait(job_id)["status"] != "done":
            raise SystemExit(f"window job {job_id} did not finish")
    manifest = client.metrics()
    counters, gauges = manifest["counters"], manifest["gauges"]
    for name in ("service.jobs_evicted", "service.bodies_evicted"):
        if counters.get(name, 0) != EXTRA_JOBS:
            raise SystemExit(f"{name} is {counters.get(name, 0)}, not {EXTRA_JOBS}")
    if gauges["service.jobs_known"] != RETAINED_FINISHED_JOBS:
        raise SystemExit(f"jobs_known is not the window: {gauges}")
    # One dispatcher runs the jobs in order, so the first left memory.
    if job_ids[0] in {job["job_id"] for job in client.list_jobs()}:
        raise SystemExit("the oldest finished job is still listed")
    direct = run_batch(window_specs(0), ExperimentConfig(**WINDOW_CONFIG)).to_json()
    if client.results(job_ids[0]) != direct:
        raise SystemExit("evicted job's body is NOT byte-identical to run_batch")
    print(
        f"[smoke] window held {RETAINED_FINISHED_JOBS} finished jobs; "
        f"{EXTRA_JOBS} evicted, and the oldest is served from its record"
    )


if __name__ == "__main__":
    sys.exit(main())
