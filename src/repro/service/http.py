"""Asyncio HTTP front end over :class:`~repro.service.core.SimService`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` --
stdlib only, no framework -- exposing the job API:

========  ==============================  =======================================
method    path                            semantics
========  ==============================  =======================================
GET       ``/healthz``                    liveness probe
POST      ``/v1/jobs``                    submit a batch; 202 + job document
GET       ``/v1/jobs``                    list the retained jobs: every
                                          unfinished one plus the newest
                                          ``RETAINED_FINISHED_JOBS``
                                          finished ones
GET       ``/v1/jobs/<id>``               one job's status document; a
                                          finished job no longer retained
                                          is served from its record
GET       ``/v1/jobs/<id>/events``        NDJSON event stream (chunked); closes
                                          when the job finishes.  ``?since=N``
                                          skips already-seen events.
GET       ``/v1/jobs/<id>/results``       the final body -- byte-identical to a
                                          direct ``run_batch().to_json()``;
                                          409 while the job is still running
GET       ``/v1/metrics``                 metrics manifest (``service.*`` et al.)
========  ==============================  =======================================

Errors are JSON ``{"error": ...}``: 400 validation, 404 unknown (also
any id not of the minted ``j-`` + 12-hex shape, checked before any file
is read), 429 quota (clean rejection, never a hang), 503 +
``Retry-After`` while the service drains, 500 otherwise.  ``/healthz`` reports
``{"status": "draining"}`` once a drain begins, so load balancers fail
the instance out before its listener goes away.

The core is synchronous/threaded; every call into it that can block
(``submit`` dispatches nothing but ``wait_events`` does block) crosses
via ``asyncio.to_thread`` so the event loop keeps serving other
clients while a stream waits for the next result.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.core import ServiceUnavailable, SimService, ValidationError
from repro.service.queue import QuotaExceeded

#: Largest accepted request body (a spec batch is small; this is DoS hygiene).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Idle seconds between keepalive lines on an event stream.  Lets a
#: client with a read timeout longer than this distinguish "the job is
#: quiet" from "the server is dead".
STREAM_KEEPALIVE_SECONDS = 5.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[dict] = None,
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
    )
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += "\r\n"
    return head.encode() + body


def _json_response(
    status: int, payload: dict, extra_headers: Optional[dict] = None
) -> bytes:
    return _response(
        status, (json.dumps(payload) + "\n").encode(), extra_headers=extra_headers
    )


def _error(
    status: int, message: str, extra_headers: Optional[dict] = None
) -> bytes:
    return _json_response(status, {"error": message}, extra_headers=extra_headers)


class ServiceServer:
    """One listening HTTP server bound to a :class:`SimService`."""

    def __init__(
        self, service: SimService, host: str = "127.0.0.1", port: int = 8437
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (service must be started)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "any free port"; reflect what the OS picked.
        if self._server.sockets:
            self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                writer.write(_error(400, "malformed request"))
            else:
                method, path, query, headers, body = parsed
                await self._route(writer, method, path, query, headers, body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to serve
        except Exception as error:  # noqa: BLE001 - connection isolation
            try:
                writer.write(_error(500, f"{type(error).__name__}: {error}"))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, dict, dict, bytes]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split(" ")
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            name: values[-1] for name, values in parse_qs(split.query).items()
        }
        return method.upper(), split.path.rstrip("/") or "/", query, headers, body

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict,
        headers: dict,
        body: bytes,
    ) -> None:
        if path == "/healthz" and method == "GET":
            status = "draining" if self.service.draining else "ok"
            writer.write(_json_response(200, {"status": status}))
            return
        if path == "/v1/metrics" and method == "GET":
            manifest = await asyncio.to_thread(self.service.manifest)
            writer.write(_json_response(200, manifest))
            return
        if path == "/v1/jobs":
            if method == "POST":
                await self._submit(writer, headers, body)
            elif method == "GET":
                jobs = [job.describe() for job in self.service.list_jobs()]
                writer.write(_json_response(200, {"jobs": jobs}))
            else:
                writer.write(_error(405, f"{method} not allowed on {path}"))
            return
        if path.startswith("/v1/jobs/"):
            remainder = path[len("/v1/jobs/"):]
            job_id, _, verb = remainder.partition("/")
            job = self.service.get_job(job_id)
            if job is None:
                writer.write(_error(404, f"unknown job {job_id!r}"))
                return
            if method != "GET":
                writer.write(_error(405, f"{method} not allowed on {path}"))
                return
            if verb == "":
                writer.write(_json_response(200, job.describe()))
            elif verb == "events":
                await self._stream_events(writer, job, query)
            elif verb == "results":
                if job.status == "failed":
                    writer.write(_error(409, f"job failed: {job.error}"))
                elif job.result_text is None:
                    writer.write(
                        _error(409, f"job is {job.status}; results not ready")
                    )
                else:
                    # The exact canonical body -- no re-serialization, so
                    # byte-identity with a direct run_batch is structural.
                    writer.write(_response(200, job.result_text.encode()))
            else:
                writer.write(_error(404, f"unknown resource {verb!r}"))
            return
        writer.write(_error(404, f"unknown path {path!r}"))

    async def _submit(
        self, writer: asyncio.StreamWriter, headers: dict, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            writer.write(_error(400, f"request body is not JSON: {error}"))
            return
        tenant = headers.get("x-tenant") or (
            payload.get("tenant") if isinstance(payload, dict) else None
        ) or "default"
        try:
            job = await asyncio.to_thread(self.service.submit, tenant, payload)
        except ValidationError as error:
            writer.write(_error(400, str(error)))
            return
        except QuotaExceeded as error:
            writer.write(_error(429, str(error)))
            return
        except ServiceUnavailable as error:
            writer.write(
                _error(
                    503,
                    str(error),
                    extra_headers={"Retry-After": f"{error.retry_after:g}"},
                )
            )
            return
        writer.write(_json_response(202, job.describe()))

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job, query: dict
    ) -> None:
        """Chunked NDJSON: one event object per line, until the job ends."""
        try:
            cursor = max(int(query.get("since", 0)), 0)
        except ValueError:
            writer.write(_error(400, "'since' must be an integer"))
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        idle_since = asyncio.get_running_loop().time()
        while True:
            events, finished = await asyncio.to_thread(
                job.wait_events, cursor, 0.5
            )
            for event in events:
                line = (json.dumps(event) + "\n").encode()
                writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
            cursor += len(events)
            now = asyncio.get_running_loop().time()
            if events:
                idle_since = now
            elif not finished and now - idle_since >= STREAM_KEEPALIVE_SECONDS:
                # Keepalive rides outside the event sequence (no seq, no
                # cursor advance); clients drop it on sight.
                line = (json.dumps({"event": "keepalive"}) + "\n").encode()
                writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
                idle_since = now
            await writer.drain()
            if finished:
                break
        writer.write(b"0\r\n\r\n")


async def serve(
    service: SimService, host: str = "127.0.0.1", port: int = 8437
) -> None:
    """Run the HTTP API until cancelled (service lifecycle included)."""
    service.start()
    server = ServiceServer(service, host, port)
    try:
        await server.serve_forever()
    finally:
        await server.close()
        service.stop()
