"""Blocking HTTP client for the job API (stdlib ``http.client`` only).

Used by the ``repro service-submit/status/results`` CLI subcommands and
by tests/CI; any HTTP client works against the service, this one just
keeps the repo dependency-free.  ``stream_events`` yields decoded NDJSON
events as they arrive (``http.client`` de-chunks transparently, so the
generator is a plain readline loop).

Robustness: every exchange runs under separate **connect** and **read**
timeouts, idempotent GETs retry through capped jittered exponential
backoff, and :meth:`submit` honors a 503 ``Retry-After`` (the service's
drain rejection) for a bounded number of rounds.  A dead server
therefore surfaces as a timely :class:`ServiceError`/``OSError`` --
never an indefinite hang.
"""

from __future__ import annotations

import hashlib
import json
from http.client import HTTPConnection
from time import monotonic, sleep
from typing import Dict, Iterator, List, Optional, Sequence

#: First GET-retry delay; doubles per attempt.
RETRY_BASE_SECONDS: float = 0.1

#: Ceiling on a single retry delay.
RETRY_CAP_SECONDS: float = 2.0

#: Upper bound honored from a server-sent ``Retry-After`` hint.
RETRY_AFTER_CAP_SECONDS: float = 30.0


class ServiceError(RuntimeError):
    """A non-2xx response from the service.

    ``retry_after`` carries the server's ``Retry-After`` hint (seconds)
    when the response included one -- a 503 drain rejection does.
    """

    def __init__(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> None:
        self.status = status
        self.retry_after = retry_after
        super().__init__(f"HTTP {status}: {message}")


def _parse_retry_after(headers: Dict[str, str]) -> Optional[float]:
    """Seconds from a ``Retry-After`` header, if present and numeric."""
    raw = headers.get("retry-after")
    if raw is None:
        return None
    try:
        return max(float(raw), 0.0)
    except ValueError:
        return None


class ServiceClient:
    """Talk to one service instance at ``host:port``.

    Parameters
    ----------
    timeout:
        Default for both finer-grained timeouts below.
    connect_timeout:
        Seconds to establish the TCP connection.
    read_timeout:
        Seconds a blocked read may wait.  The server emits stream
        keepalives every few seconds, so on an event stream this bounds
        *server death* detection without tripping on quiet jobs.
    retries:
        Extra attempts for idempotent GETs (and 503-rejected submits).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8437,
        timeout: float = 60.0,
        *,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        retries: int = 2,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (
            timeout if connect_timeout is None else connect_timeout
        )
        self.read_timeout = timeout if read_timeout is None else read_timeout
        self.retries = max(int(retries), 0)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _retry_delay(self, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter in
        ``[0.5, 1.5)×`` -- reproducible per (endpoint, attempt), yet
        fleet clients retrying the same instant spread out."""
        base = min(RETRY_BASE_SECONDS * (2 ** attempt), RETRY_CAP_SECONDS)
        digest = hashlib.sha256(
            f"client:{self.host}:{self.port}:{attempt}".encode()
        ).digest()
        jitter = int.from_bytes(digest[:8], "little") / 2**64
        return base * (0.5 + jitter)

    def _connect(self, read_timeout: Optional[float] = None) -> HTTPConnection:
        """Open a connection under the connect timeout, then swap the
        socket to the (usually longer) read timeout."""
        connection = HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout
        )
        connection.connect()
        if connection.sock is not None:
            connection.sock.settimeout(
                self.read_timeout if read_timeout is None else read_timeout
            )
        return connection

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> "tuple[int, str, Dict[str, str]]":
        """One exchange; idempotent GETs retry connection-level failures
        with bounded jittered backoff (POSTs never auto-retry here --
        submit handles its own 503 path)."""
        attempts = (self.retries if method == "GET" else 0) + 1
        for attempt in range(attempts):
            try:
                connection = self._connect()
            except OSError:
                if attempt + 1 >= attempts:
                    raise
                sleep(self._retry_delay(attempt))
                continue
            try:
                connection.request(
                    method,
                    path,
                    body=json.dumps(body) if body is not None else None,
                    headers={
                        "Content-Type": "application/json", **(headers or {})
                    },
                )
                response = connection.getresponse()
                reply_headers = {
                    name.lower(): value for name, value in response.getheaders()
                }
                return response.status, response.read().decode(), reply_headers
            except OSError:
                if attempt + 1 >= attempts:
                    raise
                sleep(self._retry_delay(attempt))
            finally:
                connection.close()
        raise OSError(f"unreachable: {method} {path}")  # pragma: no cover

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> dict:
        status, text, reply_headers = self._request(method, path, body, headers)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = {"error": text.strip() or "empty response"}
        if status >= 400:
            raise ServiceError(
                status,
                str(payload.get("error", text)),
                retry_after=_parse_retry_after(reply_headers),
            )
        return payload

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def healthz(self) -> bool:
        """Whether the service answers its liveness probe."""
        try:
            return self._json("GET", "/healthz").get("status") == "ok"
        except (OSError, ServiceError):
            return False

    def submit(
        self,
        specs: Sequence[dict],
        config: Optional[dict] = None,
        *,
        tenant: str = "default",
        engine: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> dict:
        """Submit a batch; returns the job document (``job_id`` inside).

        Raises :class:`ServiceError` with ``status=429`` on quota
        rejection and ``status=400`` on validation failure.  A 503
        (draining instance) is retried up to ``retries`` times, honoring
        the server's ``Retry-After`` hint, before surfacing.
        """
        payload: dict = {"specs": list(specs)}
        if config:
            payload["config"] = dict(config)
        if engine is not None:
            payload["engine"] = engine
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        for attempt in range(self.retries + 1):
            try:
                return self._json(
                    "POST", "/v1/jobs", body=payload, headers={"X-Tenant": tenant}
                )
            except ServiceError as error:
                # 503 = the instance is draining; its Retry-After names
                # when a replacement should answer.  Anything else (400,
                # 429, ...) is the caller's problem immediately.
                if error.status != 503 or attempt >= self.retries:
                    raise
                delay = (
                    error.retry_after
                    if error.retry_after is not None
                    else self._retry_delay(attempt)
                )
                sleep(min(max(delay, 0.0), RETRY_AFTER_CAP_SECONDS))
        raise OSError("unreachable: submit")  # pragma: no cover

    def status(self, job_id: str) -> dict:
        """The job's status document."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def list_jobs(self) -> List[dict]:
        """Status documents of every job the service knows."""
        return self._json("GET", "/v1/jobs")["jobs"]

    def results(self, job_id: str) -> str:
        """The finished job's result body (exact canonical text)."""
        status, text, _headers = self._request("GET", f"/v1/jobs/{job_id}/results")
        if status >= 400:
            try:
                message = json.loads(text).get("error", text)
            except json.JSONDecodeError:
                message = text
            raise ServiceError(status, str(message))
        return text

    def metrics(self) -> dict:
        """The service's metrics manifest."""
        return self._json("GET", "/v1/metrics")

    def stream_events(self, job_id: str, since: int = 0) -> Iterator[dict]:
        """Yield the job's events as they happen, until it finishes.

        The read timeout bounds every blocked ``readline``; the server's
        periodic keepalive lines (dropped here, they carry no event)
        arrive well inside it, so a timeout genuinely means the server
        stopped talking -- it surfaces as ``OSError`` instead of an
        indefinite hang.
        """
        connection = self._connect()
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events?since={since}")
            response = connection.getresponse()
            if response.status >= 400:
                text = response.read().decode()
                try:
                    message = json.loads(text).get("error", text)
                except json.JSONDecodeError:
                    message = text
                raise ServiceError(response.status, str(message))
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("event") == "keepalive":
                    continue
                yield event
        finally:
            connection.close()

    def wait(
        self,
        job_id: str,
        poll_seconds: float = 0.2,
        timeout: Optional[float] = None,
    ) -> dict:
        """Stream until the job finishes; returns its final status doc.

        Falls back to polling if the event stream drops (e.g. the
        service restarted mid-run): the job is durable, the stream is
        not.  With ``timeout`` set, raises :class:`TimeoutError` once
        the overall budget is spent instead of waiting forever.
        """
        deadline = None if timeout is None else monotonic() + timeout
        while True:
            if deadline is not None and monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still unfinished after {timeout:g}s"
                )
            try:
                for _event in self.stream_events(job_id):
                    pass
            except (OSError, ServiceError):
                pass
            try:
                document = self.status(job_id)
            except (OSError, ServiceError):
                sleep(poll_seconds)
                continue
            if document["status"] in ("done", "failed"):
                return document
            sleep(poll_seconds)
