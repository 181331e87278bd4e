"""The asyncio HTTP/1.1 analysis server behind ``repro serve``.

One process, many requests.  Blocking analysis work (everything that
parses, replays, or verifies) runs on a bounded thread pool via
``run_in_executor``; the event loop itself only parses HTTP and does
admission control, so ``/healthz`` and ``/metrics`` stay responsive
while a batch grinds.

Three operational contracts, each load-tested by ``repro loadtest``
and pinned by the CI service gate:

* **backpressure is explicit** — at most ``queue_limit`` analysis
  requests are in flight (running *or* queued for a thread); one more
  gets an immediate ``429`` with ``Retry-After``, counted in
  ``repro_service_rejected_total``.  Clients never observe an
  unbounded queue, only a fast retry signal.
* **timeouts are per request** — an admitted request that outlives
  ``request_timeout`` gets ``504``; the worker thread finishes (or is
  abandoned to finish) in the background, exactly like the batch
  runner's own per-job timeout story.
* **metrics are always on** — the service installs one obs registry
  for its lifetime, so ``/metrics`` (Prometheus text) and ``/stats``
  (the canonical JSON snapshot) expose cache hit rates, pool
  spawn/reuse counts, and per-endpoint request histograms without any
  flag.

The run-plan surface mirrors the CLI: the service's
:class:`ServiceConfig` pins ``cache_dir``/``store_backend``/``jobs``
(operator decisions), request bodies may override the per-run knobs
(``names``, ``trials``, ``seed``, ``engine``, ``symbolic``,
``verify``, and — for ``/batch`` — ``jobs``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import json
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .. import obs
from ..provenance import BACKENDS

#: Largest accepted request body, in bytes.
MAX_BODY_BYTES = 1 << 20

#: Endpoint label values; anything else is folded into "unknown" so the
#: request counter's cardinality is bounded by this tuple.
ENDPOINTS = (
    "analyze",
    "verify",
    "batch",
    "trace",
    "replay",
    "stats",
    "metrics",
    "healthz",
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Operator-side configuration for one :class:`AnalysisService`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`AnalysisService.port` — this is how tests and the hermetic
    loadtest run without port coordination).  ``cache_dir=None``
    disables the provenance store; a service that should ever report a
    warm hit rate needs one.  ``jobs`` is the *default* batch
    parallelism — request bodies may override it per run, but the
    store location and backend are pinned here and never
    client-controlled.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: analysis requests admitted concurrently (running or waiting for
    #: a worker thread); one more is rejected with 429.
    queue_limit: int = 8
    #: seconds an admitted analysis request may run before 504.
    request_timeout: Optional[float] = 60.0
    cache_dir: Optional[str] = None
    store_backend: str = "sqlite"
    jobs: int = 1
    trials: int = 120
    seed: int = 1982

    def __post_init__(self) -> None:
        if self.store_backend not in BACKENDS:
            raise ValueError(
                "unknown store backend %r (expected one of %s)"
                % (self.store_backend, ", ".join(BACKENDS))
            )
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")


class _HttpError(Exception):
    """An error with a definite HTTP status (terminates one request)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AnalysisService:
    """The analysis server: start, take traffic, stop.

    Usage (tests, embedding)::

        service = AnalysisService(ServiceConfig(cache_dir=...))
        await service.start()
        ...                      # it is serving on service.port
        await service.stop()

    ``repro serve`` wraps this in ``asyncio.run`` + serve-forever.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._collect = None
        self._registry = None
        self._inflight = 0
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and install the lifetime metrics registry."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._collect = obs.collecting()
        self._registry = self._collect.__enter__()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.queue_limit,
            thread_name_prefix="repro-service",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop the thread pool, restore the registry."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._collect is not None:
            self._collect.__exit__(None, None, None)
            self._collect = None
            self._registry = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    payload = _json_bytes({"error": str(error)})
                    await self._respond(
                        writer, error.status, payload,
                        "application/json", False, {},
                    )
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, content_type, extra = await self._dispatch(
                    method, path, query, body
                )
                await self._respond(
                    writer, status, payload, content_type, keep_alive, extra
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            # Loop teardown cancels handlers parked on a keep-alive
            # read; the connection is going away regardless.
            asyncio.CancelledError,
        ):
            pass
        finally:
            writer.close()
            # Teardown is best-effort: the peer may already be gone, and
            # service stop cancels handlers parked right here.
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
        """One parsed request, or None at clean end-of-connection."""
        try:
            line = await reader.readline()
        except ValueError:  # line longer than the reader limit
            raise _HttpError(400, "request line too long") from None
        if not line.strip():
            return None
        try:
            method, target, _version = line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if b":" not in raw:
                raise _HttpError(400, "malformed header")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        parsed = urllib.parse.urlsplit(target)
        return method.upper(), parsed.path, parsed.query, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        keep_alive: bool,
        extra_headers: Dict[str, str],
    ) -> None:
        lines = [
            "HTTP/1.1 %d %s" % (status, _REASONS.get(status, "Unknown")),
            "Content-Type: %s" % content_type,
            "Content-Length: %d" % len(payload),
            "Connection: %s" % ("keep-alive" if keep_alive else "close"),
        ]
        for name, value in extra_headers.items():
            lines.append("%s: %s" % (name, value))
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        writer.write(head + payload)
        await writer.drain()

    # -- routing --------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        endpoint = path.lstrip("/") or "healthz"
        if endpoint not in ENDPOINTS:
            endpoint = "unknown"
        started = time.monotonic()
        extra: Dict[str, str] = {}
        try:
            status, payload, content_type = await self._route(
                method, path, query, body
            )
        except _HttpError as error:
            status = error.status
            payload = _json_bytes({"error": str(error)})
            content_type = "application/json"
            if status == 429:
                extra["Retry-After"] = "1"
        except Exception as error:  # noqa: BLE001 — the service must answer
            status = 500
            payload = _json_bytes(
                {"error": "%s: %s" % (type(error).__name__, error)}
            )
            content_type = "application/json"
        obs.inc(
            "repro_service_requests_total",
            endpoint=endpoint,
            status=str(status),
        )
        if endpoint != "unknown":
            obs.observe(
                "repro_service_request_seconds",
                time.monotonic() - started,
                endpoint=endpoint,
            )
        return status, payload, content_type, extra

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        if path in ("/healthz", "/"):
            _require(method, "GET")
            return 200, _json_bytes(self._health()), "application/json"
        if path == "/metrics":
            _require(method, "GET")
            text = obs.export_prometheus(self._snapshot())
            return 200, text.encode("utf-8"), "text/plain; version=0.0.4"
        if path == "/stats":
            _require(method, "GET")
            text = obs.export_json(self._snapshot())
            return 200, text.encode("utf-8"), "application/json"
        if path == "/analyze":
            _require(method, "POST")
            return await self._blocking("analyze", self._do_analyze, body)
        if path == "/verify":
            _require(method, "POST")
            return await self._blocking("verify", self._do_verify, body)
        if path == "/batch":
            _require(method, "POST")
            return await self._blocking("batch", self._do_batch, body)
        if path == "/trace":
            body = _query_body(method, query, body, "trace")
            return await self._blocking("trace", self._do_trace, body)
        if path == "/replay":
            body = _query_body(method, query, body, "replay")
            return await self._blocking("replay", self._do_replay, body)
        raise _HttpError(404, "no such endpoint: %s" % path)

    def _health(self) -> Dict[str, object]:
        return {
            "ok": True,
            "service": "repro",
            "store_backend": self.config.store_backend,
            "cache_dir": self.config.cache_dir,
            "queue_limit": self.config.queue_limit,
            "inflight": self._inflight,
        }

    def _snapshot(self) -> Dict[str, object]:
        registry = self._registry
        if registry is None:
            return obs.empty_snapshot()
        return registry.snapshot()

    # -- admission + execution ------------------------------------------

    async def _blocking(
        self,
        endpoint: str,
        handler: Callable[[Dict[str, Any]], Dict[str, object]],
        body: bytes,
    ) -> Tuple[int, bytes, str]:
        """Admit, run on the thread pool, time out; the 429/504 seam."""
        request = _parse_json(body)
        if self._inflight >= self.config.queue_limit:
            obs.inc("repro_service_rejected_total", endpoint=endpoint)
            raise _HttpError(
                429,
                "request queue full (%d in flight); retry shortly"
                % self._inflight,
            )
        assert self._executor is not None, "service not started"
        loop = asyncio.get_running_loop()
        self._inflight += 1
        try:
            future = loop.run_in_executor(self._executor, handler, request)
            if self.config.request_timeout is not None:
                future = asyncio.wait_for(
                    future, timeout=self.config.request_timeout
                )
            result = await future
        except asyncio.TimeoutError:
            raise _HttpError(
                504,
                "request exceeded %.3gs; the worker keeps running in the "
                "background" % self.config.request_timeout,
            ) from None
        finally:
            self._inflight -= 1
        return 200, _json_bytes(result), "application/json"

    # -- endpoint bodies (run on worker threads) ------------------------

    def _run_config(self, request: Dict[str, Any], **forced) -> "Any":
        from ..api import RunConfig

        allowed = {"trials", "seed", "engine", "symbolic", "verify"}
        plan: Dict[str, Any] = {
            "cache_dir": self.config.cache_dir,
            "store_backend": self.config.store_backend,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "jobs": self.config.jobs,
        }
        for key in allowed:
            if request.get(key) is not None:
                plan[key] = request[key]
        plan.update(forced)
        return RunConfig(**plan)

    def _do_analyze(self, request: Dict[str, Any]) -> Dict[str, object]:
        from .. import api

        name = _required_name(request)
        config = self._run_config(request)
        result = _catch_unknown(
            lambda: api.analyze(name, config, verify=config.verify)
        )
        return {
            "name": result.name,
            "succeeded": result.succeeded,
            "steps": result.steps,
            "failure": result.failure,
        }

    def _do_verify(self, request: Dict[str, Any]) -> Dict[str, object]:
        from ..analysis.runner import run_batch
        from ..api import VerifyResult

        name = _required_name(request)
        # Unlike ``api.verify`` this runs with the service's store, so
        # a repeated verification is a provenance hit, not a re-run.
        config = self._run_config(request, verify=True, jobs=1)
        report = _catch_unknown(
            lambda: run_batch(names=[name], config=config)
        )
        (entry,) = report.results
        result = VerifyResult(
            name=name,
            ok=entry.ok,
            verified_trials=entry.verified_trials,
            engine=report.engine,
            trials=report.trials,
            seed=report.seed,
            failure=entry.failure,
            error=entry.error,
        )
        return dataclasses.asdict(result)

    def _do_batch(self, request: Dict[str, Any]) -> Dict[str, object]:
        from .. import api

        names = _optional_names(request)
        jobs = request.get("jobs")
        forced = {} if jobs is None else {"jobs": int(jobs)}
        config = self._run_config(request, **forced)
        result = _catch_unknown(lambda: api.batch(names, config))
        # The structure ``repro batch --json`` prints, encoded once by
        # ``_blocking``.  It carries no metrics block: the service's
        # lifetime registry lives at /stats and /metrics, and no
        # request takes a snapshot of it.
        return result.report.to_payload()

    def _do_trace(self, request: Dict[str, Any]) -> Dict[str, object]:
        from .. import api

        name = _required_name(request)
        result = _catch_unknown(
            lambda: api.trace(
                name,
                cache_dir=self.config.cache_dir,
                store_backend=(
                    None
                    if self.config.cache_dir is None
                    else self.config.store_backend
                ),
            )
        )
        if result is None:
            raise _HttpError(404, "%s: no trace recorded" % name)
        return {
            "name": result.name,
            "origin": result.origin,
            "digest": result.digest,
            "steps": result.steps,
        }

    def _do_replay(self, request: Dict[str, Any]) -> Dict[str, object]:
        from .. import api

        names = _optional_names(request)
        result = _catch_unknown(
            lambda: api.replay(
                names,
                cache_dir=self.config.cache_dir,
                store_backend=(
                    None
                    if self.config.cache_dir is None
                    else self.config.store_backend
                ),
            )
        )
        return {
            "ok": result.ok,
            "failed": result.failed,
            "entries": [
                dataclasses.asdict(entry) for entry in result.entries
            ],
        }


# ---------------------------------------------------------------------------
# request helpers


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise _HttpError(405, "use %s" % expected)


def _query_body(
    method: str, query: str, body: bytes, endpoint: str
) -> bytes:
    """GET-with-query or POST-with-body, normalized to a JSON body."""
    if method == "POST":
        return body
    if method != "GET":
        raise _HttpError(405, "use GET or POST")
    params = urllib.parse.parse_qs(query)
    request: Dict[str, object] = {}
    if "name" in params:
        request["name"] = params["name"][0]
    if "names" in params:
        request["names"] = params["names"]
    return _json_bytes(request) if request else b""


def _parse_json(body: bytes) -> Dict[str, Any]:
    if not body:
        return {}
    try:
        request = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _HttpError(400, "request body is not JSON: %s" % error) from None
    if not isinstance(request, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return request


def _json_bytes(payload: Dict[str, object]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _required_name(request: Dict[str, Any]) -> str:
    name = request.get("name")
    if not isinstance(name, str) or not name:
        raise _HttpError(400, 'request needs a "name" string')
    return name


def _optional_names(request: Dict[str, Any]) -> Optional[list]:
    names = request.get("names")
    if names is None:
        return None
    if not isinstance(names, list) or not all(
        isinstance(name, str) for name in names
    ):
        raise _HttpError(400, '"names" must be a list of strings')
    return names


def _catch_unknown(call: Callable[[], Any]) -> Any:
    """Map catalog name errors (and kin) to 400 — they are client bugs."""
    from ..analysis.runner import UnknownAnalysisError

    try:
        return call()
    except (UnknownAnalysisError, ValueError) as error:
        raise _HttpError(400, str(error)) from None
