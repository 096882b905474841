"""Asyncio front end: the HTTP transport behind ``repro serve``.

A stdlib ``asyncio`` streams HTTP/1.1 server — no web framework, no new
dependencies. One event-loop thread holds every open connection; each
``POST /recommend`` body decodes to a
:class:`~repro.serving.api.RecommendRequest` and is handed to the
micro-batcher as a future (:meth:`RecommendService.submit_future`), so
thousands of in-flight requests cost coroutines, not threads, while the
batcher worker coalesces them into vectorized scoring passes.

Flow control is explicit end to end:

- the micro-batcher's queue is *bounded* (``max_queue``); a request that
  finds it full is shed immediately with **503 +** ``Retry-After`` and
  counted under ``status="shed"`` — overload is never a silent drop and
  never an unbounded backlog;
- admitted requests carry the service deadline; one that misses it gets
  503 (``status="timeout"``) while its batch peers still get answers;
- every terminal outcome — ok, invalid, shed, timeout, error — is
  accounted exactly once through ``service.record_request``.

Blocking operations (model reload: file I/O + index build) run in the
default executor so the event loop keeps serving while a reload builds.

Requests speak wire v1 (:mod:`repro.serving.api`); see
``docs/serving.md`` for the schema.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ConfigError, OverloadedError, ReproError, ServingError
from repro.serving.api import RecommendRequest, ServingConfig
from repro.serving.service import RecommendService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.hooks import Observability

_MAX_BODY_BYTES = 1 << 20
_MAX_HEADER_BYTES = 1 << 16
_METRICS_FORMATS = ("prometheus", "json", "jsonl")
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An error that already knows its HTTP representation."""

    def __init__(
        self, status: int, message: str, headers: dict[str, str] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _monotonic() -> float:
    return asyncio.get_running_loop().time()


class AsyncRecommendServer:
    """Bounded-concurrency asyncio HTTP server over one service.

    Args:
        service: the :class:`RecommendService` answering requests.
        host / port: bind address (``port=0`` = ephemeral; read the bound
            port from :attr:`port` after :meth:`start`).
        quiet: suppress the startup log line.
        metrics_format: default ``GET /metrics`` representation.
        request_timeout: per-request deadline for ``POST /recommend``;
            defaults to the service batcher's ``timeout_seconds``.
        keep_alive_seconds: idle time before a kept-alive connection is
            closed server-side.
    """

    def __init__(
        self,
        service: RecommendService,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        metrics_format: str = "prometheus",
        request_timeout: float = 2.0,
        keep_alive_seconds: float = 75.0,
    ) -> None:
        if metrics_format not in _METRICS_FORMATS:
            raise ConfigError(
                f"metrics_format must be one of {list(_METRICS_FORMATS)}, "
                f"got {metrics_format!r}"
            )
        self.service = service
        self.host = host
        self._requested_port = port
        self.quiet = quiet
        self.metrics_format = metrics_format
        self.request_timeout = float(request_timeout)
        self.keep_alive_seconds = float(keep_alive_seconds)
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=_MAX_HEADER_BYTES,
        )
        if not self.quiet:
            print(f"serving on http://{self.host}:{self.port}")

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServingError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drop open connections, and wait for shutdown."""
        if self._server is None:
            return
        self._server.close()
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()
        self._server = None

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    header_block = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"),
                        timeout=self.keep_alive_seconds,
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    ConnectionError,
                ):
                    break
                except asyncio.LimitOverrunError:
                    await self._write_error(
                        writer, 400, "request headers too large", close=True
                    )
                    break
                keep_alive = await self._handle_request(
                    header_block, reader, writer
                )
                if not keep_alive:
                    break
        except ConnectionError:  # pragma: no cover - peer went away
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _handle_request(
        self,
        header_block: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Parse, route, and answer one request; returns keep-alive."""
        try:
            method, target, headers = _parse_head(header_block)
        except _HttpError as error:
            await self._write_error(writer, error.status, str(error), close=True)
            return False
        try:
            body = await self._read_body(reader, headers)
        except _HttpError as error:
            # The body was not consumed, so the next request's start on
            # this stream is unknown: answer, then drop the connection.
            await self._write_error(writer, error.status, str(error), close=True)
            return False
        keep_alive = headers.get("connection", "keep-alive") != "close"
        try:
            status, payload, extra = await self._route(method, target, body)
        except _HttpError as error:
            status, payload, extra = (
                error.status,
                {"error": str(error)},
                error.headers,
            )
        except Exception as error:  # pragma: no cover - defensive
            status, payload, extra = 500, {"error": f"internal error: {error}"}, {}
        if isinstance(payload, dict):
            body_bytes = json.dumps(payload, default=str).encode("utf-8")
            content_type = "application/json"
        else:
            body_bytes, content_type = payload
        await self._write_response(
            writer, status, body_bytes, content_type, extra, keep_alive
        )
        return keep_alive

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> bytes:
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length header") from None
        if length < 0:
            raise _HttpError(400, "negative Content-Length header")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body exceeds {_MAX_BODY_BYTES} bytes"
            )
        if length == 0:
            return b""
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise _HttpError(400, "request body truncated") from error

    # -- routing -----------------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, object, dict[str, str]]:
        parts = urlsplit(target)
        if method == "POST" and parts.path == "/recommend":
            return await self._recommend(body)
        if method == "POST" and parts.path == "/reload":
            return await self._reload(body)
        if method == "GET" and parts.path == "/healthz":
            return 200, self.service.healthz(), {}
        if method == "GET" and parts.path == "/metrics":
            return self._metrics(parts.query)
        if method not in ("GET", "POST"):
            raise _HttpError(405, f"method {method} not allowed")
        raise _HttpError(404, f"unknown path {parts.path}")

    async def _recommend(
        self, body: bytes
    ) -> tuple[int, dict, dict[str, str]]:
        """The async request path: decode, enqueue, await, account.

        The terminal status of every request — including invalid, shed,
        and timed-out ones — is reported through
        ``service.record_request`` exactly once.
        """
        start = _monotonic()
        status = "error"
        fallback = False
        model = None
        try:
            try:
                request = RecommendRequest.from_dict(_decode_json(body))
                model = request.model.name
                future = self.service.submit_future(request)
            except ConfigError as error:
                status = "invalid"
                raise _HttpError(400, str(error)) from error
            except OverloadedError as error:
                status = "shed"
                raise _HttpError(
                    503,
                    str(error),
                    {"Retry-After": f"{error.retry_after:g}"},
                ) from error
            except ServingError as error:
                raise _HttpError(503, str(error)) from error
            try:
                response = await asyncio.wait_for(
                    asyncio.wrap_future(future), timeout=self.request_timeout
                )
            except asyncio.TimeoutError:
                status = "timeout"
                raise _HttpError(
                    503,
                    f"request timed out after {self.request_timeout:.3f}s",
                ) from None
            except ConfigError as error:
                status = "invalid"
                raise _HttpError(400, str(error)) from error
            except ServingError as error:
                raise _HttpError(503, str(error)) from error
            except ReproError as error:
                raise _HttpError(500, str(error)) from error
            status = "ok"
            fallback = response.fallback
            model = response.model
            return 200, response.as_dict(), {}
        finally:
            self.service.record_request(
                status, _monotonic() - start, fallback=fallback, model=model
            )

    async def _reload(self, body: bytes) -> tuple[int, dict, dict[str, str]]:
        payload = _decode_json(body)
        loop = asyncio.get_running_loop()
        try:
            # Reload builds a whole model (file I/O, normalization, ANN
            # index); run it off-loop so serving continues meanwhile.
            result = await loop.run_in_executor(
                None, lambda: self.service.reload(model=payload.get("model"))
            )
        except ConfigError as error:
            raise _HttpError(400, str(error)) from error
        except ServingError as error:
            raise _HttpError(503, str(error)) from error
        except ReproError as error:
            raise _HttpError(500, str(error)) from error
        return 200, result, {}

    def _metrics(self, query: str) -> tuple[int, object, dict[str, str]]:
        fmt = parse_qs(query).get("format", [self.metrics_format])[0]
        if fmt not in _METRICS_FORMATS:
            raise _HttpError(
                400, f"format must be one of {list(_METRICS_FORMATS)}"
            )
        if fmt == "json":
            return 200, self.service.metrics(), {}
        if fmt == "jsonl":
            return (
                200,
                (
                    self.service.metrics_jsonl().encode("utf-8"),
                    "application/jsonl",
                ),
                {},
            )
        return (
            200,
            (
                self.service.metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            ),
            {},
        )

    # -- response writing --------------------------------------------------

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str],
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Server: repro-serve-asyncio",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except ConnectionError:  # pragma: no cover - peer went away
            pass

    async def _write_error(
        self, writer: asyncio.StreamWriter, status: int, message: str, close: bool
    ) -> None:
        body = json.dumps({"error": message}).encode("utf-8")
        await self._write_response(
            writer, status, body, "application/json", {}, keep_alive=not close
        )


def _parse_head(block: bytes) -> tuple[str, str, dict[str, str]]:
    """Parse the request line + headers of one HTTP/1.1 request."""
    try:
        text = block.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise _HttpError(400, "malformed request head") from None
    lines = text.split("\r\n")
    request_line = lines[0].split(" ")
    if len(request_line) != 3:
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = request_line
    if not version.startswith("HTTP/1."):
        raise _HttpError(400, f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


def _decode_json(body: bytes) -> dict:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _HttpError(
            400, f"request body is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return payload


class BackgroundServer:
    """Run an :class:`AsyncRecommendServer` on a dedicated loop thread.

    The synchronous embedding point for tests, benchmarks, and the CLI's
    callers: ``with BackgroundServer(service) as server: ...`` starts the
    event loop on a daemon thread, binds, and exposes :attr:`url`;
    exiting stops the loop and drops open connections. The service's
    lifecycle stays with the caller.
    """

    def __init__(self, service: RecommendService, **kwargs) -> None:
        self._server = AsyncRecommendServer(service, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-asgi", daemon=True
        )

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self._server.start(), self._loop
        ).result(timeout=10)
        return self

    def __exit__(self, *exc_info) -> None:
        asyncio.run_coroutine_threadsafe(
            self._server.close(), self._loop
        ).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self._server.host}:{self.port}"


def serve(
    config: ServingConfig,
    observability: "Observability | None" = None,
) -> None:
    """Build the service from ``config`` and serve until interrupted.

    This is the blocking entry behind ``repro serve``: constructs the
    multi-tenant service (:meth:`RecommendService.from_config`), binds the
    asyncio transport, and runs the event loop in the calling thread.
    """
    if observability is None and config.trace_jsonl is not None:
        from repro.observability.hooks import with_observability

        observability = with_observability(trace_jsonl=config.trace_jsonl)
    service = RecommendService.from_config(config, observability=observability)
    server = AsyncRecommendServer(
        service,
        host=config.host,
        port=config.port,
        quiet=config.quiet,
        metrics_format=config.metrics_format,
        request_timeout=config.timeout_seconds,
    )

    async def _main() -> None:
        await server.start()
        if not config.quiet:
            names = ", ".join(name for name, _ in config.artifacts) or "none"
            print(f"hosting models: {names}")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        service.close()
        if observability is not None:
            observability.close()
