"""A small, dependency-free HTTP/1.1 front end for the fusion service.

Built directly on :func:`asyncio.start_server` — the repository's rule of
standing only on the scientific Python stack extends to serving: no web
framework, no event-loop replacement, just enough HTTP/1.1 to speak JSON
with standard clients (``curl``, :mod:`http.client`, ``urllib``).
Persistent connections are supported (HTTP/1.1 default keep-alive), request
bodies are bounded, and every response is ``application/json`` — except the
Prometheus exposition, which is the one plain-text route.

Routes (all under the versioned ``/v1`` prefix, mirroring
:data:`repro.serve.service.API_VERSION`):

========  ==================  ==============================================
method    path                handler
========  ==================  ==============================================
POST      ``/v1/run``         run a scenario request (name or inline spec)
GET       ``/v1/health``      liveness + engine/version info
GET       ``/v1/metrics``     Prometheus text exposition (counters, request
                              latency histogram); ``?format=json`` returns
                              the legacy JSON counter document
GET       ``/v1/scenarios``   the registered scenario catalogue
========  ==================  ==============================================

Error mapping: malformed JSON or an invalid spec is ``400`` with an
``error`` body (:class:`~repro.core.exceptions.ExperimentError` messages
pass through verbatim — they are written to be actionable), unknown paths
are ``404``, wrong methods ``405``, oversized bodies ``413``, and anything
unexpected is a ``500`` that never takes the server down.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs

from repro.core.exceptions import ExperimentError
from repro.engine import DEFAULT_ENGINE, available_engines
from repro.serve.service import API_VERSION, FusionService

__all__ = ["FusionServer", "MAX_BODY_BYTES"]

#: Upper bound on request bodies; a scenario spec is a few KB, so this is
#: generous headroom, not a tuning knob.
MAX_BODY_BYTES = 8 * 1024 * 1024

_MAX_HEADER_BYTES = 64 * 1024

#: Longest a connection may take to deliver one whole request (request line,
#: headers and body), counted from the end of its previous response — so it
#: is also the keep-alive idle limit.  A client that goes quiet or trickles
#: its bytes is disconnected after it instead of holding a server coroutine
#: forever.
_REQUEST_READ_TIMEOUT_S = 30.0


class _HttpError(Exception):
    """Internal: carries a status + message to the response writer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class FusionServer:
    """Bind a :class:`~repro.serve.service.FusionService` to a TCP port.

    ``port=0`` asks the OS for a free port (the test/benchmark idiom);
    :attr:`port` reports the bound value after :meth:`start`.  Use as an
    async context manager or call :meth:`start` / :meth:`aclose` directly;
    :meth:`serve_forever` blocks until cancelled.
    """

    def __init__(
        self,
        service: FusionService,
        host: str = "127.0.0.1",
        port: int = 8014,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "FusionServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # connection handling

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(self._read_request(reader), _REQUEST_READ_TIMEOUT_S)
                except asyncio.IncompleteReadError:
                    break  # client closed between requests — normal keep-alive end
                except asyncio.TimeoutError:
                    break  # idle or too slow: close the connection
                if request is None:
                    break
                method, path, query, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload = await self._dispatch(method, path, query, body)
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, _HttpError) as error:
            if isinstance(error, _HttpError):
                # Protocol-level failure (oversized/garbled request): answer
                # once if the socket still works, then drop the connection.
                try:
                    await self._write_response(
                        writer, error.status, {"error": str(error)}, keep_alive=False
                    )
                except (ConnectionResetError, BrokenPipeError):
                    pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # the line overran the reader's buffer limit (64 KiB)
            raise _HttpError(400, "request line or header line too long") from None

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await self._readline(reader)
        if not request_line:
            return None
        try:
            method, path, _version = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        total = len(request_line)
        while True:
            line = await self._readline(reader)
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _HttpError(400, "request headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(400, f"invalid Content-Length {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        path, _, query = path.partition("?")
        return method.upper(), path, query, headers, body

    async def _dispatch(
        self, method: str, path: str, query: str, body: bytes
    ) -> tuple[int, dict | str]:
        try:
            if path == "/v1/run":
                if method != "POST":
                    return 405, {"error": "use POST for /v1/run"}
                try:
                    request = json.loads(body.decode("utf-8") or "null")
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    return 400, {"error": f"request body is not valid JSON: {error}"}
                return 200, await self.service.run_request(request)
            if method != "GET":
                return 405, {"error": f"use GET for {path}"}
            if path == "/v1/health":
                return 200, {
                    "status": "ok",
                    "api_version": API_VERSION,
                    "default_engine": DEFAULT_ENGINE,
                    "engines": list(available_engines()),
                }
            if path == "/v1/metrics":
                # Prometheus text by default; ?format=json keeps the legacy
                # counter document for JSON dashboards and the test client.
                wire_format = parse_qs(query).get("format", ["prometheus"])[-1]
                if wire_format == "json":
                    return 200, self.service.metrics()
                if wire_format != "prometheus":
                    return 400, {
                        "error": f"unknown metrics format {wire_format!r}; "
                        "use 'prometheus' (default) or 'json'"
                    }
                return 200, self.service.prometheus()
            if path == "/v1/scenarios":
                return 200, self.service.scenarios()
            return 404, {"error": f"unknown path {path!r} (routes live under /v1)"}
        except ExperimentError as error:
            return 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 — a bad request must not kill the server
            return 500, {"error": f"internal error: {type(error).__name__}: {error}"}

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter, status: int, payload: dict | str, keep_alive: bool
    ) -> None:
        if isinstance(payload, str):
            # The Prometheus exposition: already-rendered text.
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        phrase = _STATUS_PHRASES.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
