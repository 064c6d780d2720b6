"""A minimal asyncio HTTP/1.1 layer for the analytics daemon.

The serving layer deliberately depends on nothing outside the standard
library: requests are parsed off :mod:`asyncio` streams directly (request
line, headers, ``Content-Length``-framed body) and responses are written
as ``Connection: close`` JSON documents. This is not a general web
server — it supports exactly what :mod:`repro.serve.app` routes — but it
is enough for production-shaped clients (``curl``, ``urllib``,
``http.client``) and keeps the daemon importable everywhere the library
is.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.errors import RequestError

#: Refuse unreasonable inputs instead of buffering them.
MAX_REQUEST_LINE = 8192
MAX_HEADER_LINES = 100
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body parsed as JSON; ``{}`` for an empty body."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise RequestError(f"request body is not valid JSON: {error}")


@dataclass
class Response:
    """One JSON (or plain-text) HTTP response."""

    status: int = 200
    payload: Optional[Any] = None
    text: Optional[str] = None
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        if self.text is not None:
            body = self.text.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            body = json.dumps(self.payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        lines.extend(f"{name}: {value}"
                     for name, value in self.headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + body


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a closed connection.

    Raises :class:`RequestError` on malformed framing — the caller answers
    with a 400 and closes.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise RequestError("request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise RequestError(f"malformed request line {line!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise RequestError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise RequestError("too many header lines")
    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise RequestError(f"bad Content-Length {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise RequestError(f"unacceptable Content-Length {length}")
    if length:
        body = await reader.readexactly(length)
    return Request(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


Handler = Callable[[Request], Awaitable[Response]]


#: Seconds a client gets to send its whole request. A client that stalls
#: mid-request (e.g. a short body under a larger Content-Length) gets a
#: 408 instead of a hung read.
REQUEST_TIMEOUT = 30.0


class HttpServer:
    """Serves ``handler`` over asyncio streams, one request per connection."""

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0):
        self.handler = handler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(read_request(reader),
                                                 REQUEST_TIMEOUT)
            except (RequestError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError) as error:
                if isinstance(error, asyncio.TimeoutError):
                    status, message = 408, "timed out reading the request"
                elif isinstance(error, RequestError):
                    status, message = 400, str(error)
                else:
                    status, message = 400, "truncated request body"
                response = Response(status=status, payload={
                    "error": "bad-request", "message": message,
                    "context": {}})
                writer.write(response.encode())
                await writer.drain()
                return
            if request is None:
                return
            response = await self.handler(request)
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
