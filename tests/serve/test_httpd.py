"""The stdlib asyncio HTTP layer: framing, limits, live round-trips."""

import asyncio
import json

import pytest

from repro.errors import RequestError
from repro.serve import httpd
from repro.serve.httpd import HttpServer, Request, Response, read_request


def decode(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return status, headers, body


class TestResponse:
    def test_json_encoding(self):
        status, headers, body = decode(
            Response(payload={"b": 2, "a": 1}).encode())
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        assert body == b'{"a": 1, "b": 2}'

    def test_text_encoding(self):
        status, headers, body = decode(
            Response(status=503, text="nope").encode())
        assert status == 503
        assert headers["Content-Type"].startswith("text/plain")
        assert body == b"nope"

    def test_unknown_status_still_encodes(self):
        status, _headers, _body = decode(Response(status=418).encode())
        assert status == 418


class TestRequestJson:
    def test_empty_body_is_empty_object(self):
        request = Request("POST", "/run", {}, {}, b"")
        assert request.json() == {}

    def test_bad_json_raises_request_error(self):
        request = Request("POST", "/run", {}, {}, b"{nope")
        with pytest.raises(RequestError):
            request.json()


async def _roundtrip(raw: bytes, handler=None, *,
                     half_close: bool = False) -> bytes:
    """Send raw bytes to a live server, return the raw response."""
    async def echo(request: Request) -> Response:
        return Response(payload={
            "method": request.method, "path": request.path,
            "query": request.query,
            "body": request.body.decode("utf-8")})

    server = HttpServer(handler or echo, port=0)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        writer.write(raw)
        await writer.drain()
        if half_close:
            writer.write_eof()
        response = await reader.read()
        writer.close()
        return response
    finally:
        await server.stop()


class TestServerRoundtrip:
    def test_request_with_body(self):
        body = b'{"x": 1}'
        raw = (b"POST /run?mode=fast HTTP/1.1\r\n"
               b"Content-Type: application/json\r\n"
               b"Content-Length: " + str(len(body)).encode() + b"\r\n"
               b"\r\n" + body)
        status, _headers, payload = decode(
            asyncio.run(_roundtrip(raw)))
        data = json.loads(payload)
        assert status == 200
        assert data == {"method": "POST", "path": "/run",
                        "query": {"mode": "fast"}, "body": '{"x": 1}'}

    def test_malformed_request_line_is_400(self):
        status, _headers, payload = decode(
            asyncio.run(_roundtrip(b"NONSENSE\r\n\r\n")))
        assert status == 400
        assert json.loads(payload)["error"] == "bad-request"

    def test_truncated_body_is_400(self):
        raw = (b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        status, _headers, payload = decode(
            asyncio.run(_roundtrip(raw, half_close=True)))
        assert status == 400

    def test_stalled_client_gets_408_not_a_hung_read(self, monkeypatch):
        # Short body, connection held open: the read deadline answers.
        monkeypatch.setattr(httpd, "REQUEST_TIMEOUT", 0.1)
        raw = (b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
        status, _headers, payload = decode(
            asyncio.run(_roundtrip(raw)))
        assert status == 408
        assert "timed out" in json.loads(payload)["message"]

    def test_bad_content_length_is_400(self):
        raw = b"POST /run HTTP/1.1\r\nContent-Length: pony\r\n\r\n"
        status, _headers, _payload = decode(
            asyncio.run(_roundtrip(raw)))
        assert status == 400

    def test_ephemeral_port_resolved(self):
        async def scenario():
            server = HttpServer(lambda request: None, port=0)
            await server.start()
            port = server.port
            await server.stop()
            return port

        assert asyncio.run(scenario()) > 0


class TestReadRequestLimits:
    def test_closed_connection_returns_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_request(reader)

        assert asyncio.run(scenario()) is None

    def test_header_without_colon_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n")
            reader.feed_eof()
            with pytest.raises(RequestError):
                await read_request(reader)

        asyncio.run(scenario())
