"""Transports for the JSON-RPC dispatcher.

Two implementations of the same tiny contract — ``request(obj, now_us)
-> response dict``:

* :class:`SimTransport` — the deterministic in-process transport every
  test, chaos scenario and CI job uses.  It round-trips each request
  through JSON text (so serialization bugs cannot hide) and charges a
  fixed simulated cost per request; no sockets, no threads, no wall
  clock.
* :func:`serve_http` — an optional real asyncio HTTP server for demos,
  built on the standard library only.  One POST = one JSON-RPC request.
  Nothing in the library depends on it; CI never starts it.
"""

from __future__ import annotations

import asyncio
import json

from .dispatcher import RpcDispatcher


class SimTransport:
    """Deterministic in-process transport: each request makes the full JSON
    text round trip through the dispatcher, and ``requests`` counts them."""

    def __init__(self, dispatcher: RpcDispatcher) -> None:
        self.dispatcher = dispatcher
        self.requests = 0

    def request(self, payload, now_us: float = 0.0) -> dict:
        """Serve one request object, via the full text round trip."""
        self.requests += 1
        raw = json.dumps(payload, sort_keys=True)
        return json.loads(self.dispatcher.handle(raw, now_us))


async def _serve_connection(dispatcher: RpcDispatcher, reader, writer) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            # Minimal HTTP/1.1: swallow headers, honour Content-Length.
            content_length = 0
            while line not in (b"\r\n", b"\n", b""):
                if line.lower().startswith(b"content-length:"):
                    content_length = int(line.split(b":", 1)[1])
                line = await reader.readline()
            body = await reader.readexactly(content_length) if content_length else b""
            response = dispatcher.handle(body.decode("utf-8", "replace"))
            payload = response.encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
                b"\r\n" + payload
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def serve_http(
    dispatcher: RpcDispatcher, host: str = "127.0.0.1", port: int = 8545
):
    """Start an asyncio HTTP server around ``dispatcher``; returns it.

    The caller owns the server's lifetime (``server.close()`` /
    ``await server.wait_closed()``).  Demo quality by design: no TLS, no
    keep-alive edge cases, no batching — the simulated transport is the
    contractual surface.
    """
    return await asyncio.start_server(
        lambda r, w: _serve_connection(dispatcher, r, w), host, port
    )


async def http_request(payload, host: str = "127.0.0.1", port: int = 8545) -> dict:
    """One-shot HTTP client for the demo server (tests and `repro serve`)."""
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload, sort_keys=True).encode()
    writer.write(
        b"POST / HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    await writer.drain()
    status = await reader.readline()
    if not status.startswith(b"HTTP/1.1 200"):
        raise ConnectionError(f"unexpected response: {status!r}")
    content_length = 0
    line = await reader.readline()
    while line not in (b"\r\n", b"\n", b""):
        if line.lower().startswith(b"content-length:"):
            content_length = int(line.split(b":", 1)[1])
        line = await reader.readline()
    body = await reader.readexactly(content_length)
    writer.close()
    return json.loads(body)
