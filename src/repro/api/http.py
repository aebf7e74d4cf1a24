"""Stdlib asyncio HTTP/1.1 front end for the control plane (E23).

A deliberately small server — request line, headers, ``Content-Length``
bodies, keep-alive, pipelining — because the interesting work lives in
:class:`~repro.api.service.ControlPlane`; this layer only parses bytes,
calls :meth:`~repro.api.service.ControlPlane.handle_request`, and
writes the response (echoing the request's trace id as ``X-Trace-Id``).

Each connection is one :class:`_Connection`, an
:class:`asyncio.BufferedProtocol` that owns one receive buffer for its
whole life: the transport ``recv_into``s the buffer's free tail, so a
read allocates nothing, and the protocol answers every complete request
in the buffer synchronously, in order, with one ``transport.write``
each.  The buffer is replaced by a larger copy only when one request
does not fit, and shrinks back once it drains.  Flow control follows
the transport: when its write buffer passes the high-water mark
(``pause_writing``) the connection stops reading, and when it drains
(``resume_writing``) it answers what is already buffered and reads
again, so a client that never reads its answers holds at most one
write buffer and one receive buffer of server memory.

The server also owns the **pump task**: a background coroutine calling
:meth:`~repro.api.runtime.ServiceRuntime.pump` on a cadence derived
from the tightest registered periodic interval, so the health monitor
keeps sampling (and alerts keep firing/clearing) even when no requests
arrive — an always-on watcher must not depend on traffic to notice it
is unhealthy.

:class:`ServerThread` runs the whole loop in a daemon thread for tests,
benchmarks, and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional
from urllib.parse import parse_qsl

MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
#: A connection's receive buffer: room for the largest head and the
#: bodies of everything but big ``/batch`` requests.
BUFFER_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 401: "Unauthorized",
    404: "Not Found", 405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Connection(asyncio.BufferedProtocol):
    """One client connection: a reused receive buffer and the requests
    in it.

    ``buffer[start:end]`` holds the bytes received and not yet served;
    ``scan`` is where the search for the end of the head resumes.  Once
    a head is parsed, ``pending`` holds ``(method, target, headers,
    length)`` and ``start`` points at its body.
    """

    def __init__(self, server: "HttpServer"):
        self.server = server
        self.transport = None
        self.remote = ""
        self.buffer = bytearray(BUFFER_BYTES)
        self.view = memoryview(self.buffer)
        self.start = self.end = self.scan = 0
        self.pending: Optional[tuple] = None
        self.paused = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server.connections += 1
        self.server._transports.add(transport)
        peer = transport.get_extra_info("peername")
        self.remote = f"{peer[0]}:{peer[1]}" if peer else ""

    def connection_lost(self, exc) -> None:
        self.server._transports.discard(self.transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        # ``_settle`` leaves the tail non-empty whenever reading is on.
        return self.view if self.end == 0 else self.view[self.end:]

    def buffer_updated(self, nbytes: int) -> None:
        self.end += nbytes
        self._serve()

    def eof_received(self) -> bool:
        if self.pending is None and self.start < self.end:
            self._refuse("truncated request head")
        # EOF inside a body closes with no response, like a clean EOF.
        return False

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self._serve()
        if not self.paused:
            self.transport.resume_reading()

    # -- requests ------------------------------------------------------------

    def _serve(self) -> None:
        """Answer every complete request in the buffer, in order."""
        transport = self.transport
        while not self.paused and not transport.is_closing():
            if self.pending is None and not self._read_head():
                break
            method, target, headers, length = self.pending
            body_end = self.start + length
            if self.end < body_end:
                break
            body = bytes(self.view[self.start:body_end]) if length else b""
            self.start = self.scan = body_end
            self.pending = None
            path, _, query = target.partition("#")[0].partition("?")
            server = self.server
            response = server.plane.handle_request(
                method, path, query=dict(parse_qsl(query)) if query else {},
                headers=headers, body=body, remote=self.remote)
            server.requests += 1
            keep_alive = (headers.get("connection", "keep-alive").lower()
                          != "close")
            self._respond(response, keep_alive)
            if not keep_alive:
                transport.close()
        if not transport.is_closing():
            self._settle()

    def _read_head(self) -> bool:
        """Parse the head at ``start`` into ``pending``; ``False`` when
        it is incomplete or refused."""
        start = self.start
        found = self.buffer.find(b"\r\n\r\n", self.scan, self.end)
        if found < 0:
            if self.end - start >= MAX_HEADER_BYTES:
                self._refuse("request head too large")
            else:
                self.scan = max(start, self.end - 3)
            return False
        head_end = found + 4
        if head_end - start > MAX_HEADER_BYTES:
            self._refuse("request head too large")
            return False
        head = str(self.view[start:found], "latin-1").split("\r\n")
        parts = head[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            self._refuse("malformed request line")
            return False
        headers: dict = {}
        for line in head[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                self._refuse("malformed header")
                return False
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            self._refuse("bad content-length")
            return False
        if length < 0 or length > MAX_BODY_BYTES:
            self._refuse("body too large")
            return False
        self.pending = (parts[0].upper(), parts[1], headers, length)
        self.start = self.scan = head_end
        return True

    def _settle(self) -> None:
        """Make room in the buffer for the rest of the request it ends
        in.  The transport may still hold a view of the buffer, so it is
        never resized: bytes move to the front in place, or to a larger
        (or, once drained, a fresh) buffer."""
        start, end, size = self.start, self.end, len(self.buffer)
        if start == end:
            self.start = self.end = self.scan = 0
            if size > BUFFER_BYTES:
                self._replace(BUFFER_BYTES)
            return
        need = MAX_HEADER_BYTES if self.pending is None else self.pending[3]
        if start + need <= size:
            return
        if need > size:
            self._replace(need)
        else:
            self.buffer[:end - start] = self.buffer[start:end]
        self.end -= start
        self.scan -= start
        self.start = 0

    def _replace(self, size: int) -> None:
        buffer = bytearray(size)
        buffer[:self.end - self.start] = self.view[self.start:self.end]
        self.buffer, self.view = buffer, memoryview(buffer)

    def _respond(self, response, keep_alive: bool) -> None:
        body = response.body_bytes()
        head = (f"HTTP/1.1 {response.status} "
                f"{_STATUS_TEXT.get(response.status, 'Unknown')}\r\n"
                f"Content-Type: {response.content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n")
        if response.trace_id is not None:
            head += f"X-Trace-Id: {response.trace_id}\r\n"
        self.transport.write((head + "\r\n").encode("latin-1") + body)

    def _refuse(self, detail: str) -> None:
        """Answer 400 and close: the stream can no longer be framed."""
        body = (f'{{"error": "bad-request", "detail": "{detail}"}}\n'
                .encode("utf-8"))
        self.transport.write((
            f"HTTP/1.1 400 {_STATUS_TEXT[400]}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1") + body)
        self.transport.close()


class HttpServer:
    """Asyncio server bound to one :class:`ControlPlane`: one
    :class:`_Connection` protocol per client, plus the pump task."""

    def __init__(self, plane, host: str = "127.0.0.1", port: int = 0):
        self.plane = plane
        self.host = host
        self.port = port
        self.connections = 0
        self.requests = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task = None
        self._transports: set = set()

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (port 0 resolves on start)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return (host, port)

    def _pump_interval(self) -> float:
        tightest = self.plane.runtime.min_interval()
        if tightest is None:
            return 0.25
        return min(0.5, max(0.02, tightest / 2.0))

    async def _pump_loop(self) -> None:
        interval = self._pump_interval()
        while True:
            await asyncio.sleep(interval)
            self.plane.runtime.pump()

    async def start(self) -> tuple:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port)
        self._pump_task = asyncio.ensure_future(self._pump_loop())
        return self.address

    async def stop(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            # Await the cancellation: an unawaited cancelled task dies
            # noisily in the event loop's destructor.
            await asyncio.gather(self._pump_task, return_exceptions=True)
            self._pump_task = None
        if self._server is not None:
            self._server.close()
            # Open connections, idle keep-alive ones included, end now;
            # a client's unread answers are dropped.
            for transport in list(self._transports):
                transport.abort()
            await self._server.wait_closed()
            self._server = None
        # Let the aborted transports close their sockets.
        await asyncio.sleep(0)


async def serve(plane, host: str = "127.0.0.1", port: int = 8733) -> None:
    """Run the server until cancelled (the ``python -m repro.api`` path)."""
    server = HttpServer(plane, host, port)
    bound_host, bound_port = await server.start()
    print(f"repro.api control plane listening on "          # noqa: T201
          f"http://{bound_host}:{bound_port}")
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()


class ServerThread:
    """A control-plane server on a daemon thread (tests, bench, CI smoke)."""

    def __init__(self, plane, host: str = "127.0.0.1", port: int = 0):
        self.plane = plane
        self.server = HttpServer(plane, host, port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self.address: Optional[tuple] = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            self.address = loop.run_until_complete(self.server.start())
        except BaseException as exc:     # surface bind errors to start()
            self._failure = exc
            loop.close()
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def start(self, timeout: float = 10.0) -> tuple:
        self._thread = threading.Thread(target=self._run,
                                        name="e23-http-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread did not become ready")
        if self._failure is not None:
            raise RuntimeError(f"server failed to start: {self._failure}")
        return self.address

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread.  Idempotent, and a no-op
        before :meth:`start`: only the first call asks a live loop to stop
        (once ``_run`` returns, the loop is closed)."""
        loop, self._loop = self._loop, None
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
