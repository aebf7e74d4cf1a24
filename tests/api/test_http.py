"""The asyncio HTTP front end, exercised over real sockets."""

from __future__ import annotations

import gc
import http.client
import json
import socket

import pytest

from repro.api.http import ServerThread
from repro.api.service import ControlPlane, ControlPlaneConfig


@pytest.fixture(autouse=True)
def collect_garbage():
    """Collect cycles after each test, so a transport or socket the
    server left open warns (``ResourceWarning``) inside that test."""
    yield
    gc.collect()


@pytest.fixture()
def server():
    plane = ControlPlane(config=ControlPlaneConfig(
        workers=0, monitor_interval=0.2))
    thread = ServerThread(plane)
    host, port = thread.start()
    yield plane, host, port
    thread.stop()
    plane.close()


def request(host, port, method, path, payload=None, headers=None):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


class TestRoundTrip:
    def test_evaluate_over_the_wire_echoes_the_trace_id(self, server):
        plane, host, port = server
        status, headers, data = request(
            host, port, "POST", "/evaluate",
            {"event": {"kind": "mgmt.command.move"}})
        assert status == 200
        payload = json.loads(data)
        assert payload["outcome"] == "executed"
        assert headers["X-Trace-Id"] == payload["trace_id"]
        # The trace the header names is replayable from the same server.
        status, _, data = request(
            host, port, "GET", f"/explain?trace_id={payload['trace_id']}")
        assert status == 200
        assert "api.request" in json.loads(data)["kinds"]

    def test_unknown_path_is_404_json(self, server):
        _plane, host, port = server
        status, _headers, data = request(host, port, "GET", "/nope")
        assert status == 404
        assert json.loads(data)["error"] == "not-found"

    def test_metrics_scrape_is_prometheus_text(self, server):
        _plane, host, port = server
        status, headers, data = request(host, port, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"# TYPE api_requests counter" in data


class TestKeepAlive:
    def test_two_requests_ride_one_connection(self, server):
        plane, host, port = server
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/health")
            first = conn.getresponse()
            first.read()
            assert first.status == 200
            conn.request("GET", "/health")
            second = conn.getresponse()
            second.read()
            assert second.status == 200
        finally:
            conn.close()
        assert plane.runtime.events_processed >= 2

    def test_connection_close_is_honoured(self, server):
        _plane, host, port = server
        status, headers, _data = request(host, port, "GET", "/health",
                                         headers={"Connection": "close"})
        assert status == 200
        assert headers["Connection"] == "close"


class TestMalformedInput:
    def test_garbage_request_line_is_400(self, server):
        _plane, host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_bad_content_length_is_400(self, server):
        _plane, host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /evaluate HTTP/1.1\r\n"
                         b"Content-Length: banana\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_post_body_round_trips_content_length(self, server):
        _plane, host, port = server
        status, _headers, data = request(
            host, port, "POST", "/jobs", {"kind": "noop"})
        assert status == 202
        assert json.loads(data)["job"]["status"] == "queued"


class TestPumpLoop:
    def test_monitor_ticks_without_any_traffic(self, server):
        import time

        plane, _host, _port = server
        deadline = time.monotonic() + 5.0
        while plane.monitor.ticks == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert plane.monitor.ticks > 0


class _Reader:
    """Reads HTTP/1.1 responses, one at a time, off a raw socket."""

    def __init__(self, sock):
        self.sock = sock
        self.data = b""

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.data += chunk
        return bool(chunk)

    def response(self) -> tuple:
        """``(status, headers, body)`` of the next response."""
        while b"\r\n\r\n" not in self.data:
            assert self._fill(), "EOF before a whole response head"
        head, _, rest = self.data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        self.data = rest
        while len(self.data) < length:
            assert self._fill(), "EOF inside a response body"
        body, self.data = self.data[:length], self.data[length:]
        return int(lines[0].split(" ")[1]), headers, body

    def at_eof(self) -> bool:
        return self.data == b"" and not self._fill()


def _raw(method: str, path: str, body: bytes = b"", extra: str = "") -> bytes:
    return (f"{method} {path} HTTP/1.1\r\nHost: test\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body


class TestBufferedProtocol:
    """The one-buffer-per-connection front end: framing, pipelining,
    buffer growth, refusals, flow control, shutdown."""

    def test_pipelined_requests_are_answered_in_order(self, server):
        _plane, host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(_raw("GET", "/nope")
                         + _raw("GET", "/health")
                         + _raw("POST", "/jobs", b'{"kind": "noop"}'))
            reader = _Reader(sock)
            statuses = [reader.response()[0] for _ in range(3)]
        assert statuses == [404, 200, 202]

    def test_a_request_sent_one_byte_at_a_time_is_answered(self, server):
        import time

        _plane, host, port = server
        payload = json.dumps({"event": {"kind": "mgmt.command.move"}})
        data = _raw("POST", "/evaluate", payload.encode())
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(data)):
                sock.send(data[i:i + 1])
                # Give the server time to read each byte on its own, so
                # the end of the head arrives split across reads.
                time.sleep(0.002)
            status, headers, body = _Reader(sock).response()
        assert status == 200
        assert json.loads(body)["trace_id"] == headers["x-trace-id"]

    def test_a_body_larger_than_the_buffer_round_trips(self, server):
        from repro.api.http import BUFFER_BYTES

        _plane, host, port = server
        rows = [{"speed": 10.0 + i % 90, "heat": 20.0 + i % 150,
                 "battery": 99.25, "civilians_near": i % 7,
                 "weapon_armed": False} for i in range(20_000)]
        body = json.dumps({"rows": rows}).encode()
        assert len(body) > 20 * BUFFER_BYTES
        with socket.create_connection((host, port), timeout=30) as sock:
            reader = _Reader(sock)
            # Twice on one connection: the grown buffer drains and the
            # next request still frames, and a small one after it too.
            for _ in range(2):
                sock.sendall(_raw("POST", "/batch", body))
                status, _headers, data = reader.response()
                assert status == 200
                assert len(json.loads(data)["chosen"]) == len(rows)
            sock.sendall(_raw("GET", "/health"))
            assert reader.response()[0] == 200

    def test_a_big_body_that_arrives_after_its_head_round_trips(
            self, server):
        import time

        _plane, host, port = server
        rows = [{"heat": 20.0 + i % 150, "battery": 99.25}
                for i in range(8_000)]
        body = json.dumps({"rows": rows}).encode()
        request = _raw("POST", "/batch", body)
        head_length = len(request) - len(body)
        with socket.create_connection((host, port), timeout=30) as sock:
            # The head alone, so the server has read all of it and none
            # of the body when it has to make room for the body.
            sock.sendall(request[:head_length])
            time.sleep(0.2)
            sock.sendall(request[head_length:])
            status, _headers, data = _Reader(sock).response()
        assert status == 200
        assert len(json.loads(data)["chosen"]) == len(rows)

    def test_a_head_over_the_limit_is_400_then_closed(self, server):
        from repro.api.http import MAX_HEADER_BYTES

        _plane, host, port = server
        big = "x" * (MAX_HEADER_BYTES + 10)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(_raw("GET", "/health", extra=f"X-Big: {big}\r\n"))
            reader = _Reader(sock)
            status, headers, body = reader.response()
            assert status == 400
            assert headers["connection"] == "close"
            assert json.loads(body)["detail"] == "request head too large"
            assert reader.at_eof()

    def test_eof_inside_a_head_is_400(self, server):
        _plane, host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: te")
            sock.shutdown(socket.SHUT_WR)
            reader = _Reader(sock)
            status, _headers, body = reader.response()
            assert status == 400
            assert json.loads(body)["detail"] == "truncated request head"
            assert reader.at_eof()

    def test_eof_inside_a_body_closes_with_no_response(self, server):
        plane, host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /evaluate HTTP/1.1\r\nContent-Length: 100"
                         b"\r\n\r\n{\"event\": ")
            sock.shutdown(socket.SHUT_WR)
            assert _Reader(sock).at_eof()

    def test_explain_query_is_parsed(self, server):
        _plane, host, port = server
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = _Reader(sock)
            sock.sendall(_raw("POST", "/evaluate", json.dumps(
                {"event": {"kind": "mgmt.command.move"}}).encode()))
            trace_id = json.loads(reader.response()[2])["trace_id"]
            sock.sendall(_raw("GET", f"/explain?trace_id={trace_id}#frag"))
            status, _headers, body = reader.response()
        assert status == 200
        assert "api.request" in json.loads(body)["kinds"]

    @pytest.mark.parametrize("target", [
        "/explain?trace_id=t3", "/explain?trace_id=t3&x=1&x=2",
        "/explain?trace_id=a%20b+c", "/jobs/j1", "/nope", "/metrics?",
        "/a?b#c", "/a#b?c", "/audit?limit=5&empty=&flag",
    ])
    def test_target_split_matches_urlsplit(self, server, target):
        from urllib.parse import parse_qsl, urlsplit

        plane, host, port = server
        seen = []
        original = plane.handle_request

        def spy(method, path, **kwargs):
            seen.append((path, kwargs["query"]))
            return original(method, path, **kwargs)

        plane.handle_request = spy
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(_raw("GET", target))
            _Reader(sock).response()
        parts = urlsplit(target)
        assert seen == [(parts.path, dict(parse_qsl(parts.query)))]

    def test_a_client_that_does_not_read_gets_every_answer_later(self):
        import time

        plane = ControlPlane(config=ControlPlaneConfig(
            workers=0, monitor_interval=0.2))
        thread = ServerThread(plane)
        host, port = thread.start()
        # Enough answers (about 3.6 KB each) to fill the kernel's socket
        # buffers, so the server's writes back up and it must pause.
        count = 2000
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(30)
            with sock:
                sock.connect((host, port))
                sock.sendall(_raw("GET", "/metrics") * count)
                served, deadline = -1, time.monotonic() + 10.0
                while (served != thread.server.requests
                       and time.monotonic() < deadline):
                    served = thread.server.requests
                    time.sleep(0.3)
                # Paused: the unread answers cap what the server holds.
                assert served < count
                (transport,) = thread.server._transports
                high_water = transport.get_write_buffer_limits()[1]
                assert transport.get_write_buffer_size() < high_water + 8192
                reader = _Reader(sock)
                statuses = [reader.response()[0] for _ in range(count)]
                assert statuses == [200] * count
                sock.sendall(_raw("GET", "/health"))
                assert reader.response()[0] == 200
        finally:
            thread.stop()
            plane.close()

    def test_stop_returns_promptly_with_an_idle_connection_open(self):
        import time

        plane = ControlPlane(config=ControlPlaneConfig(
            workers=0, monitor_interval=0.2))
        thread = ServerThread(plane)
        host, port = thread.start()
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(_raw("GET", "/health"))
                reader = _Reader(sock)
                assert reader.response()[0] == 200
                started = time.monotonic()
                thread.stop()
                elapsed = time.monotonic() - started
                # The server ended the idle connection on its way out.
                assert reader.at_eof()
        finally:
            plane.close()
        assert not thread._thread.is_alive()
        assert elapsed < 2.0
