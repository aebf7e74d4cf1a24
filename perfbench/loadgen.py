"""Control-plane load: server lifecycle and closed/open-loop generators.

The server is ``python -m repro.api --port 0`` (or the traced launcher)
in its own process; load comes from this process over at most
``MAX_CONNECTIONS`` keep-alive connections, one thread each.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from time import perf_counter

import stats

MAX_CONNECTIONS = 2
PR_SET_TIMERSLACK = 29
PATHS = {"evaluate": b"/evaluate", "batch": b"/batch", "metrics": b"/metrics",
         "health": b"/health"}


class Connection:
    """A minimal HTTP/1.1 keep-alive client over one socket."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, method: bytes, path: bytes, body: bytes = b"") -> tuple:
        head = (method + b" " + path + b" HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n")
        self.sock.sendall(head + body)
        buffer = self.buffer
        while b"\r\n\r\n" not in buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self.buffer = rest[length:]
        return status, rest[:length]

    def close(self) -> None:
        self.sock.close()


class Server:
    """One control-plane server process."""

    def __init__(self, root: str, traced: bool = False, ledger_out: str = ""):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        if traced:
            cmd = [sys.executable, os.path.join(root, "perfbench", "serve_traced.py"),
                   "--ledger-out", ledger_out, "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "repro.api", "--port", "0"]
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.host, self.port = "127.0.0.1", self._read_port(timeout=60.0)
        self.rusage = None

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                self.stop()
                raise RuntimeError("control plane did not report its port")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                self.stop()
                raise RuntimeError("control plane exited before listening")
            line += chunk
        return int(line.strip().rsplit(b":", 1)[1])

    def wait_healthy(self, timeout: float = 30.0) -> float:
        """Poll ``/health`` until it answers 200; returns the monotonic time."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                conn = Connection(self.host, self.port, timeout=5.0)
                try:
                    status, _ = conn.request(b"GET", PATHS["health"])
                finally:
                    conn.close()
                if status == 200:
                    return time.monotonic()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("control plane never answered /health")
            time.sleep(0.01)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT, reap with ``wait4`` (keeping the child's rusage), and
        kill if it does not exit in time."""
        if self.proc.returncode is not None or self.rusage is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                self.rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            time.sleep(0.01)
        self.proc.stdout.close()

    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0


def request_bytes(mix, kind: str, index: int) -> tuple:
    if kind == "evaluate":
        return b"POST", PATHS["evaluate"], mix.evaluate[index]
    if kind == "batch":
        return b"POST", PATHS["batch"], mix.batch[index]
    return b"GET", PATHS[kind], b""


def _keep(kind: str, index: int, status: int, body: bytes) -> tuple:
    """What verification needs later (metrics bodies are only status-checked)."""
    return (kind, index, status, body if kind != "metrics" else b"")


def serial(server: Server, mix, plan: list) -> tuple:
    """Run ``plan`` back to back on one connection.
    Returns ``(wall_s, latencies_s, responses)``."""
    conn = Connection(server.host, server.port)
    latencies, responses = [], []
    try:
        started = perf_counter()
        for kind, index in plan:
            sent = perf_counter()
            status, body = conn.request(*request_bytes(mix, kind, index))
            latencies.append(perf_counter() - sent)
            responses.append(_keep(kind, index, status, body))
        wall = perf_counter() - started
    finally:
        conn.close()
    return wall, latencies, responses


def tight_timers() -> None:
    """Cut this thread's timer slack (and that of the threads and
    processes it starts) from Linux's default 50 us to 1 ns, so the
    open-loop generator wakes at a request's due time rather than
    anywhere up to 50 us after it."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def connect(server: Server) -> list:
    """``MAX_CONNECTIONS`` keep-alive connections to ``server``."""
    return [Connection(server.host, server.port) for _ in range(MAX_CONNECTIONS)]


def close_all(connections: list) -> None:
    for conn in connections:
        conn.close()


def closed_loop(connections: list, mix, plan: list) -> tuple:
    """Send all of ``plan`` over ``connections``, one client thread each,
    each sending its next request as soon as the previous one completes.
    Returns ``(wall_s, responses, errors)``: wall runs from the start to
    the last completion."""
    cursor = itertools.count()
    results: list = [[] for _ in connections]
    finished: list = [0.0 for _ in connections]
    errors: list = []

    def client(slot: int) -> None:
        conn = connections[slot]
        try:
            for i in iter(cursor.__next__, None):
                if i >= len(plan):
                    break
                kind, index = plan[i]
                status, body = conn.request(*request_bytes(mix, kind, index))
                finished[slot] = perf_counter()
                results[slot].append(_keep(kind, index, status, body))
        except OSError as error:
            errors.append(repr(error))

    start = perf_counter()
    _run_threads(client, len(connections))
    return (max(finished) - start, [item for chunk in results for item in chunk], errors)


def open_loop(connections: list, mix, plan: list, due: list) -> tuple:
    """Send ``plan[i]`` at ``due[i]`` seconds after the phase starts over
    ``connections``.  Latency runs from the due time.  Returns
    ``(latencies_s, lags_s, responses, errors)``; the two lists are
    indexed like ``plan``, ``None`` where a request never completed."""
    cursor = itertools.count()
    latencies: list = [None] * len(plan)
    lags: list = [None] * len(plan)
    results: list = [[] for _ in connections]
    errors: list = []
    start = perf_counter() + 0.01

    def client(slot: int) -> None:
        conn = connections[slot]
        try:
            for i in iter(cursor.__next__, None):
                if i >= len(plan):
                    break
                free_at = perf_counter()
                due_at = start + due[i]
                if due_at > free_at:
                    time.sleep(due_at - free_at)
                sent = perf_counter()
                kind, index = plan[i]
                status, body = conn.request(*request_bytes(mix, kind, index))
                done = perf_counter()
                latencies[i] = stats.due_latency(due_at, done)
                lags[i] = stats.generator_lag(due_at, free_at, sent)
                results[slot].append(_keep(kind, index, status, body))
        except OSError as error:
            errors.append(repr(error))

    _run_threads(client, len(connections))
    return latencies, lags, [item for chunk in results for item in chunk], errors


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(slot,), daemon=True)
               for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")


OK_OUTCOMES = (b'"outcome": "executed"', b'"outcome": "substituted"',
               b'"outcome": "noop"')


def verify(mix, responses) -> tuple:
    """``(failed, outcomes)``: a response fails on a non-2xx status, an
    /evaluate outcome outside executed/substituted/noop, or /batch
    choices that differ from the scalar reference evaluator's."""
    failed = 0
    outcomes: dict = {}
    for kind, index, status, body in responses:
        if not 200 <= status < 300:
            failed += 1
            continue
        if kind == "evaluate":
            outcome = next((o for o in OK_OUTCOMES if o in body), None)
            if outcome is None:
                failed += 1
                continue
            name = outcome.rsplit(b'"', 2)[1].decode()
            outcomes[name] = outcomes.get(name, 0) + 1
        elif kind == "batch":
            if json.loads(body).get("chosen") != mix.batch_expected[index]:
                failed += 1
            else:
                outcomes["batch_rows"] = outcomes.get("batch_rows", 0) + len(
                    mix.batch_expected[index])
    return failed, outcomes
