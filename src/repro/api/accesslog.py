"""Structured access logging in the telemetry-bundle format (E23).

One JSON object per handled request — timestamp, endpoint, status,
principal, reject reason, trace id, latency — retained in a bounded
in-memory ring (so `/health` style introspection and the bundle's
``access.jsonl`` stream never grow without bound) and optionally
streamed line-by-line to a JSONL file for tailing a live service.  The
streamed file is a live log, not a bundle artifact: it is appended to
and flushed per request, and its size is the deployment's to manage.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional


class AccessLog:
    """Bounded ring of access records with an optional JSONL stream."""

    def __init__(self, capacity: int = 10_000, path: Optional[str] = None):
        if capacity < 1:
            raise ValueError("access log capacity must be >= 1")
        self.capacity = capacity
        self.path = path
        self.written = 0
        self._ring: deque = deque(maxlen=capacity)
        self._handle = None
        if path is not None:
            self._handle = open(path, "a", encoding="utf-8")

    def log(self, record: dict) -> None:
        """Retain (and stream, if configured) one request record."""
        self._ring.append(record)
        self.written += 1
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True, default=str)
                               + "\n")
            self._handle.flush()

    def tail(self, n: int = 50) -> list:
        """The most recent ``n`` records, oldest first."""
        if n <= 0:
            return []
        ring = self._ring
        if n >= len(ring):
            return list(ring)
        return list(ring)[-n:]

    def __len__(self) -> int:
        return len(self._ring)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
