"""Admission control for the control plane: API keys + token buckets (E23).

Mirrors the E21 gateway's posture at the HTTP edge: *verify, then
serve*.  Every reject is metered (``api.errors.<reason>``), traced
(``api.reject`` spans under the request root), and trace-recorded, so a
credential-stuffing burst or a runaway client is as observable as a
forged kill order.

Rate limiting is a classic token bucket per principal: ``rate`` tokens
per second refill up to ``burst``.  The bucket reads the runtime clock,
so tests drive it deterministically with a :class:`~repro.api.runtime.
ManualClock`.
"""

from __future__ import annotations

from typing import Optional

#: Stable admission-rejection reasons (metric suffixes).
ADMISSION_REASONS = ("unauthorized", "rate-limited")


class TokenBucket:
    """``rate`` tokens/second refilling to ``burst``; ``allow`` consumes."""

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last: Optional[float] = None

    def allow(self, now: float, cost: float = 1.0) -> bool:
        last = self._last
        if last is not None and now > last:
            self._tokens = min(self.burst, self._tokens + (now - last) * self.rate)
        self._last = now if last is None or now > last else last
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False


class AdmissionControl:
    """API-key authentication plus per-principal rate limiting.

    ``api_keys`` maps secret key -> principal name; ``None`` disables
    authentication (every caller is ``"anonymous"``).  ``rate`` /
    ``burst`` arm the per-principal token bucket; ``rate=None`` disables
    limiting.  Endpoints in ``open_endpoints`` (liveness and metrics
    scrapes by convention) bypass both checks.
    """

    def __init__(self, runtime, api_keys: Optional[dict] = None,
                 rate: Optional[float] = None, burst: float = 20.0,
                 open_endpoints: tuple = ("health", "metrics")):
        self.runtime = runtime
        self.api_keys = dict(api_keys) if api_keys else None
        self.rate = rate
        self.burst = burst
        self.open_endpoints = tuple(open_endpoints)
        self._buckets: dict = {}
        metrics = runtime.metrics
        self._admitted = metrics.counter("api.admitted")
        self._rejected = metrics.counter("api.admission_rejected")

    def principal_for(self, headers: dict) -> Optional[str]:
        """The principal an ``x-api-key`` header authenticates, if any."""
        if self.api_keys is None:
            return "anonymous"
        key = headers.get("x-api-key")
        if key is None:
            auth = headers.get("authorization", "")
            if auth.lower().startswith("bearer "):
                key = auth[7:].strip()
        if key is None:
            return None
        return self.api_keys.get(key)

    def admit(self, endpoint: str, headers: dict) -> tuple:
        """``(principal, None)`` when admitted, ``(best_guess, reason)``
        when rejected — reasons are :data:`ADMISSION_REASONS` slugs."""
        if endpoint in self.open_endpoints:
            return (self.principal_for(headers) or "anonymous", None)
        principal = self.principal_for(headers)
        if principal is None:
            self._rejected.inc()
            return (None, "unauthorized")
        if self.rate is not None:
            bucket = self._buckets.get(principal)
            if bucket is None:
                bucket = self._buckets[principal] = TokenBucket(self.rate,
                                                                self.burst)
            if not bucket.allow(self.runtime.now):
                self._rejected.inc()
                return (principal, "rate-limited")
        self._admitted.inc()
        return (principal, None)
