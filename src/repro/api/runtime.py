"""The service substrate: a real-time, sim-shaped runtime (E23).

Every observability instrument in this library — :class:`~repro.telemetry.
spans.Tracer`, :class:`~repro.telemetry.health.HealthMonitor`,
:class:`~repro.telemetry.health.AlertEngine`, :func:`~repro.telemetry.
exposition.write_bundle` — was built against the discrete-event
:class:`~repro.sim.simulator.Simulator`'s small surface: ``.now``,
``.metrics``, ``.telemetry``, ``.trace``, ``.record()``, ``.every()``.
A long-running control plane is not a simulation, but it needs exactly
those instruments watching *itself*.  :class:`ServiceRuntime` provides
the same surface over a real clock, so the whole E19/E20 stack serves
the API unchanged — same span grammar, same SLI estimators, same alert
rules the fleet uses.

Periodic tasks (the health monitor's sampling tick) are **pumped**, not
threaded: :meth:`ServiceRuntime.pump` runs every task that has come due
on the current clock.  The HTTP layer pumps from a small asyncio loop;
tests install a :class:`ManualClock` and pump deterministically.  Lazy
span roots are seeded exactly like :class:`~repro.sim.simulator.
PeriodicTask` does, so an idle monitor tick allocates no spans.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Optional

from repro.sim.metrics import MetricsRegistry
from repro.sim.tracing import TraceRecorder
from repro.telemetry.spans import Tracer

#: Trace records a service retains; later records are counted as
#: dropped (spans keep the :class:`Tracer` default cap).
TRACE_CAPACITY = 100_000


class ManualClock:
    """A settable clock for deterministic tests: ``advance`` moves time."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += delta
        return self._now

    def set(self, now: float) -> None:
        if now < self._now:
            raise ValueError("cannot set a clock backwards")
        self._now = float(now)


class MonotonicClock:
    """Wall-adjacent clock starting at 0.0 (``time.monotonic`` offset)."""

    def __init__(self):
        self._origin = _time.monotonic()

    def __call__(self) -> float:
        return _time.monotonic() - self._origin


class RuntimePeriodicTask:
    """One pumped periodic callback (the sim's ``PeriodicTask`` analogue)."""

    __slots__ = ("runtime", "interval", "label", "fired", "_callback",
                 "_args", "_next_due", "_cancelled")

    def __init__(self, runtime: "ServiceRuntime", interval: float,
                 callback: Callable[..., Any], args: tuple, label: str,
                 start_after: Optional[float]):
        self.runtime = runtime
        self.interval = interval
        self.label = label
        self.fired = 0
        self._callback = callback
        self._args = args
        delay = interval if start_after is None else start_after
        self._next_due = runtime.now + delay
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True

    def run_due(self, now: float, max_catchup: int = 64) -> int:
        """Fire every occurrence due at or before ``now``; returns count.

        A runtime that slept through several intervals catches up with at
        most ``max_catchup`` back-to-back firings, then re-anchors on the
        current clock — a stalled pump must not replay an unbounded
        backlog of monitor ticks.
        """
        ran = 0
        tracer = self.runtime.telemetry
        while not self._cancelled and self._next_due <= now:
            self.fired += 1
            ran += 1
            if tracer.enabled and tracer.current is None:
                # Lazy root, exactly like the simulator's PeriodicTask:
                # a tick that mints no downstream span allocates nothing.
                tracer.pending_root = (self.label, self.runtime.now)
                try:
                    self._callback(*self._args)
                finally:
                    tracer.pending_root = None
                    tracer.current = None
            else:
                self._callback(*self._args)
            self._next_due += self.interval
            if ran >= max_catchup:
                self._next_due = now + self.interval
                break
        return ran


class ServiceRuntime:
    """Sim-shaped substrate for a long-running service.

    Exposes the instrument surface (``now``/``metrics``/``telemetry``/
    ``trace``/``record``/``every``/``events_processed``) so health
    monitors, alert engines, audit sinks, and bundle exports built for
    the simulator observe the service without modification.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 spans_enabled: bool = True):
        self.clock = clock if clock is not None else MonotonicClock()
        self.metrics = MetricsRegistry()
        self.telemetry = Tracer(enabled=spans_enabled, clock=lambda: self.now)
        self.trace = TraceRecorder(capacity=TRACE_CAPACITY,
                                   enabled=spans_enabled)
        #: Requests handled (the bundle manifest's ``events_processed``).
        self.events_processed = 0
        self.started_at = self.now
        self._tasks: list[RuntimePeriodicTask] = []

    @property
    def now(self) -> float:
        return self.clock()

    def uptime(self) -> float:
        return self.now - self.started_at

    # -- the simulator surface --------------------------------------------------

    def record(self, kind: str, subject: str, **detail) -> None:
        """Record a trace event stamped with the current clock."""
        self.trace.record(self.now, kind, subject, **detail)

    def every(self, interval: float, callback: Callable[..., Any], *args: Any,
              start_after: Optional[float] = None,
              label: str = "") -> RuntimePeriodicTask:
        """Register a pumped periodic task (the sim's ``every`` analogue)."""
        if interval <= 0:
            raise ValueError(f"periodic interval must be positive, got {interval}")
        task = RuntimePeriodicTask(self, interval, callback, args, label,
                                   start_after)
        self._tasks.append(task)
        return task

    # -- pumping ----------------------------------------------------------------

    def pump(self) -> int:
        """Run every periodic task that has come due; returns firings."""
        now = self.now
        ran = 0
        cancelled = False
        for task in self._tasks:
            if task.cancelled:
                cancelled = True
                continue
            ran += task.run_due(now)
        if cancelled:
            self._tasks = [task for task in self._tasks if not task.cancelled]
        return ran

    def min_interval(self) -> Optional[float]:
        """The tightest registered interval (the pump loop's sleep hint)."""
        live = [task.interval for task in self._tasks if not task.cancelled]
        return min(live) if live else None
