"""The discrete-event simulator driving every experiment.

One :class:`Simulator` owns the clock, the event queue, a seeded RNG tree,
a metrics registry, and a trace recorder.  Components receive the simulator
at construction and schedule their behaviour through it; nothing in the
library reads wall-clock time.

Callbacks run under a :class:`Supervisor`: the ``propagate`` policy keeps
the historical behaviour (one raised exception aborts the run), while
``isolate`` and ``kill-device`` contain the blast radius of a faulty
device so one crashing handler cannot take down the fleet or the watchdog
observing it (the chaos experiments, E17).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.event_queue import EventQueue, ScheduledEvent
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import SeededRNG
from repro.sim.tracing import TraceRecorder
from repro.telemetry.spans import Tracer

#: Valid crash-supervision policies.
SUPERVISION_POLICIES = ("propagate", "isolate", "kill-device")


class Supervisor:
    """Crash containment for scheduled callbacks.

    * ``propagate`` — re-raise (the event aborts the run);
    * ``isolate`` — record the crash and keep running;
    * ``kill-device`` — isolate, and once a device's crash count reaches
      ``kill_threshold``, invoke the kill hook its owner registered
      (typically ``device.deactivate``).

    The crashing event's *owner* is derived from its label: everything
    before the first ``":"`` (the library-wide ``"<device_id>:<task>"``
    labelling convention); unlabelled events fall under ``"<anonymous>"``.
    """

    def __init__(self, sim: "Simulator", policy: str = "propagate",
                 kill_threshold: int = 1):
        if policy not in SUPERVISION_POLICIES:
            raise SimulationError(
                f"unknown supervision policy {policy!r}; "
                f"expected one of {SUPERVISION_POLICIES}"
            )
        if kill_threshold < 1:
            raise SimulationError("kill_threshold must be >= 1")
        self.sim = sim
        self.policy = policy
        self.kill_threshold = kill_threshold
        self.crash_counts: dict[str, int] = {}
        self.crashes: list[tuple] = []       # (time, owner, label, error repr)
        self._kill_hooks: dict[str, Callable[[str], None]] = {}
        self._kill_listeners: list[Callable[[str], None]] = []
        self._killed: set = set()

    def register_kill_hook(self, owner: str, hook: Callable[[str], None]) -> None:
        """``hook(reason)`` runs when ``owner`` exceeds the crash budget."""
        self._kill_hooks[owner] = hook

    def add_kill_listener(self, listener: Callable[[str], None]) -> None:
        """``listener(owner)`` runs after any kill hook fires — the
        durability layer hangs off this so a supervised kill wipes the
        victim's volatile state like any other crash."""
        self._kill_listeners.append(listener)

    @staticmethod
    def owner_of(label: str) -> str:
        return label.split(":", 1)[0] if label else "<anonymous>"

    def handle(self, event: ScheduledEvent, error: Exception) -> bool:
        """Deal with ``error`` raised by ``event``; ``False`` = re-raise."""
        if self.policy == "propagate":
            return False
        owner = self.owner_of(event.label)
        count = self.crash_counts.get(owner, 0) + 1
        self.crash_counts[owner] = count
        self.crashes.append((self.sim.now, owner, event.label, repr(error)))
        self.sim.metrics.counter("sim.crashes").inc()
        self.sim.record("sim.crash", owner, label=event.label,
                        error=repr(error), count=count)
        if (self.policy == "kill-device" and owner not in self._killed
                and count >= self.kill_threshold):
            hook = self._kill_hooks.get(owner)
            if hook is not None:
                self._killed.add(owner)
                self.sim.metrics.counter("sim.crash_kills").inc()
                self.sim.record("sim.crash_kill", owner, crashes=count)
                hook(f"supervisor: {count} crash(es) in {event.label!r}")
                for listener in self._kill_listeners:
                    listener(owner)
        return True


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, seed: int = 0,
                 supervision: str = "propagate", kill_threshold: int = 1,
                 livelock_threshold: Optional[int] = 100_000,
                 trace_enabled: bool = True, spans_enabled: bool = True):
        """``supervision`` picks the crash policy (see :class:`Supervisor`).

        ``livelock_threshold`` caps *consecutive* events processed at one
        simulated timestamp; exceeding it raises :class:`SimulationError`
        naming the offending event labels instead of spinning forever when
        a faulty callback self-reschedules at delay 0.  ``None`` disables
        the guard.

        ``trace_enabled=False`` turns the :class:`TraceRecorder` off for
        perf runs (see ``repro.sim.tracing``); the default keeps full,
        unbounded, byte-identical-on-replay traces.

        ``spans_enabled`` switches causal-span telemetry
        (:mod:`repro.telemetry.spans`, with the :class:`Tracer` default
        span cap): the scheduler captures the active span context into
        every scheduled event, so spans follow causality across message
        hops and retries."""
        if livelock_threshold is not None and livelock_threshold < 1:
            raise SimulationError("livelock_threshold must be >= 1 or None")
        self.queue = EventQueue()
        self.rng = SeededRNG(seed)
        self.metrics = MetricsRegistry()
        self.trace = TraceRecorder(enabled=trace_enabled)
        self.telemetry = Tracer(enabled=spans_enabled, clock=lambda: self._now)
        self.supervisor = Supervisor(self, supervision, kill_threshold)
        self.livelock_threshold = livelock_threshold
        #: Optional :class:`~repro.sim.profiling.Profiler`; when set the
        #: run loop times every callback (one ``is None`` check otherwise).
        self.profiler = None
        self._now = 0.0
        self._running = False
        self._stop_requested = False
        self.events_processed = 0
        self._stall_count = 0
        self._stall_labels: list[str] = []

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` simulated time units."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.queue.push(self._now + delay, callback, args, priority, label,
                               self.telemetry.current)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        return self.queue.push(time, callback, args, priority, label,
                               self.telemetry.current)

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_after: Optional[float] = None,
        label: str = "",
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` units until cancelled."""
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, args, label)
        task.start(start_after if start_after is not None else interval)
        return task

    def cancel(self, event: ScheduledEvent) -> None:
        event.cancel()      # idempotent; the handle keeps queue accounting

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue empties, ``until`` is reached, or ``max_events`` fire.

        Returns the simulated time at which the run stopped.

        The loop is the simulator's hottest code: one fused
        ``pop_until`` heap traversal per event (instead of the former
        ``peek_time()`` + ``pop()`` double walk), with the livelock
        check inlined and per-iteration attribute lookups hoisted.
        """
        if self._running:
            raise SimulationError("simulator is already running (no reentrant run)")
        self._running = True
        self._stop_requested = False
        processed = 0
        exhausted = False        # pop_until returned None (drained or horizon)
        horizon = until if until is not None else float("inf")
        pop_until = self.queue.pop_until
        supervisor = self.supervisor
        livelock_threshold = self.livelock_threshold
        profiler = self.profiler
        telemetry = self.telemetry
        try:
            while True:
                if self._stop_requested:
                    break
                if max_events is not None and processed >= max_events:
                    break
                event = pop_until(horizon)
                if event is None:
                    exhausted = True
                    break
                time = event.time
                now = self._now
                if time < now:
                    raise SimulationError("event queue returned an event from the past")
                if livelock_threshold is not None:
                    if time == now and self.events_processed > 0:
                        self._stall_count += 1
                        stalls = self._stall_labels
                        stalls.append(event.label)
                        if len(stalls) > 8:
                            del stalls[0]
                        if self._stall_count > livelock_threshold:
                            raise SimulationError(
                                f"livelock: {self._stall_count} consecutive events at "
                                f"t={now} (threshold {livelock_threshold}); "
                                f"recent labels: {stalls}"
                            )
                    elif self._stall_count:
                        self._stall_count = 0
                        self._stall_labels.clear()
                self._now = time
                # The active causal context for this callback is whatever
                # was captured at scheduling time (one store per event; the
                # next iteration overwrites it, the outer finally clears it).
                telemetry.current = event.span
                try:
                    if profiler is None:
                        event.callback(*event.args)
                    else:
                        started = perf_counter()
                        try:
                            event.callback(*event.args)
                        finally:
                            profiler.add(event.label, perf_counter() - started)
                except Exception as error:
                    if not supervisor.handle(event, error):
                        raise
                self.events_processed += 1
                processed += 1
        finally:
            self._running = False
            telemetry.current = None
        if until is not None and self._now < until:
            if exhausted or self.queue.peek_time() is None:
                # Next event beyond the horizon, or the queue drained
                # before it: advance the clock so time-based rates (harm
                # per unit time) are computed consistently.
                self._now = until
        return self._now

    def stop(self) -> None:
        """Request that a running :meth:`run` stop after the current event."""
        self._stop_requested = True

    # -- convenience ---------------------------------------------------------

    def record(self, kind: str, subject: str, **detail) -> None:
        """Record a trace event stamped with the current simulated time."""
        self.trace.record(self._now, kind, subject, **detail)


class PeriodicTask:
    """A repeating scheduled callback; cancel with :meth:`cancel`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        label: str,
    ):
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self.label = label
        self._handle: Optional[ScheduledEvent] = None
        self._cancelled = False
        self.fired = 0

    def start(self, delay: float) -> None:
        if not self._cancelled:
            self._handle = self._sim.schedule(delay, self._fire, label=self.label)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        tracer = self._sim.telemetry
        if tracer.enabled and tracer.current is None:
            # Seed a *lazy* root: a tuple, not a Span.  If nothing in this
            # tick joins a causal chain (the overwhelmingly common idle
            # case) no span is ever allocated; the first active_context()
            # call materializes the real root.  Clearing ``current`` after
            # the callback keeps each tick's materialized root to itself —
            # the reschedule below must not inherit it.
            tracer.pending_root = (self.label, self._sim.now)
            try:
                self._callback(*self._args)
            finally:
                tracer.pending_root = None
                tracer.current = None
        else:
            # Already inside a causal context (e.g. a worm's spread round
            # scheduled under the attack's root): run and reschedule under
            # it, so the whole periodic chain stays in the parent trace.
            self._callback(*self._args)
        if not self._cancelled:
            self._handle = self._sim.schedule(self.interval, self._fire, label=self.label)

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None
