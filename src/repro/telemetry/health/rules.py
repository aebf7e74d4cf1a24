"""Policy-driven alerting over the live SLI stream.

Alert rules are ECA policies: their firing and clearing conditions are
written in the *same condition grammar* the generative policy layer
uses (:func:`repro.core.conditions.parse_condition`), evaluated against
the :class:`~repro.telemetry.health.monitor.HealthMonitor`'s latest
readings as the state dict.  ``link.rtt_p95 > 0.45`` is a threshold
rule; ``store.journal_rate.roc > 100`` is a rate-of-change rule (the
monitor publishes ``.roc`` derivatives); ``for_ticks`` turns either
into a sustained-for-N-ticks predicate.

Hysteresis comes from a separate ``clear_condition`` (default: the
negated firing condition) with its own ``clear_for_ticks`` dwell, so an
alert flapping around its threshold fires once, not per tick.  A rule
whose condition references an SLI with *no reading yet* is skipped for
that tick — no data is "unknown", never "healthy" — and its streak
resets.

Firing and resolving both mint telemetry spans (``alert.fire`` /
``alert.resolve``), record trace events, bump ``alerts.*`` metrics,
optionally append to a hash-chained audit log, and are retained as
JSONL-ready dicts for the telemetry bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.conditions import Condition, parse_condition
from repro.errors import ConditionEvalError

SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert: fire/clear conditions plus dwell times."""

    name: str
    condition: str
    severity: str = "warning"
    for_ticks: int = 1
    clear_condition: Optional[str] = None
    clear_for_ticks: int = 1
    description: str = ""

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")
        if self.for_ticks < 1 or self.clear_for_ticks < 1:
            raise ValueError("dwell times must be >= 1 tick")


@dataclass
class Alert:
    """One live (or historical) firing of a rule."""

    rule: AlertRule
    fired_at: float
    reading: dict = field(default_factory=dict)
    resolved_at: Optional[float] = None
    trace_id: Optional[str] = None

    def to_dict(self) -> dict:
        """The ``alerts.jsonl`` row of this firing."""
        return {"rule": self.rule.name, "severity": self.rule.severity,
                "fired_at": self.fired_at, "resolved_at": self.resolved_at,
                "reading": self.reading, "trace_id": self.trace_id}


class _CompiledRule:
    __slots__ = ("rule", "fire", "clear", "streak", "clear_streak")

    def __init__(self, rule: AlertRule):
        self.rule = rule
        self.fire: Condition = parse_condition(rule.condition)
        if rule.clear_condition is not None:
            self.clear: Condition = parse_condition(rule.clear_condition)
        else:
            self.clear = parse_condition(f"not ({rule.condition})")
        self.streak = 0
        self.clear_streak = 0


class AlertEngine:
    """Evaluates alert rules on every monitor tick and fans out firings."""

    def __init__(self, sim, monitor, audit=None):
        """``audit`` (an :class:`~repro.audit.log.AuditLog`) chains every
        fire/resolve into the tamper-evident record when given."""
        self.sim = sim
        self.audit = audit
        self._compiled: dict[str, _CompiledRule] = {}
        self._active: dict[str, Alert] = {}
        self.history: list[Alert] = []
        self._on_fire: list[Callable[[Alert], None]] = []
        self._on_resolve: list[Callable[[Alert], None]] = []
        metrics = sim.metrics
        self._fired_total = metrics.counter("alerts.fired")
        self._resolved_total = metrics.counter("alerts.resolved")
        self._active_gauge = metrics.gauge("alerts.active")
        monitor.subscribe(self.evaluate)

    # -- configuration ----------------------------------------------------------

    def add_rule(self, rule: AlertRule) -> None:
        if rule.name in self._compiled:
            raise ValueError(f"alert rule {rule.name!r} already registered")
        self._compiled[rule.name] = _CompiledRule(rule)

    def on_fire(self, listener: Callable[[Alert], None]) -> None:
        self._on_fire.append(listener)

    def on_resolve(self, listener: Callable[[Alert], None]) -> None:
        self._on_resolve.append(listener)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, now: float, readings: dict) -> None:
        for compiled in self._compiled.values():
            name = compiled.rule.name
            if name in self._active:
                self._check_clear(compiled, now, readings)
            else:
                self._check_fire(compiled, now, readings)
        self._active_gauge.set(len(self._active))

    def _check_fire(self, compiled: _CompiledRule, now: float,
                    readings: dict) -> None:
        try:
            hit = compiled.fire.evaluate(readings)
        except ConditionEvalError:
            # An SLI in the condition has no reading yet: unknown, not
            # healthy — but also not evidence, so the streak restarts.
            compiled.streak = 0
            return
        if not hit:
            compiled.streak = 0
            return
        compiled.streak += 1
        if compiled.streak < compiled.rule.for_ticks:
            return
        compiled.streak = 0
        compiled.clear_streak = 0
        self._fire(compiled.rule, now, readings)

    def _check_clear(self, compiled: _CompiledRule, now: float,
                     readings: dict) -> None:
        try:
            cleared = compiled.clear.evaluate(readings)
        except ConditionEvalError:
            cleared = False                 # can't confirm recovery blind
        if not cleared:
            compiled.clear_streak = 0
            return
        compiled.clear_streak += 1
        if compiled.clear_streak < compiled.rule.clear_for_ticks:
            return
        compiled.clear_streak = 0
        self._resolve(compiled.rule.name, now, readings)

    # -- transitions ------------------------------------------------------------

    def _reading_for(self, rule: AlertRule, readings: dict) -> dict:
        variables = self._compiled[rule.name].fire.variables()
        return {name: readings[name] for name in sorted(variables)
                if name in readings}

    def _fire(self, rule: AlertRule, now: float, readings: dict) -> None:
        reading = self._reading_for(rule, readings)
        span = self.sim.telemetry.start_span(
            "alert.fire", rule.name, severity=rule.severity, **reading)
        alert = Alert(rule=rule, fired_at=now, reading=reading,
                      trace_id=span.context.trace_id if span else None)
        self._active[rule.name] = alert
        self.history.append(alert)
        self._fired_total.inc()
        self.sim.metrics.counter(f"alerts.fired.{rule.severity}").inc()
        self.sim.record("alert.fire", rule.name,
                        severity=rule.severity, **reading)
        if self.audit is not None:
            self.audit.append(now, "alert.fire", rule.name,
                              {"severity": rule.severity, "reading": reading})
        for listener in self._on_fire:
            listener(alert)

    def _resolve(self, name: str, now: float, readings: dict) -> None:
        alert = self._active.pop(name)
        alert.resolved_at = now
        span = self.sim.telemetry.start_span(
            "alert.resolve", name, severity=alert.rule.severity,
            after=now - alert.fired_at)
        if span is not None and alert.trace_id is None:
            alert.trace_id = span.context.trace_id
        self._resolved_total.inc()
        self.sim.record("alert.resolve", name,
                        severity=alert.rule.severity,
                        duration=now - alert.fired_at)
        if self.audit is not None:
            self.audit.append(now, "alert.resolve", name,
                              {"severity": alert.rule.severity,
                               "duration": now - alert.fired_at})
        for listener in self._on_resolve:
            listener(alert)

    # -- queries & export -------------------------------------------------------

    @property
    def active(self) -> dict[str, Alert]:
        return dict(self._active)

    def is_active(self, name: str) -> bool:
        return name in self._active

    def firings(self, name: Optional[str] = None) -> list[Alert]:
        """Every firing so far (optionally of one rule), oldest first."""
        return [alert for alert in self.history
                if name is None or alert.rule.name == name]
