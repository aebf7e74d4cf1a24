"""Structured tracing of simulation activity.

Traces are the raw material for the paper's audit requirements (sec VI-B:
"support for audits... would require the collection of comprehensive
context information").  The audit subsystem builds its tamper-evident
chain on top of these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence.

    ``kind`` is a dotted category such as ``"action.executed"`` or
    ``"safeguard.veto"``; ``subject`` names the device or component;
    ``detail`` carries structured context.
    """

    time: float
    kind: str
    subject: str
    detail: dict = field(default_factory=dict)

    def matches(self, kind_prefix: str) -> bool:
        return self.kind == kind_prefix or self.kind.startswith(kind_prefix + ".")

    def to_dict(self) -> dict:
        """The JSON Lines record :meth:`TraceRecorder.load_jsonl` reads."""
        return {"time": self.time, "kind": self.kind,
                "subject": self.subject, "detail": self.detail}


class TraceRecorder:
    """Collects :class:`TraceEvent` records and supports filtered queries.

    Tracing allocates a frozen dataclass per record, which is measurable
    in hot loops, so perf-sensitive runs can turn it off: with
    ``enabled=False`` :meth:`record` returns ``None`` immediately (only
    ``dropped`` is counted; listeners are not invoked).  ``capacity``
    bounds the retained events; records past it still reach listeners.

    Audit-bearing experiments keep the default full recording.
    """

    def __init__(self, capacity: Optional[int] = None, *,
                 enabled: bool = True):
        self.capacity = capacity
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        # Per-cause drop accounting: overhead measurements (E19) need to
        # know whether records vanished because tracing was off or
        # because capacity filled.
        self.dropped_disabled = 0
        self.dropped_capacity = 0
        self._listeners: list[Callable[[TraceEvent], None]] = []

    @property
    def dropped(self) -> int:
        """Total records dropped, across every cause."""
        return self.dropped_disabled + self.dropped_capacity

    def record(self, time: float, kind: str, subject: str, **detail) -> Optional[TraceEvent]:
        if not self.enabled:
            self.dropped_disabled += 1
            return None
        event = TraceEvent(time=time, kind=kind, subject=subject, detail=detail)
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped_capacity += 1
        else:
            self.events.append(event)
        for listener in self._listeners:
            listener(event)
        return event

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Register a callback invoked for every recorded event."""
        self._listeners.append(listener)

    def query(
        self,
        kind_prefix: str = "",
        subject: Optional[str] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> list[TraceEvent]:
        """Return events matching the filters, in time order."""
        out = []
        for event in self.events:
            if kind_prefix and not event.matches(kind_prefix):
                continue
            if subject is not None and event.subject != subject:
                continue
            if not since <= event.time <= until:
                continue
            out.append(event)
        return out

    def count(self, kind_prefix: str = "", subject: Optional[str] = None) -> int:
        return len(self.query(kind_prefix=kind_prefix, subject=subject))

    def subjects(self) -> set:
        return {event.subject for event in self.events}

    def stats(self) -> dict:
        """Snapshot of recording volume and drop causes."""
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            "dropped_disabled": self.dropped_disabled,
            "dropped_capacity": self.dropped_capacity,
            "enabled": self.enabled,
        }

    def clear(self) -> None:
        self.events.clear()
        self.dropped_disabled = 0
        self.dropped_capacity = 0

    @staticmethod
    def load_jsonl(path: str) -> "TraceRecorder":
        """Rebuild a recorder from a JSONL file of :meth:`TraceEvent.to_dict`
        records (a bundle's ``events.jsonl``)."""
        import json

        recorder = TraceRecorder()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                recorder.events.append(TraceEvent(
                    time=float(raw["time"]), kind=str(raw["kind"]),
                    subject=str(raw["subject"]), detail=dict(raw["detail"]),
                ))
        return recorder
