"""Causal spans for the discrete-event simulator.

A :class:`Span` is one point on a causal chain — an attack injection, a
policy installation, a message send, a safeguard veto — stamped with the
simulated time and a :class:`SpanContext` ``(trace_id, span_id,
parent_id)``.  Spans with the same ``trace_id`` form one cross-device
causal tree; :func:`repro.telemetry.explain.explain` reconstructs it.

Design constraints, in order:

* **Determinism** — ids come from per-tracer counters (never process
  globals, wall clock, or ``id()``), so the same seed produces the same
  spans byte for byte; replay comparisons stay exact.
* **Hot-path cost** — the simulator's run loop pays two attribute
  stores per event; an idle periodic tick pays a few attribute stores
  and *zero allocations*.  Root spans are **lazy**: a periodic task
  only *seeds* a pending root (a tuple), and a real :class:`Span`
  materializes only when something downstream actually joins the chain
  (a safeguard intervention, a decision with a causal parent, an attack
  step).  Ticks that do nothing traceable — including routine reliable
  heartbeats — leave no span behind.
* **Bounded memory** — the retained span list is capacity-capped with
  drop accounting; listeners (the flight recorder) still see every
  span, so per-device ring buffers stay fresh even after the central
  list saturates.
"""

from __future__ import annotations

from typing import Callable, Optional


class SpanContext:
    """The propagated identity of one span: ``(trace, span, parent)``.

    This is what rides inside message envelopes and pending reliable
    sends; it is deliberately tiny and immutable-by-convention.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @staticmethod
    def from_dict(raw: dict) -> "SpanContext":
        return SpanContext(str(raw["trace_id"]), str(raw["span_id"]),
                           raw.get("parent_id"))

    def __repr__(self) -> str:
        return (f"SpanContext({self.trace_id}/{self.span_id}"
                f" < {self.parent_id})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, SpanContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.parent_id == other.parent_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))


class Span:
    """One recorded causal point: name, subject, sim time, detail."""

    __slots__ = ("context", "name", "subject", "time", "detail")

    def __init__(self, context: SpanContext, name: str, subject: str,
                 time: float, detail: dict):
        self.context = context
        self.name = name
        self.subject = subject
        self.time = time
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.context.parent_id,
            "name": self.name,
            "subject": self.subject,
            "time": self.time,
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(raw: dict) -> "Span":
        return Span(
            SpanContext(str(raw["trace_id"]), str(raw["span_id"]),
                        raw.get("parent_id")),
            str(raw["name"]), str(raw["subject"]), float(raw["time"]),
            dict(raw.get("detail", {})),
        )

    def __repr__(self) -> str:
        return (f"Span({self.name!r} subject={self.subject!r} "
                f"t={self.time} ctx={self.context!r})")


class Tracer:
    """Mints, retains, and propagates causal spans for one simulation.

    ``current`` holds the active :class:`SpanContext` (or ``None``); the
    simulator's run loop sets it from the scheduled event's captured
    context before each callback, and propagation points (network sends,
    reliable transmits, safeguard interventions) read or override it.

    ``pending_root`` holds a lazy root seed ``(label, time)`` planted by
    :class:`~repro.sim.simulator.PeriodicTask`; the first call to
    :meth:`active_context` under that seed materializes the real root
    span (named ``task.<suffix>`` with the label's owner as subject, per
    the library-wide ``"<owner>:<task>"`` labelling convention).
    """

    def __init__(self, enabled: bool = True,
                 capacity: Optional[int] = 200_000,
                 clock: Optional[Callable[[], float]] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("span capacity must be >= 1 or None")
        self.enabled = enabled
        self.capacity = capacity
        self.spans: list[Span] = []
        self.dropped = 0
        self.current: Optional[SpanContext] = None
        self.pending_root: Optional[tuple] = None
        #: Supplies the default timestamp (the simulator wires its clock in).
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._trace_ids = 0
        self._span_ids = 0
        self._listeners: list[Callable[[Span], None]] = []

    # -- minting ----------------------------------------------------------------

    def _next_trace_id(self) -> str:
        self._trace_ids += 1
        return f"t{self._trace_ids}"

    def _next_span_id(self) -> str:
        self._span_ids += 1
        return f"s{self._span_ids}"

    def _retain(self, span: Span) -> Span:
        if self.capacity is not None and len(self.spans) >= self.capacity:
            self.dropped += 1
        else:
            self.spans.append(span)
        for listener in self._listeners:
            listener(span)
        return span

    def start_trace(self, name: str, subject: str,
                    time: Optional[float] = None, **detail) -> Optional[Span]:
        """Mint a new root span (a fresh trace id).  ``None`` when disabled."""
        if not self.enabled:
            return None
        context = SpanContext(self._next_trace_id(), self._next_span_id(), None)
        return self._retain(Span(context, name, subject,
                                 self.clock() if time is None else time, detail))

    def start_span(self, name: str, subject: str,
                   time: Optional[float] = None,
                   parent: Optional[SpanContext] = None,
                   **detail) -> Optional[Span]:
        """Mint a span under ``parent`` (default: the active context).

        With no parent and no active/pending context the span becomes a
        root of its own trace.  Returns ``None`` when tracing is disabled.
        """
        if not self.enabled:
            return None
        if parent is None:
            parent = self.active_context()
        if parent is None:
            return self.start_trace(name, subject, time, **detail)
        context = SpanContext(parent.trace_id, self._next_span_id(),
                              parent.span_id)
        return self._retain(Span(context, name, subject,
                                 self.clock() if time is None else time, detail))

    # -- context management -----------------------------------------------------

    def active_context(self) -> Optional[SpanContext]:
        """The current context, materializing a pending lazy root if set."""
        if not self.enabled:
            return None
        context = self.current
        if context is not None:
            return context
        seed = self.pending_root
        if seed is None:
            return None
        self.pending_root = None
        label, time = seed
        owner, _, suffix = label.partition(":")
        root = self.start_trace(f"task.{suffix or owner or 'anon'}",
                                owner or "<anonymous>", time)
        self.current = root.context
        return root.context

    def activate(self, context: Optional[SpanContext]) -> Optional[SpanContext]:
        """Set ``current`` and return the previous value (caller restores)."""
        previous = self.current
        self.current = context
        return previous

    def subscribe(self, listener: Callable[[Span], None]) -> None:
        """``listener(span)`` runs for every minted span, even ones the
        capacity cap drops from the retained list (flight recorders)."""
        self._listeners.append(listener)

    # -- queries & export -------------------------------------------------------

    def trace(self, trace_id: str) -> list[Span]:
        """Every retained span of one trace, in recording order."""
        return [span for span in self.spans
                if span.context.trace_id == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids among retained spans, in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.context.trace_id)
        return list(seen)

    def stats(self) -> dict:
        return {
            "spans": len(self.spans),
            "dropped": self.dropped,
            "traces": len(self.trace_ids()),
            "enabled": self.enabled,
        }

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0

    @staticmethod
    def load_jsonl(path: str) -> "Tracer":
        """Rebuild a (query-only) tracer from an exported JSONL file."""
        import json

        tracer = Tracer(capacity=None)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    tracer.spans.append(Span.from_dict(json.loads(line)))
        return tracer
