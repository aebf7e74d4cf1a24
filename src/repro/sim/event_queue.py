"""Priority queue of scheduled simulation events.

Ordering is total and deterministic: events fire by (time, priority,
sequence number).  The sequence number breaks ties in insertion order so
repeated runs with the same seed replay identically.

Heap entries are plain ``(time, priority, seq, event)`` tuples: tuple
comparison short-circuits on the numeric fields (the sequence number is
unique, so the event payload itself is never compared), which is markedly
faster than dataclass field-by-field ordering in the simulator's hot
loop.  The :class:`ScheduledEvent` payload is a ``__slots__`` class for
the same reason.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError

_INF = float("inf")


class ScheduledEvent:
    """A callback scheduled to run at a simulated time.

    Events are ordered by ``(time, priority, seq)`` which is exactly the
    firing order.  ``cancelled`` events stay in the heap but are skipped
    when popped (lazy deletion).  Cancellation bookkeeping lives here —
    :meth:`cancel` notifies the owning queue — so ``len(queue)`` always
    counts live events no matter which path cancelled the handle.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "label",
                 "cancelled", "span", "_queue")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., Any], args: tuple = (),
                 label: str = "", queue: Optional["EventQueue"] = None,
                 span: object = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = False
        #: Causal span context captured at scheduling time (telemetry).
        self.span = span
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so it will be skipped when its time comes.

        Idempotent, and self-accounting: the owning queue's live count is
        decremented exactly once, and only while the event is actually
        still queued (popped events detach from the queue first).
        """
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                self._queue = None
                queue._live -= 1

    def __repr__(self) -> str:
        state = ", cancelled" if self.cancelled else ""
        return (f"ScheduledEvent(time={self.time!r}, priority={self.priority}, "
                f"seq={self.seq}, label={self.label!r}{state})")


class EventQueue:
    """A deterministic min-heap of :class:`ScheduledEvent` objects."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list = []        # (time, priority, seq, ScheduledEvent)
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
        label: str = "",
        span: object = None,
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at ``time`` and return a cancellable handle."""
        if time != time or time == _INF:  # NaN or inf
            raise SimulationError(f"cannot schedule event at time {time!r}")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, priority, seq, callback, args, label, self,
                               span)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
        return None

    def pop_until(self, horizon: float) -> Optional[ScheduledEvent]:
        """Pop the next live event at or before ``horizon``, else ``None``.

        Fuses the former ``peek_time()``/``pop()`` pair into a single heap
        traversal: cancelled entries are drained once, and an event beyond
        the horizon stays queued.  ``None`` therefore means *either* the
        queue is empty *or* the next live event is later than ``horizon``
        (callers distinguish via :meth:`peek_time` when it matters).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                continue
            if entry[0] > horizon:
                return None
            event = heapq.heappop(heap)[3]
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event (their handles read as cancelled)."""
        for entry in self._heap:
            event = entry[3]
            event.cancelled = True
            event._queue = None
        self._heap.clear()
        self._live = 0
