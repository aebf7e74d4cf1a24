"""Per-layer cost ledger, recorded from outside the program.

:class:`Ledger` wraps public entry points of the repro modules with
spans (name, start, end, parent) kept in memory.  A span's *self time*
is its duration minus the part its child spans cover, so the self times
of every span under one root add up to the root's duration; what no
wrapped entry point claims stays with the enclosing span.

Event-loop callbacks are attributed by label through the library's own
:func:`repro.sim.profiling.profile_run`: every ``Simulator.run`` inside a
root runs with a :class:`CallbackProfiler` that charges each callback's
time, minus the wrapped spans it contained, to a ``cb.<group>`` row.
What is left of ``sim.run`` after that is the loop itself
(``sim.loop``).

Nothing is recorded outside a root span, so scenario construction and
server start-up stay out of the ledger.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

from repro.sim.profiling import Profiler, profile_run

#: Raw spans kept for the written trace; aggregates cover every span.
SPAN_LOG_CAP = 1_000_000

#: Labels whose first ``:`` part names a component, not a device.
_COMPONENT_PREFIXES = {"net", "discovery", "reputation", "forger", "fleet"}


def callback_group(label: str) -> str:
    """``us-drone3:tick`` -> ``tick``; ``net:hello`` -> ``net``;
    ``watchdog`` -> ``watchdog``."""
    head, sep, tail = label.partition(":")
    if not sep:
        return label or "unlabelled"
    if head in _COMPONENT_PREFIXES:
        return head
    return tail


class Ledger:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self) -> None:
        self.stack: list = []    # open frames: [name, child_s, start, id, parent_id]
        self.calls: dict = {}
        self.self_s: dict = {}
        self.roots_s = 0.0               # summed duration of root spans
        self.opened = 0                  # spans opened so far (the next id)
        self._names: dict = {}
        self._log = {"id": array("q"), "parent": array("q"),
                     "name": array("i"), "start": array("d"),
                     "end": array("d")}
        self.dropped = 0

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> list:
        span_id = self.opened
        self.opened = span_id + 1
        frame = [name, 0.0, perf_counter(), span_id,
                 self.stack[-1][3] if self.stack else -1]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, child, start, span_id, parent = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self.stack:
            self.stack[-1][1] += duration
        else:
            self.roots_s += duration
        if span_id < SPAN_LOG_CAP:
            log = self._log
            code = self._names.setdefault(name, len(self._names))
            log["id"].append(span_id)
            log["parent"].append(parent)
            log["name"].append(code)
            log["start"].append(start)
            log["end"].append(end)
        else:
            self.dropped += 1

    def charge(self, name: str, seconds: float, calls: int = 1) -> None:
        """Book time measured elsewhere (a callback's own code) as a row."""
        self.calls[name] = self.calls.get(name, 0) + calls
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds

    def wrap(self, name: str, fn, root: bool = False):
        """``fn`` recorded as span ``name``; outside any root it runs
        bare unless ``root`` makes it one."""
        ledger = self

        def traced(*args, **kwargs):
            if not ledger.stack and not root:
                return fn(*args, **kwargs)
            frame = ledger.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.close(frame)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, root: bool = False) -> None:
        """Replace ``owner.attr`` (method, classmethod or module function)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, root)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, root)))
        else:
            setattr(owner, attr, self.wrap(name, raw, root))

    # -- reporting ------------------------------------------------------------

    def accounted_s(self) -> float:
        return sum(self.self_s.values())

    def rows(self) -> list:
        """``(name, calls, self_s)`` most expensive first."""
        rows = [(name, self.calls[name], self.self_s[name]) for name in self.self_s]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows

    def write(self, path: str) -> None:
        """Spans as fixed-width binary columns plus a JSON index."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".bin", "wb") as handle:
            for column in ("id", "parent", "name", "start", "end"):
                self._log[column].tofile(handle)
        names = sorted(self._names, key=self._names.get)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump({"columns": ["id:q", "parent:q", "name:i", "start:d", "end:d"],
                       "spans": len(self._log["id"]), "dropped": self.dropped,
                       "names": names,
                       "rows": [list(row) for row in self.rows()]}, handle)


class CallbackProfiler(Profiler):
    """Charges each event-loop callback's own time to ``cb.<group>``."""

    __slots__ = ("ledger", "frame", "mark", "charged")

    def __init__(self, ledger: Ledger) -> None:
        super().__init__()
        self.ledger = ledger
        self.frame = None
        self.mark = 0.0
        self.charged = 0.0

    def begin(self, frame: list) -> None:
        self.frame, self.mark, self.charged = frame, 0.0, 0.0

    def add(self, label: str, elapsed: float) -> None:
        super().add(label, elapsed)
        covered = self.frame[1]
        own = elapsed - (covered - self.mark)
        self.mark = covered
        self.charged += own
        self.ledger.charge("cb." + callback_group(label), own)


def instrument_simulator(ledger: Ledger) -> CallbackProfiler:
    """Wrap ``Simulator.run`` so each run inside a root is a ``sim.run``
    span with its callbacks profiled; returns the shared profiler.

    The callbacks' own time moves to ``cb.*`` rows, so what stays in
    ``sim.run`` is the loop: popping, dispatch, and clock bookkeeping.
    """
    from repro.sim.simulator import Simulator

    profiler = CallbackProfiler(ledger)
    original = Simulator.run

    def run(sim, *args, **kwargs):
        if not ledger.stack:
            return original(sim, *args, **kwargs)
        frame = ledger.open("sim.run")
        profiler.begin(frame)
        try:
            with profile_run(sim, profiler):
                return original(sim, *args, **kwargs)
        finally:
            frame[1] += profiler.charged
            ledger.close(frame)

    Simulator.run = run
    return profiler
