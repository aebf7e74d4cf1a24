"""Lightweight profiling hooks for the discrete-event simulator.

Attach a :class:`Profiler` to a :class:`~repro.sim.simulator.Simulator`
and its run loop times every callback, accumulating wall-clock time per
event label (the library-wide ``"<device_id>:<task>"`` convention) plus
an overall events/second figure.  The hook costs one ``is None`` check
per event when disabled, so leaving ``sim.profiler`` unset keeps the
fast path fast.

This exists so performance work has numbers to stand on: benchmarks and
future PRs can report *which* labels a change made cheaper instead of
guessing from end-to-end wall clock.

Usage::

    sim = Simulator(seed=7)
    ...build scenario...
    with profile_run(sim) as profiler:
        sim.run(until=120.0)
    print(profiler.format_report())
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Optional


class Profiler:
    """Accumulates per-label callback timings for one or more runs."""

    __slots__ = ("per_label", "events", "busy_time", "wall_time", "_started")

    def __init__(self) -> None:
        #: label -> [count, total_seconds]
        self.per_label: dict = {}
        self.events = 0
        self.busy_time = 0.0     # summed callback time
        self.wall_time = 0.0     # start()..stop() envelope
        self._started: Optional[float] = None

    # -- run-loop hook (called by Simulator.run) ----------------------------

    def add(self, label: str, elapsed: float) -> None:
        """Account one callback invocation (run-loop internal)."""
        self.events += 1
        self.busy_time += elapsed
        bucket = self.per_label.get(label)
        if bucket is None:
            self.per_label[label] = [1, elapsed]
        else:
            bucket[0] += 1
            bucket[1] += elapsed

    # -- envelope -----------------------------------------------------------

    def start(self) -> None:
        if self._started is not None:
            # A silent overwrite here used to *discard* the open envelope:
            # two overlapping profile_run()s sharing one Profiler would
            # report a wall_time missing the first start..second-start
            # stretch while busy_time kept accumulating — the mixed-
            # envelope bug.  Overlap is a caller error; say so.
            raise RuntimeError("Profiler.start() while already started; "
                               "stop() the open envelope first")
        self._started = _time.perf_counter()

    def stop(self) -> None:
        if self._started is not None:
            self.wall_time += _time.perf_counter() - self._started
            self._started = None

    # -- reporting ----------------------------------------------------------

    def events_per_sec(self) -> float:
        """Events per wall-clock second over the profiled envelope."""
        if self.wall_time <= 0.0:
            return 0.0
        return self.events / self.wall_time

    def top_labels(self, limit: int = 10) -> list:
        """(label, count, total_seconds) rows, most expensive first.

        Ties broken by label so reports are deterministic.
        """
        rows = [(label, count, total)
                for label, (count, total) in self.per_label.items()]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows[:limit]

    def report(self, limit: int = 10) -> dict:
        """A plain-dict summary (what benchmarks export to JSON)."""
        return {
            "events": self.events,
            "wall_time_sec": self.wall_time,
            "busy_time_sec": self.busy_time,
            "events_per_sec": self.events_per_sec(),
            "top_labels": [
                {"label": label, "count": count, "total_sec": total}
                for label, count, total in self.top_labels(limit)
            ],
        }

    def format_report(self, limit: int = 10) -> str:
        """A human-readable rendering of :meth:`report`."""
        lines = [
            f"events: {self.events}  wall: {self.wall_time:.3f}s  "
            f"busy: {self.busy_time:.3f}s  rate: {self.events_per_sec():,.0f} ev/s"
        ]
        for label, count, total in self.top_labels(limit):
            shown = label or "<unlabelled>"
            lines.append(f"  {shown:<40} {count:>8} calls  {total * 1e3:>9.2f} ms")
        return "\n".join(lines)


class BarrierTiming:
    """Per-shard time-in-shard vs time-in-barrier accounting (F4).

    A sharded run (:mod:`repro.sim.sharding`) advances in barrier windows;
    inside each window every shard runs its simulator (*busy* time) and
    then waits for the slowest shard plus the message exchange (*barrier*
    time).  This accumulates both per shard, so imbalance — one shard
    carrying a hot community while the rest idle at the barrier — is a
    number, not a guess.  A :class:`~repro.sim.sharding.ShardedRun`
    carries it as ``timing``.
    """

    __slots__ = ("n_shards", "busy_sec", "barrier_sec", "windows")

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.busy_sec = [0.0] * n_shards
        self.barrier_sec = [0.0] * n_shards
        self.windows = 0

    def add_window(self, busies, window_wall: float) -> None:
        """Account one barrier window: per-shard busy times + window wall.

        A shard's barrier share is the window wall clock minus its own
        busy time — the stretch it spent waiting on the slowest shard and
        the cross-shard message exchange.
        """
        if len(busies) != self.n_shards:
            raise ValueError(
                f"expected {self.n_shards} busy samples, got {len(busies)}")
        self.windows += 1
        for index, busy in enumerate(busies):
            self.busy_sec[index] += busy
            self.barrier_sec[index] += max(0.0, window_wall - busy)

    def imbalance(self) -> float:
        """Max busy over mean busy (1.0 = perfectly balanced shards)."""
        mean = sum(self.busy_sec) / len(self.busy_sec)
        if mean <= 0.0:
            return 1.0
        return max(self.busy_sec) / mean


@contextmanager
def profile_run(sim, profiler: Optional[Profiler] = None):
    """Attach a :class:`Profiler` to ``sim`` for the ``with`` body.

    Pass an existing ``profiler`` to *accumulate* across several
    invocations (wall_time sums the envelopes, busy_time the callbacks);
    omit it for a fresh one.  Restores the previous profiler (usually
    ``None``) on exit so nested or repeated profiling composes
    predictably.
    """
    if profiler is None:
        profiler = Profiler()
    previous = sim.profiler
    sim.profiler = profiler
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()
        sim.profiler = previous
