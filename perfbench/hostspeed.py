"""Host-speed calibration: a fixed pure-Python reference kernel timed
next to each measured step, so every step can be stated at one reference
speed.

On a shared host the same code runs up to ~1.5x slower for seconds at a
time (co-tenants, clock changes), and its CPU time stretches exactly as
its wall time does, so neither clock hides it and a fastest-of-N
estimator only helps when some repetition happened to run fast.  The
kernel's duration next to a step measures the stretch at that moment;
dividing the step by ``kernel / NOMINAL_S`` removes most of it.  The
kernel never touches the program, so a change that makes the program
faster reads faster by the same share.
"""

from __future__ import annotations

from time import perf_counter

#: The kernel's duration, in seconds, at the reference speed (the fast
#: state of a 2-core x86-64 cloud VM under CPython 3.11).
NOMINAL_S = 47e-6
#: A calibration is the fastest of this many kernel runs (drops the
#: runs a preemption hit).
RUNS = 3


def kernel() -> int:
    """Interpreter work shaped like the program's: dict updates, tuple
    allocation, list appends and a sort."""
    table: dict = {}
    out = []
    for i in range(160):
        key = i & 31
        table[key] = table.get(key, 0) + i
        out.append((key, i * 3 % 7))
    out.sort()
    return len(out) + len(table)


def factor() -> float:
    """How much slower than the reference speed the host runs right now:
    the fastest of ``RUNS`` kernel timings over ``NOMINAL_S``."""
    best = float("inf")
    for _ in range(RUNS):
        started = perf_counter()
        kernel()
        best = min(best, perf_counter() - started)
    return best / NOMINAL_S


def normalize(durations: list, marks: list, owners: list) -> list:
    """Durations at reference speed.  ``marks`` are calibration factors in
    time order; step ``k`` ran between ``marks[owners[k]]`` and
    ``marks[owners[k] + 1]`` and is divided by their mean."""
    return [d / ((marks[i] + marks[i + 1]) / 2.0) for d, i in zip(durations, owners)]


class StepClock:
    """Times a sequence of steps, calibrating before the first and again
    whenever ``every_s`` of measured step time has passed, so each step
    has a calibration on both sides of it."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.raw: list = []
        self.owners: list = []
        self.marks = [factor()]
        self._since = 0.0

    def time(self, step, *args) -> float:
        started = perf_counter()
        step(*args)
        took = perf_counter() - started
        self.raw.append(took)
        self.owners.append(len(self.marks) - 1)
        self._since += took
        if self._since >= self.every_s:
            self.marks.append(factor())
            self._since = 0.0
        return took

    def normalized(self) -> list:
        """Every step's duration at reference speed."""
        if self._since or len(self.marks) == 1:
            self.marks.append(factor())
            self._since = 0.0
        return normalize(self.raw, self.marks, self.owners)
