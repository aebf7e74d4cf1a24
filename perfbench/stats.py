"""The benchmark's own arithmetic: percentiles, quartile spread, due-time
latency, and self time.  Pure functions, tested in ``tests/test_stats.py``.
"""

from __future__ import annotations

import math

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) of ``values``, nearest-rank."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, wanted: float = 99.0) -> float:
    """The highest percentile <= ``wanted`` that leaves at least
    :data:`MIN_BEYOND` of ``n`` samples strictly beyond it.

    With nearest rank, percentile q sits at rank ``ceil(q/100 * n)``, so
    ``n - rank`` samples lie beyond it.  Returns 0.0 when ``n`` is too
    small for any percentile to qualify.
    """
    if n <= MIN_BEYOND:
        return 0.0
    best_rank = n - MIN_BEYOND
    return min(wanted, math.floor(best_rank * 100.0 / n * 1000.0) / 1000.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def elementwise_min(series) -> list:
    """Per position, the fastest of the repetitions: ``series`` holds one
    equally long list of durations per repetition of the same work.

    Interference from other tenants of a shared host only ever adds time,
    so the least-disturbed repetition of each tick, window or request is
    the best estimate of what the program itself costs there; a burst in
    one repetition does not move the result."""
    return [min(column) for column in zip(*series)]


def due_latency(due: float, done: float) -> float:
    """Open-loop latency: from when the request was due, not when it was
    sent, so a stalled generator or a busy connection counts against the
    system instead of hiding (coordinated omission)."""
    return done - due


def generator_lag(due: float, free_at: float, sent: float) -> float:
    """How late the generator itself ran: the send time minus the later
    of the due time and the moment a connection was free to carry it."""
    return max(0.0, sent - max(due, free_at))


def self_times(spans) -> dict:
    """Self time per span name from closed ``(span_id, parent_id, name,
    start, end)`` spans: each span's duration minus the part of it its
    direct children cover.  Children of one parent do not overlap."""
    child_cover: dict = {}
    for _span_id, parent_id, _name, start, end in spans:
        if parent_id is not None:
            child_cover[parent_id] = child_cover.get(parent_id, 0.0) + (end - start)
    totals: dict = {}
    for span_id, _parent_id, name, start, end in spans:
        own = (end - start) - child_cover.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals
