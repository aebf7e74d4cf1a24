"""Metric primitives for experiments.

Counters, gauges, histograms, and time series, grouped in a registry.
The benchmark harness prints experiment rows straight from a registry
snapshot, so every metric supports a plain-dict export.
"""

from __future__ import annotations

import math
from typing import Optional


class Counter:
    """A monotonically increasing count.

    Hot callbacks hold a direct reference (a *cached handle*) obtained
    once from :meth:`MetricsRegistry.counter` instead of re-looking the
    name up per event; ``__slots__`` keeps the instances lean.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, initial: float = 0.0):
        self.name = name
        self.value = initial

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming distribution summary with exact quantiles.

    :meth:`observe` appends in O(1); the list is sorted stably the next
    time something reads an order statistic (:meth:`quantile`,
    :attr:`min`, :attr:`max`, :meth:`snapshot`), so one sort covers every
    observation since the previous read.  ``list.sort`` is stable, so the
    sorted list is element-for-element the one that ``bisect.insort``
    would have built, ties like ``0.0``/``-0.0`` and ``1``/``1.0``
    included.  :attr:`count`, :attr:`mean` and :attr:`sum` never sort.

    The design assumes reads are periodic (a health tick, a scrape, an
    end-of-run snapshot), not one per observation: a read after every
    observe would re-sort each time.  A histogram is not thread-safe;
    observe and read it from one thread.
    """

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []
        self._dirty = False
        self._sum = 0.0
        self._watchers: list = []

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError(f"histogram {self.name} observed NaN")
        self._values.append(value)
        self._dirty = True
        self._sum += value
        if self._watchers:
            for watcher in self._watchers:
                watcher(value)

    def _ordered(self) -> list[float]:
        if self._dirty:
            self._values.sort()
            self._dirty = False
        return self._values

    def subscribe(self, watcher) -> None:
        """Stream every future observation to ``watcher(value)``.

        This is how an O(1)-memory online estimator that needs arrival
        order (the health monitor's EWMA) rides along a histogram; the hot
        :meth:`observe` path pays one truthiness check when nobody
        subscribed.
        """
        self._watchers.append(watcher)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        """The running sum of every observation, added in arrival order."""
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / len(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        return self._ordered()[0] if self._values else 0.0

    @property
    def max(self) -> float:
        return self._ordered()[-1] if self._values else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 ≤ q ≤ 1) by linear interpolation, or
        ``None`` when nothing has been observed yet.

        ``None`` — not a silent ``0.0`` — because downstream health
        logic must distinguish "no data" from "genuinely zero": a fresh
        link with an empty RTT histogram is *unknown*, not perfect.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._values:
            return None
        ordered = self._ordered()
        idx = q * (len(ordered) - 1)
        lo = int(math.floor(idx))
        hi = int(math.ceil(idx))
        if lo == hi or ordered[lo] == ordered[hi]:
            return ordered[lo]
        frac = idx - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class TimeSeries:
    """(time, value) samples, e.g. aggregate heat over simulated time."""

    def __init__(self, name: str):
        self.name = name
        self.samples: list[tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        if self.samples and time < self.samples[-1][0]:
            raise ValueError(f"time series {self.name} must be recorded in time order")
        self.samples.append((time, value))

    def values(self) -> list[float]:
        return [v for _, v in self.samples]

    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    def peak(self) -> float:
        return max((v for _, v in self.samples), default=0.0)

    def time_above(self, threshold: float) -> float:
        """Total simulated time spent strictly above ``threshold``.

        Uses step interpolation: each sample's value holds until the next
        sample's timestamp.
        """
        total = 0.0
        for (t0, v0), (t1, _v1) in zip(self.samples, self.samples[1:]):
            if v0 > threshold:
                total += t1 - t0
        return total

    def snapshot(self) -> dict:
        return {"type": "timeseries", "last": self.last(),
                "peak": self.peak(), "count": len(self.samples)}


class MetricsRegistry:
    """Namespace of metrics for one simulation run."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def timeseries(self, name: str) -> TimeSeries:
        return self._get_or_create(name, TimeSeries)

    def _get_or_create(self, name: str, cls):
        existing = self._metrics.get(name)
        if existing is None:
            existing = cls(name)
            self._metrics[name] = existing
        elif not isinstance(existing, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(existing).__name__}"
            )
        return existing

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        return {name: metric.snapshot() for name, metric in sorted(self._metrics.items())}

    def value(self, name: str, default: float = 0.0) -> float:
        """Convenience: the scalar value of a counter/gauge, or ``default``."""
        metric = self._metrics.get(name)
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        return default
