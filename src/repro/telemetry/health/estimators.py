"""O(1)-memory streaming estimators for live health signals.

The exact :class:`~repro.sim.metrics.Histogram` answers quantiles over
every observation, so the monitor reads those at tick time.  What a
point-in-time read cannot give is a recency-weighted level or a rate
between ticks; these estimators consume one value at a time and keep
constant state:

* :class:`Ewma` — exponentially weighted moving average, the classic
  "recent level" smoother.
* :class:`RateTracker` — per-second rate from periodic samples of a
  monotonic counter, optionally EWMA-smoothed.

Both answer ``None`` until they have data — "no observations yet"
must never masquerade as a healthy zero (see the matching
``Histogram.quantile`` contract).
"""

from __future__ import annotations

import math
from typing import Optional


class Ewma:
    """Exponentially weighted moving average of a value stream."""

    __slots__ = ("alpha", "_value")

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: Optional[float] = None

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError("EWMA observed NaN")
        current = self._value
        if current is None:
            self._value = value
        else:
            self._value = self.alpha * value + (1.0 - self.alpha) * current

    @property
    def value(self) -> Optional[float]:
        """The smoothed level, or ``None`` before the first observation."""
        return self._value


class RateTracker:
    """Per-second rate from periodic samples of a monotonic total.

    Feed it ``(time, running_total)`` pairs — e.g. a counter value on each
    monitor tick — and it answers the rate over the last interval,
    optionally smoothed through an :class:`Ewma`.
    """

    __slots__ = ("_smoother", "_last_time", "_last_total", "_rate")

    def __init__(self, alpha: Optional[float] = None):
        self._smoother = Ewma(alpha) if alpha is not None else None
        self._last_time: Optional[float] = None
        self._last_total: Optional[float] = None
        self._rate: Optional[float] = None

    def sample(self, time: float, total: float) -> Optional[float]:
        last_time, last_total = self._last_time, self._last_total
        self._last_time, self._last_total = time, total
        if last_time is None or time <= last_time:
            return self._rate
        raw = (total - last_total) / (time - last_time)
        if self._smoother is not None:
            self._smoother.observe(raw)
            self._rate = self._smoother.value
        else:
            self._rate = raw
        return self._rate

    @property
    def value(self) -> Optional[float]:
        """The latest rate, or ``None`` until two samples exist."""
        return self._rate
