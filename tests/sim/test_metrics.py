"""Unit tests for metric primitives."""

import math
from bisect import insort

import pytest
from hypothesis import example, given, strategies as st

from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g", initial=5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0
        gauge.set(10.0)
        assert gauge.value == 10.0


class TestHistogram:
    def test_basic_stats(self):
        histogram = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.quantile(0.5) == 2.5

    def test_quantile_bounds(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Histogram("h").observe(float("nan"))

    def test_empty_histogram_quantile_is_none_not_zero(self):
        # A silent 0.0 would make an empty RTT histogram look perfectly
        # healthy to SLI consumers; "no data" must stay distinguishable.
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        assert histogram.quantile(0.9) is None
        assert histogram.snapshot()["p95"] is None
        histogram.observe(3.0)
        assert histogram.quantile(0.9) == 3.0

    def test_quantile_rejects_negative(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_single_observation_answers_every_quantile(self):
        histogram = Histogram("h")
        histogram.observe(7.0)
        assert histogram.quantile(0.0) == 7.0
        assert histogram.quantile(0.5) == 7.0
        assert histogram.quantile(1.0) == 7.0

    def test_extreme_quantiles_hit_min_and_max(self):
        histogram = Histogram("h")
        for value in (5.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 5.0

    def test_interpolation_between_adjacent_samples(self):
        histogram = Histogram("h")
        histogram.observe(0.0)
        histogram.observe(10.0)
        assert histogram.quantile(0.25) == 2.5
        assert histogram.quantile(0.5) == 5.0

    def test_duplicate_values_do_not_interpolate_drift(self):
        histogram = Histogram("h")
        for value in (2.0, 2.0, 2.0, 8.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 2.0
        assert histogram.quantile(1.0) == 8.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=100))
    def test_quantiles_are_monotone(self, values):
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        for lower, higher in zip(quantiles, quantiles[1:]):
            assert higher >= lower - 1e-9
        assert quantiles[0] == histogram.min
        assert quantiles[-1] == histogram.max

    # Each step either observes a value or makes one read; the values mix
    # signed zeros and small ints with floats, so ties with different
    # reprs (0.0/-0.0, 1/1.0) must come back in insertion order.
    _steps = st.lists(st.one_of(
        st.tuples(st.just("observe"), st.one_of(
            st.sampled_from([0.0, -0.0, 0, 1, 1.0, -1, -1.0]),
            st.floats(min_value=-5.0, max_value=5.0),
        )),
        st.tuples(st.sampled_from(
            ["quantile", "min", "max", "snapshot", "count", "mean"]),
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.95, 0.99, 1.0])),
    ), max_size=60)

    @given(_steps)
    @example([("observe", 0.0), ("observe", -0.0), ("observe", 1),
              ("observe", 1.0), ("snapshot", 0.0), ("observe", -0.0),
              ("min", 0.0)])
    def test_reads_match_an_insort_reference(self, steps):
        histogram = Histogram("h")
        reference: list = []
        total = 0.0  # summed in arrival order, as the histogram does

        def quantile(q):
            if not reference:
                return None
            idx = q * (len(reference) - 1)
            lo, hi = math.floor(idx), math.ceil(idx)
            if lo == hi or reference[lo] == reference[hi]:
                return reference[lo]
            frac = idx - lo
            return reference[lo] * (1 - frac) + reference[hi] * frac

        def expected(op, q):
            if op == "quantile":
                return quantile(q)
            if op == "min":
                return reference[0] if reference else 0.0
            if op == "max":
                return reference[-1] if reference else 0.0
            if op == "count":
                return len(reference)
            if op == "mean":
                return total / len(reference) if reference else 0.0
            return {"type": "histogram", "count": len(reference),
                    "mean": expected("mean", q), "min": expected("min", q),
                    "max": expected("max", q), "p50": quantile(0.5),
                    "p95": quantile(0.95), "p99": quantile(0.99)}

        for op, arg in steps:
            if op == "observe":
                histogram.observe(arg)
                insort(reference, arg)
                total += arg
                continue
            if op == "quantile":
                got = histogram.quantile(arg)
            elif op == "snapshot":
                got = histogram.snapshot()
            else:
                got = getattr(histogram, op)
            assert repr(got) == repr(expected(op, arg))


class TestTimeSeries:
    def test_records_in_order(self):
        series = TimeSeries("ts")
        series.record(0.0, 1.0)
        series.record(1.0, 3.0)
        assert series.last() == 3.0
        assert series.peak() == 3.0
        with pytest.raises(ValueError):
            series.record(0.5, 2.0)

    def test_time_above_step_interpolation(self):
        series = TimeSeries("ts")
        series.record(0.0, 5.0)   # above until t=2
        series.record(2.0, 1.0)   # below until t=3
        series.record(3.0, 10.0)  # above but no following sample
        assert series.time_above(4.0) == 2.0


class TestRegistry:
    def test_get_or_create_caches(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_and_value(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("level").set(7.0)
        snapshot = registry.snapshot()
        assert snapshot["hits"]["value"] == 3
        assert registry.value("level") == 7.0
        assert registry.value("missing", default=-1.0) == -1.0
