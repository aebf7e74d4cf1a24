"""Streaming estimator correctness (E20)."""

import pytest

from repro.telemetry.health.estimators import Ewma, RateTracker


class TestEwma:
    def test_starts_unknown(self):
        assert Ewma().value is None

    def test_first_observation_is_the_level(self):
        ewma = Ewma(alpha=0.3)
        ewma.observe(4.0)
        assert ewma.value == 4.0

    def test_smooths_toward_new_level(self):
        ewma = Ewma(alpha=0.5)
        ewma.observe(0.0)
        ewma.observe(8.0)
        assert ewma.value == 4.0
        ewma.observe(8.0)
        assert ewma.value == 6.0

    def test_converges_to_constant_stream(self):
        ewma = Ewma(alpha=0.3)
        for _ in range(100):
            ewma.observe(2.5)
        assert ewma.value == pytest.approx(2.5)

    def test_rejects_bad_alpha_and_nan(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)
        with pytest.raises(ValueError):
            Ewma().observe(float("nan"))


class TestRateTracker:
    def test_needs_two_samples(self):
        tracker = RateTracker()
        assert tracker.value is None
        assert tracker.sample(0.0, 10.0) is None

    def test_counter_delta_rate(self):
        tracker = RateTracker()
        tracker.sample(0.0, 10.0)
        assert tracker.sample(2.0, 16.0) == 3.0
        assert tracker.value == 3.0

    def test_idle_counter_rates_zero(self):
        tracker = RateTracker()
        tracker.sample(0.0, 5.0)
        tracker.sample(1.0, 5.0)
        assert tracker.value == 0.0

    def test_zero_dt_keeps_last_rate(self):
        tracker = RateTracker()
        tracker.sample(0.0, 0.0)
        tracker.sample(1.0, 4.0)
        assert tracker.sample(1.0, 9.0) == 4.0

    def test_smoothed_rate_uses_ewma(self):
        tracker = RateTracker(alpha=0.5)
        tracker.sample(0.0, 0.0)
        tracker.sample(1.0, 8.0)        # raw 8 -> ewma 8
        tracker.sample(2.0, 8.0)        # raw 0 -> ewma 4
        assert tracker.value == 4.0
