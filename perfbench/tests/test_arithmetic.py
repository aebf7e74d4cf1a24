"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import hostspeed  # noqa: E402
import ledger as ledger_module  # noqa: E402
import stats  # noqa: E402
from ledger import Ledger, callback_group  # noqa: E402


# -- percentile rule ------------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(11, 3000, 7):
        q = stats.tail_percentile(n)
        assert 0 < q <= 99.0
        assert stats.samples_beyond(n, q) >= stats.MIN_BEYOND, n


def test_tail_percentile_is_the_highest_qualifying():
    for n in (50, 450, 999, 1234):
        q = stats.tail_percentile(n)
        if q < 99.0:
            assert stats.samples_beyond(n, q + 0.01) < stats.MIN_BEYOND, n


def test_tail_percentile_reaches_p99_at_a_thousand_samples():
    assert stats.tail_percentile(1000) == 99.0
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.tail_percentile(999) < 99.0
    assert stats.tail_percentile(10) == 0.0


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


# -- self time --------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 5.0),        # 4s, of which child covers 3
        (2, 1, "b", 1.5, 4.5),
        (3, 0, "b", 6.0, 7.0),
    ]
    totals = stats.self_times(spans)
    assert totals == {"root": 5.0, "a": 1.0, "b": 4.0}
    assert sum(totals.values()) == 10.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_ledger_self_time_and_accounting(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(ledger_module, "perf_counter", clock)
    book = Ledger()

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 0.5

    def root():
        traced_middle()
        clock.now += 3.0
        traced_leaf()

    traced_leaf = book.wrap("leaf", leaf)
    traced_middle = book.wrap("middle", middle)
    traced_root = book.wrap("root", root, root=True)

    traced_leaf()                 # outside any root: not recorded
    assert book.calls == {}
    clock.now = 100.0
    traced_root()
    assert book.calls == {"leaf": 2, "middle": 1, "root": 1}
    assert book.self_s == {"leaf": 4.0, "middle": 1.5, "root": 3.0}
    assert book.roots_s == 8.5
    assert book.accounted_s() == book.roots_s
    # The written span log reproduces the same self times.
    log = book._log
    names = sorted(book._names, key=book._names.get)
    spans = [(log["id"][i], None if log["parent"][i] < 0 else log["parent"][i],
              names[log["name"][i]], log["start"][i], log["end"][i])
             for i in range(len(log["id"]))]
    assert stats.self_times(spans) == book.self_s


def test_ledger_closes_spans_on_exceptions(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(ledger_module, "perf_counter", clock)
    book = Ledger()

    def veto():
        clock.now += 1.0
        raise ValueError("vetoed")

    traced_veto = book.wrap("veto", veto)

    def root():
        try:
            traced_veto()
        except ValueError:
            clock.now += 1.0

    book.wrap("root", root, root=True)()
    assert book.stack == []
    assert book.self_s == {"veto": 1.0, "root": 1.0}


def test_callback_groups():
    assert callback_group("us-drone3:tick") == "tick"
    assert callback_group("net:heartbeat") == "net"
    assert callback_group("watchdog") == "watchdog"
    assert callback_group("") == "unlabelled"


# -- due-time latency ----------------------------------------------------------------


def test_latency_runs_from_the_due_time():
    # Due at 1.0, the only connection was busy until 3.0, reply at 3.2:
    # the user waited 2.2 s, not the 0.2 s the wire took.
    assert abs(stats.due_latency(due=1.0, done=3.2) - 2.2) < 1e-12


def test_generator_lag_excludes_waiting_for_a_connection():
    # Busy connection: sent the moment it freed up, so no generator lag.
    assert stats.generator_lag(due=1.0, free_at=3.0, sent=3.0) == 0.0
    # Free connection, but the generator woke 0.4 ms late.
    assert abs(stats.generator_lag(due=1.0, free_at=0.5, sent=1.0004) - 0.0004) < 1e-12
    # Early is never negative lag.
    assert stats.generator_lag(due=1.0, free_at=0.5, sent=0.9) == 0.0


# -- repetition estimators -----------------------------------------------------------


def test_elementwise_min_keeps_the_fastest_repetition_per_step():
    reps = [[1.0, 5.0, 2.0], [1.5, 2.0, 9.0], [3.0, 2.5, 2.5]]
    assert stats.elementwise_min(reps) == [1.0, 2.0, 2.0]


# -- host-speed calibration ----------------------------------------------------------


def test_normalize_divides_by_the_mean_of_the_bracketing_marks():
    # Steps 0 and 1 ran between marks 0 and 1, step 2 between marks 1 and 2.
    out = hostspeed.normalize([3.0, 6.0, 4.0], marks=[1.0, 2.0, 2.0], owners=[0, 0, 1])
    assert out == [2.0, 4.0, 2.0]


def test_step_clock_calibrates_on_both_sides_of_every_step(monkeypatch):
    clock = FakeClock()
    factors = iter([1.0, 1.5, 2.0, 3.0])
    monkeypatch.setattr(hostspeed, "perf_counter", clock)
    monkeypatch.setattr(hostspeed, "factor", lambda: next(factors))

    def step(seconds):
        clock.now += seconds

    steps = hostspeed.StepClock(every_s=1.0)
    for seconds in (0.4, 0.8, 2.0, 0.5):
        steps.time(step, seconds)
    normalized = steps.normalized()
    # Calibrated before the first step, after 1.2 s and 2.0 s of steps,
    # and once more to close the last step.
    assert steps.marks == [1.0, 1.5, 2.0, 3.0]
    assert steps.owners == [0, 0, 1, 2]
    expected = [0.4 / 1.25, 0.8 / 1.25, 2.0 / 1.75, 0.5 / 2.5]
    assert all(abs(a - b) < 1e-12 for a, b in zip(normalized, expected))
