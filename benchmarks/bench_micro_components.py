"""Micro-benchmarks of the core primitives.

Not tied to a paper figure — these keep the substrate honest: condition
parsing/evaluation, policy selection at scale, robust aggregation, audit
chain append+verify, bounded reachability, and state estimation all get
real multi-round timings so regressions surface in CI.
"""

import math

from repro.audit.log import AuditLog
from repro.core.actions import Action, Effect
from repro.core.conditions import parse_condition
from repro.core.events import Event
from repro.core.policy import Policy, PolicySet
from repro.sim.rng import SeededRNG
from repro.statespace.classifier import BoxClassifier, BoxRegion
from repro.statespace.estimation import NoisyChannel, StateEstimator
from repro.statespace.reachability import ReachabilityAnalyzer
from repro.trust.aggregation import IterativeFilteringAggregator, SensorReading


def test_condition_parse(benchmark):
    text = "temp > 80 and mode == 'patrol' or not (fuel < 10)"
    condition = benchmark(parse_condition, text)
    assert condition.evaluate({"temp": 90.0, "mode": "idle", "fuel": 50.0})


def test_condition_eval(benchmark):
    condition = parse_condition("temp > 80 and fuel > 10 and mode == 'patrol'")
    state = {"temp": 90.0, "fuel": 50.0, "mode": "patrol"}
    result = benchmark(condition.evaluate, state)
    assert result


def test_policy_selection_1000_policies(benchmark):
    policies = PolicySet()
    for index in range(1000):
        policies.add(Policy.make(
            f"net.topic{index % 50}", "temp > 1000",
            Action(f"a{index}", "m"), policy_id=f"p{index}",
        ))
    policies.add(Policy.make("timer", None, Action("live", "m"),
                             policy_id="live", priority=1))
    event = Event(kind="timer.tick")
    winner = benchmark(policies.select, event, {"temp": 20.0})
    assert winner.policy_id == "live"


def test_iterative_filtering_round(benchmark):
    rng = SeededRNG(seed=3).stream("bench")
    readings = [SensorReading(f"s{i}", 50.0 + rng.gauss(0, 0.5))
                for i in range(20)]
    readings += [SensorReading(f"evil{i}", 500.0) for i in range(5)]
    aggregator = IterativeFilteringAggregator()
    estimate = benchmark(aggregator.aggregate, readings)
    assert abs(estimate - 50.0) < 2.0


def test_audit_append(benchmark):
    log = AuditLog()

    def append():
        log.append(1.0, "breakglass.used", "dev1", {"grant_id": 1})

    benchmark(append)
    assert log.verify()


def test_audit_verify_1000_entries(benchmark):
    log = AuditLog()
    for index in range(1000):
        log.append(float(index), "kind", "subject", {"n": index})
    assert benchmark(log.verify)


def test_reachability_explore(benchmark):
    classifier = BoxClassifier(
        good=[BoxRegion.make("g", x=(0, 50), y=(0, 50))],
        bad=[BoxRegion.make("b", x=(90, None))],
    )
    actions = [
        Action(f"move{dx}{dy}", "m",
               effects=[Effect("x", "add", float(dx)),
                        Effect("y", "add", float(dy))])
        for dx in (-5, 5) for dy in (-5, 5)
    ]
    analyzer = ReachabilityAnalyzer(actions, classifier, max_states=2000)
    root = benchmark(analyzer.explore, {"x": 25.0, "y": 25.0}, 4)
    assert root.children


def test_state_estimator_update(benchmark):
    rng = SeededRNG(seed=5).stream("bench")
    channel = NoisyChannel(rng, noise_sigma=1.0)
    estimator = StateEstimator()
    truth = {"temp": 60.0, "fuel": 40.0, "altitude": 100.0}

    def update():
        estimator.update(channel.observe(truth))

    benchmark(update)
    assert abs(estimator.get("temp") - 60.0) < 10.0


def test_event_queue_push_pop_throughput(benchmark):
    from repro.sim.event_queue import EventQueue

    def churn():
        queue = EventQueue()
        for index in range(2000):
            queue.push(float(index % 97), lambda: None, label="bench:evt")
        drained = 0
        while queue.pop_until(100.0) is not None:
            drained += 1
        return drained

    assert benchmark(churn) == 2000


def test_simulator_event_loop_throughput(benchmark):
    """The tentpole fast path: tuple-heap pop_until + slots payloads,
    tracing off, no profiler — pure run-loop overhead per event."""
    from repro.sim.simulator import Simulator

    def spin(n_events):
        sim = Simulator(seed=1, trace_enabled=False)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < n_events:
                sim.schedule(0.001, tick, label="bench:tick")

        sim.schedule(0.001, tick, label="bench:tick")
        sim.run()
        return count[0]

    assert benchmark(spin, 5000) == 5000


def test_simulator_loop_profiled_overhead(benchmark):
    from repro.sim.profiling import profile_run
    from repro.sim.simulator import Simulator

    def spin(n_events):
        sim = Simulator(seed=1, trace_enabled=False)
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < n_events:
                sim.schedule(0.001, tick, label="bench:tick")

        sim.schedule(0.001, tick, label="bench:tick")
        with profile_run(sim) as profiler:
            sim.run()
        assert profiler.per_label["bench:tick"][0] == n_events
        return count[0]

    assert benchmark(spin, 2000) == 2000


def test_histogram_observe_at_scale(benchmark):
    """150k observes with a periodic p95 read, as a health tick makes.

    Observe appends and a read sorts only what arrived since the last
    read; a sorted insert per observe would make the fill quadratic.
    """
    from repro.sim.metrics import Histogram

    rng = SeededRNG(seed=13).stream("bench")
    values = [rng.expovariate(20.0) for _ in range(150_000)]

    def fill():
        histogram = Histogram("rtt")
        for index, value in enumerate(values, 1):
            histogram.observe(value)
            if index % 1000 == 0:
                histogram.quantile(0.95)
        return histogram

    histogram = benchmark.pedantic(fill, rounds=3, iterations=1)
    reference = sorted(values)
    for q in (0.5, 0.95, 0.99):
        idx = q * (len(reference) - 1)
        lo, hi = math.floor(idx), math.ceil(idx)
        frac = idx - lo
        expected = (reference[lo] if reference[lo] == reference[hi] else
                    reference[lo] * (1 - frac) + reference[hi] * frac)
        assert histogram.quantile(q) == expected
