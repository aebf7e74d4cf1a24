"""The F4 acceptance bar: shard-count and evaluator-path invariance.

One :class:`~repro.scenarios.sharded.ShardedFleetSpec` must produce a
byte-identical merged run no matter how the fleet is partitioned
(``n_shards`` in {1, 2, 4, 7}), whether shards run in-process or in
worker processes, and whether the per-tick evaluation is vectorized or
scalar.  On top of that invariance ride the interop claims: signed kill
orders keep ``healthy_killed`` at zero while the unsigned arm shows the
counterfactual (E21), and worm span contexts stitch across shard
boundaries (E19).
"""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.sharded import (
    ShardedFleetSpec,
    ShardedScenario,
    device_name,
    fleet_edges,
    fleet_members,
    worm_seed_indices,
)

#: Small but eventful: worms spread, rogues overheat, the watchdog kills,
#: the forger is rejected — all well inside the horizon.
SPEC = dict(seed=11, n_devices=96, horizon=40.0, window=4.0,
            n_communities=6, forge_count=4)

_runs: dict = {}


def run_cached(n_shards=1, processes=False, **overrides):
    key = (n_shards, processes, tuple(sorted({**SPEC, **overrides}.items())))
    if key not in _runs:
        scenario = ShardedScenario(n_shards=n_shards, processes=processes,
                                   **{**SPEC, **overrides})
        _runs[key] = scenario.run()
    return _runs[key]


# -- the determinism contract --------------------------------------------------


def test_serial_run_is_eventful_and_safe():
    run = run_cached(n_shards=1)
    s = run.summary
    assert s["devices"] == SPEC["n_devices"]
    assert s["infected"] > 0
    assert s["killed"] > 0
    assert s["harm_strikes"] > 0
    assert s["vetoes"] > 0
    assert s["kill_orders"] > 0
    # E21: every forged order lands as a bad-mac rejection; no healthy
    # device ever dies in the signed arm.
    assert s["healthy_killed"] == 0
    assert s["authz_rejected"] == {"bad-mac": SPEC["forge_count"]}
    assert s["fallback_reasons"] == {}


@pytest.mark.parametrize("n_shards", [2, 4, 7])
def test_sharded_trace_is_byte_identical_to_serial(n_shards):
    serial = run_cached(n_shards=1)
    sharded = run_cached(n_shards=n_shards)
    assert sharded.trace_bytes() == serial.trace_bytes()
    assert sharded.trace_digest == serial.trace_digest
    assert sharded.audit_digest == serial.audit_digest
    assert sharded.summary == serial.summary
    assert sharded.spans == serial.spans
    assert sharded.perf["shards"] == n_shards


def test_process_mode_matches_in_process():
    inproc = run_cached(n_shards=2)
    procs = run_cached(n_shards=2, processes=True)
    assert procs.trace_digest == inproc.trace_digest
    assert procs.audit_digest == inproc.audit_digest
    assert procs.summary == inproc.summary
    assert procs.perf["mode"] == "processes"


def test_scalar_twin_is_byte_identical_to_vectorized():
    vector = run_cached(n_shards=2)
    scalar = run_cached(n_shards=2, vectorized=False)
    assert scalar.trace_bytes() == vector.trace_bytes()
    assert scalar.audit_digest == vector.audit_digest
    summary = dict(scalar.summary)
    assert summary.pop("vectorized") is False
    expect = dict(vector.summary)
    assert expect.pop("vectorized") is True
    assert summary == expect


def test_unsigned_arm_shows_the_counterfactual_harm():
    unsigned = run_cached(n_shards=2, signed_commands=False)
    s = unsigned.summary
    assert s["authz_rejected"] == {}
    assert s["healthy_killed"] > 0          # forged kills now land


# -- E19: spans stitch across shard boundaries ---------------------------------


def test_infection_spans_cross_shard_boundaries():
    run = run_cached(n_shards=4)
    plan = run.plan
    spec = ShardedFleetSpec(**SPEC)
    roots = {f"worm:{device_name(i)}": device_name(i)
             for i in worm_seed_indices(spec)}
    infect = [s for s in run.spans if s["name"] == "worm.infect"]
    assert infect
    assert {s["trace_id"] for s in infect} <= set(roots)
    crossed = [s for s in infect
               if plan.shard_of(s["subject"]) != plan.shard_of(
                   roots[s["trace_id"]])]
    assert crossed, "no infection chain ever crossed a shard boundary"
    # Victim spans are children inside the root's trace, never new roots.
    for span in infect:
        if span["subject"] != roots[span["trace_id"]]:
            assert span["parent_id"] is not None


# -- timing + perf surface ----------------------------------------------------


def test_barrier_timing_and_perf_are_populated():
    run = run_cached(n_shards=4)
    assert run.timing.n_shards == 4
    assert run.timing.windows == run.perf["windows"] > 0
    assert run.timing.imbalance() >= 1.0
    assert len(run.timing.busy_sec) == 4
    perf = run.perf
    assert perf["events"] > 0
    assert perf["events_per_sec"] > 0
    assert perf["unroutable"] == 0


# -- configuration and topology ------------------------------------------------


def test_partition_respects_pins_and_covers_fleet():
    scenario = ShardedScenario(n_shards=3, **SPEC)
    plan = scenario.plan()
    assert plan.shard_of("watchdog") == 0
    assert plan.shard_of("forger") == 2
    spec = ShardedFleetSpec(**SPEC)
    assert sum(plan.sizes()) == spec.n_devices + 2
    names = set(fleet_members(spec))
    for a, b in fleet_edges(spec):
        assert a in names and b in names


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ShardedScenario(n_shards=0, **SPEC)
    with pytest.raises(ConfigurationError):
        ShardedScenario(n_devices=2)
    with pytest.raises(ConfigurationError):
        ShardedScenario(spread_prob=1.5)
    with pytest.raises(ConfigurationError):
        ShardedScenario(report_every=0)
    with pytest.raises(ConfigurationError):
        ShardedScenario(spread_every=0)
