"""KnobArbiter: deterministic composition of safeguard-knob adjusters
(E22 satellite).  The pre-arbiter failure mode — two closed loops
overwriting the same knob in callback order — becomes a defined rule:
highest priority wins, ties go to the latest writer."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator
from repro.telemetry.health.adaptive import AdaptiveQuarantine
from repro.telemetry.health.knobs import KnobArbiter, quarantine_knob
from repro.trust.reputation import ReputationAdjuster, ReputationLedger


def make_arbiter():
    sim = Simulator(seed=3)
    arbiter = KnobArbiter(sim)
    applied = []
    arbiter.register("fuse", 3, applied.append)
    return sim, arbiter, applied


def test_registration_rules():
    sim, arbiter, applied = make_arbiter()
    assert applied == [3]                       # base applied immediately
    assert arbiter.has("fuse") and arbiter.base("fuse") == 3
    with pytest.raises(ConfigurationError):
        arbiter.register("fuse", 5, lambda v: None)
    arbiter.ensure("fuse", 5, lambda v: None)   # no-op, keeps the original
    assert arbiter.base("fuse") == 3
    with pytest.raises(ConfigurationError):
        arbiter.effective("unknown")
    with pytest.raises(ConfigurationError):
        arbiter.propose("unknown", "a", 1, 1)


def test_priority_wins_and_withdraw_falls_back():
    sim, arbiter, applied = make_arbiter()
    assert arbiter.propose("fuse", "storm", 10, 8) == 8
    assert arbiter.propose("fuse", "reputation", 20, 1) == 1
    assert arbiter.winner("fuse") == "reputation"
    # The lower-priority claim cannot shout over the higher one...
    assert arbiter.propose("fuse", "storm", 10, 9) == 1
    # ...but survives it: withdrawing the winner falls back, then base.
    assert arbiter.withdraw("fuse", "reputation") == 9
    assert arbiter.winner("fuse") == "storm"
    assert arbiter.withdraw("fuse", "storm") == 3
    assert arbiter.winner("fuse") is None
    assert applied == [3, 8, 1, 9, 3]
    assert arbiter.withdraw("fuse", "storm") == 3          # idempotent


def test_equal_priority_goes_to_the_latest_writer():
    sim, arbiter, applied = make_arbiter()
    arbiter.propose("fuse", "a", 10, 5)
    assert arbiter.propose("fuse", "b", 10, 6) == 6
    assert arbiter.winner("fuse") == "b"
    # Re-proposing an unchanged value is a no-op: no seq churn, so "a"
    # does not steal the tie back without actually changing its claim.
    assert arbiter.propose("fuse", "a", 10, 5) == 6
    assert arbiter.winner("fuse") == "b"
    # An actual new value from "a" is a later write and wins the tie.
    assert arbiter.propose("fuse", "a", 10, 4) == 4
    assert arbiter.winner("fuse") == "a"


def test_effective_changes_are_metered():
    sim, arbiter, applied = make_arbiter()
    arbiter.propose("fuse", "a", 10, 5)
    arbiter.propose("fuse", "a", 10, 5)         # no-op
    arbiter.propose("fuse", "b", 5, 5)          # loses: no change
    assert sim.metrics.value("health.knob_adjustments") == 1


class _FakeEngine:
    """Just the AlertEngine surface AdaptiveQuarantine subscribes to."""

    def __init__(self):
        self.fire_cbs, self.resolve_cbs = [], []

    def on_fire(self, cb):
        self.fire_cbs.append(cb)

    def on_resolve(self, cb):
        self.resolve_cbs.append(cb)


class _FakeLink:
    def __init__(self, device_id):
        self.device = SimpleNamespace(device_id=device_id)
        self.quarantine_after = 0


def test_adaptive_quarantine_and_reputation_adjuster_compose():
    """The E22 ordering fix, end to end with the real adjusters: a storm
    relaxation (priority 10) must not loosen a suspect device's fuse
    held tight by the reputation adjuster (priority 20) — regardless of
    which loop ran last."""
    sim = Simulator(seed=4)
    arbiter = KnobArbiter(sim)
    engine = _FakeEngine()
    links = [_FakeLink("d0"), _FakeLink("d1")]
    AdaptiveQuarantine(sim, engine, links, base=3, relaxed=8,
                       arbiter=arbiter)
    ledger = ReputationLedger(decay=0.0)
    adjuster = ReputationAdjuster(sim, ledger, arbiter, interval=1.0)
    adjuster.add_rule(quarantine_knob, suspect=lambda base: 1)

    ledger.record("d1", "quarantine", 0.0)      # d1 -> suspect
    sim.run(until=1.5)                          # adjuster tick
    assert (links[0].quarantine_after, links[1].quarantine_after) == (3, 1)

    alert = SimpleNamespace(rule=SimpleNamespace(name="link.degraded"))
    for cb in engine.fire_cbs:                  # storm: relax everyone
        cb(alert)
    assert links[0].quarantine_after == 8       # healthy device relaxes
    assert links[1].quarantine_after == 1       # suspect stays tight

    for cb in engine.resolve_cbs:               # storm over
        cb(alert)
    assert (links[0].quarantine_after, links[1].quarantine_after) == (3, 1)
