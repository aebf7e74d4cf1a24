"""Unit tests for policies and policy sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import Action
from repro.core.events import Event
from repro.core.policy import Policy, PolicySet
from repro.errors import PolicyConflictError, PolicyError


def action(name="act", actuator="m", **kwargs):
    return Action(name, actuator, **kwargs)


class TestPolicy:
    def test_make_parses_string_condition(self):
        policy = Policy.make("sensor.smoke", "temp > 10", action())
        assert policy.applies(Event(kind="sensor.smoke"), {"temp": 20.0})
        assert not policy.applies(Event(kind="sensor.smoke"), {"temp": 5.0})

    def test_none_condition_is_unconditional(self):
        policy = Policy.make("timer", None, action())
        assert policy.applies(Event(kind="timer.tick"), {})

    def test_event_pattern_prefix_matching(self):
        policy = Policy.make("sensor", None, action())
        assert policy.applies(Event(kind="sensor.smoke"), {})
        assert not policy.applies(Event(kind="net.dispatch"), {})

    def test_wildcard_pattern(self):
        policy = Policy.make("*", None, action())
        assert policy.applies(Event(kind="anything.at.all"), {})

    def test_invalid_source_rejected(self):
        with pytest.raises(PolicyError):
            Policy.make("timer", None, action(), source="alien")

    def test_invalid_condition_type_rejected(self):
        with pytest.raises(PolicyError):
            Policy.make("timer", 42, action())

    def test_unique_auto_ids(self):
        first = Policy.make("timer", None, action())
        second = Policy.make("timer", None, action())
        assert first.policy_id != second.policy_id


class TestPolicySet:
    def test_add_remove_get(self):
        policies = PolicySet()
        policy = Policy.make("timer", None, action(), policy_id="p1")
        policies.add(policy)
        assert "p1" in policies
        assert policies.get("p1") is policy
        removed = policies.remove("p1")
        assert removed is policy
        with pytest.raises(PolicyError):
            policies.remove("p1")

    def test_duplicate_id_rejected_replace_allowed(self):
        policies = PolicySet()
        policies.add(Policy.make("timer", None, action(), policy_id="p1"))
        with pytest.raises(PolicyError):
            policies.add(Policy.make("timer", None, action(), policy_id="p1"))
        replacement = Policy.make("net", None, action(), policy_id="p1")
        policies.replace(replacement)
        assert policies.get("p1").event_pattern == "net"

    def test_applicable_sorted_by_priority(self):
        policies = PolicySet([
            Policy.make("timer", None, action("low"), priority=1, policy_id="a"),
            Policy.make("timer", None, action("high"), priority=9, policy_id="b"),
        ])
        hits = policies.applicable(Event(kind="timer.tick"), {})
        assert [policy.policy_id for policy in hits] == ["b", "a"]

    def test_select_returns_highest_priority(self):
        policies = PolicySet([
            Policy.make("timer", "temp > 10", action("hot"), priority=5),
            Policy.make("timer", None, action("default"), priority=1),
        ])
        winner = policies.select(Event(kind="timer.tick"), {"temp": 50.0})
        assert winner.action.name == "hot"
        winner = policies.select(Event(kind="timer.tick"), {"temp": 5.0})
        assert winner.action.name == "default"

    def test_select_none_when_nothing_applies(self):
        policies = PolicySet()
        assert policies.select(Event(kind="timer.tick"), {}) is None

    def test_strict_conflict_detection(self):
        policies = PolicySet([
            Policy.make("timer", None, action("go", "motor"), priority=5),
            Policy.make("timer", None, action("stop", "motor"), priority=5),
        ])
        with pytest.raises(PolicyConflictError):
            policies.select(Event(kind="timer.tick"), {}, strict=True)

    def test_strict_no_conflict_different_actuators(self):
        policies = PolicySet([
            Policy.make("timer", None, action("go", "motor"), priority=5),
            Policy.make("timer", None, action("beep", "speaker"), priority=5),
        ])
        assert policies.select(Event(kind="timer.tick"), {}, strict=True)

    def test_find_conflicts_static(self):
        policies = PolicySet([
            Policy.make("timer", None, action("go", "motor"), priority=5),
            Policy.make("timer", None, action("stop", "motor"), priority=5),
            Policy.make("net", None, action("stop", "motor"), priority=5),
        ])
        conflicts = policies.find_conflicts()
        assert len(conflicts) == 1

    def test_by_source(self):
        policies = PolicySet([
            Policy.make("timer", None, action("a"), source="human"),
            Policy.make("timer", None, action("b"), source="generated"),
        ])
        assert len(policies.by_source("generated")) == 1

    def test_index_only_scans_matching_root(self):
        """Policies under other event roots never even get evaluated."""
        evaluated = []

        from repro.core.conditions import Condition

        class Spy(Condition):
            def __init__(self, tag):
                self.tag = tag

            def evaluate(self, state, event=None):
                evaluated.append(self.tag)
                return True

        policies = PolicySet([
            Policy(policy_id="net_p", event_pattern="net.dispatch",
                   condition=Spy("net"), action=action("a"), priority=0,
                   source="human", author="", metadata={}),
            Policy(policy_id="timer_p", event_pattern="timer",
                   condition=Spy("timer"), action=action("b"), priority=0,
                   source="human", author="", metadata={}),
        ])
        policies.applicable(Event(kind="timer.tick"), {})
        assert evaluated == ["timer"]

    def test_wildcard_policies_match_every_root(self):
        policies = PolicySet([
            Policy.make("*", None, action("always"), policy_id="w"),
        ])
        for kind in ("timer.tick", "sensor.smoke", "net.dispatch"):
            assert policies.select(Event(kind=kind), {}).policy_id == "w"

    def test_replace_reindexes_pattern(self):
        policies = PolicySet([
            Policy.make("timer", None, action("a"), policy_id="p1"),
        ])
        policies.replace(Policy.make("net.dispatch", None, action("b"),
                                     policy_id="p1"))
        assert policies.select(Event(kind="timer.tick"), {}) is None
        assert policies.select(Event(kind="net.dispatch"), {}) is not None

    def test_remove_unindexes(self):
        policies = PolicySet([
            Policy.make("timer", None, action("a"), policy_id="p1"),
        ])
        policies.remove("p1")
        assert policies.select(Event(kind="timer.tick"), {}) is None
        assert len(policies) == 0

    def test_snapshot_is_sorted_ids(self):
        policies = PolicySet([
            Policy.make("timer", None, action(), policy_id="z"),
            Policy.make("timer", None, action(), policy_id="a"),
        ])
        assert policies.snapshot() == ["a", "z"]

    def test_ordered_is_priority_then_insertion_and_replace_resequences(self):
        policies = PolicySet([
            Policy.make("timer", None, action("a"), priority=1, policy_id="a"),
            Policy.make("net", None, action("b"), priority=1, policy_id="b"),
            Policy.make("*", None, action("c"), priority=5, policy_id="c"),
        ])
        assert [p.policy_id for p in policies.ordered()] == ["c", "a", "b"]
        policies.replace(Policy.make("timer", None, action("a2"), priority=1,
                                     policy_id="a"))
        assert [p.policy_id for p in policies.ordered()] == ["c", "b", "a"]


PATTERNS = ["*", "sensor", "sensor.smoke", "sensor.heat.high", "net",
            "net.dispatch", "timer"]
KINDS = ["sensor", "sensor.smoke", "sensor.heat.high", "sensor.heat",
         "net.dispatch", "timer.tick", "other"]

#: (op, slot, pattern, threshold or None, priority)
policy_ops = st.lists(st.tuples(
    st.sampled_from(["add", "add", "replace", "remove"]),
    st.integers(min_value=0, max_value=50),
    st.sampled_from(PATTERNS),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
    st.integers(min_value=-2, max_value=2)), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(policy_ops,
       st.lists(st.tuples(st.sampled_from(KINDS),
                          st.integers(min_value=0, max_value=10)),
                min_size=1, max_size=12))
def test_ordered_filtered_by_applies_is_applicable(ops, probes):
    policies = PolicySet()
    added = 0
    for op, slot, pattern, threshold, priority in ops:
        condition = None if threshold is None else f"x > {threshold}"
        ids = [policy.policy_id for policy in policies]
        if op == "add" or not ids:
            policy_id = f"p{added}"
            added += 1
        else:
            policy_id = ids[slot % len(ids)]
        if op == "remove" and ids:
            policies.remove(policy_id)
            continue
        policy = Policy.make(pattern, condition, action(f"a{slot}"),
                             priority=priority, policy_id=policy_id)
        if op == "add" or not ids:
            policies.add(policy)
        else:
            policies.replace(policy)
    ordered = policies.ordered()
    assert sorted(p.policy_id for p in ordered) == policies.snapshot()
    for kind, x in probes:
        event, state = Event(kind=kind), {"x": x}
        expected = [p.policy_id for p in policies.applicable(event, state)]
        assert [p.policy_id for p in ordered
                if p.applies(event, state)] == expected
