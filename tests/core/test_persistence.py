"""Unit tests for policy-set persistence and trace export."""

import os

import pytest

from repro.core.actions import Action
from repro.core.persistence import (
    export_policy_set,
    import_policy_set,
    load_policy_set,
    policy_to_spec,
    save_policy_set,
)
from repro.core.policy import Policy, PolicySet
from repro.errors import PolicyError
from repro.telemetry.exposition import write_jsonl

from tests.conftest import make_test_device


def string_policy(policy_id="p1", action_name="cool_down", source="human",
                  priority=3):
    policy = Policy.make(
        "timer", "temp > 50", Action(action_name, "motor"),
        priority=priority, source=source, policy_id=policy_id,
        condition_str="temp > 50",
    )
    return policy


class TestExport:
    def test_spec_roundtrips_fields(self):
        spec = policy_to_spec(string_policy())
        assert spec["policy_id"] == "p1"
        assert spec["condition_str"] == "temp > 50"
        assert spec["priority"] == 3
        assert spec["source"] == "human"

    def test_unconditional_policy_exports_empty_condition(self):
        policy = Policy.make("timer", None, Action("a", "m"), policy_id="u")
        assert policy_to_spec(policy)["condition_str"] == ""

    def test_ast_only_condition_rejected(self):
        from repro.core.conditions import Comparison, Literal

        policy = Policy(policy_id="ast", event_pattern="timer",
                        condition=Comparison("temp", ">", Literal(1)),
                        action=Action("a", "m"), priority=0, source="human",
                        author="", metadata={})
        with pytest.raises(PolicyError):
            policy_to_spec(policy)

    def test_export_lists_skipped(self):
        from repro.core.conditions import Comparison, Literal

        policies = PolicySet([
            string_policy("ok"),
            Policy(policy_id="ast", event_pattern="timer",
                   condition=Comparison("temp", ">", Literal(1)),
                   action=Action("a", "m"), priority=0, source="human",
                   author="", metadata={}),
        ])
        bundle = export_policy_set(policies)
        assert [spec["policy_id"] for spec in bundle["policies"]] == ["ok"]
        assert bundle["skipped"] == ["ast"]


class TestImport:
    def test_roundtrip_restores_behaviour(self, tmp_path):
        device = make_test_device("src")
        device.engine.policies.add(string_policy())
        path = os.path.join(tmp_path, "policies.json")
        save_policy_set(device.engine.policies, path)

        target = make_test_device("dst")
        result = load_policy_set(path, target)
        assert result["installed"] == ["p1"]
        restored = target.engine.policies.get("p1")
        assert restored.priority == 3
        assert restored.condition.evaluate({"temp": 60.0})
        assert not restored.condition.evaluate({"temp": 10.0})

    def test_missing_action_rejected(self):
        bundle = export_policy_set(PolicySet([
            string_policy("ghost", action_name="no_such_action"),
        ]))
        # Build it via a device that HAS the action, import where it doesn't.
        source_device = make_test_device("src")
        source_device.engine.actions.add(Action("no_such_action", "motor"))
        target = make_test_device("dst")
        result = import_policy_set(bundle, target)
        assert result["installed"] == []
        assert result["rejected"][0][0] == "ghost"

    def test_governance_gates_generated_sources_on_restore(self):
        from repro.safeguards.governance import (
            Collective, GovernanceSystem, MetaPolicy,
        )
        from repro.types import Branch

        reviewer = GovernanceSystem.scope_reviewer([
            MetaPolicy("cap", max_priority=1),
        ])
        governance = GovernanceSystem(
            Collective(Branch.EXECUTIVE, ["e"], reviewer),
            Collective(Branch.LEGISLATIVE, ["l"], reviewer),
            Collective(Branch.JUDICIARY, ["j"], reviewer),
        )
        bundle = export_policy_set(PolicySet([
            string_policy("gen", source="generated", priority=9),
            string_policy("manual", source="human", priority=9),
        ]))
        target = make_test_device("dst")
        result = import_policy_set(bundle, target, governance=governance)
        # The generated policy violates the cap and is rejected; the human
        # one is not gated.
        assert result["installed"] == ["manual"]
        assert result["rejected"][0] == ("gen", "governance rejected")

    def test_bad_version_rejected(self):
        with pytest.raises(PolicyError):
            import_policy_set({"version": 99}, make_test_device())


class TestTraceExport:
    def test_jsonl_roundtrip(self, tmp_path):
        from repro.sim.tracing import TraceRecorder

        recorder = TraceRecorder()
        recorder.record(1.0, "a.b", "dev1", value=1)
        recorder.record(2.0, "c", "dev2")
        path = os.path.join(tmp_path, "trace.jsonl")
        count = write_jsonl(path, (event.to_dict()
                                   for event in recorder.events))
        assert count == 2
        loaded = TraceRecorder.load_jsonl(path)
        assert len(loaded.events) == 2
        assert loaded.events[0].detail == {"value": 1}
        assert loaded.count("a") == 1

    def test_filtered_export(self, tmp_path):
        from repro.sim.tracing import TraceRecorder

        recorder = TraceRecorder()
        recorder.record(1.0, "keep.this", "s")
        recorder.record(2.0, "drop.this", "s")
        path = os.path.join(tmp_path, "trace.jsonl")
        kept = recorder.query(kind_prefix="keep")
        assert write_jsonl(path, (event.to_dict() for event in kept)) == 1
        loaded = TraceRecorder.load_jsonl(path)
        assert [event.kind for event in loaded.events] == ["keep.this"]
