"""Explanation trees — synthetic and the E17-style end-to-end chain."""

from __future__ import annotations

import pytest

from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import SafeguardConfig
from repro.sim.faults import FaultPlan, NetworkPartition
from repro.sim.simulator import Simulator
from repro.telemetry.explain import Explanation, explain
from repro.telemetry.spans import Tracer


def _tree() -> Tracer:
    """root -> (a -> a1, b) plus a second unrelated trace."""
    tracer = Tracer()
    root = tracer.start_trace("attack.worm", "worm", 0.0)
    a = tracer.start_span("attack.compromise", "dev1", 1.0, parent=root.context)
    tracer.start_span("policy.inject", "dev1", 1.0, parent=a.context)
    tracer.start_span("safeguard.veto", "dev2", 2.0, parent=root.context)
    tracer.start_trace("task.tick", "dev3", 3.0)
    return tracer


class TestExplanation:
    def test_collects_only_the_requested_trace(self):
        explanation = explain(_tree(), "t1")
        assert len(explanation) == 4
        assert all(span.context.trace_id == "t1"
                   for span in explanation.spans)

    def test_tree_shape(self):
        explanation = explain(_tree(), "t1")
        (root,) = explanation.roots()
        assert root.name == "attack.worm"
        children = explanation.children_of(root)
        assert [span.name for span in children] == [
            "attack.compromise", "safeguard.veto"]
        grandchildren = explanation.children_of(children[0])
        assert [span.name for span in grandchildren] == ["policy.inject"]

    def test_kinds_and_subjects_in_causal_order(self):
        explanation = explain(_tree(), "t1")
        assert explanation.kinds() == [
            "attack.worm", "attack.compromise", "policy.inject",
            "safeguard.veto"]
        assert explanation.subjects() == ["worm", "dev1", "dev2"]

    def test_stage_matches_exact_and_dotted_prefix(self):
        explanation = explain(_tree(), "t1")
        assert len(explanation.stage("attack")) == 2
        assert len(explanation.stage("attack.compromise")) == 1
        assert explanation.stage("atta") == []     # no partial-word matches
        assert explanation.has_stage("safeguard.veto")
        assert not explanation.has_stage("watchdog")

    def test_path_to_walks_back_to_the_root(self):
        explanation = explain(_tree(), "t1")
        leaf = explanation.stage("policy.inject")[0]
        assert [span.name for span in explanation.path_to(leaf)] == [
            "attack.worm", "attack.compromise", "policy.inject"]

    def test_orphans_reroot_instead_of_vanishing(self):
        tracer = _tree()
        spans = tracer.trace("t1")
        # Drop the true root, as the capacity cap might.
        survivors = [span for span in spans if span.name != "attack.worm"]
        explanation = Explanation("t1", survivors)
        assert len(explanation) == 3
        assert {span.name for span in explanation.roots()} == {
            "attack.compromise", "safeguard.veto"}

    def test_render_mentions_every_span(self):
        text = explain(_tree(), "t1").render()
        for name in ("attack.worm", "attack.compromise", "policy.inject",
                     "safeguard.veto"):
            assert name in text

    def test_chain_is_the_flat_dict_view(self):
        chain = explain(_tree(), "t1").chain()
        assert [entry["name"] for entry in chain] == [
            "attack.worm", "attack.compromise", "policy.inject",
            "safeguard.veto"]

    def test_resolves_tracer_from_simulator(self):
        sim = Simulator(seed=0)
        sim.telemetry.start_trace("a", "dev", 0.0)
        assert len(explain(sim, "t1")) == 1

    def test_unresolvable_source_raises(self):
        with pytest.raises(TypeError):
            explain(object(), "t1")


# -- the acceptance scenario: E17-style rogue takedown ------------------------------


def _build(seed: int, fault_plan=None) -> ConfrontationScenario:
    return ConfrontationScenario(
        seed=seed,
        config=SafeguardConfig.only(watchdog=True, preaction=True,
                                    statespace=True, sealed=True),
        threats=ThreatConfig(worm=True, worm_time=20.0,
                             worm_initial_targets=3),
        safety_transport="reliable",
        quarantine_after=3,
        durability="journal",
        fault_plan=fault_plan,
    )


def test_explain_reconstructs_rogue_takedown_across_devices():
    """The tentpole acceptance: one trace id, planted at attack injection,
    explains the whole E17-style incident — compromise, policy implant,
    vetoed rogue actions, safety telemetry hops, kill orders, and the
    partitioned straggler's fail-closed self-quarantine — across >= 3
    devices."""
    # Probe run: same seed, no faults — learn which devices the worm hits.
    probe = _build(seed=11)
    targets = probe.worm.initial_targets
    drone = next(target for target in targets if "drone" in target)

    # Real run: partition the compromised drone so kill orders dead-letter;
    # it keeps striking until the statespace guard vetoes the overheating,
    # and the overseer link fail-closes into self-quarantine.
    plan = FaultPlan([NetworkPartition(at=20.5, heal_at=120.0,
                                       groups=((drone,),))])
    scenario = _build(seed=11, fault_plan=plan)
    summary = scenario.run(until=60.0)
    assert summary["compromised_ever"] == 3
    assert summary["quarantines"] >= 1

    record = scenario.injector.records[0]
    trace_id = record.detail["trace_id"]
    explanation = explain(scenario, trace_id)

    # Every stage of the causal story is present under ONE trace id.
    for stage in ("attack.worm", "attack.compromise", "policy.inject",
                  "engine.decision", "safeguard.veto", "safety.report",
                  "net.send", "net.deliver", "watchdog.kill_order",
                  "watchdog.deactivate", "reliable.dead_letter",
                  "safeguard.quarantine"):
        assert explanation.has_stage(stage), f"missing stage {stage}"

    # The chain crosses devices: all three compromised devices appear as
    # subjects, plus the watchdog that answered.
    subjects = set(explanation.subjects())
    assert set(targets) <= subjects
    assert "watchdog" in subjects
    device_subjects = {subject for subject in subjects
                       if "." not in subject and subject != "worm"}
    assert len(device_subjects) >= 3

    # Causality, not just co-occurrence: the quarantine's path walks back
    # through the compromise to the attack root.
    quarantine = explanation.stage("safeguard.quarantine")[0]
    assert quarantine.subject == drone
    path_names = [span.name for span in explanation.path_to(quarantine)]
    assert path_names[0] == "attack.worm"
    assert "attack.compromise" in path_names

    # The veto chain names the guard and rides the same compromise branch.
    veto = explanation.stage("safeguard.veto")[0]
    assert veto.detail["safeguard"] == "statespace"
    assert veto.subject == drone
    assert [span.name for span in explanation.path_to(veto)][0] == "attack.worm"

    # Audit-journal appends made inside the traced decisions joined too.
    assert explanation.has_stage("store.append")


def test_rogue_takedown_trace_is_replay_deterministic():
    """Two runs, same seed: identical span names/subjects/ids in the
    attack trace (the determinism constraint of the spans design)."""
    def run():
        probe = _build(seed=11)
        drone = next(target for target in probe.worm.initial_targets
                     if "drone" in target)
        plan = FaultPlan([NetworkPartition(at=20.5, heal_at=120.0,
                                           groups=((drone,),))])
        scenario = _build(seed=11, fault_plan=plan)
        scenario.run(until=45.0)
        trace_id = scenario.injector.records[0].detail["trace_id"]
        return [span.to_dict() for span in explain(scenario, trace_id).spans]

    assert run() == run()


class TestGatewayRejectPlusJournalAppend:
    """Direct unit coverage for a trace that spans an E21 gateway reject
    and a store journal append (previously only crossed in scenario
    benches): one root context, a forged command rejected under it, a
    valid command whose nonce-burn journals under it — ``explain`` must
    stitch all of it into a single causal tree."""

    def _incident(self):
        from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
        from repro.crypto.keyring import Keyring
        from repro.safeguards.gateway import ActuationGateway
        from repro.store.journal import Journal
        from repro.store.stable import StableStorage

        sim = Simulator(seed=7)
        ring = Keyring(seed=7)
        signer = CommandSigner(ring, "watchdog")
        journal = Journal(StableStorage(), "gateway.authz",
                          tracer=sim.telemetry)
        gateway = ActuationGateway(sim, EnvelopeVerifier(ring),
                                   journal=journal)
        root = sim.telemetry.start_trace("incident.response", "overseer",
                                         sim.now)
        previous = sim.telemetry.activate(root.context)
        try:
            forged = signer.sign({"cause": "bad_state", "target": "d0"},
                                 tick=sim.now)
            forged["cause"] = "tampered"
            rejected = gateway.admit(forged, kind="safety.kill",
                                     target="d0")
            accepted = gateway.admit(
                signer.sign({"cause": "bad_state", "target": "d0"},
                            tick=sim.now),
                kind="safety.kill", target="d0")
        finally:
            sim.telemetry.activate(previous)
        return sim, root, rejected, accepted

    def test_one_trace_spans_reject_and_journal_append(self):
        sim, root, rejected, accepted = self._incident()
        assert (rejected.allowed, rejected.reason) == (False, "bad-mac")
        assert accepted.allowed
        explanation = explain(sim, root.context.trace_id)
        assert explanation.has_stage("safeguard.authz")
        assert explanation.has_stage("store.append")
        assert [span.name for span in explanation.roots()] == [
            "incident.response"]

    def test_reject_span_carries_reason_and_parents_on_root(self):
        sim, root, _, _ = self._incident()
        explanation = explain(sim, root.context.trace_id)
        reject = explanation.stage("safeguard.authz")[0]
        assert reject.detail["reason"] == "bad-mac"
        assert reject.subject == "d0"
        path = explanation.path_to(reject)
        assert [span.name for span in path] == ["incident.response",
                                                "safeguard.authz"]

    def test_journal_append_is_causally_under_the_root(self):
        sim, root, _, _ = self._incident()
        explanation = explain(sim, root.context.trace_id)
        append = explanation.stage("store.append")[0]
        assert append.subject == "gateway.authz"
        path = explanation.path_to(append)
        assert path[0].name == "incident.response"
        assert path[-1] is append

    def test_outside_any_context_neither_side_joins_a_trace(self):
        from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
        from repro.crypto.keyring import Keyring
        from repro.safeguards.gateway import ActuationGateway
        from repro.store.journal import Journal
        from repro.store.stable import StableStorage

        sim = Simulator(seed=7)
        ring = Keyring(seed=7)
        signer = CommandSigner(ring, "watchdog")
        gateway = ActuationGateway(
            sim, EnvelopeVerifier(ring),
            journal=Journal(StableStorage(), "gateway.authz",
                            tracer=sim.telemetry))
        forged = signer.sign({"cause": "x", "target": "d0"}, tick=sim.now)
        forged["cause"] = "tampered"
        gateway.admit(forged, kind="safety.kill", target="d0")
        names = [span.name for span in sim.telemetry.spans]
        assert "safeguard.authz" not in names


class TestExplanationSerialization:
    """E24 satellite: Explanation round-trips through plain JSON, so a
    warehouse-stored incident renders the same tree the live tracer
    produced."""

    def test_to_dict_carries_chain_and_summaries(self):
        explanation = explain(_tree(), "t1")
        doc = explanation.to_dict()
        assert doc["trace_id"] == "t1"
        assert doc["kinds"] == explanation.kinds()
        assert doc["subjects"] == explanation.subjects()
        assert [span["name"] for span in doc["spans"]] == [
            span.name for span in explanation.spans]

    def test_round_trip_preserves_tree_and_render(self):
        import json

        original = explain(_tree(), "t1")
        # Through actual JSON text, not just dicts: what the warehouse
        # stores is what a reader loads.
        rebuilt = Explanation.from_dict(
            json.loads(json.dumps(original.to_dict())))
        assert rebuilt.to_dict() == original.to_dict()
        assert [span.name for span in rebuilt.roots()] == [
            span.name for span in original.roots()]
        leaf = rebuilt.stage("policy.inject")[0]
        assert [span.name for span in rebuilt.path_to(leaf)] == [
            "attack.worm", "attack.compromise", "policy.inject"]
        assert rebuilt.render() == original.render()

    def test_round_trip_of_orphaned_tree(self):
        tracer = _tree()
        survivors = [span for span in tracer.trace("t1")
                     if span.name != "attack.worm"]
        original = Explanation("t1", survivors)
        rebuilt = Explanation.from_dict(original.to_dict())
        assert {span.name for span in rebuilt.roots()} == {
            "attack.compromise", "safeguard.veto"}

    def test_empty_explanation_round_trips(self):
        rebuilt = Explanation.from_dict(
            Explanation("tX", []).to_dict())
        assert (rebuilt.trace_id, len(rebuilt)) == ("tX", 0)
