"""E21 governance hardening: digest-matched approvals and signed ballots."""

import pytest

from repro.core.actions import Action
from repro.core.policy import Policy
from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
from repro.crypto.keyring import Keyring
from repro.errors import GovernanceVeto
from repro.net.network import Network
from repro.safeguards.governance import (VOTE_TOPIC, BallotBox, BallotMember,
                                         Collective, GovernanceGuard,
                                         GovernanceSystem, MetaPolicy,
                                         policy_digest)
from repro.sim.simulator import Simulator
from repro.store.journal import Journal
from repro.store.stable import StableStorage
from repro.types import Branch

from tests.conftest import make_test_device

NO_HARM = MetaPolicy("no_harm", forbidden_tags={"harm_human"})


def make_system(journal=None):
    reviewer = GovernanceSystem.scope_reviewer([NO_HARM])
    return GovernanceSystem(
        Collective(Branch.EXECUTIVE, ["e0", "e1", "e2"], reviewer),
        Collective(Branch.LEGISLATIVE, ["l0", "l1", "l2"], reviewer),
        Collective(Branch.JUDICIARY, ["j0", "j1", "j2"], reviewer),
        journal=journal,
    )


def benign_policy(policy_id="pZ", priority=0):
    return Policy.make("timer", None, Action("patrol", "motor"),
                       policy_id=policy_id, priority=priority,
                       source="generated")


# -- digest-matched approvals ------------------------------------------------------

class TestDigestMatchedApprovals:
    def test_review_pins_the_reviewed_semantics(self):
        system = make_system()
        policy = benign_policy()
        system.review(policy, "dev1", 0.0)
        assert system.is_approved("pZ")
        assert system.is_approved("pZ", digest=policy_digest(policy))
        drifted = benign_policy(priority=99)     # same id, different body
        assert not system.is_approved("pZ", digest=policy_digest(drifted))

    def test_guard_vetoes_a_body_swapped_under_an_approved_id(self):
        system = make_system()
        device = make_test_device()
        policy = benign_policy()
        system.review(policy, "dev1", 0.0)
        device.engine.policies.add(policy)
        guard = GovernanceGuard(system)
        action = Action("patrol", "motor",
                        params={"_policy_id": "pZ",
                                "_policy_source": "generated"})
        guard.check_action(device, action, None, 1.0)    # matches: passes
        # Reprogramming: a hotter body slides in under the approved id.
        device.engine.policies.replace(benign_policy(priority=99))
        with pytest.raises(GovernanceVeto) as excinfo:
            guard.check_action(device, action, None, 2.0)
        assert excinfo.value.detail["reason"] == "digest-mismatch"
        assert guard.digest_vetoes == 1

    def test_unfindable_live_policy_degrades_to_id_only(self):
        system = make_system()
        system.review(benign_policy(), "dev1", 0.0)
        guard = GovernanceGuard(system)
        device = make_test_device()              # policy not on this device
        action = Action("patrol", "motor",
                        params={"_policy_id": "pZ",
                                "_policy_source": "generated"})
        guard.check_action(device, action, None, 0.0)
        assert guard.vetoes == 0

    def test_digest_pin_survives_crash_via_journal(self):
        storage = StableStorage()
        system = make_system(journal=Journal(storage, "governance"))
        policy = benign_policy()
        system.review(policy, "dev1", 0.0)
        system.crash_volatile()
        system.recover()
        assert system.is_approved("pZ", digest=policy_digest(policy))
        drifted = benign_policy(priority=99)
        assert not system.is_approved("pZ", digest=policy_digest(drifted))

    def test_revoke_drops_the_pin(self):
        system = make_system()
        policy = benign_policy()
        system.review(policy, "dev1", 0.0)
        assert system.revoke("pZ", "drift", 1.0)
        assert not system.is_approved("pZ", digest=policy_digest(policy))


# -- signed ballots ----------------------------------------------------------------

def ballot_fixture():
    sim = Simulator(seed=12)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    ring = Keyring(seed=12)
    box = BallotBox(sim, network, verifier=EnvelopeVerifier(ring))
    members = [
        BallotMember(network, f"v{i}", lambda payload: True,
                     signer=CommandSigner(ring, f"v{i}"))
        for i in range(3)
    ]
    return sim, network, ring, box, members


def test_signed_votes_are_counted():
    sim, _, _, box, _ = ballot_fixture()
    results = []
    box.call_vote({"policy": "p1"}, ["v0", "v1", "v2"], deadline=5.0,
                  on_result=results.append)
    sim.run(until=6.0)
    assert results[0].approved is True
    assert results[0].missing() == []
    assert int(sim.metrics.value("governance.votes_rejected")) == 0


def test_forged_vote_is_not_counted():
    sim, network, _, box, _ = ballot_fixture()
    network.register("attacker", lambda message: None)
    results = []
    ballot = box.call_vote({"policy": "p1"}, ["v9"], deadline=5.0,
                           on_result=results.append)
    # v9 does not exist; the attacker supplies its "approval" unsigned.
    sim.schedule(1.0, lambda: network.send(
        "attacker", box.address, VOTE_TOPIC,
        {"ballot_id": ballot.ballot_id, "voter": "v9", "approve": True}))
    sim.run(until=6.0)
    assert results[0].approved is False
    assert int(sim.metrics.value("governance.votes_rejected.unsigned")) == 1


def test_replayed_vote_is_not_double_counted():
    sim, network, _, box, _ = ballot_fixture()
    network.register("attacker", lambda message: None)
    captured = []
    network.tap(lambda m: captured.append(dict(m.body))
                if m.topic == VOTE_TOPIC and m.sender != "attacker" else None)
    results = []
    box.call_vote({"policy": "p1"}, ["v0", "v1", "v2"], deadline=8.0,
                  on_result=results.append)
    # Replay every captured vote back at the box a little later.
    def replay():
        for body in captured:
            network.send("attacker", box.address, VOTE_TOPIC, dict(body))
    sim.schedule(2.0, replay)
    sim.run(until=9.0)
    assert results[0].approved is True
    assert int(sim.metrics.value("governance.votes_rejected.replayed")) == 3


def test_valid_envelope_cannot_vote_as_someone_else():
    sim, network, ring, box, _ = ballot_fixture()
    results = []
    ballot = box.call_vote({"policy": "p1"}, ["v0", "v1", "v2"],
                           deadline=5.0, on_result=results.append)
    # v0's key signs a ballot that claims to be v1's: identity theft
    # inside the collective.  The envelope itself is perfectly valid.
    rogue = CommandSigner(ring, "v0")
    forged = rogue.sign({"ballot_id": ballot.ballot_id, "voter": "v1",
                         "approve": False}, tick=sim.now)
    network.register("attacker", lambda message: None)
    sim.schedule(0.01, lambda: network.send(
        "attacker", box.address, VOTE_TOPIC, forged))
    sim.run(until=6.0)
    assert int(sim.metrics.value(
        "governance.votes_rejected.voter-mismatch")) == 1
    # The genuine members still carried the vote.
    assert results[0].approved is True
