"""Tests for quorum modes and crash-durable governance state:
reachable-majority ballots, journal-backed BallotBox / GovernanceSystem /
OverseerLink recovery, and sticky quarantine across restarts."""

import pytest

from repro.errors import ConfigurationError
from repro.net.network import Network
from repro.net.reliable import ReliableChannel
from repro.safeguards.deactivation import QUARANTINE_REASON, OverseerLink
from repro.safeguards.governance import BallotBox, BallotMember, QUORUM_MODES
from repro.sim.faults import DeviceCrash, FaultInjector, FaultPlan
from repro.sim.simulator import Simulator
from repro.store.journal import Journal
from repro.store.recovery import DurabilityManager
from repro.store.stable import StableStorage
from repro.types import DeviceStatus

from tests.conftest import make_test_device


def voting_fixture(quorum_mode="electorate", journal=None, n=5,
                   partitioned=()):
    sim = Simulator(seed=3)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    transport = ReliableChannel(network, timeout=0.5, max_attempts=3,
                                jitter=0.0)
    box = BallotBox(sim, transport, quorum_mode=quorum_mode, journal=journal)
    for i in range(n):
        BallotMember(transport, f"v{i}", lambda payload: True)
    for voter in partitioned:
        network.suspend(voter)
    return sim, network, transport, box


# -- reachable-majority quorum mode -----------------------------------------------


def test_quorum_mode_validation():
    sim = Simulator(seed=0)
    network = Network(sim)
    with pytest.raises(ConfigurationError):
        BallotBox(sim, network, quorum_mode="optimistic")
    assert "reachable-majority" in QUORUM_MODES


def test_partition_vetoes_electorate_but_not_reachable_majority():
    """The satellite headline: a partition strands a minority of the
    electorate on the overseer's side.  The fail-closed electorate
    default rejects (2 approvals < quorum 3 of 5); reachable-majority
    closes on the respondents instead, so the partition cannot veto."""
    # Electorate mode: 3 of 5 partitioned -> 2 approvals < quorum 3.
    sim, network, transport, box = voting_fixture(
        "electorate", partitioned=("v2", "v3", "v4"))
    results = []
    box.call_vote({"policy": "p"}, [f"v{i}" for i in range(5)], deadline=10.0,
                  on_result=results.append)
    sim.run(until=11.0)
    assert results[0].approved is False
    assert sorted(results[0].missing()) == ["v2", "v3", "v4"]

    # Reachable-majority: the same split closes on the 2 respondents
    # (both approve >= majority-of-2 = 2): the partition cannot veto.
    sim, network, transport, box = voting_fixture(
        "reachable-majority", partitioned=("v2", "v3", "v4"))
    results = []
    box.call_vote({"policy": "p"}, [f"v{i}" for i in range(5)], deadline=10.0,
                  on_result=results.append)
    sim.run(until=11.0)
    assert results[0].approved is True
    assert results[0].quorum_mode == "reachable-majority"


def test_reachable_majority_still_rejects_on_total_silence():
    sim, network, transport, box = voting_fixture(
        "reachable-majority", partitioned=tuple(f"v{i}" for i in range(5)))
    results = []
    box.call_vote({"policy": "p"}, [f"v{i}" for i in range(5)], deadline=10.0,
                  on_result=results.append)
    sim.run(until=11.0)
    assert results[0].approved is False        # zero responses: fail closed


def test_reachable_majority_of_respondents_can_reject():
    sim = Simulator(seed=3)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    transport = ReliableChannel(network, timeout=0.5, max_attempts=3,
                                jitter=0.0)
    box = BallotBox(sim, transport, quorum_mode="reachable-majority")
    BallotMember(transport, "v0", lambda payload: True)
    BallotMember(transport, "v1", lambda payload: False)
    BallotMember(transport, "v2", lambda payload: False)
    results = []
    box.call_vote({"policy": "p"}, ["v0", "v1", "v2"], deadline=10.0,
                  on_result=results.append)
    sim.run(until=11.0)
    assert results[0].approved is False        # 1 approve < majority of 3


def test_explicit_quorum_overrides_reachable_majority():
    """A per-ballot quorum is a hard safety floor: it stays electorate-
    style even on a box configured for reachable-majority."""
    sim, network, transport, box = voting_fixture(
        "reachable-majority", partitioned=("v2", "v3", "v4"))
    results = []
    box.call_vote({"policy": "p"}, [f"v{i}" for i in range(5)], deadline=10.0,
                  quorum=4, on_result=results.append)
    sim.run(until=11.0)
    assert results[0].quorum_mode == "electorate"
    assert results[0].approved is False        # 2 approvals < explicit 4


def test_fail_closed_default_unchanged():
    sim, network, transport, box = voting_fixture()
    assert box.quorum_mode == "electorate"
    results = []
    box.call_vote({"policy": "p"}, [f"v{i}" for i in range(5)], deadline=5.0,
                  on_result=results.append)
    sim.run(until=6.0)
    ballot = results[0]
    assert ballot.quorum == 3                  # strict electorate majority
    assert ballot.quorum_mode == "electorate"
    assert ballot.approved is True


# -- crash-durable ballots ---------------------------------------------------------


def test_ballot_box_recovers_pending_ballot_and_votes_across_a_crash():
    storage = StableStorage()
    sim = Simulator(seed=3)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    transport = ReliableChannel(network, timeout=0.5, max_attempts=3,
                                jitter=0.0)
    box = BallotBox(sim, transport,
                    journal=Journal(storage, "gov.ballots"))
    for i in range(3):
        BallotMember(transport, f"v{i}", lambda payload: True)
    results = []
    box.call_vote({"policy": "p"}, ["v0", "v1", "v2"], deadline=10.0,
                  on_result=results.append)
    sim.run(until=2.0)                         # votes arrive, ballot open
    assert len(box._open) == 1
    votes_before = dict(box.ballots[0].votes)
    assert votes_before                        # some votes actually landed

    accounting = box.crash_volatile()
    assert accounting["lost"] == 1
    assert box.ballots == [] and box._open == {}

    box.recover()
    (ballot,) = box.ballots
    assert ballot.votes == votes_before        # votes survived the crash
    assert not ballot.closed
    sim.run(until=12.0)                        # recovery re-scheduled the close
    assert ballot.closed and ballot.approved is True
    assert sim.metrics.value("governance.ballots_reopened") == 1
    # The recovered counter continues past the replayed ballot ids.
    second = box.call_vote({"policy": "q"}, ["v0"], deadline=1.0)
    assert second.ballot_id == "b2"


def test_governance_system_recovers_approvals_and_revocations():
    from tests.safeguards.test_governance import benign_policy, make_system

    storage = StableStorage()
    journal = Journal(storage, "gov.decisions")
    system = make_system()
    system._journal = journal                  # same wiring, post-construction
    approved = benign_policy("keep")
    revoked = benign_policy("gone")
    system.review(approved, proposer="dev", time=1.0)
    system.review(revoked, proposer="dev", time=2.0)
    system.revoke("gone", reason="test", time=3.0)
    assert system.is_approved("keep") and not system.is_approved("gone")

    accounting = system.crash_volatile()
    assert accounting["lost"] == 2
    assert not system.is_approved("keep")      # amnesia...

    recovery = system.recover()
    assert recovery["replayed"] == 3
    assert system.is_approved("keep")          # ...undone by the journal
    assert not system.is_approved("gone")
    assert [d.policy_id for d in system.decisions] == ["keep", "gone"]


# -- crash-durable quarantine state ------------------------------------------------


def quarantine_fixture(journal=None, quarantine_after=3):
    sim = Simulator(seed=2)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    # backoff=1.0 keeps retries linear: a report sent at t dead-letters
    # at t + 1.5 exactly, which the timing comments below rely on.
    transport = ReliableChannel(network, timeout=0.5, backoff=1.0,
                                max_attempts=3, jitter=0.0)
    network.register("watchdog", lambda message: None)
    device = make_test_device("d0")
    link = OverseerLink(sim, device, transport,
                        quarantine_after=quarantine_after, journal=journal)
    return sim, network, device, link


def test_crash_restart_cannot_reset_the_fail_closed_countdown():
    """End-to-end through the fault layer: a mid-countdown crash/restart
    revives the device with its dead-letter streak intact, so the
    quarantine still fires on schedule instead of starting over."""
    storage = StableStorage()
    sim, network, device, link = quarantine_fixture(
        journal=Journal(storage, "d0.safety"), quarantine_after=4)
    durability = DurabilityManager(sim, storage)
    durability.register("d0", "safety", link)
    injector = FaultInjector(sim, {"d0": device}, network=network,
                             durability=durability)
    network.suspend("watchdog")                # reports at t=1,2,... dead-letter
    injector.apply(FaultPlan(faults=(
        DeviceCrash("d0", at=3.2, restart_after=1.0),
    )))
    # Report@1 dead-letters at 2.5 (streak 1); the crash at 3.2 wipes the
    # volatile counter; restart at 4.2 replays the journal.  Nothing else
    # fires before 4.3, so the streak there is exactly the restored value.
    sim.run(until=4.3)
    assert injector.crashes == 1 and injector.restarts == 1
    assert device.status == DeviceStatus.ACTIVE
    assert link._consecutive_failures == 1     # restored, not reset
    assert not link.quarantined

    sim.run(until=10.0)                        # dead letters resume: 2, 3, 4
    assert link.quarantined
    assert device.deactivation_reason == QUARANTINE_REASON
    assert sim.trace.query("safeguard.quarantine")

    # The journal-less link *does* forget — the loophole the journal closes.
    sim2, network2, device2, link2 = quarantine_fixture(quarantine_after=4)
    network2.suspend("watchdog")
    sim2.run(until=5.0)
    assert link2._consecutive_failures > 0
    link2.crash_volatile()
    link2.recover()
    assert link2._consecutive_failures == 0


def test_quarantine_is_sticky_across_crash_and_restart():
    """A quarantined device must come back *still quarantined* even when
    a later deactivation overwrote the reason: recovery re-asserts the
    journaled quarantine, and the fault layer never revives it."""
    storage = StableStorage()
    sim, network, device, link = quarantine_fixture(
        journal=Journal(storage, "d0.safety"))
    durability = DurabilityManager(sim, storage)
    durability.register("d0", "safety", link)
    injector = FaultInjector(sim, {"d0": device}, network=network,
                             durability=durability)
    network.suspend("watchdog")
    sim.run(until=6.0)                         # streak matures: quarantined
    assert link.quarantined
    assert device.deactivation_reason == QUARANTINE_REASON

    # A crash fault against an already-down device is a no-op: the fault
    # layer never turns a quarantine into a revivable crash.
    injector.apply(FaultPlan(faults=(
        DeviceCrash("d0", at=7.0, restart_after=1.0),
    )))
    sim.run(until=10.0)
    assert injector.crashes == 0 and injector.restarts == 0
    assert device.deactivation_reason == QUARANTINE_REASON

    # Even if some other path *did* overwrite the reason (e.g. a kill
    # order landing mid-quarantine), recovery re-asserts it.
    device.reactivate()
    device.deactivate("fault: crash")
    durability.crash("d0")
    durability.restart("d0")
    assert link.quarantined                    # recovered from the journal
    assert device.status == DeviceStatus.DEACTIVATED
    assert device.deactivation_reason == QUARANTINE_REASON
    assert sim.trace.query("safeguard.quarantine_restored")
