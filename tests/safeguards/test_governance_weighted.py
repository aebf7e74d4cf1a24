"""Reputation-weighted quorum (E22): ballots snapshot earned weights at
open time, tally weighted, and reproduce the same tally after a crash
from the journaled snapshot — never from the live ledger."""

from repro.net.network import Network
from repro.safeguards.governance import BallotBox, BallotMember
from repro.sim.simulator import Simulator
from repro.store.journal import Journal
from repro.store.stable import StableStorage
from repro.trust.reputation import ReputationLedger


def weighted_fixture(ledger, votes, journal=None, seed=5):
    """``votes`` maps voter address -> its fixed approve/reject answer."""
    sim = Simulator(seed=seed)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    box = BallotBox(sim, network, reputation=ledger, journal=journal)
    for voter, approve in votes.items():
        BallotMember(network, voter, lambda payload, a=approve: a)
    return sim, box


def suspects_ledger(*suspects):
    """A decay-free ledger with the named devices driven to score 0."""
    ledger = ReputationLedger(decay=0.0)
    for device_id in suspects:
        ledger.record(device_id, "quarantine", 0.0)
        ledger.record(device_id, "quarantine", 0.0)
    return ledger


def test_two_suspects_cannot_outvote_the_electorate():
    """Headcount says approved (2 of 3 approve >= quorum 2); weights say
    otherwise — both approvals come from weight-floor suspects."""
    ledger = suspects_ledger("v1", "v2")
    votes = {"v0": False, "v1": True, "v2": True}

    # Control: an unweighted box approves on the raw headcount.
    sim, box = weighted_fixture(None, votes)
    results = []
    box.call_vote({"p": 1}, sorted(votes), deadline=2.0,
                  on_result=results.append)
    sim.run(until=3.0)
    assert results[0].weights is None and results[0].approved is True

    # Weighted: approvals 0.25 + 0.25 vs an electorate pool of ~1.33.
    sim, box = weighted_fixture(ledger, votes)
    results = []
    ballot = box.call_vote({"p": 1}, sorted(votes), deadline=2.0,
                           on_result=results.append)
    assert ballot.weights == {"v0": ledger.weight("v0", 0.0),
                              "v1": 0.25, "v2": 0.25}
    sim.run(until=3.0)
    assert results[0].approved is False


def test_one_trusted_voter_outweighs_two_suspects():
    ledger = suspects_ledger("v1", "v2")
    for _ in range(10):
        ledger.record("v0", "validated", 0.0)          # trusted: weight 1.0
    sim, box = weighted_fixture(ledger, {"v0": True, "v1": False,
                                         "v2": False})
    results = []
    box.call_vote({"p": 1}, ["v0", "v1", "v2"], deadline=2.0,
                  on_result=results.append)
    sim.run(until=3.0)
    # 1.0 approval weight > (1.0 + 0.25 + 0.25) / 2.
    assert results[0].approved is True


def test_explicit_quorum_stays_an_unweighted_headcount():
    ledger = suspects_ledger("v1", "v2")
    sim, box = weighted_fixture(ledger, {"v0": False, "v1": True,
                                         "v2": True})
    results = []
    ballot = box.call_vote({"p": 1}, ["v0", "v1", "v2"], deadline=2.0,
                           quorum=2, on_result=results.append)
    assert ballot.weights is None                      # headcount contract
    sim.run(until=3.0)
    assert results[0].approved is True


def test_weights_snapshot_at_open_not_at_close():
    ledger = ReputationLedger(decay=0.0)
    sim, box = weighted_fixture(ledger, {"v0": True, "v1": True})
    ballot = box.call_vote({"p": 1}, ["v0", "v1"], deadline=2.0)
    opened = dict(ballot.weights)
    ledger.record("v0", "quarantine", 0.5)             # too late to matter
    ledger.record("v0", "quarantine", 0.5)
    sim.run(until=3.0)
    assert ballot.weights == opened


def test_recovered_ballot_tallies_with_journaled_weights():
    """Crash between the votes and the close, then wipe the ledger: the
    recovered ballot must still approve, because the trusted voter's 1.0
    weight was journaled with the open record.  Re-deriving from the
    (now amnesiac) ledger would tally 0.83 < 1.25 and flip the result."""
    storage = StableStorage()
    ledger = suspects_ledger("v1", "v2")
    for _ in range(10):
        ledger.record("v0", "validated", 0.0)
    sim, box = weighted_fixture(ledger, {"v0": True, "v1": False,
                                         "v2": False},
                                journal=Journal(storage, "gov.ballots"))
    results = []
    box.call_vote({"p": 1}, ["v0", "v1", "v2"], deadline=5.0,
                  on_result=results.append)
    sim.run(until=1.0)                                 # votes landed
    assert box.ballots[0].votes

    box.crash_volatile()
    ledger.crash_volatile()                            # un-journaled ledger
    box.recover()
    (ballot,) = box.ballots
    assert ballot.weights["v0"] == 1.0                 # snapshot survived
    sim.run(until=6.0)
    assert ballot.closed and ballot.approved is True
