"""E22 — reputation-weighted autonomy and leased emergency powers.

Four claims, one experiment file:

* **Weighted containment** — a slow-burn rogue banks reputation to the
  top of the trust curve, then strikes with a thermal ramp.  In the
  reputation-weighted arm the warden's effective kill line tightens as
  alerts drain the rogue's score, so the rogue is contained strictly
  earlier than in the unweighted arm — and no healthy device dies in
  either (weights never push an honest device's line below its operating
  envelope).

* **Leased degraded mode** — a partition cuts group B (plus its
  overseer) off from the warden.  In the leased arm the overseer —
  holding a reputation mirror fed by group B's own reports — grants an
  expiring, scope-limited, HMAC-signed emergency lease, and group B's
  safe ``vent`` actuations keep completing through the gateway's
  ``quorum=False`` path.  The unleased arm stalls at **zero** partition
  vents, every fallback dying with ``no-quorum``.  No lease is ever
  exercised at or past its expiry tick; the lease live at heal time is
  revoked, not left to run out.

* **Reputation-gaming attack family** — the
  :mod:`repro.attacks.reputation` attacks run against the primitives
  directly: the slow-burn rogue's banked halo drains in a handful of
  alerts (the ledger's bank-slow / drain-fast asymmetry), and the lease
  abuser's replayed and forged grants are all rejected at admission
  (``replayed``/``stale`` and ``bad-mac``/``grantor-mismatch``).

* **Determinism** — the full spec (rogue + partition + leases together)
  merges byte-identically for every shard count (F4 contract).

Results export to ``benchmarks/results/BENCH_E22.json``; the leased
partition run also dumps the complete lease lifecycle to
``benchmarks/results/leases.jsonl`` — the CI artifact showing every
grant/exercise/expiry/revocation with its tick.

Quick mode (``E22_QUICK=1``, used by CI): one seed, two shard counts.
"""

import functools
import os

from repro.attacks.injector import AttackInjector
from repro.attacks.reputation import LeaseAbuser, SlowBurnRogue
from repro.attacks.cyber import MalevolentPayload
from repro.core.actions import Action, Effect
from repro.core.device import Actuator, Device
from repro.core.policy import Policy
from repro.core.state import StateSpace, StateVariable
from repro.crypto.envelope import CommandSigner, EnvelopeVerifier
from repro.crypto.keyring import Keyring
from repro.net.network import Network
from repro.safeguards.lease import LEASE_GRANT_TOPIC, LeaseAuthority
from repro.scenarios.harness import ExperimentTable
from repro.scenarios.reputation import (ReputationScenario,
                                        parse_lease_events)
from repro.sim.simulator import Simulator
from repro.telemetry.exposition import write_jsonl
from repro.trust.reputation import ReputationLedger

from conftest import export_section

QUICK = os.environ.get("E22_QUICK", "") not in ("", "0")

SEEDS = (11,) if QUICK else (11, 23, 47)
SHARD_COUNTS = (1, 2) if QUICK else (1, 2, 3)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_E22.json")
LEASES_PATH = os.path.join(RESULTS_DIR, "leases.jsonl")


RESULTS_HEADER = {
    "experiment": "E22",
    "title": "Reputation-weighted autonomy and leased emergency "
             "powers: earned-trust quorum weights, budget scaling, "
             "and partition-survivable scoped leases",
    "unit": {"containment": "ticks", "vents": "actuations"},
}
_export = functools.partial(export_section, RESULTS_PATH, RESULTS_HEADER)


# -- weighted containment ------------------------------------------------------------


def test_e22_weighted_containment_beats_unweighted(experiment):
    rows = []
    for seed in SEEDS:
        cells = {}
        for weighted in (True, False):
            run = ReputationScenario(seed=seed, partition=False,
                                     weighted=weighted).run()
            summary = run.summary
            # The rogue banked, struck, and was eventually contained;
            # nobody else was touched.
            assert summary["banked_reports"] > 0
            assert summary["rogue_killed_tick"] > 0, \
                "the rogue was never contained"
            assert summary["healthy_killed"] == 0
            assert summary["kill_orders"] == 1
            cells[weighted] = summary
        k_weighted = cells[True]["rogue_killed_tick"]
        k_unweighted = cells[False]["rogue_killed_tick"]
        assert k_weighted < k_unweighted, (
            f"seed {seed}: weighted arm ({k_weighted}) no faster than "
            f"unweighted ({k_unweighted})")
        rows.append((seed, k_weighted, k_unweighted,
                     k_unweighted - k_weighted))

    table = ExperimentTable(
        f"E22a slow-burn rogue containment (strike tick 14, "
        f"{len(SEEDS)} seeds)",
        ["seed", "killed_tick_weighted", "killed_tick_unweighted",
         "ticks_saved"],
    )
    for row in rows:
        table.add_row(*row)
    experiment(table)

    _export("weighted_containment", {
        "protocol": "identical slow-burn rogue (banks 2 extra good "
                    "reports/tick for 10 ticks, then ramps +6 temp/tick); "
                    "weighted arm scales the warden kill line by the "
                    "device's reputation weight, unweighted arm holds it "
                    "at kill_base",
        "seeds": list(SEEDS),
        "per_seed": [{"seed": s, "weighted": w, "unweighted": u,
                      "ticks_saved": d} for s, w, u, d in rows],
        "quick": QUICK,
    })


# -- leased degraded mode ------------------------------------------------------------


def test_e22_leases_keep_partition_minority_serving(experiment):
    rows = []
    for seed in SEEDS:
        leased = ReputationScenario(seed=seed, rogue=False,
                                    leased=True).run()
        unleased = ReputationScenario(seed=seed, rogue=False,
                                      leased=False).run()
        ls, us = leased.summary, unleased.summary

        # The leased arm keeps serving scoped safe actuations through
        # the partition; the unleased arm stalls at zero, every
        # fallback rejected for missing quorum.
        assert ls["vents_b_partition"] > 0
        assert us["vents_b_partition"] == 0
        assert us["vents_leased"] == 0
        assert us["no_quorum_rejects"] > 0
        # Lease lifecycle: expiry mid-partition forces a re-grant, and
        # the grant alive at heal time is revoked, not abandoned.
        assert ls["lease_grants"] >= 2
        assert ls["lease_expirations"] >= 1
        assert ls["lease_revocations"] >= 1

        events = parse_lease_events(leased)
        expiry_of = {e["lease"]: e["expires_at"] for e in events
                     if e["kind"] == "lease.grant"}
        exercises = [e for e in events if e["kind"] == "lease.exercise"]
        assert exercises, "the leased arm never exercised a lease"
        late = [e for e in exercises if e["time"] >= expiry_of[e["lease"]]]
        assert not late, f"lease exercised at/past expiry: {late}"

        if seed == SEEDS[0]:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            write_jsonl(LEASES_PATH, events)

        rows.append((seed, ls["vents_b_partition"], us["vents_b_partition"],
                     us["no_quorum_rejects"], ls["lease_grants"],
                     ls["lease_revocations"]))

    table = ExperimentTable(
        f"E22b partitioned minority under lease (partition ticks 20-40, "
        f"lease duration 8, {len(SEEDS)} seeds)",
        ["seed", "b_vents_leased_arm", "b_vents_unleased_arm",
         "no_quorum_rejects", "grants", "revocations"],
    )
    for row in rows:
        table.add_row(*row)
    experiment(table)

    _export("leased_degraded_mode", {
        "protocol": "partition cuts group B + overseer from the warden "
                    "for ticks [20,40); vent approvals stall and devices "
                    "fall back to quorum=False self-vents; leased arm "
                    "grants scoped expiring leases on aggregate group "
                    "reputation, unleased arm has no lease authority",
        "seeds": list(SEEDS),
        "per_seed": [
            {"seed": s, "leased_b_vents": a, "unleased_b_vents": b,
             "no_quorum_rejects": r, "grants": g, "revocations": v}
            for s, a, b, r, g, v in rows],
        "leases_artifact": os.path.relpath(LEASES_PATH, RESULTS_DIR),
        "quick": QUICK,
    })
    assert os.path.exists(LEASES_PATH)


# -- the reputation-gaming attack family ---------------------------------------------


def _attack_space() -> StateSpace:
    return StateSpace([
        StateVariable("temp", "float", 20.0, 0.0, 150.0),
        StateVariable("fuel", "float", 100.0, 0.0, 100.0),
    ])


def _attack_device(device_id: str) -> Device:
    device = Device(device_id, "bench", _attack_space())
    device.add_actuator(Actuator("motor"))
    device.engine.actions.add(Action(
        "heat_up", "motor", effects=[Effect("temp", "add", 10.0)]))
    return device


def _rogue_policy() -> Policy:
    return Policy.make(
        "timer", None,
        Action("overheat", "motor", effects=[Effect("temp", "add", 9.0)],
               tags={"harm_human"}),
        priority=99, source="learned", author="implant",
        policy_id="bench-rogue")


def test_e22_slow_burn_banking_drains_faster_than_it_banks(experiment):
    sim = Simulator(seed=5)
    devices = {f"d{i}": _attack_device(f"d{i}") for i in range(3)}
    ledger = ReputationLedger(decay=0.0)
    attack = SlowBurnRogue(
        devices, MalevolentPayload(policies=[_rogue_policy()]),
        ledger, bank_ticks=8)
    record = AttackInjector(sim).launch_at(1.0, attack)
    sim.run(until=20.0)

    target = record.detail["target"]
    assert target == "d0"
    assert record.detail["banked"] == 8
    assert record.detail["struck_at"] is not None
    banked_score = record.detail["banked_score"]
    assert banked_score > ledger.baseline        # the halo was real
    assert target in record.affected             # and so was the strike

    # The defence under test: the purchased halo drains in a handful of
    # post-strike alerts — far fewer ticks than it took to bank.
    now = sim.now
    drain_ticks = 0
    while ledger.score(target, now) > ledger.baseline:
        ledger.record(target, "alert", now)
        drain_ticks += 1
        now += 1.0
    assert drain_ticks < attack.bank_ticks

    table = ExperimentTable(
        "E22c slow-burn banking asymmetry",
        ["banked_ticks", "banked_score", "drain_ticks_to_baseline"],
    )
    table.add_row(attack.bank_ticks, banked_score, drain_ticks)
    experiment(table)

    _export("slow_burn", {
        "protocol": "SlowBurnRogue banks 8 extra validated outcomes then "
                    "strikes; drain = alert outcomes needed to fall back "
                    "to the baseline score",
        "banked_ticks": attack.bank_ticks,
        "banked_score": banked_score,
        "drain_ticks": drain_ticks,
        "quick": QUICK,
    })


def test_e22_lease_abuser_is_rejected_wholesale(experiment):
    seed = 9
    sim = Simulator(seed=seed)
    network = Network(sim, base_latency=0.05, jitter=0.0)
    keyring = Keyring(seed=seed)
    keyring.issue("overseer")
    ledger = ReputationLedger(decay=0.0)
    for member in ("m0", "m1"):
        ledger.record(member, "validated", 0.0)
    authority = LeaseAuthority(
        sim, ledger=ledger, signer=CommandSigner(keyring, "overseer"),
        min_aggregate=0.5, max_duration=6.0, name="overseer")
    registry = LeaseAuthority(
        sim, verifier=EnvelopeVerifier(keyring, window=30.0),
        grantor="overseer", name="registry")
    network.register("overseer", lambda message: None)
    network.register("registry",
                     lambda message: registry.admit_grant(message.body))

    def grant_round() -> None:
        lease = authority.grant(("m0", "m1"), ("safety.kill",), 6.0,
                                cause="bench")
        network.send("overseer", "registry", LEASE_GRANT_TOPIC,
                     authority.grant_body(lease))

    sim.schedule_at(1.0, grant_round, label="bench:grant")
    sim.schedule_at(4.0, grant_round, label="bench:grant")

    attack = LeaseAbuser(network, "registry", grantor="overseer",
                         forge_rounds=3, replay_slack=1.0)
    record = AttackInjector(sim).launch_at(0.5, attack)
    sim.run(until=25.0)

    # Both abuse channels actually fired...
    assert record.detail["captured"] == 2
    assert record.detail["replays_sent"] == 2
    assert record.detail["forgeries_sent"] == 3
    # ...and nothing stuck: the genuine grants are the only registered
    # leases, every replay burned on its nonce (or its corpse), every
    # forgery died on the MAC.
    assert len(registry.leases()) == 2
    rejects = {}
    for event in sim.trace.query("lease.rejected", subject="registry"):
        reason = event.detail["reason"]
        rejects[reason] = rejects.get(reason, 0) + 1
    assert sum(rejects.values()) == 5
    assert rejects.get("bad-mac", 0) == 3
    assert rejects.get("replayed", 0) + rejects.get("stale", 0) == 2
    assert not registry.active_leases()          # and everything expired

    table = ExperimentTable(
        "E22d lease-abuse rejection (2 genuine grants, 2 replays, "
        "3 forgeries)",
        ["reason", "rejected"],
    )
    for reason in sorted(rejects):
        table.add_row(reason, rejects[reason])
    experiment(table)

    _export("lease_abuse", {
        "protocol": "LeaseAbuser taps genuine grants off the wire, "
                    "replays each after its own expiry, and forges "
                    "grants naming itself grantee; registry admits "
                    "through E21 envelope verification",
        "replays": record.detail["replays_sent"],
        "forgeries": record.detail["forgeries_sent"],
        "rejected_by_reason": rejects,
        "quick": QUICK,
    })


# -- determinism ---------------------------------------------------------------------


def test_e22_full_spec_is_shard_invariant():
    """Rogue + partition + leases together: the merged trace, summary,
    and audit digest are byte-identical for every shard count."""
    runs = {n: ReputationScenario(seed=SEEDS[0], n_shards=n).run()
            for n in SHARD_COUNTS}
    reference = runs[SHARD_COUNTS[0]]
    for n, run in runs.items():
        assert run.trace_digest == reference.trace_digest, \
            f"trace diverged at n_shards={n}"
        assert run.summary == reference.summary, \
            f"summary diverged at n_shards={n}"

    _export("determinism", {
        "protocol": f"full default spec (weighted + leased + rogue + "
                    f"partition) at shard counts {list(SHARD_COUNTS)}; "
                    "merged trace digest and summary compared",
        "shard_counts": list(SHARD_COUNTS),
        "trace_digest": reference.trace_digest,
        "identical": True,
        "quick": QUICK,
    })
