"""E21 — cryptographic execution authorization: signed command envelopes
and the replay-proof actuation gateway under an authority-forgery campaign.

Four claims, one experiment file:

* **Forged + replayed kill orders** — against the unsigned fleet the
  attacker turns the sec VI-C watchdog's own fail-closed machinery into
  a weapon: forged and wire-captured kill orders wrongfully deactivate
  healthy devices (``healthy_killed``).  With ``signed_commands`` every
  actuation passes the HMAC-envelope gateway, and **zero** forged or
  replayed orders are accepted — the only acceptance is the watchdog's
  genuine worm kill.

* **Stolen signing key** — crypto alone cannot stop an attacker who
  exfiltrated the watchdog's key: their envelopes are perfect.  The
  gateway's per-issuer budget caps the damage at ``authz_budget``
  wrongful kills and trips the journaled global freeze, which holds for
  everything after (``frozen`` rejects).

* **Crypto overhead** — signing + verification + gateway accounting on
  the full campaign costs <= 5% wall clock vs the unsigned arm.

* **Determinism** — the same signed cell run serially and through the
  parallel sweep executor replays byte-identically (summary + trace
  digest), so E21 results are reproducible under fan-out.

Results export to ``benchmarks/results/BENCH_E21.json``; the signed
forgery run also dumps the gateway's audit-chained rejection log to
``benchmarks/results/authz_rejects.jsonl`` — the CI artifact showing
*every* rejected order with its reason.

Quick mode (``E21_QUICK=1``, used by CI): one seed, fewer timing reps.
"""

import functools
import hashlib
import json
import os
import time

from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import ExperimentTable, SafeguardConfig
from repro.scenarios.sweep import run_sweep
from repro.telemetry.exposition import write_jsonl

from conftest import best_of_interleaved, export_section

QUICK = os.environ.get("E21_QUICK", "") not in ("", "0")

SEEDS = (3,) if QUICK else (3, 11, 23)
HORIZON = 60.0
REPS = 4 if QUICK else 7
STOLEN_BUDGET = 3
OVERHEAD_BUDGET_PCT = 5.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_E21.json")
REJECTS_PATH = os.path.join(RESULTS_DIR, "authz_rejects.jsonl")


RESULTS_HEADER = {
    "experiment": "E21",
    "title": "Cryptographic execution authorization: signed envelopes, "
             "replay-proof gateway, forgery/replay/stolen-key campaign",
    "unit": {"healthy_killed": "devices", "overhead": "percent wall clock"},
}
_export = functools.partial(export_section, RESULTS_PATH, RESULTS_HEADER)


def trace_digest(sim) -> str:
    """SHA-256 over the canonical form of every trace record."""
    digest = hashlib.sha256()
    for event in sim.trace.events:
        digest.update(json.dumps(
            [event.time, event.kind, event.subject, event.detail],
            sort_keys=True, separators=(",", ":"), default=str,
        ).encode("utf-8"))
    return digest.hexdigest()


# -- arm builders -------------------------------------------------------------------


def campaign_threats(name: str) -> ThreatConfig:
    if name == "forgery_replay":
        # Worm included: its genuine kill orders are what the replay
        # attack captures off the wire.
        return ThreatConfig(worm=True, worm_time=10.0,
                            forged_kill=True, forged_kill_time=25.0,
                            replay_kill=True, replay_kill_time=5.0)
    if name == "stolen_key":
        return ThreatConfig(worm=False, stolen_key=True,
                            stolen_key_time=10.0)
    if name == "full":
        return ThreatConfig.forgery()
    if name == "worm_only":
        return ThreatConfig(worm=True, worm_time=10.0)
    raise ValueError(name)


def build_scenario(seed: int, signed: bool, threat_name: str,
                   budget: int = 8) -> ConfrontationScenario:
    return ConfrontationScenario(
        seed=seed, config=SafeguardConfig.full(),
        threats=campaign_threats(threat_name),
        safety_transport="reliable", durability="journal",
        signed_commands=signed, authz_budget=budget,
    )


def run_cell(seed: int, signed: bool, threat_name: str, budget: int) -> dict:
    """One (seed, arm, campaign) cell; module-level for pickling."""
    scenario = build_scenario(seed, signed, threat_name, budget)
    result = scenario.run(until=HORIZON)
    result["trace_digest"] = trace_digest(scenario.sim)
    return result


# -- forged + replayed orders -------------------------------------------------------


def test_e21_forged_and_replayed_orders(experiment):
    rows = []
    unsigned_killed = signed_killed = 0
    for seed in SEEDS:
        unsigned = run_cell(seed, False, "forgery_replay", 8)
        scenario = build_scenario(seed, True, "forgery_replay")
        signed = scenario.run(until=HORIZON)

        # The attack actually fired in both arms.
        assert unsigned["forged_orders"] >= 1
        assert unsigned["replayed_orders"] >= 1
        # Signed arm: nothing forged or replayed was accepted — every
        # acceptance was a genuine watchdog order for a compromised
        # device, so no healthy device died.
        assert signed["healthy_killed"] == 0
        assert signed["authz_rejected"] >= 1
        accepted_wrongfully = signed["authz_accepted"] - signed["deactivations"]
        assert accepted_wrongfully <= 0
        unsigned_killed += unsigned["healthy_killed"]
        signed_killed += signed["healthy_killed"]
        rows.append((seed, unsigned["healthy_killed"],
                     signed["healthy_killed"],
                     dict(signed["authz_rejects_by_reason"])))
        if seed == SEEDS[0]:
            _dump_rejects(scenario)

    table = ExperimentTable(
        f"E21a forged + replayed kill orders (worm t=10, replay tap t=5, "
        f"forger t=25, {len(SEEDS)} seeds, horizon {HORIZON:.0f})",
        ["seed", "healthy_killed_unsigned", "healthy_killed_signed",
         "signed_rejects"],
    )
    for row in rows:
        table.add_row(*row)
    experiment(table)

    _export("forgery_replay", {
        "protocol": "unsigned vs signed_commands arms of the same "
                    "confrontation; ForgedKillOrder + ReplayedKillOrder "
                    "aim the watchdog's own kill channel at healthy "
                    "devices; healthy_killed counts wrongful deactivations",
        "seeds": list(SEEDS),
        "healthy_killed_unsigned": unsigned_killed,
        "healthy_killed_signed": signed_killed,
        "per_seed": [{"seed": s, "unsigned": u, "signed": g, "rejects": r}
                     for s, u, g, r in rows],
        "rejects_artifact": os.path.relpath(REJECTS_PATH, RESULTS_DIR),
        "quick": QUICK,
    }, gates={"healthy_killed_signed": "defense"})

    assert unsigned_killed >= 1, \
        "the unsigned arm was never subverted -- nothing to defend against"
    assert signed_killed == 0
    assert os.path.exists(REJECTS_PATH)


def _dump_rejects(scenario: ConfrontationScenario) -> None:
    """The CI artifact: every rejected order, audit-chained."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    audit = scenario.authz_audit
    assert audit is not None and audit.verify()
    write_jsonl(REJECTS_PATH, (
        {"index": entry.index, "time": entry.time, "subject": entry.subject,
         "detail": entry.detail, "entry_hash": entry.entry_hash}
        for entry in audit.entries("authz.reject")))


# -- stolen key ---------------------------------------------------------------------


def test_e21_stolen_key_is_contained_by_budget_and_freeze(experiment):
    rows = []
    for seed in SEEDS:
        unsigned = run_cell(seed, False, "stolen_key", STOLEN_BUDGET)
        signed = run_cell(seed, True, "stolen_key", STOLEN_BUDGET)

        assert unsigned["stolen_key_orders"] >= STOLEN_BUDGET + 1
        # Unsigned arm: every sprayed order lands.
        assert unsigned["healthy_killed"] > STOLEN_BUDGET
        # Signed arm: the envelopes are cryptographically valid, so the
        # budget — not the MAC — is the containment line, and the freeze
        # holds for everything after.
        assert signed["healthy_killed"] <= STOLEN_BUDGET
        assert signed["authz_freezes"] == 1
        assert signed["authz_rejects_by_reason"].get("frozen", 0) >= 1
        rows.append((seed, unsigned["healthy_killed"],
                     signed["healthy_killed"], signed["authz_freezes"]))

    table = ExperimentTable(
        f"E21b stolen watchdog key (spray from t=10, budget "
        f"{STOLEN_BUDGET}/60s, {len(SEEDS)} seeds, horizon {HORIZON:.0f})",
        ["seed", "healthy_killed_unsigned", "healthy_killed_signed",
         "freezes"],
    )
    for row in rows:
        table.add_row(*row)
    experiment(table)

    _export("stolen_key", {
        "protocol": f"StolenKeyRogue exfiltrates the watchdog key and "
                    f"sprays valid kill orders; gateway budget "
                    f"{STOLEN_BUDGET}/60s with freeze_on_budget",
        "seeds": list(SEEDS),
        "budget": STOLEN_BUDGET,
        "per_seed": [{"seed": s, "unsigned": u, "signed": g, "freezes": f}
                     for s, u, g, f in rows],
        "quick": QUICK,
    })


# -- overhead -----------------------------------------------------------------------


def _time_run(signed: bool):
    # Worm-only: both arms kill exactly the same compromised devices, so
    # the *only* difference is signing + verification + gateway
    # accounting on the genuine command path.  (The forgery campaign
    # would confound the timing: its wrongful kills shrink the unsigned
    # arm's workload.)
    scenario = build_scenario(SEEDS[0], signed, "worm_only")
    start = time.perf_counter()
    scenario.run(until=HORIZON)
    return time.perf_counter() - start, scenario.sim.events_processed


def test_e21_crypto_overhead(experiment):
    best_on, best_off, overhead_pct, (events,) = best_of_interleaved(
        _time_run, REPS)

    table = ExperimentTable(
        f"E21c crypto overhead (worm-only campaign, identical workload, "
        f"horizon {HORIZON:.0f}, best-of-{REPS} interleaved)",
        ["arm", "best_sec", "events_per_sec"],
    )
    table.add_row("signed", best_on, events / best_on)
    table.add_row("unsigned", best_off, events / best_off)
    table.add_row("overhead %", overhead_pct, 0.0)
    experiment(table)

    _export("overhead", {
        "protocol": f"best-of-{REPS} interleaved runs of the worm-only "
                    f"confrontation to t={HORIZON:.0f} (identical workload "
                    "in both arms); signed_commands on vs off back-to-back "
                    "so machine drift cancels",
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "overhead_pct": overhead_pct,
        "best_seconds_signed": best_on,
        "best_seconds_unsigned": best_off,
        "quick": QUICK,
    }, gates={"overhead_pct": "overhead", "best_seconds_signed": "latency",
              "best_seconds_unsigned": "latency"})

    assert overhead_pct <= OVERHEAD_BUDGET_PCT, (
        f"crypto overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget")


# -- determinism --------------------------------------------------------------------


def test_e21_signed_runs_replay_deterministically():
    """The same signed cell run serially and through the parallel sweep
    executor is byte-identical: same summary, same trace digest."""
    cell = (SEEDS[0], True, "full", STOLEN_BUDGET)
    serial = run_sweep(run_cell, [cell], workers=1)[0]
    parallel = run_sweep(run_cell, [cell, cell], workers=2)
    assert parallel[0] == serial
    assert parallel[1] == serial
    assert serial["trace_digest"] == parallel[0]["trace_digest"]

    _export("determinism", {
        "protocol": "run_sweep workers=1 vs workers=2 on the signed full "
                    "campaign; full summary + trace digest compared",
        "trace_digest": serial["trace_digest"],
        "identical": True,
        "quick": QUICK,
    })
