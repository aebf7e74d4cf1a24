"""E20 — fleet health monitor: closed loops that earn their keep.

Three claims, one experiment file:

* **Adaptive quarantine, transient storms** — with no threat active, a
  high-loss link storm dead-letters safety reports and the fixed
  ``quarantine_after=3`` tether self-quarantines healthy devices (every
  one a false positive by construction).  The health monitor's
  ``link.degraded`` alert — streaming RTT EWMA over the same reliable
  channel — relaxes the threshold while the storm lasts and restores it
  after, producing *strictly fewer* false self-quarantines.

* **Adaptive quarantine, true partition** — a worm-compromised drone cut
  off by a real partition never acks, so its retries never touch the
  fleet RTT estimators: the alert stays quiet, the threshold stays at
  base, and the rogue's lifetime is *no worse* than under the fixed
  tether.  The loop relaxes only on evidence of fleet-wide degradation,
  never on one device's silence.

* **Sized compaction** — under worm-driven audit pressure, the
  ``store.pressure`` alert triggers size-based checkpoints that bound
  the journal footprint; the time-driven cadence lets it balloon
  between snapshots.  Same SLI (``store.journal_bytes``) in both arms.

Plus the budget: the whole monitor stack (estimators, alert engine,
closed loops) costs <= 5% wall clock on the full-threat confrontation.

Results export to ``benchmarks/results/BENCH_E20.json``; the adaptive
storm run also writes a telemetry bundle (``metrics.prom``,
``alerts.jsonl``, ...) to ``benchmarks/results/health_bundle/`` — the
CI artifact.

Quick mode (``E20_QUICK=1``, used by CI): one storm seed, fewer timing
repetitions.
"""

import functools
import os
import time

from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import ExperimentTable, SafeguardConfig
from repro.sim.faults import FaultPlan, LinkDegradation, NetworkPartition
from repro.telemetry.health.adaptive import CompactionController

from conftest import best_of_interleaved, export_section

QUICK = os.environ.get("E20_QUICK", "") not in ("", "0")

STORM_SEEDS = (5,) if QUICK else (5, 11, 23)
REPS = 3 if QUICK else 7
OVERHEAD_HORIZON = 150.0
OVERHEAD_BUDGET_PCT = 5.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_E20.json")
BUNDLE_DIR = os.path.join(RESULTS_DIR, "health_bundle")


RESULTS_HEADER = {
    "experiment": "E20",
    "title": "Fleet health monitor: adaptive quarantine, sized "
             "compaction, and monitor overhead",
    "unit": {"quarantines": "devices", "journal_bytes": "bytes",
             "overhead": "percent wall clock"},
}
_export = functools.partial(export_section, RESULTS_PATH, RESULTS_HEADER)


# -- arm builders -------------------------------------------------------------------


def storm_scenario(seed: int, adaptive: bool) -> ConfrontationScenario:
    """Healthy fleet, ugly network: a 35s loss storm, no threat at all.

    Every self-quarantine in this arm is a false positive by
    construction — there is nothing to contain.
    """
    plan = FaultPlan([LinkDegradation(at=5.0, until=40.0,
                                      loss_rate=0.65, latency_factor=2.0)])
    return ConfrontationScenario(
        seed=seed, config=SafeguardConfig.full(), threats=ThreatConfig.none(),
        safety_transport="reliable", quarantine_after=3,
        durability="journal", fault_plan=plan,
        health=True, adaptive_quarantine=adaptive,
    )


def partition_scenario(seed: int, adaptive: bool,
                       fault_plan=None) -> ConfrontationScenario:
    """The E17/E19-style true incident: worm at t=20, rogue drone cut off."""
    return ConfrontationScenario(
        seed=seed,
        config=SafeguardConfig.only(watchdog=True, preaction=True,
                                    statespace=True, sealed=True),
        threats=ThreatConfig(worm=True, worm_time=20.0,
                             worm_initial_targets=3),
        safety_transport="reliable", quarantine_after=3,
        durability="journal", fault_plan=fault_plan,
        health=True, adaptive_quarantine=adaptive,
    )


def compaction_scenario(policy: str) -> ConfrontationScenario:
    """Worm-driven audit pressure; only the compaction trigger differs."""
    return ConfrontationScenario(
        seed=7, config=SafeguardConfig.full(), threats=ThreatConfig(),
        safety_transport="reliable", durability="journal+snapshot",
        snapshot_interval=45.0, health=True,
        compaction_policy=policy, compaction_bytes=4096,
    )


def overhead_scenario(health: bool) -> ConfrontationScenario:
    """The timing workload: full defense, all threats, monitor on/off."""
    return ConfrontationScenario(
        seed=3, config=SafeguardConfig.full(), threats=ThreatConfig.all(),
        safety_transport="reliable", durability="journal",
        health=health, adaptive_quarantine=health,
    )


# -- adaptive quarantine: transient storms ------------------------------------------


def test_e20_adaptive_quarantine_under_transient_storms(experiment):
    rows = []
    fixed_total = adaptive_total = 0
    for seed in STORM_SEEDS:
        fixed = storm_scenario(seed, adaptive=False).run(until=80.0)
        scenario = storm_scenario(seed, adaptive=True)
        bundle = BUNDLE_DIR if seed == STORM_SEEDS[0] else None
        adaptive = scenario.run(until=80.0, telemetry_dir=bundle)
        assert fixed["compromised_ever"] == adaptive["compromised_ever"] == 0
        assert adaptive["alerts_fired"] >= 1, "storm never detected"
        assert adaptive["quarantine_adjustments"] >= 2, "relax+restore missing"
        assert all(link.quarantine_after == 3
                   for link in scenario.overseer_links.values()), \
            "threshold not restored after the storm"
        fixed_total += fixed["quarantines"]
        adaptive_total += adaptive["quarantines"]
        rows.append((seed, fixed["quarantines"], adaptive["quarantines"],
                     adaptive["alerts_fired"]))

    table = ExperimentTable(
        f"E20a adaptive quarantine under transient loss storms "
        f"(loss 0.65 for t=5..40, no threat, {len(STORM_SEEDS)} seeds, "
        f"horizon 80)",
        ["seed", "false_quarantines_fixed", "false_quarantines_adaptive",
         "alerts_fired"],
    )
    for row in rows:
        table.add_row(*row)
    table.add_row("TOTAL", fixed_total, adaptive_total, 0)
    experiment(table)

    _export("transient_storms", {
        "protocol": "LinkDegradation loss 0.65 for t=5..40 with "
                    "ThreatConfig.none(): every self-quarantine is a false "
                    "positive; fixed quarantine_after=3 vs link.degraded-"
                    "driven relax to 8",
        "seeds": list(STORM_SEEDS),
        "false_quarantines_fixed": fixed_total,
        "false_quarantines_adaptive": adaptive_total,
        "per_seed": [{"seed": s, "fixed": f, "adaptive": a,
                      "alerts_fired": al} for s, f, a, al in rows],
        "bundle_dir": os.path.relpath(BUNDLE_DIR, RESULTS_DIR),
        "quick": QUICK,
    }, gates={"false_quarantines_adaptive": "defense"})

    assert fixed_total >= 1, "storm produced no false quarantines to prevent"
    assert adaptive_total < fixed_total, (
        f"adaptive arm must produce strictly fewer false self-quarantines "
        f"({adaptive_total} vs {fixed_total})")
    assert os.path.exists(os.path.join(BUNDLE_DIR, "alerts.jsonl"))


# -- adaptive quarantine: true partition --------------------------------------------


def test_e20_adaptive_is_no_worse_under_true_partition(experiment):
    # Probe run learns which devices the worm hits, so the real runs can
    # partition a compromised drone (same recipe as E19a).
    probe = partition_scenario(seed=11, adaptive=False)
    drone = next(target for target in probe.worm.initial_targets
                 if "drone" in target)
    plan = FaultPlan([NetworkPartition(at=20.5, heal_at=120.0,
                                       groups=((drone,),))])

    fixed = partition_scenario(11, adaptive=False, fault_plan=plan) \
        .run(until=80.0)
    scenario = partition_scenario(11, adaptive=True, fault_plan=plan)
    adaptive = scenario.run(until=80.0)

    table = ExperimentTable(
        f"E20b true partition ({drone} cut off at t=20.5, worm at t=20, "
        f"horizon 80)",
        ["arm", "mean_rogue_lifetime", "quarantines", "alerts_fired",
         "threshold_adjustments"],
    )
    table.add_row("fixed q=3", fixed["mean_rogue_lifetime"],
                  fixed["quarantines"], fixed["alerts_fired"], 0)
    table.add_row("adaptive", adaptive["mean_rogue_lifetime"],
                  adaptive["quarantines"], adaptive["alerts_fired"],
                  adaptive["quarantine_adjustments"])
    experiment(table)

    _export("true_partition", {
        "protocol": f"worm at t=20 compromises {probe.worm.initial_targets}; "
                    f"{drone} partitioned at t=20.5: its retries never ack, "
                    "so fleet RTT estimators stay calm and the threshold "
                    "stays at base",
        "partitioned": drone,
        "rogue_lifetime_fixed": fixed["mean_rogue_lifetime"],
        "rogue_lifetime_adaptive": adaptive["mean_rogue_lifetime"],
        "quarantines_fixed": fixed["quarantines"],
        "quarantines_adaptive": adaptive["quarantines"],
        "link_degraded_fired": scenario.alerts.firings("link.degraded") != [],
    })

    # The fail-closed path still fires under adaptive, and the rogue does
    # not outlive its fixed-threshold containment.
    assert adaptive["quarantines"] >= 1
    assert adaptive["mean_rogue_lifetime"] <= \
        fixed["mean_rogue_lifetime"] + 1e-9, (
            "adaptive quarantine let the partitioned rogue live longer")
    # One device's silence is not fleet degradation: no threshold change.
    assert not scenario.alerts.firings("link.degraded")
    assert adaptive["quarantine_adjustments"] == 0


# -- sized compaction ---------------------------------------------------------------


def test_e20_sized_compaction_bounds_journals(experiment):
    arms = {}
    for policy in ("time", "size"):
        scenario = compaction_scenario(policy)
        summary = scenario.run(until=90.0)
        arms[policy] = {
            "scenario": scenario,
            "summary": summary,
            "peak": scenario.monitor.peak(CompactionController.SLI),
            "final": sum(scenario.storage.size(j.name)
                         for j in scenario.audit_journals.values()),
        }

    time_arm, size_arm = arms["time"], arms["size"]
    budget = 4096
    fleet = len(size_arm["scenario"].audit_journals)
    bound = 3 * budget  # per-journal bound the closed loop should hold

    table = ExperimentTable(
        f"E20c compaction policy under worm audit pressure "
        f"(budget {budget}B/journal, {fleet} journals, snapshot cadence "
        f"45s, horizon 90)",
        ["arm", "peak_fleet_bytes", "final_fleet_bytes",
         "sized_compactions"],
    )
    for name in ("time", "size"):
        table.add_row(name, arms[name]["peak"], arms[name]["final"],
                      arms[name]["summary"]["compactions_sized"])
    experiment(table)

    _export("compaction", {
        "protocol": "worm-driven audit pressure; both arms publish the "
                    "same store.journal_bytes SLI; time arm checkpoints "
                    "every 45s, size arm checkpoints any journal over "
                    f"{budget}B while store.pressure is firing",
        "budget_bytes_per_journal": budget,
        "journals": fleet,
        "peak_time": time_arm["peak"],
        "peak_size": size_arm["peak"],
        "final_time": time_arm["final"],
        "final_size": size_arm["final"],
        "sized_compactions": size_arm["summary"]["compactions_sized"],
    })

    assert size_arm["summary"]["compactions_sized"] > 0
    assert size_arm["peak"] < time_arm["peak"], (
        "size-triggered compaction must bound the fleet journal footprint "
        "below the time-driven cadence's peak")
    for journal in size_arm["scenario"].audit_journals.values():
        assert size_arm["scenario"].storage.size(journal.name) < bound
    # The time-driven cadence demonstrably fails to hold that bound.
    assert any(t > bound for t in [time_arm["peak"]])


# -- monitor overhead ---------------------------------------------------------------


def _time_run(health: bool) -> tuple:
    scenario = overhead_scenario(health)
    start = time.perf_counter()
    scenario.run(until=OVERHEAD_HORIZON)
    elapsed = time.perf_counter() - start
    return elapsed, scenario.sim.events_processed


def test_e20_monitor_overhead(experiment):
    best_on, best_off, overhead_pct, (events,) = best_of_interleaved(
        _time_run, REPS)

    table = ExperimentTable(
        f"E20d monitor overhead (full defense, all threats, horizon "
        f"{OVERHEAD_HORIZON:.0f}, best-of-{REPS} interleaved)",
        ["arm", "best_sec", "events_per_sec"],
    )
    table.add_row("health on", best_on, events / best_on)
    table.add_row("health off", best_off, events / best_off)
    table.add_row("overhead %", overhead_pct, 0.0)
    experiment(table)

    _export("overhead", {
        "protocol": f"best-of-{REPS} interleaved runs of the full-defense "
                    f"all-threats confrontation to t={OVERHEAD_HORIZON:.0f}; "
                    "health stack (SLIs + alert engine + closed loops) on "
                    "vs off back-to-back so machine drift cancels",
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "overhead_pct": overhead_pct,
        "best_seconds_on": best_on,
        "best_seconds_off": best_off,
        "events_processed": events,
        "quick": QUICK,
    }, gates={"overhead_pct": "overhead", "best_seconds_on": "latency",
              "best_seconds_off": "latency"})

    assert overhead_pct <= OVERHEAD_BUDGET_PCT, (
        f"monitor overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget")
