"""E19 — causal telemetry: explain the takedown, then prove it was free.

Two claims, one experiment file:

* **Reconstruction** — in an E17-style rogue takedown (worm compromise,
  partitioned straggler, reliable-channel retries, fail-closed
  self-quarantine), the single trace id minted at attack injection
  explains the whole incident: compromise, policy implant, vetoed rogue
  actions, safety-telemetry hops, kill orders, dead letters, and the
  final quarantine — across every compromised device plus the watchdog.
  The full causal tree and the per-run telemetry bundle
  (``metrics.prom``, ``metrics.jsonl``, ``spans.jsonl``,
  ``events.jsonl``, ``manifest.json``) land in ``benchmarks/results/``.

* **Overhead** — the same full-threat confrontation run with spans
  enabled vs disabled, interleaved best-of-N: tracing costs <= 5% wall
  clock (the F2 companion number).  Lazy roots are what make this hold —
  routine periodic ticks and reliable heartbeats with nothing traceable
  in flight mint no spans at all.

Results export to ``benchmarks/results/BENCH_E19.json``.

Quick mode (``E19_QUICK=1``, used by CI): fewer timing repetitions.
"""

import functools
import os
import time

from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import ExperimentTable, SafeguardConfig
from repro.sim.faults import FaultPlan, NetworkPartition
from repro.telemetry import explain

from conftest import best_of_interleaved, export_section

QUICK = os.environ.get("E19_QUICK", "") not in ("", "0")

REPS = 3 if QUICK else 7
HORIZON = 150.0
OVERHEAD_BUDGET_PCT = 5.0

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_E19.json")
BUNDLE_DIR = os.path.join(RESULTS_DIR, "telemetry_bundle")

#: The causal stages the explanation must contain, in story order.
EXPECTED_STAGES = (
    "attack.worm", "attack.compromise", "policy.inject", "engine.decision",
    "safeguard.veto", "safety.report", "net.send", "net.deliver",
    "watchdog.kill_order", "watchdog.deactivate", "reliable.dead_letter",
    "safeguard.quarantine",
)


RESULTS_HEADER = {
    "experiment": "E19",
    "title": "Causal telemetry: reconstruction fidelity and tracing "
             "overhead",
    "unit": {"overhead": "percent wall clock", "reconstruction": "spans"},
}
_export = functools.partial(export_section, RESULTS_PATH, RESULTS_HEADER)


def takedown_scenario(seed: int = 11, fault_plan=None) -> ConfrontationScenario:
    """The E17-style incident: worm at t=20 under watchdog + guards."""
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


def overhead_scenario(spans_enabled: bool) -> ConfrontationScenario:
    """The timing workload: full defense, all threats, no faults."""
    return ConfrontationScenario(
        seed=3, config=SafeguardConfig.full(), threats=ThreatConfig.all(),
        safety_transport="reliable", durability="journal",
        spans_enabled=spans_enabled,
    )


# -- reconstruction -----------------------------------------------------------------


def test_e19_causal_reconstruction(experiment):
    # Probe run (no faults) learns which devices the worm will hit, so the
    # real run can partition the compromised drone and force the
    # fail-closed quarantine path.
    probe = takedown_scenario()
    targets = probe.worm.initial_targets
    drone = next(target for target in targets if "drone" in target)
    plan = FaultPlan([NetworkPartition(at=20.5, heal_at=120.0,
                                       groups=((drone,),))])

    scenario = takedown_scenario(fault_plan=plan)
    summary = scenario.run(until=60.0, telemetry_dir=BUNDLE_DIR)
    trace_id = scenario.injector.records[0].detail["trace_id"]
    explanation = explain(scenario, trace_id)

    for stage in EXPECTED_STAGES:
        assert explanation.has_stage(stage), f"missing stage {stage}"
    subjects = set(explanation.subjects())
    assert set(targets) <= subjects and "watchdog" in subjects

    quarantine = explanation.stage("safeguard.quarantine")[0]
    path = [span.name for span in explanation.path_to(quarantine)]
    assert path[0] == "attack.worm" and "attack.compromise" in path

    table = ExperimentTable(
        f"E19a causal reconstruction (worm at t=20, {drone} partitioned, "
        f"horizon 60)",
        ["stage", "spans", "devices"],
    )
    for stage in EXPECTED_STAGES:
        spans = explanation.stage(stage)
        table.add_row(stage, len(spans),
                      len({span.subject for span in spans}))
    table.add_row("TOTAL (one trace id)", len(explanation),
                  len(explanation.subjects()))
    experiment(table)

    # Beside the bundle, not in it: the bundle holds exactly the files
    # its manifest lists.
    with open(os.path.join(RESULTS_DIR, "E19a_explanation.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(explanation.render() + "\n")

    _export("reconstruction", {
        "trace_id": trace_id,
        "spans": len(explanation),
        "subjects": explanation.subjects(),
        "stages": {stage: len(explanation.stage(stage))
                   for stage in EXPECTED_STAGES},
        "quarantine_path": path,
        "quarantines": summary["quarantines"],
        "compromised_ever": summary["compromised_ever"],
        "bundle_dir": os.path.relpath(BUNDLE_DIR, RESULTS_DIR),
    }, gates={"compromised_ever": "defense"})


# -- overhead -----------------------------------------------------------------------


def _time_run(spans_enabled: bool) -> tuple:
    scenario = overhead_scenario(spans_enabled)
    start = time.perf_counter()
    scenario.run(until=HORIZON)
    elapsed = time.perf_counter() - start
    return elapsed, scenario.sim.events_processed, \
        scenario.sim.telemetry.stats()["spans"]


def test_e19_tracing_overhead(experiment):
    best_on, best_off, overhead_pct, (events, spans) = best_of_interleaved(
        _time_run, REPS)

    table = ExperimentTable(
        f"E19b tracing overhead (full defense, all threats, horizon "
        f"{HORIZON:.0f}, best-of-{REPS} interleaved)",
        ["arm", "best_sec", "events_per_sec", "spans_retained"],
    )
    table.add_row("spans on", best_on, events / best_on, spans)
    table.add_row("spans off", best_off, events / best_off, 0)
    table.add_row("overhead %", overhead_pct, 0.0, 0)
    experiment(table)

    _export("overhead", {
        "protocol": f"best-of-{REPS} interleaved runs of the full-defense "
                    f"all-threats confrontation to t={HORIZON:.0f}; "
                    "spans on vs off back-to-back so machine drift cancels",
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "overhead_pct": overhead_pct,
        "best_seconds_on": best_on,
        "best_seconds_off": best_off,
        "events_processed": events,
        "spans_retained": spans,
        "quick": QUICK,
    }, gates={"overhead_pct": "overhead", "best_seconds_on": "latency",
              "best_seconds_off": "latency"})

    # Lazy roots keep routine traffic span-free: the retained set is the
    # causally interesting handful, not one span per heartbeat.
    assert 0 < spans < 200, spans
    assert overhead_pct <= OVERHEAD_BUDGET_PCT, (
        f"tracing overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget")
