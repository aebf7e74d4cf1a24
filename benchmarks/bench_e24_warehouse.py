"""E24 — the telemetry warehouse and the cross-run regression sentinel.

Four claims, one experiment file:

* **Ingest everything, fast** — the warehouse ingests real scenario
  telemetry bundles (self-describing manifests) plus every committed
  ``BENCH_*.json`` perf document, then answers cross-run selects,
  percentile aggregations, and per-arm group-bys; ingest and query
  throughput are reported, and re-ingesting the whole corpus is a
  provable no-op (content-addressed idempotency).

* **The sentinel catches what matters and only that** — a synthetic 20%
  throughput drop and a ``healthy_killed`` 0 -> 1 defense change are
  both flagged as gated regressions; an identical baseline/candidate
  pair reports clean; sub-tolerance noise stays inside the band.

* **Cross-run queries through the live control plane** — ``/query``
  answers a percentile aggregation over real HTTP with its own
  ``api.request -> warehouse.query`` span chain, round-tripped through
  ``/explain`` like every other route.

* **Ingest overhead <= 5%** — a full E10-style confrontation sweep
  (``run_matrix`` over safeguard arms x seeds) with live warehouse
  ingest costs at most 5% more wall clock than the same sweep without,
  with the two arms alternating at single-trial granularity so host
  drift lands on both equally (median ratio across trials).

Results export to ``benchmarks/results/BENCH_E24.json``; the warehouse's
per-experiment medians of the metrics each committed bench declares
(never the synthetic throughput fixtures) fold into
``benchmarks/results/TRAJECTORY.json`` — the longitudinal perf/defense
record CI appends to per revision.

Quick mode (``E24_QUICK=1``, used by CI): fewer seeds, shorter horizon.
"""

import functools
import http.client
import json
import os
import statistics
import subprocess
import time

import pytest

from repro.api.http import ServerThread
from repro.api.service import ControlPlane, ControlPlaneConfig
from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import ExperimentTable, SafeguardConfig, run_matrix
from repro.telemetry.warehouse.ingest import ingest_bundle, ingest_results_dir
from repro.telemetry.warehouse.records import RunKey, RunRecord
from repro.telemetry.warehouse.sentinel import compare_runs, update_trajectory
from repro.telemetry.warehouse.store import Warehouse

from conftest import export_section

QUICK = os.environ.get("E24_QUICK", "") not in ("", "0")

SEEDS = (3,) if QUICK else (3, 4, 5)
HORIZON = 40.0 if QUICK else 120.0
SYNTHETIC_RECORDS = 300 if QUICK else 1500
QUERY_REPS = 200 if QUICK else 1000
HTTP_QUERIES = 20 if QUICK else 60
OVERHEAD_TRIALS = 7 if QUICK else 5
OVERHEAD_BUDGET_PCT = 5.0

THREATS = ThreatConfig(
    worm=True, worm_time=15.0, worm_spread_prob=0.35,
    backdoor=True, backdoor_time=10.0, backdoor_success_prob=0.02,
    operator_error=True, wrong_target_prob=0.1, wrong_params_prob=0.1,
)
ARMS = [
    ("none", SafeguardConfig.none()),
    ("full", SafeguardConfig.full()),
]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_E24.json")
TRAJECTORY_PATH = os.path.join(RESULTS_DIR, "TRAJECTORY.json")


def _git_rev() -> str:
    for env in ("GITHUB_SHA", "CI_COMMIT_SHA"):
        if os.environ.get(env):
            return os.environ[env][:12]
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(__file__), capture_output=True,
            text=True, timeout=10, check=True).stdout.strip() or "local"
    except (OSError, subprocess.SubprocessError):
        return "local"


RESULTS_HEADER = {
    "experiment": "E24",
    "title": "Telemetry warehouse + cross-run regression sentinel",
    "unit": {"throughput": "records or queries/sec",
             "overhead": "percent wall clock"},
}
_export = functools.partial(export_section, RESULTS_PATH, RESULTS_HEADER)


def _scenario_bundle(dirpath: str, seed: int, arm: str = "full") -> str:
    """One real confrontation run exporting its telemetry bundle."""
    config = (SafeguardConfig.full() if arm == "full"
              else SafeguardConfig.none())
    scenario = ConfrontationScenario(seed=seed, config=config,
                                     threats=THREATS)
    scenario.run(until=HORIZON, telemetry_dir=dirpath)
    return dirpath


def _synthetic(index: int, tag: str = "") -> RunRecord:
    return RunRecord(
        key=RunKey(experiment="synthetic", arm=f"arm{index % 4}",
                   seed=index, git_rev="bench"),
        kind="synthetic",
        metrics={"throughput_rps": 1000.0 + index,
                 "latency.p99_ms": 5.0 + (index % 7),
                 "healthy_killed": 0.0},
        context={"quick": QUICK}, source=f"synthetic:{index}", tag=tag)


# -- ingest + query throughput ------------------------------------------------------


def test_warehouse_ingests_real_artifacts_and_queries(tmp_path, experiment):
    warehouse = Warehouse(str(tmp_path / "wh"))

    # Two real scenario bundles (self-describing manifests), two arms.
    bundles = [
        _scenario_bundle(str(tmp_path / "run_full"), seed=SEEDS[0],
                         arm="full"),
        _scenario_bundle(str(tmp_path / "run_none"), seed=SEEDS[0],
                         arm="none"),
    ]
    for dirpath in bundles:
        record = ingest_bundle(warehouse, dirpath, git_rev=_git_rev())
        assert record.key.experiment == "confrontation"
    bundles_ingested = len(warehouse)
    assert bundles_ingested >= 2

    # Every committed BENCH_*.json plus any committed bundles.
    counts = ingest_results_dir(warehouse, RESULTS_DIR,
                                git_rev=_git_rev())
    assert counts["bench"] >= 1
    total_real = len(warehouse)

    # Idempotency over the whole corpus: full re-ingest adds nothing.
    for dirpath in bundles:
        ingest_bundle(warehouse, dirpath, git_rev=_git_rev())
    ingest_results_dir(warehouse, RESULTS_DIR, git_rev=_git_rev())
    assert len(warehouse) == total_real

    # The trajectory point folds the real artifacts only: it is taken
    # before the synthetic fixture records below enter the warehouse.
    trajectory = update_trajectory(warehouse, TRAJECTORY_PATH,
                                   git_rev=_git_rev())
    point = trajectory["points"][-1]
    assert point["runs"] == total_real
    assert "synthetic" not in point["experiments"]

    # Ingest throughput on synthetic records (constant artifact size).
    start = time.perf_counter()
    for index in range(SYNTHETIC_RECORDS):
        warehouse.ingest(_synthetic(index))
    ingest_seconds = time.perf_counter() - start
    ingest_rate = SYNTHETIC_RECORDS / ingest_seconds

    # Query throughput: percentile aggregation across the whole store.
    start = time.perf_counter()
    for _ in range(QUERY_REPS):
        warehouse.percentile("throughput_rps", (0.5, 0.95, 0.99),
                             where={"experiment": "synthetic"})
    query_seconds = time.perf_counter() - start
    query_rate = QUERY_REPS / query_seconds

    # Reopen: everything survives, grouped queries still answer.
    reopened = Warehouse(str(tmp_path / "wh"))
    assert len(reopened) == total_real + SYNTHETIC_RECORDS
    groups = reopened.group("throughput_rps", by="arm",
                            where={"experiment": "synthetic"})
    assert len(groups) == 4

    table = ExperimentTable(
        "E24 warehouse ingest + query",
        ["artifact", "count", "rate_per_sec"])
    table.add_row("real bundles", bundles_ingested, "-")
    table.add_row("bench documents", counts["bench"], "-")
    table.add_row("synthetic ingest", SYNTHETIC_RECORDS,
                  round(ingest_rate, 1))
    table.add_row("percentile queries", QUERY_REPS, round(query_rate, 1))
    experiment(table)

    _export("ingest", {
        "real_bundles": bundles_ingested,
        "bench_documents": counts["bench"],
        "committed_bundles": counts["bundles"],
        "records_total": total_real + SYNTHETIC_RECORDS,
        "ingest_rate_per_sec": round(ingest_rate, 1),
        "query_rate_per_sec": round(query_rate, 1),
        "bytes_on_disk": reopened.stats()["bytes_on_disk"],
        "trajectory_points": len(trajectory["points"]),
        "quick": QUICK,
    }, gates={"ingest_rate_per_sec": "throughput",
              "query_rate_per_sec": "throughput"})


# -- the regression sentinel --------------------------------------------------------


def test_sentinel_gates_regressions_and_passes_clean(experiment):
    gates = {"throughput_rps": "throughput", "healthy_killed": "defense",
             "overhead_pct": "overhead", "latency.p99_ms": "latency"}

    def trials(metrics, tag):
        return [RunRecord(
            key=RunKey(experiment="e24", arm="full", seed=seed,
                       git_rev=tag),
            kind="synthetic", metrics=dict(metrics),
            context={"quick": QUICK, "gates": gates}, source=tag, tag=tag)
            for seed in range(3)]

    healthy = {"throughput_rps": 1000.0, "healthy_killed": 0.0,
               "overhead_pct": 3.0, "latency.p99_ms": 8.0}

    clean = compare_runs(trials(healthy, "base"), trials(healthy, "cand"))
    assert clean.ok and not clean.regressions

    slow = dict(healthy, throughput_rps=800.0)          # -20%
    perf = compare_runs(trials(healthy, "base"), trials(slow, "cand"))
    assert not perf.ok
    assert [d.metric for d in perf.regressions] == ["throughput_rps"]

    lethal = dict(healthy, healthy_killed=1.0)
    defense = compare_runs(trials(healthy, "base"), trials(lethal, "cand"))
    assert not defense.ok
    assert [d.metric for d in defense.regressions] == ["healthy_killed"]

    noisy = dict(healthy, throughput_rps=950.0)         # -5% < 10% band
    assert compare_runs(trials(healthy, "base"), trials(noisy, "cand")).ok

    table = ExperimentTable(
        "E24 regression sentinel verdicts",
        ["candidate", "verdict", "gated_regressions"])
    table.add_row("identical pair", "OK", 0)
    table.add_row("-20% throughput", "REGRESSION", len(perf.regressions))
    table.add_row("healthy_killed 0->1", "REGRESSION",
                  len(defense.regressions))
    table.add_row("-5% throughput (noise)", "OK", 0)
    experiment(table)

    _export("sentinel", {
        "identical_pair_ok": clean.ok,
        "throughput_drop_flagged": not perf.ok,
        "throughput_drop_relative_pct": round(
            perf.regressions[0].relative_pct, 2),
        "defense_increase_flagged": not defense.ok,
        "noise_within_band_ok": True,
        "quick": QUICK,
    })


# -- /query through the live control plane ------------------------------------------


def test_query_endpoint_over_live_http(tmp_path, experiment):
    warehouse_dir = str(tmp_path / "wh")
    warehouse = Warehouse(warehouse_dir)
    for index in range(60):
        warehouse.ingest(_synthetic(index))
    del warehouse                       # the plane opens its own handle

    plane = ControlPlane(config=ControlPlaneConfig(
        workers=0, warehouse_dir=warehouse_dir))
    thread = ServerThread(plane)
    host, port = thread.start()
    latencies = []
    try:
        conn = http.client.HTTPConnection(host, port, timeout=10)
        body = json.dumps({
            "op": "percentile", "metric": "throughput_rps",
            "where": {"experiment": "synthetic"},
            "q": [0.5, 0.95, 0.99]}).encode()
        payload = None
        for _ in range(HTTP_QUERIES):
            start = time.perf_counter()
            conn.request("POST", "/query", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            latencies.append((time.perf_counter() - start) * 1000.0)
            assert response.status == 200
        assert payload["matched"] == 60
        assert payload["percentiles"]["0.5"] == pytest.approx(1029.5)

        # The query request owns a span chain: api.request at the root,
        # warehouse.query nested under it, replayed through /explain.
        trace_id = payload["trace_id"]
        conn.request("GET", f"/explain?trace_id={trace_id}")
        explained = json.loads(conn.getresponse().read())
        assert "api.request" in explained["kinds"]
        assert "warehouse.query" in explained["kinds"]
        conn.close()
    finally:
        thread.stop()
        plane.close()

    p50, p95 = (statistics.median(latencies),
                sorted(latencies)[int(0.95 * (len(latencies) - 1))])
    table = ExperimentTable(
        "E24 /query over live HTTP",
        ["queries", "p50_ms", "p95_ms", "explained"])
    table.add_row(HTTP_QUERIES, round(p50, 2), round(p95, 2), "yes")
    experiment(table)

    _export("serving", {
        "queries": HTTP_QUERIES,
        "latency_p50_ms": round(p50, 3),
        "latency_p95_ms": round(p95, 3),
        "span_chain_explained": True,
        "quick": QUICK,
    }, gates={"latency_p50_ms": "latency", "latency_p95_ms": "latency"})


# -- ingest overhead on a real sweep ------------------------------------------------


def test_ingest_overhead_under_budget_on_e10_sweep(tmp_path, experiment):
    def run_arm(config: SafeguardConfig, seed: int) -> dict:
        scenario = ConfrontationScenario(seed=seed, config=config,
                                         threats=THREATS)
        return scenario.run(until=HORIZON)

    def sweep(warehouse) -> float:
        start = time.perf_counter()
        run_matrix(ARMS, run_arm, seeds=SEEDS, warehouse=warehouse,
                   experiment="e10", git_rev="bench")
        if warehouse is not None:
            warehouse.flush()            # batched-ingest durability point
        return time.perf_counter() - start

    import gc

    sweep(None)                          # warmup: imports, allocator
    ratios = []
    bare_times, ingest_times = [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for trial in range(OVERHEAD_TRIALS):
            # Alternate arms within each trial so host drift lands on
            # both equally; a fresh warehouse directory per trial keeps
            # ingest honest (no idempotent no-op shortcut).
            bare = sweep(None)
            # Batched flushing (one fsync per sweep, not per cell) is
            # the campaign-ingest mode; per-record durability is for
            # services, not sweeps.
            ingested = sweep(Warehouse(str(tmp_path / f"wh{trial}"),
                                       flush_every=64))
            bare_times.append(bare)
            ingest_times.append(ingested)
            ratios.append(ingested / bare)
    finally:
        if gc_was_enabled:
            gc.enable()

    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    cells = len(ARMS) * len(SEEDS)
    sample = Warehouse(str(tmp_path / "wh0"))
    assert len(sample) == cells          # every cell landed exactly once

    table = ExperimentTable(
        "E24 warehouse ingest overhead (E10-style sweep)",
        ["arm", "median_wall_sec", "overhead_pct"])
    table.add_row("sweep only", round(statistics.median(bare_times), 3), "-")
    table.add_row("sweep + ingest",
                  round(statistics.median(ingest_times), 3),
                  round(overhead_pct, 2))
    experiment(table)

    _export("overhead", {
        "arms": [label for label, _config in ARMS],
        "seeds": list(SEEDS),
        "horizon": HORIZON,
        "trials": OVERHEAD_TRIALS,
        "cells_per_sweep": cells,
        "sweep_wall_sec_median": round(statistics.median(bare_times), 4),
        "ingest_wall_sec_median": round(statistics.median(ingest_times), 4),
        "overhead_pct": round(overhead_pct, 3),
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "quick": QUICK,
    }, gates={"overhead_pct": "overhead",
              "sweep_wall_sec_median": "latency",
              "ingest_wall_sec_median": "latency"})

    assert overhead_pct <= OVERHEAD_BUDGET_PCT, (
        f"warehouse ingest overhead {overhead_pct:.2f}% exceeds "
        f"{OVERHEAD_BUDGET_PCT}% budget")
