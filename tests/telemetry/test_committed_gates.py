"""The committed results gate what their benches declare, per experiment.

Each ``BENCH_*.json`` carries a ``gates`` block naming the metrics the
regression sentinel judges and the family each is judged as.  These
tests ingest the committed ``benchmarks/results`` as CI's
``regression-gate`` job does and check the declarations end to end:
the exact gated ``(experiment, metric)`` set, that declaring changed no
value, and that a regression in one experiment is not hidden by the
namesake metrics of the others.

A bench rerun that rewrites a committed document on purpose updates
``DOCUMENT_VALUES`` (and ``DECLARED`` if a metric comes or goes) here.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

from repro.telemetry.warehouse.ingest import ingest_bench, ingest_results_dir
from repro.telemetry.warehouse.records import flatten_numeric
from repro.telemetry.warehouse.sentinel import compare_runs
from repro.telemetry.warehouse.store import Warehouse
from repro.telemetry.warehouse.__main__ import main as warehouse_cli
from repro.telemetry.warehouse.records import RunRecord, canonical_json

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "benchmarks", "results")

LATENCY, THROUGHPUT = "latency", "throughput"

#: Every gated (experiment, metric) pair over the committed results.
DECLARED = {
    ("E19", "overhead.overhead_pct"): "overhead",
    ("E19", "overhead.best_seconds_on"): LATENCY,
    ("E19", "overhead.best_seconds_off"): LATENCY,
    ("E19", "reconstruction.compromised_ever"): "defense",
    ("E20", "overhead.overhead_pct"): "overhead",
    ("E20", "overhead.best_seconds_on"): LATENCY,
    ("E20", "overhead.best_seconds_off"): LATENCY,
    ("E20", "transient_storms.false_quarantines_adaptive"): "defense",
    ("E21", "overhead.overhead_pct"): "overhead",
    ("E21", "overhead.best_seconds_signed"): LATENCY,
    ("E21", "overhead.best_seconds_unsigned"): LATENCY,
    ("E21", "forgery_replay.healthy_killed_signed"): "defense",
    ("E23", "concurrency.latency_ms.p50"): LATENCY,
    ("E23", "concurrency.latency_ms.p95"): LATENCY,
    ("E23", "concurrency.latency_ms.p99"): LATENCY,
    ("E23", "concurrency.throughput_rps"): THROUGHPUT,
    ("E23", "overhead.best_seconds_disabled"): LATENCY,
    ("E23", "overhead.best_seconds_instrumented"): LATENCY,
    ("E23", "overhead.evaluate_only_us.disabled"): LATENCY,
    ("E23", "overhead.evaluate_only_us.instrumented"): LATENCY,
    ("E23", "overhead.per_request_fixed_cost_us"): LATENCY,
    ("E23", "overhead.overhead_pct"): "overhead",
    ("E24", "ingest.ingest_rate_per_sec"): THROUGHPUT,
    ("E24", "ingest.query_rate_per_sec"): THROUGHPUT,
    ("E24", "overhead.ingest_wall_sec_median"): LATENCY,
    ("E24", "overhead.sweep_wall_sec_median"): LATENCY,
    ("E24", "serving.latency_p50_ms"): LATENCY,
    ("E24", "serving.latency_p95_ms"): LATENCY,
    ("E24", "overhead.overhead_pct"): "overhead",
    **{("F2", f"entries.0.speedup.{policies}:{guard}"): THROUGHPUT
       for policies in (1, 10, 100, 500) for guard in ("on", "off")},
    ("F4", "fleet_scale.events_per_sec"): THROUGHPUT,
    ("F4", "fleet_scale.wall_sec"): LATENCY,
    ("F4", "sharding.speedup_at_top"): THROUGHPUT,
    **{("F4", f"sharding.runs.{shards}.events_per_sec"): THROUGHPUT
       for shards in (1, 2, 4)},
    **{("F4", f"sharding.runs.{shards}.wall_sec"): LATENCY
       for shards in (1, 2, 4)},
    ("F4", "vectorization.scalar_decisions_per_sec"): THROUGHPUT,
    ("F4", "vectorization.vector_decisions_per_sec"): THROUGHPUT,
    ("F4", "vectorization.speedup"): THROUGHPUT,
    ("F4", "vectorization.scalar_wall_sec"): LATENCY,
    ("F4", "vectorization.vector_wall_sec"): LATENCY,
}

#: ``(metric count, sha256 prefix of the canonical flattened values)``
#: per document, as they were before the documents declared any gate.
DOCUMENT_VALUES = {
    "BENCH_E19.json": (21, "d27959fa506a8236"),
    "BENCH_E20.json": (33, "b72949b5c893a3d1"),
    "BENCH_E21.json": (40, "7f35e8d856238725"),
    "BENCH_E22.json": (46, "e49aab3043934fad"),
    "BENCH_E23.json": (27, "3ceb543ef5350e6a"),
    "BENCH_E24.json": (22, "bf494cc7cd1a411c"),
    "BENCH_F2.json": (24, "3be1b7bd6978e341"),
    "BENCH_F4.json": (30, "66256a71147ae3a4"),
}


@pytest.fixture(scope="module")
def committed(tmp_path_factory) -> list:
    warehouse = Warehouse(str(tmp_path_factory.mktemp("committed") / "wh"))
    counts = ingest_results_dir(warehouse, RESULTS)
    assert counts["skipped"] == []
    return warehouse.runs()


def test_the_gated_set_is_exactly_what_the_benches_declare(committed):
    assert len(DECLARED) == 51
    report = compare_runs(committed, committed)
    assert report.ok
    gated = {(delta.experiment, delta.metric): delta.family
             for delta in report.deltas if delta.gated}
    assert gated == DECLARED
    bundles = [record for record in committed if record.kind == "bundle"]
    assert len(bundles) == 2
    assert not any(delta.gated for delta in
                   compare_runs(bundles, bundles).deltas)


def test_declaring_gates_changed_no_committed_value(committed):
    by_source = {os.path.basename(record.source): record
                 for record in committed if record.kind == "bench"}
    assert set(by_source) == set(DOCUMENT_VALUES)
    for name, (count, digest) in DOCUMENT_VALUES.items():
        with open(os.path.join(RESULTS, name), encoding="utf-8") as handle:
            document = json.load(handle)
        flat = flatten_numeric(document)
        assert (len(flat), hashlib.sha256(
            canonical_json(flat).encode()).hexdigest()[:16]) == (
            count, digest), name
        assert by_source[name].metrics == flat
        assert "gates" not in by_source[name].context["sections"]


def _raised(record: RunRecord, metric: str, by: float) -> RunRecord:
    metrics = dict(record.metrics)
    metrics[metric] += by
    return RunRecord(key=record.key, kind=record.kind, metrics=metrics,
                     context=record.context, source=record.source)


def test_one_experiments_overhead_rise_is_not_pooled_away(committed):
    """E21's signing overhead 4.95 -> 14.95 while E19, E20, E23 and E24
    report the same metric name unchanged."""
    candidate = [_raised(record, "overhead.overhead_pct", 10.0)
                 if record.key.experiment == "E21" else record
                 for record in committed]
    report = compare_runs(committed, candidate)
    assert [(delta.experiment, delta.metric, delta.family)
            for delta in report.regressions] == [
        ("E21", "overhead.overhead_pct", "overhead")]


@pytest.mark.parametrize("factor", [5.51, 1 / 5.51])
def test_a_quick_run_is_neither_gain_nor_loss_against_a_full_one(committed,
                                                                 factor):
    """E24's query rate read +451% when a quick-mode run was compared
    with the committed full run; across protocols that says nothing
    about the code in either direction."""
    (full,) = [record for record in committed
               if record.key.experiment == "E24"]
    metrics = dict(full.metrics)
    metrics["ingest.query_rate_per_sec"] *= factor
    quick = RunRecord(key=full.key, kind=full.kind, metrics=metrics,
                      context={**full.context, "quick": True},
                      source=full.source)
    report = compare_runs([full], [quick])
    assert not report.comparable
    assert report.ok and report.improvements == []
    (delta,) = [delta for delta in report.deltas
                if delta.metric == "ingest.query_rate_per_sec"]
    assert (delta.family, delta.verdict) == ("throughput", "informational")
    assert delta.relative_pct == pytest.approx((factor - 1) * 100.0)


def test_cli_gate_passes_committed_and_fails_the_e21_rise(tmp_path, capsys):
    shutil.copytree(RESULTS, tmp_path / "results")
    path = tmp_path / "results" / "BENCH_E21.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    document["overhead"]["overhead_pct"] += 10.0
    path.write_text(json.dumps(document), encoding="utf-8")
    warehouse = str(tmp_path / "wh")
    for tag, results in (("baseline", RESULTS), ("same", RESULTS),
                         ("e21", str(tmp_path / "results"))):
        assert warehouse_cli(["ingest", "--warehouse", warehouse,
                              "--tag", tag, results]) == 0

    def gate(candidate: str) -> int:
        return warehouse_cli(["compare", "--warehouse", warehouse,
                              "--baseline", "tag=baseline", "--candidate",
                              f"tag={candidate}", "--gate"])

    assert gate("same") == 0
    assert gate("e21") == 1
    assert "E21 overhead.overhead_pct" in capsys.readouterr().out


@pytest.mark.parametrize("gates, words", [
    ({"eval.throughput_rps": "speed"}, "unknown family 'speed'"),
    ({"eval.renamed_rps": "throughput"}, "does not hold"),
])
def test_ingest_refuses_a_declaration_it_cannot_honour(tmp_path, gates,
                                                       words):
    path = tmp_path / "BENCH_E99.json"
    path.write_text(json.dumps({"eval": {"throughput_rps": 1.0},
                                "gates": gates}), encoding="utf-8")
    warehouse = Warehouse(str(tmp_path / "wh"))
    with pytest.raises(ValueError, match=words):
        ingest_bench(warehouse, str(path))
    assert len(warehouse) == 0
