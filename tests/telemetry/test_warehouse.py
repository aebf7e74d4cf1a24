"""The E24 telemetry warehouse: store, queries, ingest, and the sentinel."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.warehouse import (
    RunKey,
    RunRecord,
    SCHEMA_VERSION,
    Warehouse,
    compare_runs,
    flatten_numeric,
    ingest_bench,
    ingest_bundle,
    ingest_results_dir,
    ingest_run_dict,
    match_where,
    update_trajectory,
)
from repro.telemetry.warehouse.sentinel import load_trajectory


def record(experiment="e", arm="full", seed=1, metrics=None, quick=False,
           git_rev="rev0", tag="", kind="matrix", gates=None) -> RunRecord:
    context = {"quick": quick}
    if gates is not None:
        context["gates"] = gates
    return RunRecord(
        key=RunKey(experiment=experiment, arm=arm, seed=seed,
                   git_rev=git_rev),
        kind=kind, metrics=dict(metrics or {"m": 1.0}),
        context=context, source="test", tag=tag)


# -- records -----------------------------------------------------------------------


class TestRunRecord:
    def test_payload_round_trip(self):
        original = record(metrics={"a.b": 2.0}, quick=True)
        rebuilt = RunRecord.from_payload(original.to_payload())
        assert rebuilt == original
        assert rebuilt.digest() == original.digest()
        assert rebuilt.schema == SCHEMA_VERSION

    def test_digest_changes_with_content_and_identity(self):
        base = record()
        assert record().digest() == base.digest()
        assert record(metrics={"m": 2.0}).digest() != base.digest()
        assert record(seed=2).digest() != base.digest()
        assert record(tag="baseline").digest() != base.digest()
        assert record(git_rev="rev1").digest() != base.digest()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record(kind="mystery")

    def test_flatten_numeric_shapes(self):
        flat = flatten_numeric({
            "a": {"b": 1, "c": [2.0, 3.0]},
            "flag": True,                    # bools are facts, not metrics
            "nan": float("nan"),             # no comparable signal
            "name": "text",
        })
        assert flat == {"a.b": 1.0, "a.c.0": 2.0, "a.c.1": 3.0}


# -- the store ---------------------------------------------------------------------


class TestWarehouseStore:
    def test_ingest_and_reopen(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        assert warehouse.ingest(record(seed=1))
        assert warehouse.ingest(record(seed=2))
        assert len(warehouse) == 2
        reopened = Warehouse(str(tmp_path / "wh"))
        assert len(reopened) == 2
        assert {run.key.seed for run in reopened.runs()} == {1, 2}

    def test_reingest_is_noop_within_and_across_processes(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        assert warehouse.ingest(record())
        assert not warehouse.ingest(record())            # same content
        assert len(warehouse) == 1
        reopened = Warehouse(str(tmp_path / "wh"))
        assert not reopened.ingest(record())             # rebuilt index
        assert len(reopened) == 1

    def test_torn_ingest_recovers_to_last_good_record(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        for seed in range(4):
            warehouse.ingest(record(seed=seed))
        warehouse.storage.corrupt_tail("warehouse", drop_bytes=7)
        survivor = Warehouse(str(tmp_path / "wh"))
        assert len(survivor) == 3
        assert [run.key.seed for run in survivor.runs()] == [0, 1, 2]
        # The torn record can simply be ingested again afterwards.
        assert survivor.ingest(record(seed=3))
        assert len(Warehouse(str(tmp_path / "wh"))) == 4

    def test_bit_rot_stops_at_last_good_frame(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        for seed in range(3):
            warehouse.ingest(record(seed=seed))
        size = warehouse.storage.size("warehouse")
        warehouse.storage.corrupt_tail("warehouse",
                                       flip_bit=(size // 2) * 8)
        survivor = Warehouse(str(tmp_path / "wh"))
        assert len(survivor) < 3
        seeds = [run.key.seed for run in survivor.runs()]
        assert seeds == sorted(seeds)           # an exact prefix survived

    def test_compaction_keeps_every_record(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"), compact_every=4)
        for seed in range(10):
            warehouse.ingest(record(seed=seed))
        assert warehouse.journal.snapshot_seq is not None
        assert warehouse.journal.flushed_records < 10
        reopened = Warehouse(str(tmp_path / "wh"))
        assert len(reopened) == 10
        assert not reopened.ingest(record(seed=5))       # still dedupes

    def test_each_compaction_appends_only_the_new_records(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"), compact_every=0)
        for seed in range(3):
            warehouse.ingest(record(seed=seed))
        warehouse.compact()
        for seed in range(3, 5):
            warehouse.ingest(record(seed=seed))
        warehouse.compact()
        warehouse.ingest(record(seed=5))                 # journal tail
        segments = warehouse.journal.recover()[0]
        assert [[payload["key"]["seed"]
                 for payload in segment["state"]["records"]]
                for segment in segments] == [[0, 1, 2], [3, 4]]
        reopened = Warehouse(str(tmp_path / "wh"))
        # Every record exactly once, in ingest order.
        assert [run.key.seed for run in reopened.runs()] == list(range(6))

    def test_kill_during_compaction_loses_no_record(self, tmp_path,
                                                    monkeypatch):
        """A process killed while ``compact()`` appends its segment leaves
        ``warehouse.snap`` ending in a torn frame.  The next open cuts it
        away and keeps the earlier segments; the torn segment's records
        are still in the journal, which is compacted only afterwards."""

        class Killed(BaseException):
            pass

        warehouse = Warehouse(str(tmp_path / "wh"), compact_every=0)
        for seed in range(3):
            warehouse.ingest(record(seed=seed))
        warehouse.compact()
        for seed in range(3, 6):
            warehouse.ingest(record(seed=seed))
        append = warehouse.storage.append

        def torn_append(name, data):
            if name == "warehouse.snap":
                append(name, data[:len(data) // 2])
                raise Killed
            append(name, data)

        monkeypatch.setattr(warehouse.storage, "append", torn_append)
        with pytest.raises(Killed):
            warehouse.compact()
        reopened = Warehouse(str(tmp_path / "wh"), compact_every=0)
        assert [run.key.seed for run in reopened.runs()] == list(range(6))
        reopened.compact()
        assert [run.key.seed for run in Warehouse(
            str(tmp_path / "wh")).runs()] == list(range(6))

    def test_batched_flush_mode(self, tmp_path):
        """``flush_every > 1`` (campaign-sweep ingest) buffers frames;
        ``flush()`` is the durability point."""
        warehouse = Warehouse(str(tmp_path / "wh"), flush_every=64)
        for seed in range(5):
            warehouse.ingest(record(seed=seed))
        assert len(warehouse) == 5                       # visible at once
        assert warehouse.journal.unflushed == 5          # but not durable
        assert warehouse.flush() == 5
        assert warehouse.journal.unflushed == 0
        assert len(Warehouse(str(tmp_path / "wh"))) == 5

    def test_stats_reports_store_health(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        warehouse.ingest(record(experiment="e10"))
        warehouse.ingest(record(experiment="e23", kind="bench", arm="bench"))
        stats = warehouse.stats()
        assert stats["records"] == 2
        assert stats["experiments"] == ["e10", "e23"]
        assert stats["kinds"] == ["bench", "matrix"]
        assert stats["bytes_on_disk"] > 0
        assert stats["recovery"]["corrupt_frame"] is False

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),                 # seed
            st.dictionaries(
                st.sampled_from(["m.a", "m.b", "throughput_rps"]),
                st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                max_size=3)),
        max_size=8))
    def test_property_reingest_never_grows_the_store(self, tmp_path_factory,
                                                     runs):
        """Idempotency: ingesting any batch twice == ingesting it once."""
        base = tmp_path_factory.mktemp("wh-prop")
        warehouse = Warehouse(str(base / "wh"))
        for seed, metrics in runs:
            warehouse.ingest(record(seed=seed, metrics=metrics or {"m": 0.0}))
        once = len(warehouse)
        for seed, metrics in runs:
            assert not warehouse.ingest(
                record(seed=seed, metrics=metrics or {"m": 0.0}))
        assert len(warehouse) == once
        assert len(Warehouse(str(base / "wh"))) == once


# -- queries -----------------------------------------------------------------------


@pytest.fixture
def populated(tmp_path):
    warehouse = Warehouse(str(tmp_path / "wh"))
    for arm, base in (("baseline", 100.0), ("full", 80.0)):
        for seed in (1, 2, 3):
            warehouse.ingest(record(
                arm=arm, seed=seed,
                metrics={"throughput_rps": base + seed,
                         "healthy_killed": 0.0}))
    return warehouse


class TestQueries:
    def test_select_and_values(self, populated):
        rows = populated.select("throughput_rps", where={"arm": "full"})
        assert len(rows) == 3
        assert all(run.key.arm == "full" for run, _value in rows)
        assert sorted(populated.values("throughput_rps",
                                       where={"arm": "full"})) == [
            81.0, 82.0, 83.0]

    def test_percentile_interpolates(self, populated):
        assert populated.percentile(
            "throughput_rps", 0.5, where={"arm": "baseline"}) == 102.0
        result = populated.percentile(
            "throughput_rps", [0.0, 0.5, 1.0], where={"arm": "baseline"})
        assert result == {0.0: 101.0, 0.5: 102.0, 1.0: 103.0}
        assert populated.percentile("missing.metric", 0.5) is None

    def test_group_by_arm(self, populated):
        groups = populated.group("throughput_rps", by="arm")
        assert set(groups) == {"baseline", "full"}
        assert groups["full"]["count"] == 3
        assert groups["full"]["p50"] == 82.0
        assert groups["baseline"]["mean"] == 102.0

    def test_where_filters_and_predicates(self, populated):
        assert len(populated.runs({"seed": [1, 2]})) == 4
        assert len(populated.runs({"seed": lambda s: s > 2})) == 2
        assert len(populated.runs(
            lambda run: run.key.arm == "baseline")) == 3

    def test_unknown_where_field_raises(self, populated):
        with pytest.raises(ValueError):
            populated.runs({"tyop": 1})
        with pytest.raises(ValueError):
            populated.group("throughput_rps", by="tyop")

    def test_metrics_known(self, populated):
        assert populated.metrics_known() == [
            "healthy_killed", "throughput_rps"]


# -- the regression sentinel -------------------------------------------------------


#: The families the sentinel fixtures declare, as a bench's ``gates``.
GATES = {"throughput_rps": "throughput", "healthy_killed": "defense",
         "compromised_ever": "defense", "overhead_pct": "overhead",
         "a_rps": "throughput", "b_rps": "throughput"}


def trials(metrics_per_seed, arm="full", quick=False, tag="",
           experiment="e", gates=GATES):
    return [record(experiment=experiment, arm=arm, seed=seed,
                   metrics=metrics, quick=quick, tag=tag, gates=gates)
            for seed, metrics in enumerate(metrics_per_seed)]


class TestSentinel:
    def test_identical_pair_reports_no_regression(self):
        metrics = [{"throughput_rps": 1000.0, "healthy_killed": 0.0,
                    "overhead_pct": 3.0} for _ in range(3)]
        report = compare_runs(trials(metrics), trials(metrics))
        assert report.ok
        assert report.regressions == []
        assert {delta.verdict for delta in report.deltas} == {"ok"}
        assert report.comparable

    def test_synthetic_20pct_throughput_regression_flagged(self):
        baseline = trials([{"throughput_rps": 1000.0 + seed}
                           for seed in range(3)])
        candidate = trials([{"throughput_rps": 800.0 + seed}
                            for seed in range(3)])
        report = compare_runs(baseline, candidate)
        assert not report.ok
        (delta,) = report.regressions
        assert delta.metric == "throughput_rps"
        assert delta.family == "throughput"
        assert delta.relative_pct == pytest.approx(-20.0, abs=0.5)

    def test_throughput_noise_within_band_is_ok(self):
        baseline = trials([{"throughput_rps": 1000.0}] * 3)
        candidate = trials([{"throughput_rps": 950.0}] * 3)   # -5% < 10%
        assert compare_runs(baseline, candidate).ok

    def test_healthy_killed_increase_is_a_regression(self):
        baseline = trials([{"healthy_killed": 0.0}] * 3)
        candidate = trials([{"healthy_killed": 1.0}] * 3)
        report = compare_runs(baseline, candidate)
        (delta,) = report.regressions
        assert delta.metric == "healthy_killed"
        assert delta.family == "defense"

    def test_median_of_trials_shields_one_outlier(self):
        baseline = trials([{"throughput_rps": 1000.0}] * 3)
        candidate = trials([{"throughput_rps": 990.0},
                            {"throughput_rps": 1010.0},
                            {"throughput_rps": 400.0}])   # one bad trial
        assert compare_runs(baseline, candidate).ok

    def test_improvement_detected(self):
        baseline = trials([{"throughput_rps": 1000.0}] * 2)
        candidate = trials([{"throughput_rps": 1300.0}] * 2)
        report = compare_runs(baseline, candidate)
        (delta,) = report.improvements
        assert delta.metric == "throughput_rps"

    def test_wallclock_families_informational_across_protocols(self):
        baseline = trials([{"throughput_rps": 1000.0}] * 2, quick=False)
        candidate = trials([{"throughput_rps": 500.0}] * 2, quick=True)
        report = compare_runs(baseline, candidate)
        assert not report.comparable
        assert report.ok
        (delta,) = [d for d in report.deltas
                    if d.metric == "throughput_rps"]
        assert delta.verdict == "informational"

    def test_no_improvement_is_read_across_protocols(self):
        baseline = trials([{"throughput_rps": 1000.0,
                            "compromised_ever": 5.0}] * 2, quick=False)
        candidate = trials([{"throughput_rps": 2000.0,
                             "compromised_ever": 3.0}] * 2, quick=True)
        report = compare_runs(baseline, candidate)
        assert report.improvements == []
        assert {delta.verdict for delta in report.deltas} == {
            "informational"}

    def test_defense_zero_to_nonzero_gates_even_across_protocols(self):
        baseline = trials([{"healthy_killed": 0.0}] * 2, quick=False)
        candidate = trials([{"healthy_killed": 2.0}] * 2, quick=True)
        report = compare_runs(baseline, candidate)
        assert not report.ok
        assert report.regressions[0].metric == "healthy_killed"

    def test_defense_magnitude_shift_across_protocols_informational(self):
        baseline = trials([{"compromised_ever": 3.0}] * 2, quick=False)
        candidate = trials([{"compromised_ever": 5.0}] * 2, quick=True)
        report = compare_runs(baseline, candidate)
        assert report.ok
        (delta,) = report.deltas
        assert delta.verdict == "informational"

    def test_one_sided_metric_is_missing_not_judged(self):
        report = compare_runs(trials([{"a_rps": 1.0}]),
                              trials([{"b_rps": 1.0}]))
        assert {delta.verdict for delta in report.deltas} == {"missing"}
        assert report.ok

    def test_report_serializes_and_renders(self):
        report = compare_runs(trials([{"throughput_rps": 1000.0}]),
                              trials([{"throughput_rps": 700.0}]))
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["regressions"][0]["metric"] == "throughput_rps"
        assert doc["regressions"][0]["experiment"] == "e"
        text = report.render()
        assert "REGRESSIONS" in text
        assert "e throughput_rps" in text

    def test_undeclared_metric_is_informational(self):
        baseline = trials([{"throughput_rps": 1000.0,
                            "healthy_killed": 0.0}] * 3, gates={})
        candidate = trials([{"throughput_rps": 500.0,
                             "healthy_killed": 4.0}] * 3, gates={})
        report = compare_runs(baseline, candidate)
        assert report.ok
        assert {(delta.family, delta.verdict, delta.gated)
                for delta in report.deltas} == {
            ("other", "informational", False)}

    def test_namesakes_are_judged_per_experiment(self):
        """One experiment's rise is not outvoted by the others' medians."""
        def side(rise):
            return [run for experiment in ("e19", "e20", "e21", "e23")
                    for run in trials(
                        [{"overhead_pct": 4.0 + (
                            rise if experiment == "e21" else 0.0)}],
                        experiment=experiment)]

        report = compare_runs(side(0.0), side(10.0))
        assert [(delta.experiment, delta.metric)
                for delta in report.regressions] == [
            ("e21", "overhead_pct")]
        assert {delta.n_baseline for delta in report.deltas} == {1}

    def test_candidate_declaration_wins(self):
        baseline = trials([{"speed": 100.0}] * 2,
                          gates={"speed": "latency"})
        candidate = trials([{"speed": 150.0}] * 2,
                           gates={"speed": "throughput"})
        (delta,) = compare_runs(baseline, candidate).deltas
        assert (delta.family, delta.verdict) == ("throughput", "improvement")
        # Declared on one side only: that side's declaration counts.
        (delta,) = compare_runs(baseline, trials([{"speed": 150.0}] * 2,
                                                 gates={})).deltas
        assert (delta.family, delta.verdict) == ("latency", "regression")


class TestTrajectory:
    def test_update_writes_one_point_per_revision(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        for seed in (1, 2, 3):
            warehouse.ingest(record(
                experiment="e10", seed=seed,
                metrics={"throughput_rps": 100.0 + seed,
                         "run.horizon": 120.0}, gates=GATES))
        warehouse.ingest(record(experiment="bundle",
                                metrics={"throughput_rps": 1.0}))
        path = str(tmp_path / "TRAJECTORY.json")
        document = update_trajectory(warehouse, path, git_rev="abc123")
        assert len(document["points"]) == 1
        point = document["points"][0]
        assert point["git_rev"] == "abc123"
        assert point["experiments"]["e10"]["throughput_rps"] == 102.0
        # Undeclared metrics, and records that declare nothing, stay
        # out of the longitudinal record.
        assert "run.horizon" not in point["experiments"]["e10"]
        assert "bundle" not in point["experiments"]
        assert load_trajectory(path) == document

    def test_same_revision_replaces_new_revision_appends(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        warehouse.ingest(record(metrics={"throughput_rps": 1.0},
                                gates=GATES))
        path = str(tmp_path / "TRAJECTORY.json")
        update_trajectory(warehouse, path, git_rev="rev-a")
        update_trajectory(warehouse, path, git_rev="rev-a")
        assert len(load_trajectory(path)["points"]) == 1
        update_trajectory(warehouse, path, git_rev="rev-b")
        assert [point["git_rev"]
                for point in load_trajectory(path)["points"]] == [
            "rev-a", "rev-b"]

    def test_corrupt_trajectory_starts_fresh(self, tmp_path):
        path = str(tmp_path / "TRAJECTORY.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert load_trajectory(path)["points"] == []


# -- artifact ingestion ------------------------------------------------------------


def _bundle_dir(tmp_path, seed=3) -> str:
    from repro.sim.simulator import Simulator
    from repro.telemetry.exposition import write_bundle

    sim = Simulator(seed=seed)
    sim.metrics.counter("work.done")

    def work():
        sim.record("work.tick", "d")
        sim.metrics.counter("work.done").inc()

    sim.every(1.0, work, label="d:work")
    sim.run(until=5.0)
    directory = str(tmp_path / f"bundle{seed}")
    write_bundle(sim, directory, experiment="unit", arm="full", seed=seed)
    return directory


class TestIngest:
    def test_bundle_identity_comes_from_manifest(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        rec = ingest_bundle(warehouse, _bundle_dir(tmp_path))
        assert rec.key == RunKey("unit", "full", 3, "unknown")
        assert rec.metrics["work.done"] == 5.0     # read from metrics.jsonl
        assert rec.metrics["streams.events"] > 0
        assert rec.metrics["run.horizon"] == 5.0
        assert rec.context["bundle_schema"] == 1

    def test_bundle_metrics_are_the_flattened_registry_snapshot(
            self, tmp_path):
        from repro.sim.simulator import Simulator
        from repro.telemetry.exposition import write_bundle

        sim = Simulator(seed=1)
        sim.metrics.counter("work.done").inc(5)
        sim.metrics.gauge("queue.depth").set(2.5)
        for value in (0.1, 0.3, 0.05, 0.4):
            sim.metrics.histogram("net.latency").observe(value)
        sim.metrics.histogram("idle.latency")           # empty: p* are None
        sim.metrics.timeseries("aggregate.heat").record(0.0, 7.0)
        directory = str(tmp_path / "bundle")
        write_bundle(sim, directory)
        rec = ingest_bundle(Warehouse(str(tmp_path / "wh")), directory)

        expected = {}
        for name, snap in sim.metrics.snapshot().items():
            for field, value in snap.items():
                if field != "type" and value is not None:
                    key = name if field == "value" else f"{name}.{field}"
                    expected[key] = float(value)
        ingested = {name: value for name, value in rec.metrics.items()
                    if not name.startswith(("streams.", "run."))}
        assert ingested == expected
        assert rec.metrics["net.latency.p99"] == (
            sim.metrics.histogram("net.latency").quantile(0.99))
        assert "idle.latency.p50" not in rec.metrics
        assert rec.metrics["streams.metrics"] == 5.0

    def test_bundle_reingest_is_noop(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        directory = _bundle_dir(tmp_path)
        ingest_bundle(warehouse, directory)
        ingest_bundle(warehouse, directory)
        assert len(warehouse) == 1

    def test_forward_schema_refused(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        directory = _bundle_dir(tmp_path)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["bundle_schema"] = 999
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError):
            ingest_bundle(warehouse, directory)

    def test_bench_document_flattens_and_reads_quick(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        path = str(tmp_path / "BENCH_E99.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"title": "unit bench",
                       "eval": {"throughput_rps": 123.0, "quick": True},
                       "other": {"overhead_pct": 2.0},
                       "gates": {"eval.throughput_rps": "throughput"}},
                      handle)
        rec = ingest_bench(warehouse, path)
        assert rec.key.experiment == "E99"
        assert rec.metrics == {"eval.throughput_rps": 123.0,
                               "other.overhead_pct": 2.0}
        assert rec.context["quick"] is True
        assert rec.quick()
        assert rec.context["gates"] == {"eval.throughput_rps": "throughput"}
        assert rec.context["sections"] == ["eval", "other"]

    def test_run_dict_cell(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        rec = ingest_run_dict(warehouse, {"healthy_killed": 0,
                                          "nested": {"x": 2}},
                              experiment="e10", arm="full", seed=7)
        assert rec.key.seed == 7
        assert rec.metrics == {"healthy_killed": 0.0, "nested.x": 2.0}

    def test_results_dir_sweep(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        results = tmp_path / "results"
        results.mkdir()
        _bundle_dir(results, seed=1)
        _bundle_dir(results, seed=2)
        with open(results / "BENCH_E1.json", "w", encoding="utf-8") as fh:
            json.dump({"a": {"throughput_rps": 1.0}}, fh)
        with open(results / "BENCH_BAD.json", "w", encoding="utf-8") as fh:
            fh.write("[1, 2]")                        # not an object
        counts = ingest_results_dir(warehouse, str(results))
        assert counts["bench"] == 1
        assert counts["bundles"] == 2
        assert len(counts["skipped"]) == 1
        assert len(warehouse) == 3

    def test_match_where_on_ingested_records(self, tmp_path):
        warehouse = Warehouse(str(tmp_path / "wh"))
        rec = ingest_run_dict(warehouse, {"m": 1}, experiment="e10",
                              arm="full", seed=7, tag="baseline")
        assert match_where(rec, {"experiment": "e10", "tag": "baseline"})
        assert not match_where(rec, {"arm": "none"})
