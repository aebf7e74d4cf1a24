"""Prometheus text rendering, the JSONL writer, and the run bundle."""

from __future__ import annotations

import json
import os

import pytest

from repro.sim.metrics import MetricsRegistry
from repro.sim.simulator import Simulator
from repro.telemetry.exposition import (
    BUNDLE_SCHEMA,
    prometheus_text,
    sanitize_metric_name,
    write_bundle,
    write_jsonl,
)


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("net.sent") == "net_sent"
        assert sanitize_metric_name("flight.dumps") == "flight_dumps"

    def test_colons_and_underscores_survive(self):
        assert sanitize_metric_name("ns:val_x") == "ns:val_x"

    def test_leading_digit_gets_prefixed(self):
        assert sanitize_metric_name("3rd.rail") == "_3rd_rail"
        assert sanitize_metric_name("") == "_"


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("net.sent").inc(3)
        registry.gauge("queue.depth").set(2.5)
        text = prometheus_text(registry)
        assert "# TYPE net_sent counter\nnet_sent 3.0\n" in text
        assert "# TYPE queue_depth gauge\nqueue_depth 2.5\n" in text

    def test_histogram_renders_as_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("rtt")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        text = prometheus_text(registry)
        assert "# TYPE rtt summary" in text
        assert 'rtt{quantile="0.5"}' in text
        assert 'rtt{quantile="0.95"}' in text
        assert 'rtt{quantile="0.99"}' in text
        assert "rtt_sum 10.0" in text
        assert "rtt_count 4" in text

    def test_summary_sum_is_the_exact_running_sum(self):
        # mean * count would render 0.44999999999999996 here.
        registry = MetricsRegistry()
        histogram = registry.histogram("rtt")
        for value in (0.1, 0.3, 0.05):
            histogram.observe(value)
        text = prometheus_text(registry)
        assert "rtt_sum 0.45\n" in text
        assert "rtt_count 3\n" in text

    def test_timeseries_renders_last_peak_count(self):
        registry = MetricsRegistry()
        series = registry.timeseries("compromised")
        series.record(0.0, 1.0)
        series.record(5.0, 3.0)
        series.record(9.0, 2.0)
        text = prometheus_text(registry)
        assert "compromised_last 2.0" in text
        assert "compromised_peak 3.0" in text
        assert "compromised_count 3.0" in text

    def test_empty_timeseries_exposes_nan_last(self):
        registry = MetricsRegistry()
        registry.timeseries("quiet")
        text = prometheus_text(registry)
        assert "quiet_last NaN" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_output_order_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("b.two").inc()
        registry.counter("a.one").inc()
        text = prometheus_text(registry)
        assert text.index("a_one") < text.index("b_two")
        assert prometheus_text(registry) == text


def _parse_exposition(text: str) -> dict:
    """A small Prometheus text-format parser for roundtrip checks.

    Returns ``{family: {"help": n, "type": n, "kind": str,
    "samples": [(name, labels, value)], "first_sample_line": int,
    "header_lines": [int]}}``.  Sample lines are attributed to their
    family by stripping the ``_sum``/``_count`` summary suffixes.
    """
    families: dict = {}

    def family_of(sample_name: str, kinds: dict) -> str:
        if sample_name in kinds:
            return sample_name
        for suffix in ("_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if kinds.get(base) == "summary":
                    return base
        return sample_name

    kinds: dict = {}
    for lineno, line in enumerate(text.splitlines()):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            marker, family, rest = line[2:].split(" ", 2)
            entry = families.setdefault(
                family, {"help": 0, "type": 0, "kind": None, "samples": [],
                         "first_sample_line": None, "header_lines": []})
            entry[marker.lower()] += 1
            entry["header_lines"].append(lineno)
            if marker == "TYPE":
                entry["kind"] = rest
                kinds[family] = rest
        elif line.startswith("#") or not line.strip():
            continue
        else:
            name_and_labels, _, value = line.rpartition(" ")
            name, _, labels = name_and_labels.partition("{")
            fam = family_of(name, kinds)
            entry = families.setdefault(
                fam, {"help": 0, "type": 0, "kind": None, "samples": [],
                      "first_sample_line": None, "header_lines": []})
            entry["samples"].append((name, labels.rstrip("}"), float(value)))
            if entry["first_sample_line"] is None:
                entry["first_sample_line"] = lineno
    return families


class TestHeaderDedupe:
    def test_every_family_has_exactly_one_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("net.sent").inc(3)
        registry.gauge("queue.depth").set(2.5)
        registry.histogram("rtt").observe(1.0)
        registry.timeseries("compromised").record(0.0, 1.0)
        families = _parse_exposition(prometheus_text(registry))
        assert families
        for name, entry in families.items():
            assert entry["help"] == 1, name
            assert entry["type"] == 1, name
            assert entry["samples"], name
            assert max(entry["header_lines"]) < entry["first_sample_line"]

    def test_colliding_sanitized_names_share_one_header(self):
        # "api.latency" and "api_latency" sanitize to the same family:
        # the first declares it, the second only contributes samples.
        registry = MetricsRegistry()
        registry.counter("api.latency").inc(1)
        registry.counter("api_latency").inc(2)
        text = prometheus_text(registry)
        assert text.count("# TYPE api_latency counter") == 1
        assert text.count("# HELP api_latency") == 1
        families = _parse_exposition(text)
        assert len(families["api_latency"]["samples"]) == 2

    def test_nan_quantiles_still_live_under_a_headered_family(self):
        registry = MetricsRegistry()
        registry.histogram("idle.latency")          # no observations
        text = prometheus_text(registry)
        families = _parse_exposition(text)
        entry = families["idle_latency"]
        assert (entry["help"], entry["type"], entry["kind"]) == (
            1, 1, "summary")
        quantiles = [s for s in entry["samples"] if "quantile" in s[1]]
        assert len(quantiles) == 3
        for _name, _labels, value in quantiles:
            assert value != value                   # NaN parses as NaN
        assert max(entry["header_lines"]) < entry["first_sample_line"]

    def test_help_carries_the_source_registry_name(self):
        registry = MetricsRegistry()
        registry.counter("net.sent").inc()
        assert "# HELP net_sent net.sent" in prometheus_text(registry)


def _registry_records(registry):
    return ({"name": name, **snap}
            for name, snap in registry.snapshot().items())


class TestMetricsJsonl:
    def test_one_line_per_metric_with_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("net.sent").inc(2)
        registry.gauge("depth").set(1.0)
        path = str(tmp_path / "metrics.jsonl")
        assert write_jsonl(path, _registry_records(registry)) == 2
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8") if line.strip()]
        by_name = {line["name"]: line for line in lines}
        assert by_name["net.sent"]["value"] == 2.0
        assert by_name["net.sent"]["type"] == "counter"
        assert by_name["depth"]["type"] == "gauge"

    def test_lines_are_sorted_key_json_with_str_fallback(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        assert write_jsonl(path, [{"b": 1, "a": {"z": 2, "y": 3}},
                                  {"when": MetricsRegistry}]) == 2
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == '{"a": {"y": 3, "z": 2}, "b": 1}'
        assert json.loads(lines[1]) == {"when": str(MetricsRegistry)}

    def test_timeseries_snapshot_lands_in_the_bundle(self, tmp_path):
        # TimeSeries had no snapshot(), so a run recording one (towers,
        # aggregate monitors) could not write metrics.jsonl at all.
        sim = Simulator(seed=1)
        series = sim.metrics.timeseries("aggregate.heat")
        series.record(0.0, 3.0)
        series.record(1.0, 2.0)
        directory = str(tmp_path / "b")
        write_bundle(sim, directory)
        with open(os.path.join(directory, "metrics.jsonl"),
                  encoding="utf-8") as handle:
            (row,) = [json.loads(line) for line in handle]
        assert row == {"name": "aggregate.heat", "type": "timeseries",
                       "last": 2.0, "peak": 3.0, "count": 2}


class TestBundle:
    def _busy_sim(self) -> Simulator:
        sim = Simulator(seed=3)
        sim.metrics.counter("work.done")

        def work():
            sim.telemetry.start_span("work", "dev1", sim.now)
            sim.record("work.tick", "dev1")
            sim.metrics.counter("work.done").inc()

        sim.every(1.0, work, label="dev1:work")
        sim.run(until=5.0)
        return sim

    def test_bundle_writes_all_files_and_manifest(self, tmp_path):
        sim = self._busy_sim()
        directory = str(tmp_path / "bundle")
        manifest = write_bundle(sim, directory,
                                extra_manifest={"scenario": "unit"})
        for filename in manifest["files"]:
            assert os.path.exists(os.path.join(directory, filename)), filename
        assert manifest["scenario"] == "unit"
        assert manifest["sim_time"] == 5.0
        assert manifest["spans"]["spans"] > 0
        assert manifest["trace_events"] > 0
        assert manifest["metrics"] >= 1

    def test_manifest_on_disk_matches_return_value(self, tmp_path):
        sim = self._busy_sim()
        directory = str(tmp_path / "bundle")
        manifest = write_bundle(sim, directory)
        with open(os.path.join(directory, "manifest.json"),
                  encoding="utf-8") as handle:
            on_disk = json.load(handle)
        assert on_disk == json.loads(json.dumps(manifest, default=str))

    def test_spans_jsonl_round_trips(self, tmp_path):
        from repro.telemetry.spans import Tracer

        sim = self._busy_sim()
        directory = str(tmp_path / "bundle")
        write_bundle(sim, directory)
        loaded = Tracer.load_jsonl(os.path.join(directory, "spans.jsonl"))
        assert len(loaded.spans) == len(sim.telemetry.spans)

    def test_bundle_leaves_no_tmp_files(self, tmp_path):
        sim = self._busy_sim()
        directory = str(tmp_path / "bundle")
        write_bundle(sim, directory)
        leftovers = [name for name in os.listdir(directory)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_crashed_dump_preserves_previous_bundle(self, tmp_path):
        # First dump succeeds; a second dump that dies mid-generation
        # must leave every first-dump artifact intact and untorn.
        sim = self._busy_sim()
        directory = str(tmp_path / "bundle")
        write_bundle(sim, directory, streams={"alerts": [{"rule": "hot"}]})
        before = {}
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                before[name] = fh.read()

        class Exploding:
            def snapshot(self):
                raise RuntimeError("disk fell off")

        sim.metrics.counter("work.done").inc(999)       # would change output
        sim.metrics._metrics["boom"] = Exploding()
        try:
            with pytest.raises(RuntimeError):
                write_bundle(sim, directory)
        finally:
            del sim.metrics._metrics["boom"]
        # metrics.jsonl generation raised -> old file byte-identical,
        # and no torn temp file left behind.
        with open(os.path.join(directory, "metrics.jsonl"),
                  encoding="utf-8") as fh:
            assert fh.read() == before["metrics.jsonl"]
        assert not os.path.exists(
            os.path.join(directory, "metrics.jsonl.tmp"))
        # Files the crashed dump never reached are the previous ones.
        for name in ("spans.jsonl", "events.jsonl", "manifest.json"):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as fh:
                assert fh.read() == before[name], name

        # A caller stream whose records raise mid-iteration: its previous
        # file and the manifest stay byte-identical, no temp file is left.
        def exploding_rows():
            yield {"rule": "new"}
            raise RuntimeError("alert source fell over")

        with pytest.raises(RuntimeError):
            write_bundle(sim, directory, streams={"alerts": exploding_rows()})
        for name in ("alerts.jsonl", "manifest.json"):
            with open(os.path.join(directory, name),
                      encoding="utf-8") as fh:
                assert fh.read() == before[name], name
        assert sorted(os.listdir(directory)) == sorted(before)

    def test_metrics_jsonl_failure_keeps_old_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("ok").inc()
        path = str(tmp_path / "metrics.jsonl")
        write_jsonl(path, _registry_records(registry))
        with open(path, encoding="utf-8") as fh:
            original = fh.read()

        class Exploding:
            def snapshot(self):
                raise RuntimeError("torn write")

        registry._metrics["boom"] = Exploding()
        with pytest.raises(RuntimeError):
            write_jsonl(path, _registry_records(registry))
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == original
        assert not os.path.exists(path + ".tmp")

    def test_every_bundle_file_is_in_its_manifest(self, tmp_path):
        from repro.api.runtime import ManualClock
        from repro.api.service import ControlPlane, ControlPlaneConfig
        from repro.scenarios.confrontation import (
            ConfrontationScenario, ThreatConfig)
        from repro.scenarios.harness import SafeguardConfig

        scenario = ConfrontationScenario(
            seed=5, config=SafeguardConfig.full(),
            threats=ThreatConfig(worm=True, worm_time=5.0,
                                 worm_initial_targets=1),
            safety_transport="reliable", health=True)
        confrontation = str(tmp_path / "confrontation")
        scenario.run(until=15.0, telemetry_dir=confrontation)
        plane = ControlPlane(config=ControlPlaneConfig(workers=0),
                             clock=ManualClock())
        plane.handle_request("GET", "/health")
        control_plane = str(tmp_path / "control-plane")
        plane.export_bundle(control_plane)
        plane.close()
        for directory in (confrontation, control_plane):
            with open(os.path.join(directory, "manifest.json"),
                      encoding="utf-8") as handle:
                files = json.load(handle)["files"]
            assert "alerts.jsonl" in files
            assert sorted(os.listdir(directory)) == sorted(files)
        assert "access.jsonl" in files

    def test_scenario_export_telemetry(self, tmp_path):
        from repro.scenarios.confrontation import (
            ConfrontationScenario, ThreatConfig)
        from repro.scenarios.harness import SafeguardConfig

        scenario = ConfrontationScenario(
            seed=5,
            config=SafeguardConfig.only(watchdog=True, sealed=True),
            threats=ThreatConfig(worm=True, worm_time=5.0,
                                 worm_initial_targets=1),
            durability="journal",
        )
        directory = str(tmp_path / "run")
        scenario.run(until=15.0, telemetry_dir=directory)
        with open(os.path.join(directory, "manifest.json"),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["scenario"] == "confrontation"
        assert manifest["durability"] == "journal"
        prom = open(os.path.join(directory, "metrics.prom"),
                    encoding="utf-8").read()
        # The E18 storage-pressure gauges ride along in the exposition.
        assert "store_appends" in prom
        assert "store_bytes_written" in prom


class TestSelfDescribingManifest:
    def test_identity_block_always_present(self, tmp_path):
        sim = Simulator(seed=1)
        sim.metrics.counter("x").inc()
        manifest = write_bundle(sim, str(tmp_path / "b"),
                                experiment="e24", arm="full", seed=7)
        assert manifest["bundle_schema"] == BUNDLE_SCHEMA
        assert manifest["experiment"] == "e24"
        assert manifest["arm"] == "full"
        assert manifest["seed"] == 7
        assert manifest["horizon"] == sim.now

    def test_unknown_identity_stamps_none_not_absent(self, tmp_path):
        sim = Simulator(seed=1)
        manifest = write_bundle(sim, str(tmp_path / "b"))
        assert manifest["bundle_schema"] == BUNDLE_SCHEMA
        assert manifest["experiment"] is None
        assert manifest["arm"] is None
        assert manifest["seed"] is None

    def test_explicit_horizon_overrides_clock(self, tmp_path):
        sim = Simulator(seed=1)
        sim.run(until=4.0)
        manifest = write_bundle(sim, str(tmp_path / "b"), horizon=120.0)
        assert manifest["horizon"] == 120.0
