"""The transport-agnostic control plane, driven by direct dispatch.

Every test runs a :class:`ControlPlane` on a :class:`ManualClock` with
``workers=0``, so monitor ticks, token buckets, and job execution are
fully deterministic — no threads, no wall clock.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api.runtime import ManualClock
from repro.api.service import ControlPlane, ControlPlaneConfig
from repro.statespace.batch import numpy_available


def make_plane(**overrides):
    clock = ManualClock()
    defaults = dict(workers=0, monitor_interval=1.0)
    defaults.update(overrides)
    plane = ControlPlane(config=ControlPlaneConfig(**defaults), clock=clock)
    return plane, clock


def post(plane, path, payload, headers=None):
    return plane.handle_request(
        "POST", path, headers=headers or {},
        body=json.dumps(payload).encode("utf-8"))


def get(plane, path, query=None, headers=None):
    return plane.handle_request("GET", path, query=query or {},
                                headers=headers or {})


class TestEvaluate:
    def test_clear_command_executes_and_mutates_state(self):
        plane, _ = make_plane()
        response = post(plane, "/evaluate",
                        {"event": {"kind": "mgmt.command.move"}})
        assert response.status == 200
        assert response.payload["outcome"] == "executed"
        assert response.payload["executed"] == "advance"
        assert response.payload["policy_id"] == "move-when-charged"
        assert response.payload["state"]["speed"] == 25.0
        assert response.payload["trace_id"] == response.trace_id
        plane.close()

    def test_dangerous_command_is_substituted_by_the_guard(self):
        plane, _ = make_plane()
        response = post(plane, "/evaluate", {
            "state": {"heat": 120.0},
            "event": {"kind": "mgmt.command.move"},
        })
        assert response.status == 200
        assert response.payload["outcome"] == "substituted"
        assert response.payload["requested"] == "advance"
        assert response.payload["executed"] == "vent_heat"
        assert response.payload["vetoes"]
        plane.close()

    def test_request_body_errors_are_bad_request(self):
        plane, _ = make_plane()
        assert post(plane, "/evaluate", {"event": {}}).status == 400
        assert get(plane, "/evaluate").status == 405
        response = plane.handle_request("POST", "/evaluate",
                                        body=b"not json{")
        assert response.status == 500 or response.status == 400
        plane.close()


    @pytest.mark.parametrize("body, variable", [
        (b'{"heat": "hot"}', "heat"),
        (b'{"ghost": 1}', "ghost"),
        (b'{"heat": 1e400}', "heat"),
        (b'{"speed": NaN}', "speed"),
    ])
    def test_bad_state_values_are_bad_request(self, body, variable):
        plane, _ = make_plane()
        before = plane.device.state.snapshot()
        response = plane.handle_request(
            "POST", "/evaluate",
            body=b'{"event": {"kind": "mgmt.command.move"}, "state": '
            + body + b'}')
        assert (response.status, response.reason) == (400, "bad-request")
        assert variable in response.payload["detail"]
        assert plane.device.state.snapshot() == before
        assert plane.runtime.metrics.value("api.errors.bad-request") == 1.0
        plane.close()

    @pytest.mark.parametrize("state, detail", [
        ('[["heat", 120.0]]', "state: expected a dict, got list"),
        ('"ab"', "state: expected a dict, got str"),
        ("[]", "state: expected a dict, got list"),
    ])
    def test_state_that_is_not_an_object_is_refused(self, state, detail):
        """``/batch``'s words for a row that is not a dict."""
        plane, _ = make_plane()
        before = plane.device.state.snapshot()
        response = plane.handle_request(
            "POST", "/evaluate",
            body=('{"event": {"kind": "mgmt.command.move"}, "state": '
                  + state + "}").encode())
        assert (response.status, response.reason) == (400, "bad-request")
        assert response.payload["detail"] == detail
        assert plane.device.state.snapshot() == before
        plane.close()


class TestExplainRoundTrip:
    def test_decision_spans_nest_under_the_request_root(self):
        plane, _ = make_plane()
        evaluated = post(plane, "/evaluate", {
            "state": {"heat": 120.0},
            "event": {"kind": "mgmt.command.move"},
        })
        explained = get(plane, "/explain",
                        {"trace_id": evaluated.trace_id})
        assert explained.status == 200
        kinds = explained.payload["kinds"]
        assert "api.request" in kinds
        assert "engine.decision" in kinds
        assert "safeguard.veto" in kinds
        assert "api.request" in explained.payload["rendered"]
        plane.close()

    def test_unknown_trace_is_not_found(self):
        plane, _ = make_plane()
        assert get(plane, "/explain", {"trace_id": "t999"}).status == 404
        assert get(plane, "/explain").status == 400
        plane.close()


class TestRoutingAndErrors:
    def test_unknown_path_is_404_and_metered(self):
        plane, _ = make_plane()
        response = get(plane, "/no/such/endpoint")
        assert (response.status, response.reason) == (404, "not-found")
        metrics = plane.runtime.metrics
        assert metrics.value("api.errors") == 1.0
        assert metrics.value("api.errors.not-found") == 1.0
        plane.close()

    def test_handler_crash_is_500_internal_and_service_survives(self):
        plane, _ = make_plane()

        def explode(_event):
            raise RuntimeError("engine fell over")

        plane.device.engine.handle_event = explode
        response = post(plane, "/evaluate",
                        {"event": {"kind": "mgmt.command.move"}})
        assert (response.status, response.reason) == (500, "internal")
        assert plane.runtime.metrics.value("api.errors.internal") == 1.0
        assert get(plane, "/health").status == 200    # still serving
        plane.close()


class TestAdmissionAtTheEdge:
    def test_reject_is_metered_traced_and_audited(self):
        plane, _ = make_plane(api_keys={"s3cret": "ops"})
        response = post(plane, "/evaluate",
                        {"event": {"kind": "mgmt.command.move"}})
        assert (response.status, response.reason) == (401, "unauthorized")
        metrics = plane.runtime.metrics
        assert metrics.value("api.errors.unauthorized") == 1.0
        names = [span.name for span in plane.runtime.telemetry.spans]
        assert "api.reject" in names
        kinds = [event.kind for event in plane.runtime.trace.events]
        assert "api.reject" in kinds
        audited = plane.audit.entries("api.reject")
        assert len(audited) == 1
        assert audited[0].detail["reason"] == "unauthorized"
        assert plane.audit.verify()
        # The authorized caller sees the reject in the audit tail.
        tail = get(plane, "/audit", {"kind": "api.reject"},
                   headers={"x-api-key": "s3cret"})
        assert tail.status == 200
        assert tail.payload["matched"] == 1
        assert tail.payload["verified"] is True
        assert tail.payload["head_hash"]
        plane.close()

    def test_rate_limit_refills_on_the_service_clock(self):
        plane, clock = make_plane(api_keys={"k": "ops"}, rate=1.0,
                                  burst=1.0)
        headers = {"x-api-key": "k"}
        body = {"event": {"kind": "mgmt.command.move"}}
        assert post(plane, "/evaluate", body, headers).status == 200
        limited = post(plane, "/evaluate", body, headers)
        assert (limited.status, limited.reason) == (429, "rate-limited")
        clock.advance(1.0)
        assert post(plane, "/evaluate", body, headers).status == 200
        plane.close()

    def test_health_and_metrics_stay_open(self):
        plane, _ = make_plane(api_keys={"k": "ops"})
        assert get(plane, "/health").status == 200
        assert get(plane, "/metrics").status == 200
        plane.close()


@pytest.mark.skipif(not numpy_available(),
                    reason="vectorized path needs numpy")
class TestBatch:
    def test_rows_route_through_programs_with_fallback_counters(self):
        plane, _ = make_plane()
        response = post(plane, "/batch", {
            "rows": [{}, {"heat": 120.0}],
        })
        assert response.status == 200
        payload = response.payload
        assert payload["rows"] == 2
        assert payload["chosen"] == ["move-when-charged",
                                     "vent-on-overheat"]
        # Every program compiles, the bool ``set`` of engage-when-clear
        # included, so the rows ran on no scalar fallback.
        assert plane.batch_evaluator.compiled_programs() == 5
        assert payload["fallback_reasons"] == {}
        assert payload["scalar_evals"] == 0
        assert len(payload["results"]) == 2
        plane.close()

    def test_row_limit_is_413(self):
        plane, _ = make_plane(batch_row_limit=4)
        response = post(plane, "/batch", {"rows": [{}] * 5})
        assert (response.status, response.reason) == (413, "too-many-rows")
        plane.close()

    def test_empty_rows_are_bad_request(self):
        plane, _ = make_plane()
        assert post(plane, "/batch", {"rows": []}).status == 400
        plane.close()

    @pytest.mark.parametrize("rows, detail", [
        ('[{}, {"heat": "hot"}]', "row 1: heat"),
        ('[{"civilians_near": null}]', "row 0: civilians_near"),
        ('[{"civilians_near": 1e400}]', "row 0: civilians_near"),
        ('[{}, {}, "notadict"]', "row 2"),
        ('[{}, 5]', "row 1"),
        ('[{}, {"heat": null}]', "row 1: heat"),
        ('[{}, {}, {"battery": NaN}, {"heat": NaN}]', "row 2: battery"),
    ])
    def test_bad_rows_are_bad_request_naming_the_row(self, rows, detail):
        plane, _ = make_plane()
        evaluator = plane.batch_evaluator
        response = plane.handle_request(
            "POST", "/batch", body=('{"rows": %s}' % rows).encode("utf-8"))
        assert (response.status, response.reason) == (400, "bad-request")
        assert response.payload["detail"].startswith(detail)
        assert evaluator.decisions == 0      # nothing was evaluated
        plane.close()


    @pytest.mark.parametrize("rows, detail", [
        ('[{"heat": 500}]', "row 0: heat: 500.0 above bound 200.0"),
        ('[{}, {"heat": 1e400}]', "row 1: heat: inf above bound 200.0"),
        ('[{}, {}, {"civilians_near": -3}]',
         "row 2: civilians_near: -3 below bound 0"),
        ('[{}, {"speed": -1.0}, {"heat": 500}]',
         "row 1: speed: -1.0 below bound 0.0"),
    ])
    def test_out_of_range_rows_are_refused_like_evaluate(self, rows, detail):
        plane, _ = make_plane()
        evaluator = plane.batch_evaluator
        response = plane.handle_request(
            "POST", "/batch", body=('{"rows": %s}' % rows).encode("utf-8"))
        assert (response.status, response.reason) == (400, "bad-request")
        assert response.payload["detail"] == detail
        assert evaluator.decisions == 0      # nothing was evaluated
        plane.close()


class TestJobsEndpoint:
    def test_submit_links_job_to_the_request_trace(self):
        plane, _ = make_plane()
        submitted = post(plane, "/jobs", {"kind": "noop",
                                          "params": {"x": 1}})
        assert submitted.status == 202
        job = submitted.payload["job"]
        assert job["status"] == "queued"
        assert job["trace_id"] == submitted.trace_id
        plane.jobs.run_pending()
        fetched = get(plane, f"/jobs/{job['job_id']}")
        assert fetched.payload["job"]["status"] == "done"
        assert fetched.payload["job"]["result"]["params"] == {"x": 1}
        listing = get(plane, "/jobs")
        assert listing.payload["depth"] == 0
        assert len(listing.payload["jobs"]) == 1
        plane.close()

    def test_unknown_kind_and_missing_job(self):
        plane, _ = make_plane()
        response = post(plane, "/jobs", {"kind": "frobnicate"})
        assert (response.status, response.reason) == (400, "unknown-kind")
        assert get(plane, "/jobs/job-99").status == 404
        plane.close()

    def test_full_queue_is_503(self):
        plane, _ = make_plane(queue_capacity=1)
        assert post(plane, "/jobs", {"kind": "noop"}).status == 202
        overflow = post(plane, "/jobs", {"kind": "noop"})
        assert (overflow.status, overflow.reason) == (503, "queue-full")
        plane.close()


class TestSelfMonitoring:
    def test_slis_appear_after_a_monitor_tick(self):
        plane, clock = make_plane()
        for _ in range(8):
            post(plane, "/evaluate", {"event": {"kind": "sensor.threat"}})
        clock.advance(1.1)
        plane.runtime.pump()
        health = get(plane, "/health")
        slis = health.payload["slis"]
        assert slis["api.latency_p50"] > 0.0
        assert slis["api.latency_p99"] >= slis["api.latency_p50"]
        assert slis["jobs.queue_depth"] == 0.0
        assert health.payload["status"] == "ok"
        assert health.payload["requests"] >= 8.0
        plane.close()

    def test_queue_saturation_fires_and_clears_the_self_alert(self):
        plane, clock = make_plane(queue_capacity=2)
        for _ in range(2):
            assert post(plane, "/jobs", {"kind": "noop"}).status == 202
        clock.advance(1.1)
        plane.runtime.pump()                       # tick: saturation == 1
        health = get(plane, "/health")
        assert health.payload["status"] == "degraded"
        assert "jobs-queue-saturation" in health.payload["alerts"]["active"]
        assert plane.audit.entries("alert.fire")
        # The firing is itself a replayable trace.
        alert = plane.alerts.active["jobs-queue-saturation"]
        explained = get(plane, "/explain", {"trace_id": alert.trace_id})
        assert explained.status == 200
        assert "alert.fire" in explained.payload["kinds"]
        # Drain the queue; the next tick resolves the alert.
        plane.jobs.run_pending()
        clock.advance(1.1)
        plane.runtime.pump()
        recovered = get(plane, "/health")
        assert recovered.payload["status"] == "ok"
        assert recovered.payload["alerts"]["active"] == []
        assert plane.audit.entries("alert.resolve")
        plane.close()


class TestMetricsEndpoint:
    def test_prometheus_snapshot_includes_red_metrics(self):
        plane, _ = make_plane()
        post(plane, "/evaluate", {"event": {"kind": "mgmt.command.move"}})
        response = get(plane, "/metrics")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.payload
        # The scrape itself is metered after its handler runs, so the
        # snapshot shows only the requests that finished before it.
        assert "api_requests 1.0" in text
        assert "api_requests_evaluate 1.0" in text
        assert "# TYPE api_latency summary" in text
        plane.close()


class TestObservabilityToggle:
    def test_disabled_observability_means_no_spans_or_access_log(self):
        plane, _ = make_plane(observability=False)
        response = post(plane, "/evaluate",
                        {"event": {"kind": "mgmt.command.move"}})
        assert response.status == 200
        assert response.trace_id is None
        assert "trace_id" not in response.payload
        assert plane.runtime.telemetry.spans == []
        assert len(plane.access) == 0
        assert plane.runtime.metrics.value("api.requests") == 0.0
        plane.close()

    def test_access_log_records_every_request(self):
        plane, _ = make_plane()
        post(plane, "/evaluate", {"event": {"kind": "mgmt.command.move"}})
        get(plane, "/nope")
        records = plane.access.tail(2)
        assert [r["endpoint"] for r in records] == ["evaluate", "/nope"]
        assert records[0]["status"] == 200
        assert records[1]["status"] == 404
        assert records[0]["trace_id"]
        plane.close()


class TestBundleExport:
    def test_bundle_includes_access_log_and_service_manifest(self, tmp_path):
        plane, _ = make_plane()
        post(plane, "/evaluate", {"event": {"kind": "mgmt.command.move"}})
        directory = str(tmp_path / "bundle")
        manifest = plane.export_bundle(directory)
        assert manifest["service"] == "repro.api"
        assert manifest["profile"] == "patrol-drone"
        assert manifest["access_log_records"] == 1
        access_path = os.path.join(directory, "access.jsonl")
        with open(access_path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines[0]["endpoint"] == "evaluate"
        assert os.path.exists(os.path.join(directory, "alerts.jsonl"))
        plane.close()


class TestQueryEndpoint:
    """The E24 warehouse behind /query: metered, traced, explainable."""

    def _seeded_warehouse_dir(self, tmp_path) -> str:
        from repro.telemetry.warehouse.ingest import ingest_run_dict
        from repro.telemetry.warehouse.store import Warehouse

        directory = str(tmp_path / "wh")
        warehouse = Warehouse(directory)
        for arm, base in (("baseline", 100.0), ("full", 80.0)):
            for seed in (1, 2, 3):
                ingest_run_dict(
                    warehouse, {"throughput_rps": base + seed,
                                "healthy_killed": 0.0},
                    experiment="e10", arm=arm, seed=seed)
        return directory

    def test_no_warehouse_is_503_with_stable_reason(self):
        plane, _ = make_plane()
        response = post(plane, "/query", {"op": "stats"})
        assert (response.status, response.reason) == (503, "no-warehouse")
        plane.close()

    def test_get_is_method_not_allowed(self, tmp_path):
        plane, _ = make_plane(
            warehouse_dir=self._seeded_warehouse_dir(tmp_path))
        assert get(plane, "/query").status == 405
        plane.close()

    def test_select_caps_rows_at_config_limit(self, tmp_path):
        plane, _ = make_plane(
            warehouse_dir=self._seeded_warehouse_dir(tmp_path),
            query_result_limit=4)
        response = post(plane, "/query",
                        {"op": "select", "metric": "throughput_rps"})
        assert response.status == 200
        assert response.payload["matched"] == 6
        assert len(response.payload["values"]) == 4
        row = response.payload["values"][0]
        assert set(row) == {"run", "experiment", "arm", "seed", "value"}
        plane.close()

    def test_percentile_aggregation_across_runs(self, tmp_path):
        plane, _ = make_plane(
            warehouse_dir=self._seeded_warehouse_dir(tmp_path))
        response = post(plane, "/query", {
            "op": "percentile", "metric": "throughput_rps",
            "where": {"arm": "baseline"}, "q": [0.5]})
        assert response.status == 200
        assert response.payload["matched"] == 3
        assert response.payload["percentiles"] == {0.5: 102.0}
        plane.close()

    def test_group_by_arm(self, tmp_path):
        plane, _ = make_plane(
            warehouse_dir=self._seeded_warehouse_dir(tmp_path))
        response = post(plane, "/query", {
            "op": "group", "metric": "throughput_rps", "by": "arm"})
        groups = response.payload["groups"]
        assert groups["full"]["count"] == 3
        assert groups["baseline"]["p50"] == 102.0
        plane.close()

    def test_compare_identical_sets_is_ok(self, tmp_path):
        plane, _ = make_plane(
            warehouse_dir=self._seeded_warehouse_dir(tmp_path))
        response = post(plane, "/query", {
            "op": "compare",
            "baseline": {"arm": "baseline"},
            "candidate": {"arm": "baseline"}})
        assert response.status == 200
        assert response.payload["report"]["ok"] is True
        plane.close()

    def test_bad_requests_are_400(self, tmp_path):
        plane, _ = make_plane(
            warehouse_dir=self._seeded_warehouse_dir(tmp_path))
        assert post(plane, "/query", {"op": "noop"}).status == 400
        assert post(plane, "/query", {"op": "select"}).status == 400
        assert post(plane, "/query", {
            "op": "select", "metric": "m",
            "where": {"tyop": 1}}).status == 400
        assert post(plane, "/query", {
            "op": "select", "metric": "m", "where": "arm=full"}).status == 400
        plane.close()

    def test_query_is_traced_and_explainable(self, tmp_path):
        plane, _ = make_plane(
            warehouse_dir=self._seeded_warehouse_dir(tmp_path))
        response = post(plane, "/query", {
            "op": "percentile", "metric": "throughput_rps"})
        assert response.trace_id
        explained = get(plane, "/explain", {"trace_id": response.trace_id})
        assert explained.status == 200
        kinds = explained.payload["kinds"]
        assert "api.request" in kinds
        assert "warehouse.query" in kinds
        plane.close()

    def test_query_is_admission_metered(self, tmp_path):
        plane, _ = make_plane(
            warehouse_dir=self._seeded_warehouse_dir(tmp_path),
            api_keys={"k1": "operator"})
        denied = post(plane, "/query", {"op": "stats"})
        assert (denied.status, denied.reason) == (401, "unauthorized")
        allowed = post(plane, "/query", {"op": "stats"},
                       headers={"x-api-key": "k1"})
        assert allowed.status == 200
        assert allowed.payload["stats"]["records"] == 6
        plane.close()


class TestAccessLogStream:
    def test_stream_appends_every_record_across_restarts(self, tmp_path):
        from repro.api.accesslog import AccessLog

        path = str(tmp_path / "access.jsonl")
        for first in (0, 3):
            log = AccessLog(capacity=2, path=path)
            for n in range(first, first + 3):
                log.log({"endpoint": "evaluate", "n": n})
            log.close()
        with open(path, encoding="utf-8") as handle:
            assert [json.loads(line)["n"] for line in handle] == list(
                range(6))
        assert [record["n"] for record in log.tail()] == [4, 5]


class TestResponseEncoding:
    def test_body_bytes_equal_json_dumps_for_every_smoke_endpoint(self):
        """The shared encoder writes what ``json.dumps(payload,
        sort_keys=True, default=str)`` writes, for the payload of every
        endpoint ``python -m repro.api --smoke`` drives."""
        plane, _ = make_plane()
        evaluated = post(plane, "/evaluate",
                         {"event": {"kind": "mgmt.command.move"}})
        responses = [
            evaluated,
            post(plane, "/evaluate", {"event": {"kind": "mgmt.command.move"},
                                      "state": [["heat", 120.0]]}),
            get(plane, "/health"),
            post(plane, "/batch", {"rows": [{"heat": 20.0}, {"heat": 130.0}]}),
            post(plane, "/batch", {"rows": [{"heat": 500.0}]}),
            post(plane, "/batch", {"rows": [{"weapon_armed": "no"}]}),
            get(plane, "/audit"),
            post(plane, "/query", {"op": "stats"}),
            get(plane, "/explain", query={"trace_id": evaluated.trace_id}),
        ]
        submitted = post(plane, "/jobs", {"kind": "noop"})
        plane.jobs.run_pending()
        responses += [submitted,
                      get(plane, f"/jobs/{submitted.payload['job']['job_id']}")]
        assert [r.status for r in responses] == [
            200, 400, 200, 200, 400, 400, 200, 503, 200, 202, 200]
        for response in responses:
            expected = json.dumps(response.payload, sort_keys=True,
                                  default=str) + "\n"
            assert response.body_bytes() == expected.encode("utf-8")
        metrics = get(plane, "/metrics")
        assert metrics.body_bytes() == metrics.payload.encode("utf-8")
        plane.close()

    def test_body_bytes_sort_keys_and_stringify_unknown_types(self):
        from repro.api.service import ApiResponse

        payload = {"b": {"z": 1, "y": (2, 3)}, "a": ManualClock(), "é": None}
        response = ApiResponse(200, payload, "application/json", None, None)
        expected = json.dumps(payload, sort_keys=True, default=str) + "\n"
        assert response.body_bytes() == expected.encode("utf-8")
        assert response.body_bytes().startswith(b'{"a": "<repro.api.runtime')
