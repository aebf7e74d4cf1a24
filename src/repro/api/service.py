"""The E23 control plane: guarded policy decisions behind a service API.

:class:`ControlPlane` is transport-agnostic — :meth:`handle_request`
takes ``(method, path, query, headers, body)`` and returns an
:class:`ApiResponse` — so the asyncio HTTP front end
(:mod:`repro.api.http`), the CLI smoke test, and the E23 bench's
direct-dispatch overhead arms all drive exactly the same code.

Observability is structural, not optional logging:

* every request mints an ``api.request`` root span and activates it, so
  engine decisions, safeguard vetoes, journal appends, and admission
  rejects all nest under one trace the caller can replay via
  ``/explain`` (the response echoes ``trace_id``);
* RED metrics per endpoint — ``api.requests[.*]`` rates,
  ``api.errors.<reason>`` by stable reason slug, an ``api.latency``
  histogram whose exact p50/p95/p99 the monitor reads at tick time;
* a structured access-log record per request in the bundle format;
* admission rejects are metered, traced, trace-recorded **and**
  hash-chain audited — the E21 gateway posture at the HTTP edge;
* an E20 :class:`~repro.telemetry.health.AlertEngine` watches the
  service's *own* SLIs (error rate, p99, queue saturation) with the
  same rule grammar the fleet uses: the control plane self-monitors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.api.accesslog import AccessLog
from repro.api.auth import AdmissionControl
from repro.api.jobs import JobQueue
from repro.api.profile import EvaluationProfile, default_profile
from repro.api.runtime import ServiceRuntime
from repro.audit.log import AuditLog
from repro.core.events import Event
from repro.errors import StateError
from repro.statespace.batch import StateMatrix, numpy_available
from repro.telemetry.explain import explain
from repro.telemetry.exposition import prometheus_text, write_bundle
from repro.telemetry.health.monitor import HealthMonitor
from repro.telemetry.health.rules import AlertEngine, AlertRule

#: Endpoints the router knows.  ``/jobs`` additionally accepts an id
#: path segment (``/jobs/job-3``).
ENDPOINTS = ("evaluate", "batch", "audit", "explain", "health", "metrics",
             "jobs", "query")

#: Stable error-reason slugs -> HTTP status.
_REASON_STATUS = {
    "unauthorized": 401, "rate-limited": 429, "not-found": 404,
    "bad-request": 400, "method-not-allowed": 405, "queue-full": 503,
    "unknown-kind": 400, "no-numpy": 503, "too-many-rows": 413,
    "no-warehouse": 503, "internal": 500,
}


#: ``json.dumps(..., sort_keys=True, default=str)`` builds a new encoder
#: per call; one shared encoder writes the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


class ApiResponse:
    """One transport-agnostic response: status + payload + trace id."""

    __slots__ = ("status", "payload", "content_type", "trace_id", "reason")

    def __init__(self, status: int, payload, content_type: str,
                 trace_id: Optional[str], reason: Optional[str]):
        self.status = status
        self.payload = payload
        self.content_type = content_type
        self.trace_id = trace_id
        self.reason = reason

    def body_bytes(self) -> bytes:
        if isinstance(self.payload, (bytes, bytearray)):
            return bytes(self.payload)
        if isinstance(self.payload, str):
            return self.payload.encode("utf-8")
        return (_ENCODER.encode(self.payload) + "\n").encode("utf-8")


@dataclass
class ControlPlaneConfig:
    """Service knobs: admission, queueing, self-monitoring, observability."""

    api_keys: Optional[dict] = None          # key -> principal; None = open
    rate: Optional[float] = None             # req/s per principal; None = off
    burst: float = 20.0
    queue_capacity: int = 8
    workers: int = 2
    monitor_interval: float = 1.0
    observability: bool = True               # spans + RED + access log
    access_log_capacity: int = 10_000
    access_log_path: Optional[str] = None
    error_rate_threshold: float = 0.5        # api-error-rate alert
    p99_threshold_s: float = 0.5             # api-p99-latency alert
    batch_row_limit: int = 100_000
    batch_return_rows_max: int = 256
    audit_tail_limit: int = 500
    extra_alert_rules: list = field(default_factory=list)
    #: Directory of an E24 telemetry warehouse to serve via ``/query``
    #: (``None`` = endpoint answers 503 ``no-warehouse``).
    warehouse_dir: Optional[str] = None
    query_result_limit: int = 500


class ControlPlane:
    """The always-on policy decision service (paper sec V at runtime)."""

    def __init__(self, profile: Optional[EvaluationProfile] = None,
                 config: Optional[ControlPlaneConfig] = None,
                 clock=None):
        self.config = config or ControlPlaneConfig()
        cfg = self.config
        self.runtime = ServiceRuntime(clock=clock,
                                      spans_enabled=cfg.observability)
        self.profile = profile or default_profile()
        self.device = self.profile.build_device(
            clock=lambda: self.runtime.now, tracer=self.runtime.telemetry)
        self.batch_evaluator = (self.profile.build_batch_evaluator()
                                if numpy_available() else None)
        if self.batch_evaluator is not None:
            # Program index -> policy id in one gather; the trailing None
            # is what a row that chose nothing (-1) picks.
            self._batch_policy_ids = self.batch_evaluator.np.array(
                [program.name for program in self.batch_evaluator.programs]
                + [None], dtype=object)
        self.audit = AuditLog()
        self.admission = AdmissionControl(
            self.runtime, api_keys=cfg.api_keys, rate=cfg.rate,
            burst=cfg.burst)
        self.access = AccessLog(capacity=cfg.access_log_capacity,
                                path=cfg.access_log_path)
        self.jobs = JobQueue(self.runtime, capacity=cfg.queue_capacity,
                             workers=cfg.workers)
        self.warehouse = None
        if cfg.warehouse_dir is not None:
            from repro.telemetry.warehouse.store import Warehouse

            self.warehouse = Warehouse(cfg.warehouse_dir)
        self.monitor = HealthMonitor(self.runtime,
                                     interval=cfg.monitor_interval)
        self.alerts = AlertEngine(self.runtime, self.monitor,
                                  audit=self.audit)
        self._register_slis()
        self._register_alert_rules()
        metrics = self.runtime.metrics
        self._requests = metrics.counter("api.requests")
        self._errors = metrics.counter("api.errors")
        self._latency = metrics.histogram("api.latency")
        # Hot-path counter caches: registry lookups are name-hashed, so
        # the per-request path holds direct references instead.
        self._endpoint_counters = {
            endpoint: metrics.counter(f"api.requests.{endpoint}")
            for endpoint in ENDPOINTS
        }
        self._reason_counters = {
            reason: metrics.counter(f"api.errors.{reason}")
            for reason in _REASON_STATUS
        }
        self._handlers = {
            "evaluate": self._handle_evaluate,
            "batch": self._handle_batch,
            "audit": self._handle_audit,
            "explain": self._handle_explain,
            "health": self._handle_health,
            "metrics": self._handle_metrics,
            "jobs": self._handle_jobs,
            "query": self._handle_query,
        }

    # -- self-monitoring --------------------------------------------------------

    def _register_slis(self) -> None:
        monitor = self.monitor
        metrics = self.runtime.metrics
        # Exact quantiles read once per monitor tick: nothing rides the
        # request path.
        monitor.track_quantile("api.latency_p50", "api.latency", 0.5)
        monitor.track_quantile("api.latency_p95", "api.latency", 0.95)
        monitor.track_quantile("api.latency_p99", "api.latency", 0.99)
        monitor.track_rate("api.request_rate", "api.requests")
        monitor.track_ratio("api.error_rate", "api.errors", "api.requests")
        monitor.track_value("jobs.queue_depth",
                            lambda _now: metrics.value("jobs.queue_depth"))
        monitor.track_value(
            "jobs.queue_saturation",
            lambda _now: metrics.value("jobs.queue_saturation"))
        monitor.track_value("jobs.workers_busy",
                            lambda _now: metrics.value("jobs.workers_busy"))

    def _register_alert_rules(self) -> None:
        cfg = self.config
        rules = [
            AlertRule("api-error-rate",
                      f"api.error_rate > {cfg.error_rate_threshold}",
                      severity="critical", for_ticks=2,
                      description="sustained request failure ratio"),
            AlertRule("api-p99-latency",
                      f"api.latency_p99 > {cfg.p99_threshold_s}",
                      severity="warning", for_ticks=3,
                      description="tail latency above SLO"),
            AlertRule("jobs-queue-saturation",
                      "jobs.queue_saturation >= 1", severity="critical",
                      for_ticks=1,
                      description="background job queue is full"),
        ]
        for rule in rules + list(cfg.extra_alert_rules):
            self.alerts.add_rule(rule)

    # -- routing ----------------------------------------------------------------

    @staticmethod
    def route(path: str) -> tuple:
        """``(endpoint, sub)`` — ``(None, None)`` for unknown paths."""
        parts = [part for part in path.split("/") if part]
        if not parts or parts[0] not in ENDPOINTS:
            return (None, None)
        if len(parts) == 1:
            return (parts[0], None)
        if parts[0] == "jobs" and len(parts) == 2:
            return ("jobs", parts[1])
        return (None, None)

    # -- the request path -------------------------------------------------------

    def handle_request(self, method: str, path: str,
                       query: Optional[dict] = None,
                       headers: Optional[dict] = None,
                       body: Optional[bytes] = None,
                       remote: str = "") -> ApiResponse:
        """Serve one request end to end (transport-agnostic core)."""
        start = perf_counter()
        query = query or {}
        headers = headers or {}
        observe = self.config.observability
        runtime = self.runtime
        tracer = runtime.telemetry
        endpoint, sub = self.route(path)
        span = None
        previous = None
        if observe:
            span = tracer.start_trace("api.request", endpoint or path,
                                      method=method, remote=remote)
            if span is not None:
                previous = tracer.activate(span.context)
        trace_id = span.context.trace_id if span is not None else None
        principal = None
        reason: Optional[str] = None
        status, payload = 500, {"error": "internal"}
        try:
            if endpoint is None:
                reason = "not-found"
                status, payload = 404, {"error": reason, "path": path}
            else:
                principal, reject = self.admission.admit(endpoint, headers)
                if reject is not None:
                    reason = reject
                    status = _REASON_STATUS[reject]
                    payload = {"error": reject, "endpoint": endpoint}
                    self._on_admission_reject(span, endpoint, reject,
                                              principal)
                else:
                    status, payload, reason = self._handlers[endpoint](
                        method, sub, query, body)
        except Exception as exc:                  # fail closed, stay up
            reason = "internal"
            status = 500
            payload = {"error": "internal", "detail": str(exc)}
        finally:
            duration = perf_counter() - start
            if span is not None:
                tracer.activate(previous)
                span.detail["status"] = status
                span.detail["duration_ms"] = round(duration * 1000.0, 3)
            runtime.events_processed += 1
            if observe:
                self._requests.inc()
                metrics = runtime.metrics
                counter = self._endpoint_counters.get(endpoint)
                if counter is None:
                    counter = metrics.counter(
                        f"api.requests.{endpoint or 'unknown'}")
                counter.inc()
                if status >= 400:
                    self._errors.inc()
                    counter = self._reason_counters.get(reason)
                    if counter is None:
                        counter = metrics.counter(
                            f"api.errors.{reason or status}")
                    counter.inc()
                self._latency.observe(duration)
                self.access.log({
                    "ts": runtime.now, "method": method,
                    "endpoint": endpoint or path, "status": status,
                    "principal": principal, "reason": reason,
                    "trace_id": trace_id,
                    "duration_ms": round(duration * 1000.0, 3),
                    "remote": remote,
                })
            # Monitor/alert ticks fire outside the request span, so
            # alert traces stay rooted on the alert, not on whichever
            # request happened to pump them.
            runtime.pump()
        if trace_id is not None and isinstance(payload, dict):
            payload.setdefault("trace_id", trace_id)
        content_type = ("text/plain; version=0.0.4; charset=utf-8"
                        if isinstance(payload, str) else "application/json")
        return ApiResponse(status, payload, content_type, trace_id, reason)

    def _on_admission_reject(self, span, endpoint: str, reject: str,
                             principal) -> None:
        """The E21 gateway reject idiom at the HTTP edge: span + trace
        event + audit-chain entry, all carrying the stable reason slug."""
        runtime = self.runtime
        if span is not None:
            runtime.telemetry.start_span("api.reject", endpoint,
                                         parent=span.context, reason=reject,
                                         principal=principal)
        runtime.record("api.reject", endpoint, reason=reject,
                       principal=principal)
        self.audit.append(runtime.now, "api.reject", endpoint,
                          {"reason": reject, "principal": principal})

    # -- endpoint handlers ------------------------------------------------------

    @staticmethod
    def _json_body(body: Optional[bytes]) -> dict:
        if not body:
            return {}
        data = json.loads(body.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _handle_evaluate(self, method, _sub, _query, body):
        if method != "POST":
            return (405, {"error": "method-not-allowed"},
                    "method-not-allowed")
        try:
            data = self._json_body(body)
            event_spec = data.get("event") or {}
            kind = event_spec.get("kind")
            if not kind:
                raise ValueError("event.kind is required")
            device = self.device
            overrides = data.get("state")
            if overrides is not None and not isinstance(overrides, dict):
                raise ValueError(f"state: expected a dict, got "
                                 f"{type(overrides).__name__}")
            if overrides:
                device.state.apply(overrides, time=self.runtime.now,
                                   cause="api.state")
        except (ValueError, KeyError, TypeError, StateError) as exc:
            return (400, {"error": "bad-request", "detail": str(exc)},
                    "bad-request")
        event = Event(kind, time=self.runtime.now,
                      source=str(event_spec.get("source", "api")),
                      payload=dict(event_spec.get("payload") or {}))
        device = self.device
        tracer = self.runtime.telemetry
        # Propagate the request root into the engine: decision spans
        # (and their safeguard.veto children) nest under this request.
        saved = device.trace_context
        device.trace_context = tracer.current
        try:
            decision = device.engine.handle_event(event)
        finally:
            device.trace_context = saved
        return (200, {
            "outcome": decision.outcome.value,
            "policy_id": decision.policy_id,
            "requested": decision.requested,
            "executed": decision.executed,
            "vetoes": [{"safeguard": name, "message": message}
                       for name, message in decision.vetoes],
            "state": device.state.snapshot(),
        }, None)

    def _handle_batch(self, method, _sub, _query, body):
        if method != "POST":
            return (405, {"error": "method-not-allowed"},
                    "method-not-allowed")
        evaluator = self.batch_evaluator
        if evaluator is None:
            return (503, {"error": "no-numpy",
                          "detail": "vectorized path unavailable"},
                    "no-numpy")
        try:
            data = self._json_body(body)
            rows = data.get("rows")
            if not isinstance(rows, list) or not rows:
                raise ValueError("rows must be a non-empty list of "
                                 "state vectors")
        except (ValueError, TypeError) as exc:
            return (400, {"error": "bad-request", "detail": str(exc)},
                    "bad-request")
        if len(rows) > self.config.batch_row_limit:
            return (413, {"error": "too-many-rows",
                          "limit": self.config.batch_row_limit},
                    "too-many-rows")
        try:
            matrix = StateMatrix.from_rows(self.profile.space, rows)
        except ValueError as exc:
            return (400, {"error": "bad-request", "detail": str(exc)},
                    "bad-request")
        before = evaluator.stats()
        chosen = evaluator.select(matrix)
        vetoed, executed = evaluator.apply(matrix, chosen)
        after = evaluator.stats()
        payload = {
            "rows": matrix.n_rows,
            "chosen": self._batch_policy_ids[chosen].tolist(),
            "vetoed": int(vetoed.sum()),
            "executed": int(executed.sum()),
            # Compile-time fallbacks are structural (per evaluator);
            # the eval deltas are what *this request* cost.
            "fallback_reasons": after["fallback_reasons"],
            "scalar_evals": after["scalar_evals"] - before["scalar_evals"],
            "vector_evals": after["vector_evals"] - before["vector_evals"],
        }
        if (data.get("return_rows")
                or matrix.n_rows <= self.config.batch_return_rows_max):
            payload["results"] = list(matrix.rows())
        return (200, payload, None)

    def _handle_audit(self, method, _sub, query, _body):
        if method != "GET":
            return (405, {"error": "method-not-allowed"},
                    "method-not-allowed")
        kind = query.get("kind", "")
        subject = query.get("subject") or None
        try:
            limit = int(query.get("limit", self.config.audit_tail_limit))
        except ValueError:
            return (400, {"error": "bad-request", "detail": "bad limit"},
                    "bad-request")
        entries = self.audit.entries(kind, subject)
        tail = entries[-limit:] if limit > 0 else []
        return (200, {
            "total": len(self.audit),
            "matched": len(entries),
            "entries": [entry.to_payload() for entry in tail],
            "head_hash": self.audit.head_hash(),
            "verified": self.audit.verify(),
        }, None)

    def _handle_explain(self, method, _sub, query, _body):
        if method != "GET":
            return (405, {"error": "method-not-allowed"},
                    "method-not-allowed")
        trace_id = query.get("trace_id")
        if not trace_id:
            return (400, {"error": "bad-request",
                          "detail": "trace_id query parameter is required"},
                    "bad-request")
        explanation = explain(self.runtime.telemetry, trace_id)
        if not len(explanation):
            return (404, {"error": "not-found", "explain": trace_id},
                    "not-found")
        return (200, {
            "explained": trace_id,
            "spans": explanation.chain(),
            "kinds": explanation.kinds(),
            "subjects": explanation.subjects(),
            "rendered": explanation.render(),
        }, None)

    def _handle_health(self, method, _sub, _query, _body):
        if method != "GET":
            return (405, {"error": "method-not-allowed"},
                    "method-not-allowed")
        active = sorted(self.alerts.active)
        runtime = self.runtime
        return (200, {
            "status": "degraded" if active else "ok",
            "now": runtime.now,
            "uptime": runtime.uptime(),
            "requests": runtime.metrics.value("api.requests"),
            "slis": self.monitor.state,
            "alerts": {"active": active,
                       "fired": len(self.alerts.history)},
            "jobs": {"depth": self.jobs.depth,
                     "capacity": self.jobs.capacity},
            "profile": self.profile.name,
        }, None)

    def _handle_metrics(self, method, _sub, _query, _body):
        if method != "GET":
            return (405, {"error": "method-not-allowed"},
                    "method-not-allowed")
        return (200, prometheus_text(self.runtime.metrics), None)

    def _handle_jobs(self, method, sub, _query, body):
        if method == "POST" and sub is None:
            try:
                data = self._json_body(body)
                kind = data.get("kind")
                if not kind:
                    raise ValueError("kind is required")
            except (ValueError, TypeError) as exc:
                return (400, {"error": "bad-request", "detail": str(exc)},
                        "bad-request")
            trace_id = None
            current = self.runtime.telemetry.current
            if current is not None:
                trace_id = current.trace_id
            job, reject = self.jobs.submit(kind, data.get("params"),
                                           trace_id=trace_id)
            if reject is not None:
                return (_REASON_STATUS[reject],
                        {"error": reject, "kind": kind}, reject)
            return (202, {"job": job.to_dict()}, None)
        if method == "GET" and sub is not None:
            job = self.jobs.get(sub)
            if job is None:
                return (404, {"error": "not-found", "job_id": sub},
                        "not-found")
            return (200, {"job": job.to_dict()}, None)
        if method == "GET":
            jobs = self.jobs.jobs()
            return (200, {"jobs": [job.to_dict() for job in jobs[-50:]],
                          "depth": self.jobs.depth,
                          "capacity": self.jobs.capacity}, None)
        return (405, {"error": "method-not-allowed"}, "method-not-allowed")

    def _handle_query(self, method, _sub, _query, body):
        """The E24 warehouse behind the control plane: cross-run selects,
        percentile aggregation, per-arm group-by, and sentinel compares —
        admission-metered, traced (a ``warehouse.query`` span nests under
        the request root), and explainable like every other route."""
        if method != "POST":
            return (405, {"error": "method-not-allowed"},
                    "method-not-allowed")
        warehouse = self.warehouse
        if warehouse is None:
            return (503, {"error": "no-warehouse",
                          "detail": "no warehouse_dir configured"},
                    "no-warehouse")
        try:
            data = self._json_body(body)
            op = str(data.get("op", "select"))
            where = data.get("where")
            if where is not None and not isinstance(where, dict):
                raise ValueError("where must be a JSON object")
        except (ValueError, TypeError) as exc:
            return (400, {"error": "bad-request", "detail": str(exc)},
                    "bad-request")
        tracer = self.runtime.telemetry
        if tracer.current is not None:
            tracer.start_span("warehouse.query", op, parent=tracer.current,
                              metric=data.get("metric"))
        try:
            if op == "stats":
                return (200, {"op": op, "stats": warehouse.stats()}, None)
            if op == "metrics":
                return (200, {"op": op,
                              "metrics": warehouse.metrics_known(where)},
                        None)
            if op == "compare":
                from repro.telemetry.warehouse.sentinel import compare_runs

                baseline = warehouse.runs(dict(data.get("baseline") or {}))
                candidate = warehouse.runs(dict(data.get("candidate") or {}))
                report = compare_runs(baseline, candidate)
                return (200, {"op": op, "report": report.to_dict()}, None)
            metric = data.get("metric")
            if not metric:
                raise ValueError(f"op {op!r} requires a metric")
            if op == "select":
                rows = warehouse.select(metric, where)
                limit = self.config.query_result_limit
                return (200, {
                    "op": op, "metric": metric, "matched": len(rows),
                    "values": [{"run": record.key.label(),
                                "experiment": record.key.experiment,
                                "arm": record.key.arm,
                                "seed": record.key.seed,
                                "value": value}
                               for record, value in rows[:limit]],
                }, None)
            if op == "percentile":
                q = data.get("q", [0.5, 0.95, 0.99])
                result = warehouse.percentile(
                    metric, q if isinstance(q, list) else float(q), where)
                matched = len(warehouse.select(metric, where))
                return (200, {"op": op, "metric": metric,
                              "matched": matched,
                              "percentiles": result}, None)
            if op == "group":
                by = str(data.get("by", "arm"))
                quantiles = tuple(float(value)
                                  for value in data.get("quantiles", [0.5]))
                groups = warehouse.group(metric, by=by, where=where,
                                         quantiles=quantiles)
                return (200, {"op": op, "metric": metric, "by": by,
                              "groups": groups}, None)
            raise ValueError(f"unknown op {op!r}")
        except (ValueError, TypeError) as exc:
            return (400, {"error": "bad-request", "detail": str(exc)},
                    "bad-request")

    # -- lifecycle & export -----------------------------------------------------

    def export_bundle(self, dirpath: str,
                      extra_manifest: Optional[dict] = None) -> dict:
        """Write the full telemetry bundle, alert history and access-log
        ring included."""
        extra = {"service": "repro.api", "profile": self.profile.name,
                 "access_log_records": len(self.access)}
        if extra_manifest:
            extra.update(extra_manifest)
        return write_bundle(self.runtime, dirpath, extra_manifest=extra,
                            streams={
                                "alerts": [alert.to_dict() for alert
                                           in self.alerts.history],
                                "access": self.access.tail(len(self.access)),
                            })

    def close(self) -> None:
        self.jobs.stop()
        self.monitor.stop()
        self.access.close()
