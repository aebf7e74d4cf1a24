"""Metrics exposition: Prometheus text format, JSONL, and run bundles.

The registry's in-memory snapshot becomes operator-consumable artifacts:

* :func:`prometheus_text` — the Prometheus text exposition format
  (counters and gauges verbatim; histograms as summaries with quantile
  labels plus ``_sum``/``_count``; time series as ``_last``/``_peak``/
  ``_count`` gauges);
* :func:`metrics_jsonl` — one JSON object per metric, for ad-hoc
  tooling and diffing between runs;
* :func:`write_bundle` — the per-run telemetry bundle
  (``metrics.prom``, ``metrics.jsonl``, ``spans.jsonl``,
  ``events.jsonl``, ``manifest.json``) CI uploads as a build artifact;
* :func:`parse_prometheus_text` — the inverse of
  :func:`prometheus_text`, so the warehouse (E24) can ingest a
  ``metrics.prom`` snapshot back into typed metric families without a
  live registry.

Bundles are **self-describing** since schema version 1
(:data:`BUNDLE_SCHEMA`): the manifest carries the run's identity —
``experiment``, ``arm``, ``seed``, ``horizon`` — so warehouse ingest
needs nothing but the directory.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Optional

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$")
_LABEL = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')

#: Manifest schema version stamped by :func:`write_bundle`.  Bump when a
#: manifest key changes meaning; the warehouse refuses schemas it does
#: not know.
BUNDLE_SCHEMA = 1

#: Quantiles exported for histogram metrics (mirrors the snapshot keys).
HISTOGRAM_QUANTILES = (0.5, 0.95, 0.99)


def sanitize_metric_name(name: str) -> str:
    """Map a registry name (``net.sent``) onto the Prometheus grammar
    (``net_sent``): ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    cleaned = _NAME_OK.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    for raw, escaped in _LABEL_ESCAPES.items():
        value = value.replace(raw, escaped)
    return value


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: a crash mid-write leaves
    the previous file intact, never a torn one (tmp + ``os.replace``)."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def prometheus_text(registry) -> str:
    """Render a :class:`~repro.sim.metrics.MetricsRegistry` in the
    Prometheus text exposition format (version 0.0.4).

    Every metric family gets a ``# HELP``/``# TYPE`` header pair exactly
    once — including summary families whose quantile values render as
    ``NaN`` — even when distinct registry names sanitize onto the same
    family (``api.latency`` and ``api_latency`` collide; the first
    declares the family, later samples just join it).
    """
    from repro.sim.metrics import Counter, Gauge, Histogram, TimeSeries

    lines: list[str] = []
    declared: set = set()

    def header(family: str, kind: str, source: str) -> None:
        if family in declared:
            return
        declared.add(family)
        lines.append(f"# HELP {family} {source}")
        lines.append(f"# TYPE {family} {kind}")

    for name in registry.names():
        metric = registry.get(name)
        prom = sanitize_metric_name(name)
        if isinstance(metric, Counter):
            header(prom, "counter", name)
            lines.append(f"{prom} {_format_value(metric.value)}")
        elif isinstance(metric, Gauge):
            header(prom, "gauge", name)
            lines.append(f"{prom} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            header(prom, "summary", name)
            for q in HISTOGRAM_QUANTILES:
                lines.append(f'{prom}{{quantile="{_escape_label(repr(q))}"}} '
                             f"{_format_value(metric.quantile(q))}")
            lines.append(f"{prom}_sum {_format_value(metric.sum)}")
            lines.append(f"{prom}_count {metric.count}")
        elif isinstance(metric, TimeSeries):
            for suffix, value in (("last", metric.last()),
                                  ("peak", metric.peak()),
                                  ("count", len(metric.samples))):
                header(f"{prom}_{suffix}", "gauge", name)
                lines.append(f"{prom}_{suffix} {_format_value(value)}")
        else:                                         # future metric kinds
            header(prom, "untyped", name)
            snap = metric.snapshot()
            lines.append(f"{prom} {_format_value(snap.get('value'))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _unescape_label(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_prometheus_text(text: str) -> dict:
    """Parse the text exposition format back into metric families.

    Returns ``{family: {"type", "help", "samples"}}`` where each sample
    is ``{"name", "labels", "value"}`` (``value`` is a float, ``NaN``
    preserved).  Summary ``_sum``/``_count`` samples and time-series
    ``_last``/``_peak``/``_count`` gauges attach to the family that
    declared them when a header exists, otherwise they found their own.
    Unparseable lines are collected under ``"_errors"`` in the returned
    mapping's ``None``-keyed slot rather than raising: a warehouse must
    ingest a slightly mangled snapshot, not crash on it.
    """
    families: dict = {}
    errors: list = []

    def family_for(name: str) -> dict:
        # A sample like api_latency_sum belongs to the api_latency
        # summary family when that family was declared by a header.
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                return families[name[: -len(suffix)]]
        return families.setdefault(
            name, {"type": "untyped", "help": None, "samples": []})

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": None, "samples": []}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": None, "samples": []}
            )["type"] = kind.strip() or "untyped"
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            errors.append(raw_line)
            continue
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError:
            errors.append(raw_line)
            continue
        labels = {}
        if match.group("labels"):
            for label in _LABEL.finditer(match.group("labels")):
                labels[label.group("key")] = _unescape_label(
                    label.group("value"))
        family_for(name)["samples"].append(
            {"name": name, "labels": labels, "value": value})
    if errors:
        families["_errors"] = errors
    return families


def flatten_families(families: dict) -> dict:
    """Collapse parsed families into ``{flat_name: float}`` — the shape
    warehouse queries address.

    Counters and gauges keep their family name; labelled samples append
    sorted ``key=value`` pairs (``api_latency{quantile="0.99"}`` becomes
    ``api_latency.quantile=0.99``); ``_sum``/``_count`` keep their
    sample names.  ``NaN`` samples are dropped — an empty histogram's
    quantiles carry no information a cross-run aggregate could use.
    """
    flat: dict = {}
    for family, info in families.items():
        if family == "_errors":
            continue
        for sample in info["samples"]:
            name = sample["name"]
            if sample["labels"]:
                tags = ",".join(f"{key}={value}" for key, value
                                in sorted(sample["labels"].items()))
                name = f"{name}.{tags}"
            value = sample["value"]
            if isinstance(value, float) and math.isnan(value):
                continue
            flat[name] = value
    return flat


def metrics_jsonl(registry, path: str) -> int:
    """Write one JSON object per metric (``{"name", ...snapshot}``);
    returns the number of metrics written.  The write is atomic: the
    full text is built first, so a snapshot that raises leaves any
    previous file untouched."""
    records = []
    for name, snap in registry.snapshot().items():
        records.append(json.dumps({"name": name, **snap},
                                  sort_keys=True, default=str) + "\n")
    _atomic_write_text(path, "".join(records))
    return len(records)


def write_bundle(sim, dirpath: str,
                 extra_manifest: Optional[dict] = None,
                 alerts=None, leases=None,
                 experiment: Optional[str] = None,
                 arm: Optional[str] = None,
                 seed=None,
                 horizon: Optional[float] = None) -> dict:
    """Write the full per-run telemetry bundle under ``dirpath``.

    Files: ``metrics.prom`` (Prometheus snapshot), ``metrics.jsonl``,
    ``spans.jsonl`` (causal spans), ``events.jsonl`` (trace events), and
    ``manifest.json`` tying them together with run stats.  With an
    ``alerts`` engine (:class:`~repro.telemetry.health.AlertEngine`) the
    fired/resolved alert history additionally lands in
    ``alerts.jsonl``; with a ``leases`` authority
    (:class:`~repro.safeguards.lease.LeaseAuthority`) or a plain list of
    lease lifecycle events, they land in ``leases.jsonl`` (E22).
    Returns the manifest dict.

    The manifest is self-describing for warehouse ingest (E24): it
    always stamps ``bundle_schema`` (:data:`BUNDLE_SCHEMA`) plus the
    run's identity — ``experiment``, ``arm``, ``seed``, and the tick
    ``horizon`` (defaulting to the sim clock at dump time) — ``None``
    where the caller knows no better.

    Every file lands atomically (tmp + ``os.replace``): a crash mid-dump
    leaves each artifact either absent, or complete from this dump, or
    complete from the previous one — never torn.
    """
    os.makedirs(dirpath, exist_ok=True)

    _atomic_write_text(os.path.join(dirpath, "metrics.prom"),
                       prometheus_text(sim.metrics))
    metric_count = metrics_jsonl(sim.metrics, os.path.join(dirpath, "metrics.jsonl"))

    def atomic_export(export_fn, path: str) -> int:
        tmp = path + ".tmp"
        try:
            count = export_fn(tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        return count

    span_count = atomic_export(sim.telemetry.export_jsonl,
                               os.path.join(dirpath, "spans.jsonl"))
    event_count = atomic_export(sim.trace.export_jsonl,
                                os.path.join(dirpath, "events.jsonl"))

    files = ["metrics.prom", "metrics.jsonl", "spans.jsonl",
             "events.jsonl", "manifest.json"]
    alert_counts = None
    if alerts is not None:
        _atomic_write_text(os.path.join(dirpath, "alerts.jsonl"),
                           alerts.export_jsonl())
        files.insert(-1, "alerts.jsonl")
        alert_counts = {"fired": len(alerts.history),
                        "active": len(alerts.active)}

    lease_count = None
    if leases is not None:
        lease_events = leases if isinstance(leases, list) else leases.events
        _atomic_write_text(
            os.path.join(dirpath, "leases.jsonl"),
            "".join(json.dumps(event, sort_keys=True, default=str) + "\n"
                    for event in lease_events))
        files.insert(-1, "leases.jsonl")
        lease_count = len(lease_events)

    manifest = {
        "bundle_schema": BUNDLE_SCHEMA,
        "experiment": experiment,
        "arm": arm,
        "seed": seed,
        "horizon": sim.now if horizon is None else horizon,
        "sim_time": sim.now,
        "events_processed": sim.events_processed,
        "metrics": metric_count,
        "spans": sim.telemetry.stats(),
        "trace_events": event_count,
        "trace": sim.trace.stats(),
        "files": files,
    }
    if alert_counts is not None:
        manifest["alerts"] = alert_counts
    if lease_count is not None:
        manifest["lease_events"] = lease_count
    if extra_manifest:
        manifest.update(extra_manifest)
    _atomic_write_text(
        os.path.join(dirpath, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return manifest
