"""Metrics exposition: Prometheus text format, JSONL, and run bundles.

The registry's in-memory snapshot becomes operator-consumable artifacts:

* :func:`prometheus_text` — the Prometheus text exposition format
  (counters and gauges verbatim; histograms as summaries with quantile
  labels plus ``_sum``/``_count``; time series as ``_last``/``_peak``/
  ``_count`` gauges), served by the control plane's ``/metrics``;
* :func:`write_jsonl` — the one JSON Lines writer: one sorted-key
  object per record, written atomically;
* :func:`write_bundle` — the per-run telemetry bundle
  (``metrics.prom``, ``metrics.jsonl``, ``spans.jsonl``,
  ``events.jsonl``, any caller ``streams`` such as ``alerts.jsonl``,
  and ``manifest.json``) CI uploads as a build artifact.

Bundles are **self-describing** since schema version 1
(:data:`BUNDLE_SCHEMA`): the manifest carries the run's identity —
``experiment``, ``arm``, ``seed``, ``horizon`` — and lists every file,
so warehouse ingest needs nothing but the directory.  Ingest reads the
numbers back from ``metrics.jsonl``; ``metrics.prom`` is for scrapers.
"""

from __future__ import annotations

import json
import os
import re
from typing import Optional

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}

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


def write_jsonl(path: str, records) -> int:
    """Write ``records`` (an iterable of dicts) as JSON Lines, one
    sorted-key object per line; returns the number written.

    This is the one writer behind every bundle stream.  The write is
    atomic: every line is built before the file is touched, so a record
    iterator that raises leaves any previous file intact."""
    lines = [json.dumps(record, sort_keys=True, default=str) + "\n"
             for record in records]
    _atomic_write_text(path, "".join(lines))
    return len(lines)


def write_bundle(sim, dirpath: str,
                 extra_manifest: Optional[dict] = None,
                 streams: Optional[dict] = None,
                 experiment: Optional[str] = None,
                 arm: Optional[str] = None,
                 seed=None,
                 horizon: Optional[float] = None) -> dict:
    """Write the full per-run telemetry bundle under ``dirpath``.

    Files: ``metrics.prom`` (Prometheus snapshot), ``metrics.jsonl``
    (one registry snapshot per metric), ``spans.jsonl`` (causal spans),
    ``events.jsonl`` (trace events), one ``<stem>.jsonl`` per entry of
    ``streams`` (a mapping of file stem to records, e.g. ``{"alerts":
    [...]}``), and ``manifest.json`` tying them together with run stats
    and listing every file in ``files``.  Lease lifecycle events need no
    file of their own: they are ``lease.*`` records in ``events.jsonl``.
    Returns the manifest dict.

    The manifest is self-describing for warehouse ingest (E24): it
    always stamps ``bundle_schema`` (:data:`BUNDLE_SCHEMA`) plus the
    run's identity — ``experiment``, ``arm``, ``seed``, and the tick
    ``horizon`` (defaulting to the sim clock at dump time) — ``None``
    where the caller knows no better.

    Every file lands atomically (tmp + ``os.replace``), streams before
    the manifest: a crash mid-dump leaves each artifact either absent,
    or complete from this dump, or complete from the previous one —
    never torn.
    """
    os.makedirs(dirpath, exist_ok=True)

    _atomic_write_text(os.path.join(dirpath, "metrics.prom"),
                       prometheus_text(sim.metrics))
    records = {
        "metrics": ({"name": name, **snap}
                    for name, snap in sim.metrics.snapshot().items()),
        "spans": (span.to_dict() for span in sim.telemetry.spans),
        "events": (event.to_dict() for event in sim.trace.events),
        **(streams or {}),
    }
    counts = {stem: write_jsonl(os.path.join(dirpath, f"{stem}.jsonl"), rows)
              for stem, rows in records.items()}
    files = ["metrics.prom", *(f"{stem}.jsonl" for stem in records),
             "manifest.json"]

    manifest = {
        "bundle_schema": BUNDLE_SCHEMA,
        "experiment": experiment,
        "arm": arm,
        "seed": seed,
        "horizon": sim.now if horizon is None else horizon,
        "sim_time": sim.now,
        "events_processed": sim.events_processed,
        "metrics": counts["metrics"],
        "spans": sim.telemetry.stats(),
        "trace_events": counts["events"],
        "trace": sim.trace.stats(),
        "files": files,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    _atomic_write_text(
        os.path.join(dirpath, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return manifest
