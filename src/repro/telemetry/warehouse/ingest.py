"""Artifact ingestion: bundles, bench documents, and matrix cells become rows.

Three artifact shapes, one normalized record each:

* a **telemetry bundle** directory (``manifest.json`` + the JSONL
  streams it lists) — identity comes from the self-describing manifest
  (E24 satellite) unless the caller overrides it; each ``metrics.jsonl``
  snapshot lands its ``value`` under the registry name and every other
  numeric field under ``<name>.<field>`` (``net.latency.p99``); every
  listed ``.jsonl`` stream's length becomes a ``streams.<stem>`` count;
* a **``BENCH_*.json``** document — every numeric leaf flattens into a
  metric (``concurrency.throughput_rps``), every ``quick`` flag folds
  into the protocol context the sentinel's comparability check reads,
  and the document's ``gates`` block (``{metric: family}``, written by
  the bench) becomes the declaration the sentinel judges by;
* a **``run_matrix`` cell** — the flat summary dict a scenario returned
  for one ``(arm, seed)``, ingested live as the sweep runs.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.telemetry.exposition import BUNDLE_SCHEMA
from repro.telemetry.warehouse.records import (RunKey, RunRecord,
                                               flatten_numeric)
from repro.telemetry.warehouse.sentinel import RULES

#: Manifest schemas this ingester understands (0 = pre-E24 manifests
#: with no identity block; still ingestable, identity must come from
#: the caller).
KNOWN_BUNDLE_SCHEMAS = (0, BUNDLE_SCHEMA)

#: Manifest keys copied into record context when scalar.
_CONTEXT_KEYS = ("scenario", "service", "durability", "safety_transport",
                 "flight_dumps", "health", "reputation", "quick",
                 "events_processed", "sim_time", "profile")


def ingest_bundle(warehouse, dirpath: str,
                  experiment: Optional[str] = None,
                  arm: Optional[str] = None,
                  seed: Optional[int] = None,
                  git_rev: str = "unknown",
                  tag: str = "") -> Optional[RunRecord]:
    """Ingest one telemetry-bundle directory; returns the record (the
    already-stored one is re-built and returned with ``ingest`` a no-op
    when the content is known).  Raises on a manifest schema newer than
    this code understands — silently misreading forward-versioned rows
    is how warehouses rot."""
    manifest_path = os.path.join(dirpath, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    schema = int(manifest.get("bundle_schema", 0))
    if schema not in KNOWN_BUNDLE_SCHEMAS:
        raise ValueError(
            f"bundle {dirpath!r} has manifest schema {schema}; this "
            f"ingester knows {KNOWN_BUNDLE_SCHEMAS}")

    key = RunKey(
        experiment=str(experiment or manifest.get("experiment")
                       or manifest.get("scenario") or
                       os.path.basename(os.path.normpath(dirpath))),
        arm=str(arm if arm is not None else (manifest.get("arm") or "")),
        seed=seed if seed is not None else manifest.get("seed"),
        git_rev=git_rev,
    )

    metrics: dict = {}
    for name in manifest.get("files", ()):
        stem, ext = os.path.splitext(name)
        if ext != ".jsonl":
            continue
        with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        metrics[f"streams.{stem}"] = float(len(lines))
        if stem == "metrics":
            for line in lines:
                snapshot = json.loads(line)
                metric = snapshot.pop("name")
                flatten_numeric(snapshot.pop("value", None), metric, metrics)
                flatten_numeric(snapshot, metric, metrics)
    horizon = manifest.get("horizon", manifest.get("sim_time"))
    if isinstance(horizon, (int, float)):
        metrics["run.horizon"] = float(horizon)
    spans = manifest.get("spans")
    if isinstance(spans, dict) and isinstance(
            spans.get("spans"), (int, float)):
        metrics["run.spans_retained"] = float(spans["spans"])

    context = {"bundle_schema": schema}
    for name in _CONTEXT_KEYS:
        value = manifest.get(name)
        if isinstance(value, (str, bool, int, float)) or value is None:
            if name in manifest:
                context[name] = value

    record = RunRecord(key=key, kind="bundle", metrics=metrics,
                       context=context, source=os.path.normpath(dirpath),
                       tag=tag)
    warehouse.ingest(record)
    return record


def ingest_bench(warehouse, path: str, git_rev: str = "unknown",
                 tag: str = "") -> RunRecord:
    """Ingest one ``BENCH_*.json`` perf document as a single record.

    Raises :class:`ValueError` when the ``gates`` block names a family
    the sentinel does not know, or a metric the document does not hold:
    a renamed metric must not silently lose its gate."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path!r} is not a JSON object")
    name = os.path.basename(path)
    experiment = str(document.get("experiment")
                     or name.replace("BENCH_", "").replace(".json", ""))
    gates = document.pop("gates", {})
    metrics = flatten_numeric(document)
    for metric, family in sorted(gates.items()):
        if family not in RULES:
            raise ValueError(f"{path!r} declares {metric!r} as unknown "
                             f"family {family!r} (expected one of "
                             f"{sorted(RULES)})")
        if metric not in metrics:
            raise ValueError(f"{path!r} declares {metric!r}, which it "
                             f"does not hold")
    quick_flags = [value for key, value in flatten_bools(document).items()
                   if key == "quick" or key.endswith(".quick")]
    context = {
        "title": document.get("title"),
        "quick": any(quick_flags),
        "sections": sorted(key for key, value in document.items()
                           if isinstance(value, dict)),
        "gates": gates,
    }
    record = RunRecord(
        key=RunKey(experiment=experiment, arm="bench", git_rev=git_rev),
        kind="bench", metrics=metrics, context=context,
        source=os.path.normpath(path), tag=tag)
    warehouse.ingest(record)
    return record


def flatten_bools(obj, prefix: str = "", out: Optional[dict] = None) -> dict:
    """Boolean leaves by dotted path (the facts ``flatten_numeric``
    deliberately excludes from metrics)."""
    flat = out if out is not None else {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            name = f"{prefix}.{key}" if prefix else str(key)
            flatten_bools(obj[key], name, flat)
    elif isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            name = f"{prefix}.{index}" if prefix else str(index)
            flatten_bools(item, name, flat)
    elif isinstance(obj, bool):
        flat[prefix] = obj
    return flat


def ingest_run_dict(warehouse, result: dict, experiment: str, arm: str,
                    seed: Optional[int], git_rev: str = "unknown",
                    tag: str = "", kind: str = "matrix") -> RunRecord:
    """Ingest one scenario summary dict (a ``run_matrix`` cell)."""
    record = RunRecord(
        key=RunKey(experiment=experiment, arm=arm, seed=seed,
                   git_rev=git_rev),
        kind=kind, metrics=flatten_numeric(result),
        context={"quick": bool(result.get("quick", False))},
        source=f"{experiment}:{arm}:{seed}", tag=tag)
    warehouse.ingest(record)
    return record


def ingest_results_dir(warehouse, dirpath: str, git_rev: str = "unknown",
                       tag: str = "") -> dict:
    """Sweep a ``benchmarks/results``-shaped directory: every
    ``BENCH_*.json`` plus every subdirectory holding a ``manifest.json``.
    Returns ``{"bench": n, "bundles": n, "skipped": [...]}``."""
    counts = {"bench": 0, "bundles": 0, "skipped": []}
    for entry in sorted(os.listdir(dirpath)):
        full = os.path.join(dirpath, entry)
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            try:
                ingest_bench(warehouse, full, git_rev=git_rev, tag=tag)
                counts["bench"] += 1
            except (ValueError, OSError) as exc:
                counts["skipped"].append(f"{entry}: {exc}")
        elif (os.path.isdir(full)
              and os.path.exists(os.path.join(full, "manifest.json"))):
            try:
                ingest_bundle(warehouse, full, git_rev=git_rev, tag=tag)
                counts["bundles"] += 1
            except (ValueError, OSError) as exc:
                counts["skipped"].append(f"{entry}: {exc}")
    return counts
