"""The telemetry warehouse: longitudinal run storage + regression sentinel (E24).

Every run of this system already emits a rich observability bundle —
E19 spans, E20 SLIs and alerts, E21 authorization rejects, E23 access
logs — plus a ``BENCH_*.json`` per experiment.  This package is the
*cross-run* layer those per-run artifacts were missing: an embedded,
append-only, crash-safe store (the E18 CRC-framed journal over a real
directory) that ingests bundles and bench documents into schema-
versioned :class:`RunRecord` rows keyed by ``(experiment, arm, seed,
git rev)``, a query API over them (:meth:`Warehouse.select`,
percentile aggregation, per-arm group-by), and a **regression
sentinel** (:func:`compare_runs`) producing typed delta reports with
noise-aware gating — median-of-trials per ``(experiment, metric)``
with the tolerance band of the family each bench declared, failing CI
on perf and defense regressions while staying quiet on identical runs.

The Kott after-action principle (PAPERS.md) made operational: an
autonomous fleet must record its engagements so auditors can compare
behavior *over time*, not just within one incident.
"""

from repro.telemetry.warehouse.ingest import (ingest_bench, ingest_bundle,
                                              ingest_results_dir,
                                              ingest_run_dict)
from repro.telemetry.warehouse.query import match_where
from repro.telemetry.warehouse.records import (SCHEMA_VERSION, RunKey,
                                               RunRecord, flatten_numeric)
from repro.telemetry.warehouse.sentinel import (DeltaReport, MetricDelta,
                                                compare_runs,
                                                update_trajectory)
from repro.telemetry.warehouse.store import Warehouse

__all__ = [
    "DeltaReport",
    "MetricDelta",
    "RunKey",
    "RunRecord",
    "SCHEMA_VERSION",
    "Warehouse",
    "compare_runs",
    "flatten_numeric",
    "ingest_bench",
    "ingest_bundle",
    "ingest_results_dir",
    "ingest_run_dict",
    "match_where",
    "update_trajectory",
]
