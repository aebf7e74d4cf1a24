"""The embedded warehouse store: an E18 journal full of run records.

:class:`Warehouse` persists :class:`~repro.telemetry.warehouse.records.
RunRecord` rows through the CRC-framed write-ahead
:class:`~repro.store.journal.Journal` over a
:class:`~repro.store.filestorage.FileStorage` directory — so the
longitudinal record inherits every durability property the device
journals already proved: torn ingests truncate away on the next open,
bit rot stops replay at the last good frame, and segmented snapshot
compaction keeps reopen cost bounded as history grows.

Ingest is **idempotent by content**: each record's digest is indexed,
and appending an already-known digest is a no-op (returns ``False``).
The index is rebuilt from replay on open, so idempotency holds across
processes, not just within one.
"""

from __future__ import annotations

from typing import Optional

from repro.store.filestorage import FileStorage
from repro.store.journal import Journal, ReplayReport
from repro.telemetry.warehouse.query import (group_metric, match_where,
                                             percentile, select_metric)
from repro.telemetry.warehouse.records import RunRecord

#: Journal blob name inside the warehouse directory.
JOURNAL_NAME = "warehouse"

#: Compact (snapshot + truncate the journal) once this many records sit
#: in the post-snapshot tail.  Reopen cost stays one pass over the
#: snapshot segments plus a short replay no matter how long the history
#: grows.
DEFAULT_COMPACT_EVERY = 512


class Warehouse:
    """Append-only, crash-safe, queryable run history in one directory."""

    def __init__(self, dirpath: str, flush_every: int = 1,
                 compact_every: int = DEFAULT_COMPACT_EVERY):
        self.dirpath = dirpath
        self.storage = FileStorage(dirpath)
        self.journal = Journal(self.storage, JOURNAL_NAME,
                               flush_every=flush_every)
        self.compact_every = compact_every
        self._records: list = []
        self._digests: set = set()
        # Records the journal's snapshot segments already hold (a prefix).
        self._compacted = 0
        self.recovery: Optional[ReplayReport] = None
        self._load()

    def _load(self) -> None:
        """Rebuild the in-memory index: snapshot segments + journal tail."""
        segments, tail, report = self.journal.recover()
        self.recovery = report
        self._records = []
        self._digests = set()
        for segment in segments:
            for payload in segment.get("state", {}).get("records", []):
                self._admit(RunRecord.from_payload(payload))
        self._compacted = len(self._records)
        for journal_record in tail:
            payload = journal_record.payload.get("record")
            if payload is not None:
                self._admit(RunRecord.from_payload(payload))

    def _admit(self, record: RunRecord) -> bool:
        digest = record.digest()
        if digest in self._digests:
            return False
        self._digests.add(digest)
        self._records.append(record)
        return True

    # -- writing ----------------------------------------------------------------

    def ingest(self, record: RunRecord) -> bool:
        """Append one record; ``False`` (and no write) if its content
        digest is already stored — the idempotency contract."""
        if record.digest() in self._digests:
            return False
        self.journal.append({"record": record.to_payload()})
        self._admit(record)
        if (self.compact_every
                and self.journal.flushed_records >= self.compact_every):
            self.compact()
        return True

    def flush(self) -> int:
        """Force buffered frames to disk (only meaningful with
        ``flush_every > 1``, the batched-ingest mode campaign sweeps use
        to amortize fsync cost); returns the count flushed."""
        return self.journal.flush()

    def compact(self) -> int:
        """Append the records since the previous compaction to the
        snapshot segments (the whole history, when storage damage reached
        the snapshot blob) and truncate the journal; returns the sequence
        number the snapshot covers."""
        upto = self.journal.snapshot(self._history(self._compacted),
                                     history=lambda: self._history(0))
        self._compacted = len(self._records)
        return upto

    def _history(self, start: int) -> dict:
        return {"records": [record.to_payload()
                            for record in self._records[start:]]}

    # -- reading ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def runs(self, where=None) -> list:
        """Records matching ``where`` (dict of field filters, a callable,
        or ``None`` for everything), in ingest order."""
        if where is None:
            return list(self._records)
        return [record for record in self._records
                if match_where(record, where)]

    def metrics_known(self, where=None) -> list:
        """Sorted union of metric names over the matching records."""
        names: set = set()
        for record in self.runs(where):
            names.update(record.metrics)
        return sorted(names)

    def select(self, metric: str, where=None) -> list:
        """``[(record, value)]`` for every matching record carrying the
        metric."""
        return select_metric(self.runs(where), metric)

    def values(self, metric: str, where=None) -> list:
        return [value for _record, value in self.select(metric, where)]

    def percentile(self, metric: str, q, where=None):
        """Percentile(s) of a metric across matching runs.  ``q`` may be
        one quantile or a sequence; returns a float or ``{q: float}``."""
        values = sorted(self.values(metric, where))
        if isinstance(q, (list, tuple)):
            return {quantile: percentile(values, quantile) for quantile in q}
        return percentile(values, q)

    def group(self, metric: str, by: str = "arm", where=None,
              quantiles=(0.5,)) -> dict:
        """Per-group aggregation: ``{group: {count, mean, min, max,
        p<q>...}}`` with ``by`` one of the key fields (``experiment``,
        ``arm``, ``seed``, ``git_rev``) or ``kind``/``tag``."""
        return group_metric(self.runs(where), metric, by, quantiles)

    def stats(self) -> dict:
        """Store health: row/journal accounting plus recovery findings."""
        report = self.recovery
        return {
            "records": len(self._records),
            "experiments": sorted({record.key.experiment
                                   for record in self._records}),
            "kinds": sorted({record.kind for record in self._records}),
            "journal_tail_records": self.journal.flushed_records,
            "snapshot_seq": self.journal.snapshot_seq,
            "bytes_on_disk": sum(self.storage.size(name)
                                 for name in self.storage.names()),
            "recovery": {
                "torn_bytes": report.torn_bytes if report else 0,
                "corrupt_frame": bool(report and report.corrupt_frame),
                "truncated": bool(report and report.truncated),
            },
        }
