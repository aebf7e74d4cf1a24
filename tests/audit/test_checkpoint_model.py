"""Segmented audit checkpoints against the full-rewrite semantics they replace.

A checkpoint used to re-encode the whole chain into a one-frame snapshot
blob.  It now appends a segment holding only the entries since the
previous checkpoint.  The state machine below drives both side by side,
each over its own stable storage, through the same appends, checkpoints,
storage damage and crashes.  After every recovery they must agree: the
same chain hash for hash (gap markers included), or both raise.
"""

import json
import zlib
from typing import Optional

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.audit.log import AuditEntry, AuditLog
from repro.errors import AuditError
from repro.store.journal import Journal, SNAPSHOT_SUFFIX
from repro.store.stable import StableStorage
from repro.store.journal import _HEADER, _frame


class FullRewriteJournal(Journal):
    """The journal's single-frame snapshot: rewritten whole each time."""

    def snapshot(self, state: dict, seq: Optional[int] = None) -> int:
        self.flush()
        upto = self._next_seq - 1 if seq is None else seq
        self.storage.write(self.name + SNAPSHOT_SUFFIX,
                           _frame({"seq": upto, "state": state}))
        keep = [record
                for record in self._scan(self._blob_first_seq)[0]
                if record.seq > upto]
        self.storage.write(self.name,
                           b"".join(_frame({"seq": record.seq, **record.payload})
                                    for record in keep))
        self._flushed_records = len(keep)
        self.snapshot_seq = upto
        self._blob_first_seq = keep[0].seq if keep else self._next_seq
        return upto

    def _read_snapshot(self) -> Optional[dict]:
        name = self.name + SNAPSHOT_SUFFIX
        blob = self.storage.read(name)
        if len(blob) < _HEADER.size:
            return None
        length, crc = _HEADER.unpack_from(blob, 0)
        body = blob[_HEADER.size:_HEADER.size + length]
        if len(body) != length or zlib.crc32(body) != crc:
            self.storage.delete(name)
            return None
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError:
            self.storage.delete(name)
            return None

    def recover(self):
        snapshot = self._read_snapshot()
        snap_seq = int(snapshot.get("seq", 0)) if snapshot is not None else None
        expected_first = self._blob_first_seq
        if expected_first is None and snap_seq is not None:
            expected_first = snap_seq + 1
        records, report = self._scan(expected_first)
        if snap_seq is not None:
            report.snapshot_seq = snap_seq
            records = [record for record in records if record.seq > snap_seq]
            report.records = len(records)
        self.snapshot_seq = snap_seq
        self._flushed_records = len(records)
        self._next_seq = (records[-1].seq if records else (snap_seq or 0)) + 1
        self._blob_first_seq = (records[0].seq if records else self._next_seq)
        return snapshot, records, report


class FullRewriteAuditLog(AuditLog):
    """The audit log whose checkpoint snapshots the whole chain."""

    def checkpoint(self) -> Optional[int]:
        if self._journal is None or self._crashed:
            return None
        return self._journal.snapshot(
            {"entries": [entry.to_payload() for entry in self._entries]})

    def recover(self) -> dict:
        recovered: list[AuditEntry] = []
        snapshot, records, report = self._journal.recover()
        torn = report.truncated or report.corrupt_frame
        if snapshot is not None:
            for payload in snapshot.get("state", {}).get("entries", []):
                recovered.append(AuditEntry.from_payload(payload))
        for record in records:
            recovered.append(AuditEntry.from_payload(record.payload))
        replayed = len(recovered)
        self._entries = list(recovered)
        self._crashed = False
        self.verify()
        lost = max(0, self._lost_at_crash - replayed)
        self._lost_at_crash = 0
        gap = lost > 0 or torn
        if gap:
            self.append(0.0 if not recovered else recovered[-1].time,
                        "audit.gap", "recovery", {
                            "lost_entries": lost,
                            "torn_tail": torn,
                            "resumed_from": (recovered[-1].entry_hash
                                             if recovered else "0" * 64),
                        })
        return {"replayed": replayed, "lost": lost, "gap": gap}


def _recover(log):
    try:
        return log.recover()
    except AuditError:
        return AuditError


class SegmentedMatchesFullRewrite(RuleBasedStateMachine):
    @initialize(flush_every=st.integers(min_value=1, max_value=3))
    def build(self, flush_every):
        self.storages = (StableStorage(), StableStorage())
        self.segmented = AuditLog(journal=Journal(
            self.storages[0], "d0.audit", flush_every=flush_every))
        self.reference = FullRewriteAuditLog(journal=FullRewriteJournal(
            self.storages[1], "d0.audit", flush_every=flush_every))
        self.time = 0.0

    @rule(detail=st.integers(min_value=0, max_value=3))
    def append(self, detail):
        self.time += 1.0
        for log in (self.segmented, self.reference):
            log.append(self.time, "decision", "d0", {"n": detail})

    @rule()
    def checkpoint(self):
        assert self.segmented.checkpoint() == self.reference.checkpoint()

    @rule(blob=st.sampled_from(["d0.audit", "d0.audit" + SNAPSHOT_SUFFIX]),
          drop_bytes=st.integers(min_value=0, max_value=40),
          flip_bit=st.none() | st.integers(min_value=0, max_value=127))
    def corrupt(self, blob, drop_bytes, flip_bit):
        for storage in self.storages:
            storage.corrupt_tail(blob, drop_bytes=drop_bytes, flip_bit=flip_bit)

    @rule()
    def crash_and_recover(self):
        assert (self.segmented.crash_volatile()
                == self.reference.crash_volatile())
        outcome = _recover(self.segmented)
        assert outcome == _recover(self.reference)
        assert ([entry.entry_hash for entry in self.segmented.entries()]
                == [entry.entry_hash for entry in self.reference.entries()])
        assert self.segmented.gap_entries() == self.reference.gap_entries()


SegmentedMatchesFullRewrite.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestSegmentedMatchesFullRewrite = SegmentedMatchesFullRewrite.TestCase


def test_damaged_snapshot_then_crash_fails_verification_in_both():
    """Known behaviour kept as is: when the snapshot is damaged and the
    device crashes before the next checkpoint, the recovered tail cannot
    verify from genesis, so recovery raises instead of writing a gap."""
    for log_cls, journal_cls in ((AuditLog, Journal),
                                 (FullRewriteAuditLog, FullRewriteJournal)):
        storage = StableStorage()
        log = log_cls(journal=journal_cls(storage, "d0.audit"))
        for time in range(5):
            log.append(float(time), "decision", "d0")
        log.checkpoint()
        log.append(5.0, "decision", "d0")
        storage.corrupt_tail("d0.audit" + SNAPSHOT_SUFFIX, flip_bit=9)
        assert log.crash_volatile()["lost"] == 0
        assert _recover(log) is AuditError
