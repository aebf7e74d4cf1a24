"""Hash-chained, append-only audit log.

Each entry commits to its predecessor's hash, so any retroactive edit or
deletion breaks verification — the in-library realization of the paper's
"tamper-proof" record-keeping assumption, and the thing a malevolent
device would have to defeat to hide break-glass abuse.

Tamper-evidence alone is not crash-evidence: a chain held only in
process memory is erased by the very :class:`~repro.sim.faults.DeviceCrash`
a post-incident auditor would investigate.  A log constructed with a
:class:`~repro.store.journal.Journal` therefore writes every entry
through to simulated stable storage; after a crash wipes the volatile
copy, :meth:`recover` replays the journal (snapshot plus trustworthy
tail), re-verifies the recovered chain, and — when entries were lost
(journal-less operation, an unflushed buffer, or a torn/corrupted tail)
— appends an explicit ``audit.gap`` marker so the resumed chain *admits*
the hole instead of papering over it.

An entry is encoded once.  :func:`_members` renders its fields as
canonical JSON in three runs, and both the text its hash covers and the
body of its journal frame are joined from those runs: the frame only
adds the ``hash`` and ``seq`` members in their sorted places.  A
:meth:`~AuditLog.checkpoint` still encodes the entries it snapshots
again from their payloads; keeping every entry's text for it would hold
a second copy of the chain in memory for the few runs that checkpoint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Optional

from repro.canonical import canonical_json
from repro.errors import AuditError

_GENESIS = "0" * 64

#: Kind of the marker entry a recovery appends when entries were lost.
GAP_KIND = "audit.gap"


def _scalar(value) -> str:
    """``canonical_json(value)``, with the common exact types rendered
    directly (the encoder sets itself up anew for every non-string)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    return canonical_json(value)


def _members(index, time, kind, subject, detail, prev_hash,
             ) -> tuple[str, str, str]:
    """An entry's canonical JSON in three runs, split where the journal
    frame inserts its ``hash`` and ``seq`` members (keys sort as
    ``detail,hash,index,kind,prev,seq,subject,time``); joined, they are
    the text the entry's hash covers."""
    return (f'{{"detail":{canonical_json(detail)}',
            f',"index":{_scalar(index)},"kind":{_scalar(kind)}'
            f',"prev":{_scalar(prev_hash)}',
            f',"subject":{_scalar(subject)},"time":{_scalar(time)}}}')


@dataclass(frozen=True)
class AuditEntry:
    """One immutable log record."""

    index: int
    time: float
    kind: str
    subject: str
    detail: dict
    prev_hash: str
    entry_hash: str

    @staticmethod
    def compute_hash(index: int, time: float, kind: str, subject: str,
                     detail: dict, prev_hash: str) -> str:
        body = "".join(_members(index, time, kind, subject, detail,
                                prev_hash))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def to_payload(self) -> dict:
        """The journal/snapshot wire form."""
        return {
            "index": self.index, "time": self.time, "kind": self.kind,
            "subject": self.subject, "detail": self.detail,
            "prev": self.prev_hash, "hash": self.entry_hash,
        }

    @staticmethod
    def from_payload(payload: dict) -> "AuditEntry":
        return AuditEntry(
            index=int(payload["index"]), time=float(payload["time"]),
            kind=str(payload["kind"]), subject=str(payload["subject"]),
            detail=dict(payload["detail"]), prev_hash=str(payload["prev"]),
            entry_hash=str(payload["hash"]),
        )


class AuditLog:
    """Append-only log with O(1) append and full-chain verification.

    ``journal`` (a :class:`~repro.store.journal.Journal`) makes the log
    crash-durable: appends write through, :meth:`checkpoint` snapshots,
    and the :meth:`crash_volatile` / :meth:`recover` pair plugs into the
    fault layer's :class:`~repro.store.recovery.DurabilityManager`.
    Without one the log keeps the historical in-memory behaviour — and a
    crash loses everything, which the crash hook now *reports* instead of
    swallowing.
    """

    def __init__(self, journal=None) -> None:
        self._entries: list[AuditEntry] = []
        self._journal = journal
        self._crashed = False
        self._lost_at_crash = 0
        # Entries the journal's snapshot segments already hold (a prefix).
        self._covered = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def journaled(self) -> bool:
        return self._journal is not None

    def append(self, time: float, kind: str, subject: str,
               detail: Optional[dict] = None) -> Optional[AuditEntry]:
        """Append one entry; returns ``None`` while crashed.

        Between :meth:`crash_volatile` and :meth:`recover` the owning
        process is *down*: nothing runs, so nothing may log.  Accepting
        appends in that window would both fabricate history and write
        a second from-genesis chain into the journal behind the real
        one, poisoning the eventual replay.
        """
        if self._crashed:
            return None
        detail = dict(detail or {})
        index = len(self._entries)
        prev_hash = self._entries[-1].entry_hash if self._entries else _GENESIS
        head, middle, tail = _members(index, time, kind, subject, detail,
                                      prev_hash)
        entry_hash = hashlib.sha256(
            (head + middle + tail).encode("utf-8")).hexdigest()
        entry = AuditEntry(index=index, time=time, kind=kind, subject=subject,
                           detail=detail, prev_hash=prev_hash,
                           entry_hash=entry_hash)
        self._entries.append(entry)
        if self._journal is not None:
            # The frame of ``entry.to_payload()``, from the same runs.
            self._journal.append_encoded(
                lambda seq: f'{head},"hash":"{entry_hash}"{middle}'
                            f',"seq":{seq}{tail}')
        return entry

    def entries(self, kind_prefix: str = "", subject: Optional[str] = None) -> list[AuditEntry]:
        out = []
        for entry in self._entries:
            if kind_prefix and not (
                entry.kind == kind_prefix or entry.kind.startswith(kind_prefix + ".")
            ):
                continue
            if subject is not None and entry.subject != subject:
                continue
            out.append(entry)
        return out

    def last(self) -> Optional[AuditEntry]:
        return self._entries[-1] if self._entries else None

    def head_hash(self) -> str:
        return self._entries[-1].entry_hash if self._entries else _GENESIS

    def verify(self) -> bool:
        """Recompute the full chain; raise :class:`AuditError` on any break."""
        prev_hash = _GENESIS
        for position, entry in enumerate(self._entries):
            if entry.index != position:
                raise AuditError(
                    f"audit entry at position {position} claims index {entry.index}"
                )
            if entry.prev_hash != prev_hash:
                raise AuditError(f"audit chain broken before entry {position}")
            expected = AuditEntry.compute_hash(
                entry.index, entry.time, entry.kind, entry.subject,
                entry.detail, entry.prev_hash,
            )
            if expected != entry.entry_hash:
                raise AuditError(f"audit entry {position} content was altered")
            prev_hash = entry.entry_hash
        return True

    def sink(self):
        """A ``(kind, detail)`` callable for components that take an audit
        sink (break-glass controller, governance).  Time and subject are
        pulled from the detail dict when present."""
        def _sink(kind: str, detail: dict) -> None:
            time = float(detail.get("time", 0.0))
            subject = str(detail.get("device", detail.get("subject", "")))
            self.append(time, kind, subject, detail)
        return _sink

    # -- durability ------------------------------------------------------------

    def checkpoint(self) -> Optional[int]:
        """Append the entries since the previous checkpoint to the
        journal's snapshot segments and compact the journal, so each
        checkpoint encodes only what was appended since the last one (the
        whole chain, when storage damage reached the snapshot blob — see
        :meth:`Journal.snapshot`).  No-op without a journal, and while
        crashed (a checkpoint of wiped memory would compact real history
        away)."""
        if self._journal is None or self._crashed:
            return None
        upto = self._journal.snapshot(self._chain_state(self._covered),
                                      history=lambda: self._chain_state(0))
        self._covered = len(self._entries)
        return upto

    def _chain_state(self, start: int) -> dict:
        return {"entries": [entry.to_payload()
                            for entry in self._entries[start:]]}

    def durable_entries(self) -> int:
        """Entries a crash right now provably could not erase."""
        if self._journal is None:
            return 0
        return min(self._journal.durable_records, len(self._entries))

    def crash_volatile(self) -> dict:
        """Crash semantics: the in-memory chain is gone; only journaled
        frames survive.  Returns loss accounting for the fault layer."""
        lost = len(self._entries) - self.durable_entries()
        if self._journal is not None:
            self._journal.drop_volatile()
        self._lost_at_crash = len(self._entries)    # vs. recovered, later
        self._entries = []
        self._crashed = True
        return {"lost": lost, "kind": "audit", "journaled": self.journaled}

    def recover(self) -> dict:
        """Rebuild the chain from stable storage after a crash.

        Replays the snapshot segments in order (if any) plus the journal's
        trustworthy tail, re-verifies the recovered chain (a tampered journal —
        edited payload with a recomputed CRC — still breaks the hash
        chain and raises :class:`AuditError`), and appends an explicit
        ``audit.gap`` entry when the recovered chain is shorter than the
        pre-crash one.  The hash chain then *resumes from the recovered
        head*: new entries link to the last surviving hash.
        """
        recovered: list[AuditEntry] = []
        torn = False
        if self._journal is not None:
            segments, records, report = self._journal.recover()
            torn = report.truncated or report.corrupt_frame
            for segment in segments:
                for payload in segment.get("state", {}).get("entries", []):
                    recovered.append(AuditEntry.from_payload(payload))
            self._covered = len(recovered)
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
                        GAP_KIND, "recovery", {
                            "lost_entries": lost,
                            "torn_tail": torn,
                            "resumed_from": (recovered[-1].entry_hash
                                             if recovered else _GENESIS),
                        })
        return {"replayed": replayed, "lost": lost, "gap": gap}

    def gap_entries(self) -> list[AuditEntry]:
        """The explicit loss markers recoveries appended (forensic holes)."""
        return self.entries(GAP_KIND)
