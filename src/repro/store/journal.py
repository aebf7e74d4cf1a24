"""Append-only write-ahead journal with CRC-framed records.

Each record is one length-prefixed, CRC32-guarded frame holding a
canonical-JSON payload plus its sequence number::

    +----------+----------+------------------+
    | length   | crc32    | payload bytes    |
    | 4B big-e | 4B big-e | ``length`` bytes |
    +----------+----------+------------------+

Replay (:meth:`Journal.replay`) walks the frames front to back and stops
at the first one that cannot be trusted — a header promising more bytes
than remain (torn write) or a CRC/decode/sequence mismatch (bit rot,
corruption) — then truncates the blob back to the last good frame, so a
damaged tail can never poison a later append.  The CRC catches
*accidental* damage; deliberate tampering with a recomputed CRC is the
hash chain's job (:meth:`repro.audit.log.AuditLog.recover` re-verifies).

A journal can pair with a snapshot blob (``<name>.snap``) of
append-only *segments*: each :meth:`snapshot` appends one frame holding
the state its owner accumulated since the previous segment, stamped with
the sequence number it covers, and compacts the journal down to the
frames after it.  A checkpoint therefore encodes and writes only what
changed since the last one; what it still reads whole is the blob
itself, one CRC32 pass to confirm nothing damaged it (see
:meth:`snapshot`).  Recovery is the segments in order plus a short tail
replay instead of a full-history walk.  The segments are trusted
all-or-nothing: one damaged frame discards the whole blob.  The one
exception is a cold open over a blob whose *last* frame is torn — a
crash in the middle of a segment append — where that frame is cut away
and the segments before it are kept (see :meth:`recover`).

Durability is per-append by default (``flush_every=1``).  A larger
``flush_every`` batches frames in volatile memory — faster, but a crash
discards the unflushed tail (:meth:`drop_volatile` models exactly that),
which is how "journaled" and "lost in the crash" can differ even for a
journal-backed component.

There is one framing path, :meth:`Journal.append_encoded`: its caller
hands over the canonical JSON text of the frame body, built around the
sequence number the append takes.  :meth:`Journal.append` is that path
for a payload dict.  The audit chain uses it directly, because the text
it hashes already holds every member of its frame but ``hash`` and
``seq`` (see :mod:`repro.audit.log`); the entry is then encoded once,
not once for its hash and again for its frame.  A :meth:`snapshot`
encodes its state anew: the journal keeps no frame text of its own.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.canonical import canonical_json
from repro.errors import StorageError
from repro.store.stable import StableStorage

_HEADER = struct.Struct(">II")        # (payload length, payload crc32)

#: Suffix of the snapshot blob paired with a journal blob.
SNAPSHOT_SUFFIX = ".snap"


def _frame_text(text: str) -> bytes:
    """The frame holding canonical JSON ``text``: header, then body."""
    body = text.encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _frame(payload: dict) -> bytes:
    return _frame_text(canonical_json(payload))


def _decode_frames(blob: bytes, limit: Optional[int] = None,
                   ) -> tuple[Optional[list[dict]], int]:
    """(payloads, end of the last whole frame) for the first ``limit``
    frames (default: all).

    A final frame running past the end of ``blob`` (a torn write) stops
    the walk short of ``len(blob)``; payloads is ``None`` when a whole
    frame fails its CRC or fails to decode."""
    payloads: list[dict] = []
    offset = 0
    while offset < len(blob) and (limit is None or len(payloads) < limit):
        start = offset + _HEADER.size
        if start > len(blob):
            break                                   # torn mid-header
        length, crc = _HEADER.unpack_from(blob, offset)
        if start + length > len(blob):
            break                                   # torn mid-payload
        body = blob[start:start + length]
        if zlib.crc32(body) != crc:
            return None, offset
        try:
            payloads.append(json.loads(body.decode("utf-8")))
        except ValueError:
            return None, offset
        offset = start + length
    return payloads, offset


@dataclass(frozen=True)
class JournalRecord:
    """One replayed record: its sequence number and payload dict."""

    seq: int
    payload: dict


@dataclass
class ReplayReport:
    """What a replay found (and repaired) in one journal blob."""

    records: int = 0                  # good frames decoded
    snapshot_seq: Optional[int] = None
    torn_bytes: int = 0               # bytes truncated off the tail
    corrupt_frame: bool = False       # truncation was CRC/decode, not torn
    truncated: bool = False
    detail: dict = field(default_factory=dict)


class Journal:
    """A named write-ahead journal on a :class:`StableStorage`."""

    def __init__(self, storage: StableStorage, name: str,
                 flush_every: int = 1, tracer=None):
        """``tracer`` (a :class:`~repro.telemetry.spans.Tracer`) annotates
        appends that happen *inside an active causal context* with a
        ``store.append`` span — journal writes triggered by a traced
        decision or intervention then show up in its explanation.  Appends
        outside any context (and all appends when no tracer is given) add
        nothing."""
        if flush_every < 1:
            raise StorageError("flush_every must be >= 1")
        self.storage = storage
        self.name = name
        self.flush_every = flush_every
        self.tracer = tracer
        self._buffer: list[bytes] = []
        self._next_seq = 1
        self._flushed_records = 0
        self.snapshot_seq: Optional[int] = None
        # The sequence number the first frame of the blob must carry, per
        # this journal's own accounting (``None`` only while a cold open
        # is still learning it from the blob itself).  Scans anchor on it
        # so storage damage can never make later appends replay as a
        # bogus suffix of history — see :meth:`recover`.
        self._blob_first_seq: Optional[int] = None
        # ``(length, crc32)`` of the snapshot blob as this journal last
        # wrote or recovered it: any other content is storage damage.
        # ``None`` only while a cold open is still learning it.
        self._snap_mark: Optional[tuple[int, int]] = None
        # Resuming over an existing blob continues its sequence.
        if storage.exists(name) or storage.exists(name + SNAPSHOT_SUFFIX):
            self.recover()
        else:
            self._blob_first_seq = 1
            self._snap_mark = (0, 0)

    # -- writing ---------------------------------------------------------------

    def append(self, payload: dict) -> int:
        """Frame ``payload`` and stage it; returns its sequence number.

        The frame reaches stable storage immediately when ``flush_every``
        is 1 (the default), otherwise when the buffer fills or
        :meth:`flush` is called.
        """
        return self.append_encoded(
            lambda seq: canonical_json({"seq": seq, **payload}))

    def append_encoded(self, body: Callable[[int], str]) -> int:
        """Stage the frame whose body is ``body(seq)``; returns ``seq``.

        ``body`` gets the sequence number this append takes and returns
        the canonical JSON text of ``{"seq": seq, **payload}`` — what
        :meth:`append` would encode — so replay decodes the same record.
        """
        seq = self._next_seq
        self._next_seq += 1
        self._buffer.append(_frame_text(body(seq)))
        if len(self._buffer) >= self.flush_every:
            self.flush()
        tracer = self.tracer
        if tracer is not None and tracer.current is not None:
            # Guard on ``current`` (never materialize a lazy root): only
            # appends already inside a real trace annotate it.
            tracer.start_span("store.append", self.name,
                              parent=tracer.current, seq=seq)
        return seq

    def flush(self) -> int:
        """Push every buffered frame to stable storage; returns the count."""
        flushed = len(self._buffer)
        if flushed:
            self.storage.append(self.name, b"".join(self._buffer))
            self._buffer.clear()
            self._flushed_records += flushed
        return flushed

    @property
    def unflushed(self) -> int:
        """Frames still in volatile memory (lost if the device crashes now)."""
        return len(self._buffer)

    @property
    def flushed_records(self) -> int:
        """Frames known durable (what a crash provably cannot erase)."""
        return self._flushed_records

    def drop_volatile(self) -> int:
        """Crash semantics: discard the unflushed buffer; returns the loss."""
        lost = len(self._buffer)
        self._buffer.clear()
        return lost

    # -- snapshots -------------------------------------------------------------

    def snapshot(self, state: dict, seq: Optional[int] = None,
                 history: Optional[Callable[[], dict]] = None) -> int:
        """Append ``state`` as one segment covering up to ``seq`` (default:
        last appended) and compact the journal to the frames after it.

        ``state`` holds what changed since the previous segment; recovery
        hands back every segment in order.  If storage damage reached the
        snapshot blob since this journal last wrote or recovered it,
        appending would carry the damage forward and a later recovery
        would discard the whole blob.  This call then rewrites the blob
        with one segment holding ``history()`` — the owner's full state —
        instead (``state`` itself when no ``history`` is given).  Finding
        that out costs one CRC32 pass over the blob, so a snapshot is
        linear in the blob's size, not in the state encoded."""
        self.flush()
        last = self._next_seq - 1
        upto = last if seq is None else seq
        name = self.name + SNAPSHOT_SUFFIX
        if self._snap_intact():
            frame = _frame({"seq": upto, "state": state})
            self.storage.append(name, frame)
            length, crc = self._snap_mark
            self._snap_mark = (length + len(frame), zlib.crc32(frame, crc))
        else:
            frame = _frame({"seq": upto,
                            "state": state if history is None else history()})
            self.storage.write(name, frame)
            self._snap_mark = (len(frame), zlib.crc32(frame))
        if upto >= last:
            keep: list[JournalRecord] = []      # nothing after ``upto``
        else:
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

    def _snap_intact(self) -> bool:
        """Whether the snapshot blob still holds exactly the segments this
        journal wrote or recovered."""
        name = self.name + SNAPSHOT_SUFFIX
        length, crc = self._snap_mark
        return (self.storage.size(name) == length
                and zlib.crc32(self.storage.read(name)) == crc)

    @property
    def durable_records(self) -> int:
        """Records a crash provably cannot erase: the frames flushed to
        stable storage plus whatever the snapshot covers (valid for the
        common one-record-per-sequence usage, where ``seq`` counts
        appends)."""
        return (self.snapshot_seq or 0) + self._flushed_records

    # -- recovery --------------------------------------------------------------

    def _scan(self, expected_first: Optional[int] = None,
              ) -> tuple[list[JournalRecord], ReplayReport]:
        """Decode trustworthy frames; truncate the blob past the last one.

        ``expected_first`` anchors the run: when given, the first frame
        must carry exactly that sequence number, otherwise the whole blob
        is distrusted.  Without it (a cold open of an unknown blob) any
        contiguous run is accepted — a sequence starting past 1 is then
        the *visible* mark of a compaction whose snapshot was lost."""
        blob = self.storage.read(self.name)
        report = ReplayReport()
        records: list[JournalRecord] = []
        offset = 0
        good_end = 0
        while offset < len(blob):
            if offset + _HEADER.size > len(blob):
                break                               # torn mid-header
            length, crc = _HEADER.unpack_from(blob, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(blob):
                break                               # torn mid-payload
            body = blob[start:end]
            if zlib.crc32(body) != crc:
                report.corrupt_frame = True
                break                               # bit rot from here on
            try:
                payload = json.loads(body.decode("utf-8"))
                seq = int(payload.pop("seq"))
            except (ValueError, KeyError, TypeError):
                report.corrupt_frame = True
                break
            expected = records[-1].seq + 1 if records else expected_first
            if expected is not None and seq != expected:
                report.corrupt_frame = True
                break                               # sequence gap: distrust
            records.append(JournalRecord(seq=seq, payload=payload))
            offset = end
            good_end = end
        if good_end < len(blob):
            report.truncated = True
            report.torn_bytes = len(blob) - good_end
            if self.storage.exists(self.name):
                self.storage.truncate(self.name, good_end)
        report.records = len(records)
        return records, report

    def _read_segments(self) -> list[dict]:
        """Every snapshot segment payload, oldest first.

        The segments are trusted all-or-nothing: when any frame fails its
        CRC or fails to decode, or is torn — or, for a journal that knows
        what it wrote, the blob differs from that at all — the whole blob
        is discarded (recovery falls back to the journal walk), never
        trusted in part.

        A cold open is the exception for a torn *last* frame: a crash in
        the middle of :meth:`snapshot`'s append.  The journal is compacted
        only after that append returns, so the torn segment's records are
        all still in the journal, starting right after the segments before
        it.  Unless the journal's first frame says otherwise, the torn
        frame is cut away and the earlier segments are kept.
        """
        name = self.name + SNAPSHOT_SUFFIX
        blob = self.storage.read(name)
        mark = (len(blob), zlib.crc32(blob))
        segments, end = (_decode_frames(blob)
                         if self._snap_mark in (None, mark) else (None, 0))
        if end < len(blob) and not (segments and self._snap_mark is None
                                    and self._resumes_after(segments)):
            segments = None
        if not segments:
            self.storage.delete(name)
            segments, mark = [], (0, 0)
        elif end < len(blob):
            self.storage.truncate(name, end)
            mark = (end, zlib.crc32(blob[:end]))
        self._snap_mark = mark
        return segments

    def _resumes_after(self, segments: list[dict]) -> bool:
        """Whether the journal blob does not contradict ``segments``: it
        is empty, or its first frame is damaged, or that frame carries the
        sequence number right after the last segment's."""
        first, _end = _decode_frames(self.storage.read(self.name), limit=1)
        return not first or first[0].get("seq") == segments[-1]["seq"] + 1

    def recover(self) -> tuple[list[dict], list[JournalRecord], ReplayReport]:
        """(snapshot segments, post-snapshot records, report).

        Each segment is one ``{"seq": upto, "state": ...}`` payload as
        :meth:`snapshot` wrote it, oldest first; the owner folds their
        states together.  An empty list means no snapshot — none was
        taken, or the blob was damaged and discarded whole.  A cold open
        keeps the segments in front of a torn last one, whose records the
        journal still holds (see :meth:`_read_segments`).

        Also realigns the journal's own accounting with the recovered
        reality — the next sequence number continues from the last
        trustworthy frame, so an append after a torn-tail truncation
        never leaves a sequence gap the next replay would distrust.

        A journal that already knows where its blob starts (it wrote or
        previously recovered it) additionally anchors the scan there, so
        storage damage that erases the front of the run can never make a
        later append replay as a bogus *suffix* of history: recovery is
        prefix-exact, a frame whose predecessors are gone is distrusted
        and truncated away.  Only a cold open (constructing a
        :class:`Journal` over an existing blob with no intact snapshot)
        accepts a run starting past sequence 1, because only there is
        the gap *visible* to the consumer instead of silently
        resequenced.
        """
        segments = self._read_segments()
        snap_seq = int(segments[-1].get("seq", 0)) if segments else None
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
        return segments, records, report

    def replay(self) -> list[JournalRecord]:
        """Just the trustworthy post-snapshot records, oldest first."""
        return self.recover()[1]
