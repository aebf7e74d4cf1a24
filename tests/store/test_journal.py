"""Unit + property tests for stable storage and the write-ahead journal."""

import json
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.store.journal import Journal, SNAPSHOT_SUFFIX
from repro.store.stable import StableStorage
from repro.store.journal import _frame

HEADER = struct.Struct(">II")


def frames(storage: StableStorage, name: str) -> list[dict]:
    """Hand-decode every frame in a blob (test-side ground truth)."""
    blob = storage.read(name)
    out, offset = [], 0
    while offset + HEADER.size <= len(blob):
        length, crc = HEADER.unpack_from(blob, offset)
        body = blob[offset + HEADER.size:offset + HEADER.size + length]
        assert zlib.crc32(body) == crc
        out.append(json.loads(body.decode("utf-8")))
        offset += HEADER.size + length
    assert offset == len(blob)
    return out


# -- stable storage ---------------------------------------------------------------


def test_storage_append_read_roundtrip():
    storage = StableStorage()
    storage.append("a", b"one")
    storage.append("a", b"two")
    assert storage.read("a") == b"onetwo"
    assert storage.size("a") == 6
    assert storage.names() == ["a"]
    assert storage.read("missing") == b""
    assert not storage.exists("missing")


def test_storage_truncate_bounds():
    storage = StableStorage()
    storage.write("a", b"abcdef")
    storage.truncate("a", 2)
    assert storage.read("a") == b"ab"
    with pytest.raises(StorageError):
        storage.truncate("a", 5)
    with pytest.raises(StorageError):
        storage.truncate("missing", 0)


def test_storage_corrupt_tail_drop_and_flip():
    storage = StableStorage()
    storage.write("a", bytes([0xFF] * 8))
    assert storage.corrupt_tail("a", drop_bytes=3) == {
        "dropped": 3, "flipped": None}
    assert storage.size("a") == 5
    damage = storage.corrupt_tail("a", flip_bit=0)
    assert damage["flipped"] == 4                  # last byte, bit 0
    assert storage.read("a")[-1] == 0xFE
    # Damage clamps instead of raising on tiny/missing blobs.
    assert storage.corrupt_tail("missing", drop_bytes=9) == {
        "dropped": 0, "flipped": None}
    assert storage.corrupt_tail("a", drop_bytes=99)["dropped"] == 5


# -- journal framing and replay ---------------------------------------------------


def test_append_replay_roundtrip():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for n in range(3):
        assert journal.append({"n": n}) == n + 1
    records = Journal(storage, "d0.audit").replay()
    assert [record.seq for record in records] == [1, 2, 3]
    assert [record.payload for record in records] == [{"n": n}
                                                      for n in range(3)]


def test_flush_every_batches_and_crash_drops_the_buffer():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit", flush_every=3)
    journal.append({"n": 0})
    journal.append({"n": 1})
    assert journal.unflushed == 2 and journal.flushed_records == 0
    assert journal.durable_records == 0
    assert journal.drop_volatile() == 2            # the crash eats both
    assert journal.replay() == []
    journal.append({"n": 2})
    journal.append({"n": 3})
    journal.append({"n": 4})                       # third append auto-flushes
    assert journal.unflushed == 0 and journal.flushed_records == 3


def test_torn_tail_is_truncated_not_trusted():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for n in range(4):
        journal.append({"n": n})
    intact = storage.size("d0.audit")
    storage.corrupt_tail("d0.audit", drop_bytes=5)
    _snapshot, records, report = journal.recover()
    assert [record.payload["n"] for record in records] == [0, 1, 2]
    assert report.truncated and report.torn_bytes > 0
    assert not report.corrupt_frame                # torn, not rotted
    # The damaged tail was cut off the blob: a later append lands clean.
    assert storage.size("d0.audit") < intact
    assert frames(storage, "d0.audit") == [{"seq": n + 1, "n": n}
                                           for n in range(3)]


def test_bit_flip_is_caught_by_crc():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for n in range(3):
        journal.append({"n": n})
    storage.corrupt_tail("d0.audit", flip_bit=3)   # inside the last payload
    _snapshot, records, report = journal.recover()
    assert [record.payload["n"] for record in records] == [0, 1]
    assert report.corrupt_frame and report.truncated


def test_append_after_torn_recovery_leaves_no_sequence_gap():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for n in range(4):
        journal.append({"n": n})
    storage.corrupt_tail("d0.audit", drop_bytes=5)     # kills seq 4
    journal.recover()
    assert journal.append({"n": 99}) == 4              # realigned, not 5
    records, report = journal._scan()
    assert [record.seq for record in records] == [1, 2, 3, 4]
    assert not report.truncated and not report.corrupt_frame


def test_front_damage_cannot_resequence_later_appends_as_a_suffix():
    """A live journal anchors recovery at the blob's known first frame:
    when damage erases the *front* of the run, a frame appended later at
    the in-memory sequence must not replay as a bogus suffix of history
    (regression: hypothesis found ops=[append, flush, torn-wipe, append]
    recovering [2] where the prefix-exact answer is [])."""
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    journal.append({"n": 0})
    storage.corrupt_tail("d0.audit", drop_bytes=storage.size("d0.audit"))
    journal.append({"n": 1})                           # lands with seq 2
    records, report = Journal(storage, "d0.audit").recover()[1:]
    # Cold open: the orphan frame starting at 2 is a *visible* gap.
    assert [record.seq for record in records] == [2]
    # Warm recovery on the journal that wrote the blob: seq 1 is gone, so
    # the orphan seq-2 frame is distrusted, not replayed as a suffix.
    records, report = journal.recover()[1:]
    assert records == []
    assert report.corrupt_frame
    # And the journal realigned: the next append restarts the run.
    assert journal.append({"n": 2}) == 1
    assert [record.seq for record in journal._scan()[0]] == [1]


def test_snapshot_compacts_and_recovery_resumes_from_it():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for n in range(5):
        journal.append({"n": n})
    journal.snapshot({"upto": 5})
    assert journal.snapshot_seq == 5
    assert storage.read("d0.audit") == b""             # fully compacted
    journal.append({"n": 5})
    segments, records, report = Journal(storage, "d0.audit").recover()
    assert [segment["state"] for segment in segments] == [{"upto": 5}]
    assert report.snapshot_seq == 5
    assert [record.seq for record in records] == [6]
    # The next sequence continues after the snapshot + tail.
    resumed = Journal(storage, "d0.audit")
    assert resumed.append({"n": 6}) == 7
    assert resumed.durable_records == 7


def test_damaged_snapshot_is_discarded_not_trusted():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    journal.append({"n": 0})
    journal.snapshot({"upto": 1})
    journal.append({"n": 1})
    storage.corrupt_tail("d0.audit" + SNAPSHOT_SUFFIX, flip_bit=9)
    segments, records, report = Journal(storage, "d0.audit").recover()
    assert segments == []
    assert not storage.exists("d0.audit" + SNAPSHOT_SUFFIX)
    # Only the post-snapshot tail remains replayable: the compaction
    # already dropped seq 1 from the journal, so the loss is visible as
    # a sequence starting past 1 — never a silently wrong chain.
    assert [record.seq for record in records] == [2]


def test_snapshots_append_segments_and_recovery_returns_them_in_order():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for upto in (2, 4, 6):
        journal.append({"n": upto - 1})
        journal.append({"n": upto})
        assert journal.snapshot({"upto": upto}) == upto
    journal.append({"n": 7})
    # One frame per snapshot: earlier segments are never rewritten.
    assert frames(storage, "d0.audit" + SNAPSHOT_SUFFIX) == [
        {"seq": upto, "state": {"upto": upto}} for upto in (2, 4, 6)]
    segments, records, report = Journal(storage, "d0.audit").recover()
    assert [segment["state"] for segment in segments] == [
        {"upto": 2}, {"upto": 4}, {"upto": 6}]
    assert report.snapshot_seq == 6
    assert [record.seq for record in records] == [7]


def test_snapshot_up_to_the_last_append_skips_the_journal_scan(monkeypatch):
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for n in range(3):
        journal.append({"n": n})

    def no_scan(*_args, **_kwargs):
        raise AssertionError("nothing survives the snapshot: no scan needed")

    monkeypatch.setattr(journal, "_scan", no_scan)
    assert journal.snapshot({"upto": 3}) == 3
    assert storage.read("d0.audit") == b""
    assert journal.flushed_records == 0 and journal.durable_records == 3


def test_damage_to_any_segment_discards_the_whole_blob():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for upto in (1, 2, 3):
        journal.append({"n": upto})
        journal.snapshot({"upto": upto})
    journal.append({"n": 4})
    storage.corrupt_tail("d0.audit" + SNAPSHOT_SUFFIX, flip_bit=9)
    segments, records, _report = journal.recover()
    # The two intact segments in front of the damaged one are not kept.
    assert segments == []
    assert not storage.exists("d0.audit" + SNAPSHOT_SUFFIX)
    assert [record.seq for record in records] == [4]


def test_losing_whole_trailing_segments_is_damage_to_their_writer():
    """Dropping exactly the last segment leaves a blob that still parses
    frame by frame.  The journal that wrote it knows its length and CRC,
    so it discards the blob, as it would any other damaged snapshot."""
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    journal.append({"n": 1})
    journal.snapshot({"upto": 1})
    before = storage.size("d0.audit" + SNAPSHOT_SUFFIX)
    journal.append({"n": 2})
    journal.snapshot({"upto": 2})
    dropped = storage.size("d0.audit" + SNAPSHOT_SUFFIX) - before
    storage.corrupt_tail("d0.audit" + SNAPSHOT_SUFFIX, drop_bytes=dropped)
    assert len(frames(storage, "d0.audit" + SNAPSHOT_SUFFIX)) == 1
    segments, records, _report = journal.recover()
    assert segments == [] and records == []


def test_snapshot_after_damage_rewrites_the_blob_with_the_history():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    journal.append({"n": 1})
    journal.snapshot({"upto": 1}, history=lambda: {"full": 1})
    storage.corrupt_tail("d0.audit" + SNAPSHOT_SUFFIX, drop_bytes=3)
    journal.append({"n": 2})
    journal.snapshot({"upto": 2}, history=lambda: {"full": 2})
    # The damaged frame is gone, replaced by one segment of the history.
    assert frames(storage, "d0.audit" + SNAPSHOT_SUFFIX) == [
        {"seq": 2, "state": {"full": 2}}]
    journal.append({"n": 3})
    journal.snapshot({"upto": 3}, history=lambda: {"full": 3})
    # Intact again, so the next snapshot appends its delta.
    assert frames(storage, "d0.audit" + SNAPSHOT_SUFFIX) == [
        {"seq": 2, "state": {"full": 2}}, {"seq": 3, "state": {"upto": 3}}]


def tear_segment_append(storage, journal, state):
    """What a crash in the middle of :meth:`Journal.snapshot` leaves: the
    journal flushed, half the new segment frame on disk, no compaction."""
    journal.flush()
    frame = _frame({"seq": journal._next_seq - 1, "state": state})
    storage.append("d0.audit" + SNAPSHOT_SUFFIX, frame[:len(frame) // 2])


def test_cold_open_cuts_a_torn_last_segment_and_keeps_the_rest():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for n in range(1, 5):
        journal.append({"n": n})
        if n == 2:
            journal.snapshot({"upto": 2})
    tear_segment_append(storage, journal, {"upto": 4})
    reopened = Journal(storage, "d0.audit")
    segments, records, report = reopened.recover()
    assert [segment["state"] for segment in segments] == [{"upto": 2}]
    assert [record.seq for record in records] == [3, 4]
    assert report.snapshot_seq == 2
    assert frames(storage, "d0.audit" + SNAPSHOT_SUFFIX) == [
        {"seq": 2, "state": {"upto": 2}}]
    # The cut blob is what the journal now knows: the next snapshot
    # appends after it.
    reopened.snapshot({"upto": 4})
    assert [segment["state"]
            for segment in Journal(storage, "d0.audit").recover()[0]] == [
        {"upto": 2}, {"upto": 4}]


def test_cold_open_discards_a_torn_blob_the_journal_contradicts():
    """A torn last segment whose records the journal no longer starts at
    is damage after a compaction, not a crash mid-append: the earlier
    segments would not line up with the journal, so the blob goes."""
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    for upto in (1, 2):
        journal.append({"n": upto})
        journal.snapshot({"upto": upto})
    journal.append({"n": 3})
    storage.corrupt_tail("d0.audit" + SNAPSHOT_SUFFIX, drop_bytes=3)
    segments, records, _report = Journal(storage, "d0.audit").recover()
    assert segments == []
    assert not storage.exists("d0.audit" + SNAPSHOT_SUFFIX)
    assert [record.seq for record in records] == [3]


def test_warm_recovery_never_keeps_part_of_a_torn_blob():
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    journal.append({"n": 1})
    journal.snapshot({"upto": 1})
    journal.append({"n": 2})
    tear_segment_append(storage, journal, {"upto": 2})
    segments, records, _report = journal.recover()
    assert segments == []
    assert [record.seq for record in records] == [2]


def test_tampered_frame_with_recomputed_crc_passes_the_journal():
    """The CRC catches *accidents*; a deliberate edit that recomputes the
    CRC replays cleanly — catching that is the hash chain's job (see
    tests/audit/test_log_durability.py)."""
    storage = StableStorage()
    journal = Journal(storage, "d0.audit")
    journal.append({"n": 0})
    journal.append({"n": 1})
    tampered = [dict(frame) for frame in frames(storage, "d0.audit")]
    tampered[0]["n"] = 999
    storage.write("d0.audit", b"".join(
        HEADER.pack(len(body), zlib.crc32(body)) + body
        for body in (json.dumps(frame, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
                     for frame in tampered)))
    _snapshot, records, report = Journal(storage, "d0.audit").recover()
    assert [record.payload["n"] for record in records] == [999, 1]
    assert not report.truncated and not report.corrupt_frame


def test_flush_every_validation():
    with pytest.raises(StorageError):
        Journal(StableStorage(), "d0.audit", flush_every=0)


# -- randomized crash/restart property --------------------------------------------


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("crash")),
        st.tuples(st.just("torn"), st.integers(min_value=1, max_value=40)),
        st.tuples(st.just("flip"), st.integers(min_value=0, max_value=127)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS, flush_every=st.integers(min_value=1, max_value=4))
def test_recovery_is_prefix_exact(ops, flush_every):
    """Whatever the interleaving of appends, flushes, crashes, torn tails
    and bit flips: recovery yields an *exact prefix* of what was appended
    — never reordered, never corrupted-but-accepted, never resequenced —
    and with no storage damage it yields everything flushed."""
    storage = StableStorage()
    journal = Journal(storage, "d0.audit", flush_every=flush_every)
    appended: list[int] = []
    damaged = False
    counter = 0
    for op in ops:
        if op[0] == "append":
            counter += 1
            journal.append({"n": counter})
            appended.append(counter)
        elif op[0] == "flush":
            journal.flush()
        elif op[0] == "crash":
            journal.drop_volatile()
            flushed_at_crash = journal.flushed_records
            _snapshot, records, _report = journal.recover()
            got = [record.payload["n"] for record in records]
            assert got == appended[:len(got)]          # prefix-exact
            if not damaged:
                assert len(got) == flushed_at_crash    # nothing durable lost
            appended = got                             # survivors define history
            counter = len(got)
        elif op[0] == "torn":
            if storage.size("d0.audit"):
                storage.corrupt_tail("d0.audit", drop_bytes=op[1])
                damaged = True
        elif op[0] == "flip":
            if storage.size("d0.audit"):
                storage.corrupt_tail("d0.audit", flip_bit=op[1])
                damaged = True
    journal.drop_volatile()
    records = journal.replay()
    got = [record.payload["n"] for record in records]
    assert got == appended[:len(got)]
