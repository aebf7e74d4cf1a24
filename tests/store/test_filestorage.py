"""Directory-backed stable storage: the journal contract on real disk."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.store import FileStorage, Journal


@pytest.fixture
def storage(tmp_path):
    return FileStorage(str(tmp_path / "blobs"))


class TestBlobContract:
    def test_append_read_roundtrip(self, storage):
        storage.append("a", b"one")
        storage.append("a", b"two")
        assert storage.read("a") == b"onetwo"
        assert storage.size("a") == 6
        assert storage.names() == ["a"]
        assert storage.read("missing") == b""
        assert not storage.exists("missing")

    def test_write_replaces_whole_blob(self, storage):
        storage.write("a", b"first")
        storage.write("a", b"second!")
        assert storage.read("a") == b"second!"
        assert not os.path.exists(
            os.path.join(storage.dirpath, "a.tmp"))

    def test_counters_track_appends_and_bytes(self, storage):
        storage.append("a", b"12345")
        storage.write("b", b"123")
        assert storage.appends == 2
        assert storage.bytes_written == 8

    def test_truncate_bounds(self, storage):
        storage.write("a", b"abcdef")
        storage.truncate("a", 2)
        assert storage.read("a") == b"ab"
        with pytest.raises(StorageError):
            storage.truncate("a", 5)
        with pytest.raises(StorageError):
            storage.truncate("missing", 0)

    def test_delete_and_names_prefix(self, storage):
        storage.write("wh.log", b"x")
        storage.write("wh.snap", b"y")
        storage.write("other", b"z")
        assert storage.names("wh.") == ["wh.log", "wh.snap"]
        storage.delete("wh.log")
        assert storage.names("wh.") == ["wh.snap"]
        storage.delete("missing")            # no-op, no raise

    @pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "a\\b", "a\x00b"])
    def test_illegal_names_rejected(self, storage, bad):
        with pytest.raises(StorageError):
            storage.read(bad)

    def test_corrupt_tail_drop_and_flip_on_disk(self, storage):
        storage.write("a", bytes([0xFF] * 8))
        assert storage.corrupt_tail("a", drop_bytes=3) == {
            "dropped": 3, "flipped": None}
        assert storage.size("a") == 5
        damage = storage.corrupt_tail("a", flip_bit=0)
        assert damage["flipped"] == 4
        assert storage.read("a")[-1] == 0xFE
        assert storage.corrupt_tail("missing", drop_bytes=9) == {
            "dropped": 0, "flipped": None}
        assert storage.corrupt_tail("a", drop_bytes=99)["dropped"] == 5


class TestPersistence:
    def test_blobs_survive_a_new_instance(self, tmp_path):
        first = FileStorage(str(tmp_path / "s"))
        first.append("a", b"hello")
        second = FileStorage(str(tmp_path / "s"))
        assert second.read("a") == b"hello"
        assert second.names() == ["a"]


class TestJournalOverFiles:
    """The CRC-framed journal's crash story holds on real files."""

    def test_append_replay_across_processes(self, tmp_path):
        storage = FileStorage(str(tmp_path / "j"))
        journal = Journal(storage, "d0.audit")
        for n in range(5):
            journal.append({"n": n})
        # "New process": fresh storage + journal over the same directory.
        reopened = Journal(FileStorage(str(tmp_path / "j")), "d0.audit")
        records = reopened.replay()
        assert [record.payload["n"] for record in records] == list(range(5))

    def test_torn_tail_truncated_on_recovery(self, tmp_path):
        storage = FileStorage(str(tmp_path / "j"))
        journal = Journal(storage, "d0.audit")
        for n in range(4):
            journal.append({"n": n})
        storage.corrupt_tail("d0.audit", drop_bytes=5)      # tear last frame
        torn_size = storage.size("d0.audit")
        fresh = FileStorage(str(tmp_path / "j"))
        # Opening over the torn blob recovers (and truncates) immediately.
        reopened = Journal(fresh, "d0.audit")
        _snapshot, records, report = reopened.recover()
        assert [record.payload["n"] for record in records] == [0, 1, 2]
        assert not report.truncated                 # already clean by now
        assert fresh.size("d0.audit") < torn_size   # tail cut on open
        # Appends after recovery replay cleanly with no sequence gap.
        reopened.append({"n": 99})
        replayed = Journal(FileStorage(str(tmp_path / "j")),
                           "d0.audit").replay()
        assert [record.payload["n"] for record in replayed] == [0, 1, 2, 99]

    def test_snapshot_compaction_survives_reopen(self, tmp_path):
        storage = FileStorage(str(tmp_path / "j"))
        journal = Journal(storage, "d0.audit")
        for n in range(6):
            journal.append({"n": n})
        journal.snapshot({"upto": 6}, 6)
        journal.append({"n": 6})
        segments, records, _report = Journal(
            FileStorage(str(tmp_path / "j")), "d0.audit").recover()
        assert [segment["state"] for segment in segments] == [{"upto": 6}]
        assert [record.payload["n"] for record in records] == [6]
