"""Crash/recovery tests for the journal-backed audit log."""

import json
import struct
import zlib

import pytest

from repro.audit.log import GAP_KIND, AuditEntry, AuditLog
from repro.errors import AuditError
from repro.store.journal import Journal
from repro.store.stable import StableStorage

HEADER = struct.Struct(">II")


def journaled_log(flush_every=1):
    storage = StableStorage()
    return storage, AuditLog(journal=Journal(storage, "d0.audit",
                                             flush_every=flush_every))


def crash_and_recover(log):
    accounting = log.crash_volatile()
    return accounting, log.recover()


def test_fully_flushed_log_recovers_whole_and_gapless():
    storage, log = journaled_log()
    for time in range(5):
        log.append(float(time), "decision", "d0", {"n": time})
    head = log.head_hash()
    accounting, recovery = crash_and_recover(log)
    assert accounting == {"lost": 0, "kind": "audit", "journaled": True}
    assert recovery == {"replayed": 5, "lost": 0, "gap": False}
    assert len(log) == 5
    assert log.head_hash() == head                 # bit-for-bit the same chain
    assert log.verify()
    assert log.gap_entries() == []


def test_unflushed_tail_is_lost_and_admitted_by_a_gap_entry():
    storage, log = journaled_log(flush_every=3)
    for time in range(5):                          # 3 flushed, 2 buffered
        log.append(float(time), "decision", "d0")
    assert log.durable_entries() == 3
    accounting, recovery = crash_and_recover(log)
    assert accounting["lost"] == 2
    assert recovery == {"replayed": 3, "lost": 2, "gap": True}
    assert log.verify()
    (gap,) = log.gap_entries()
    assert gap.kind == GAP_KIND
    assert gap.detail["lost_entries"] == 2
    assert gap.detail["torn_tail"] is False
    # The chain *resumes from the recovered head*: the gap entry links to
    # the last surviving hash, and later appends link through the gap.
    assert gap.prev_hash == log._entries[2].entry_hash
    entry = log.append(9.0, "decision", "d0")
    assert entry.prev_hash == gap.entry_hash
    assert log.verify()


def test_torn_journal_tail_recovers_prefix_with_gap():
    storage, log = journaled_log()
    for time in range(4):
        log.append(float(time), "decision", "d0")
    storage.corrupt_tail("d0.audit", drop_bytes=5)     # tears the last frame
    accounting, recovery = crash_and_recover(log)
    assert recovery["replayed"] == 3
    assert recovery["gap"] is True
    (gap,) = log.gap_entries()
    assert gap.detail["torn_tail"] is True
    assert log.verify()


def test_appends_while_crashed_are_dropped():
    storage, log = journaled_log()
    log.append(0.0, "decision", "d0")
    log.crash_volatile()
    assert log.append(1.0, "ghost", "d0") is None      # process is down
    assert log.checkpoint() is None                    # ditto snapshots
    log.recover()
    assert [entry.kind for entry in log.entries()] == ["decision"]
    assert log.verify()


def test_checkpoint_compacts_and_recovery_replays_snapshot_plus_tail():
    storage, log = journaled_log()
    for time in range(4):
        log.append(float(time), "decision", "d0")
    assert log.checkpoint() == 4
    log.append(4.0, "decision", "d0")
    accounting, recovery = crash_and_recover(log)
    assert recovery == {"replayed": 5, "lost": 0, "gap": False}
    assert log.verify()
    assert len(log) == 5


def test_tampered_journal_with_recomputed_crc_breaks_the_hash_chain():
    """A deliberate edit can refresh the CRC so the *journal* replays it
    happily — but the recovered chain's hashes no longer connect, and
    recovery raises instead of resuming a forged history."""
    storage, log = journaled_log()
    log.append(0.0, "decision", "d0", {"value": 1})
    log.append(1.0, "decision", "d0", {"value": 2})

    blob = storage.read("d0.audit")
    length, _crc = HEADER.unpack_from(blob, 0)
    body = json.loads(blob[HEADER.size:HEADER.size + length].decode("utf-8"))
    body["detail"]["value"] = 999                      # the forgery
    forged = json.dumps(body, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    storage.write("d0.audit",
                  HEADER.pack(len(forged), zlib.crc32(forged)) + forged
                  + blob[HEADER.size + length:])

    log.crash_volatile()
    with pytest.raises(AuditError):
        log.recover()


def test_mid_chain_edit_still_detected_after_recovery():
    storage, log = journaled_log()
    for time in range(4):
        log.append(float(time), "decision", "d0", {"n": time})
    crash_and_recover(log)
    assert log.verify()
    import dataclasses
    log._entries[1] = dataclasses.replace(log._entries[1], detail={"n": 99})
    with pytest.raises(AuditError):
        log.verify()


def test_journal_less_log_loses_everything_but_reports_it():
    log = AuditLog()
    for time in range(3):
        log.append(float(time), "decision", "d0")
    accounting, recovery = crash_and_recover(log)
    assert accounting == {"lost": 3, "kind": "audit", "journaled": False}
    assert recovery == {"replayed": 0, "lost": 3, "gap": True}
    (gap,) = log.gap_entries()
    assert gap.detail["lost_entries"] == 3
    assert gap.detail["resumed_from"] == "0" * 64      # back to genesis
    assert log.verify()


def test_durable_entries_tracks_flush_state():
    storage, log = journaled_log(flush_every=2)
    assert log.durable_entries() == 0
    log.append(0.0, "a", "d0")
    assert log.durable_entries() == 0                  # still buffered
    log.append(1.0, "b", "d0")
    assert log.durable_entries() == 2                  # auto-flush hit
    assert AuditLog().durable_entries() == 0


# -- segmented checkpoints --------------------------------------------------------


def test_checkpoints_encode_each_entry_once(monkeypatch):
    """K checkpoints over N entries encode N entries in total — each
    checkpoint only what was appended since the previous one — not the
    whole chain every time (about N*K/2)."""
    storage, log = journaled_log()
    encoded = 0
    to_payload = AuditEntry.to_payload

    def counting(entry):
        nonlocal encoded
        encoded += 1
        return to_payload(entry)

    monkeypatch.setattr(AuditEntry, "to_payload", counting)
    checkpoint_encodes = 0
    for batch in range(8):
        for n in range(5):
            log.append(float(batch), "decision", "d0", {"n": n})
        before = encoded
        log.checkpoint()
        checkpoint_encodes += encoded - before
    assert checkpoint_encodes == len(log) == 40


def test_multi_segment_checkpoints_recover_the_exact_chain():
    storage, log = journaled_log()
    for batch in range(3):
        for n in range(4):
            log.append(float(batch * 4 + n), "decision", "d0", {"n": n})
        log.checkpoint()
    log.append(12.0, "decision", "d0")                 # post-snapshot tail
    before = log.entries()
    accounting, recovery = crash_and_recover(log)
    assert accounting["lost"] == 0
    assert recovery == {"replayed": 13, "lost": 0, "gap": False}
    assert log.entries() == before                     # entry for entry
    assert log.verify()


def test_checkpoint_after_snapshot_damage_heals_the_blob():
    """Damage to the snapshot blob between two checkpoints must not be
    carried forward: the next checkpoint rewrites the whole chain, so a
    later crash still recovers everything."""
    storage, log = journaled_log()
    for time in range(4):
        log.append(float(time), "decision", "d0")
    log.checkpoint()
    storage.corrupt_tail("d0.audit.snap", flip_bit=9)
    for time in range(4, 6):
        log.append(float(time), "decision", "d0")
    log.checkpoint()
    # The blob is intact again: one segment, the whole chain.
    blob = storage.read("d0.audit.snap")
    length, crc = HEADER.unpack_from(blob, 0)
    body = blob[HEADER.size:]
    assert len(body) == length and zlib.crc32(body) == crc
    assert len(json.loads(body)["state"]["entries"]) == 6
    before = log.entries()
    accounting, recovery = crash_and_recover(log)
    assert recovery == {"replayed": 6, "lost": 0, "gap": False}
    assert log.entries() == before
    assert log.verify()
