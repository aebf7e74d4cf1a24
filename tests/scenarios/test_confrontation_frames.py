"""Every stored frame of a journaled confrontation is the canonical
encoding of the record it holds.

Audit entries are framed from the text their hash was computed over,
not by encoding their payload dict (see :mod:`repro.audit.log`).  This
runs a short ``journal+snapshot`` confrontation with size-triggered
compaction and checks, blob by blob, that each frame of each journal
and ``.snap`` segment blob equals the plain ``json.dumps`` encoding of
its decoded payload, and that each audit log recovers from storage to
the head hash it had.
"""

from __future__ import annotations

import json
import zlib

from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import SafeguardConfig
from repro.store.journal import _HEADER, SNAPSHOT_SUFFIX


def reference(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str).encode("utf-8")


def frames(blob: bytes):
    """``(crc, body)`` of each frame, requiring whole frames end to end."""
    offset = 0
    while offset < len(blob):
        length, crc = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        assert start + length <= len(blob)
        yield crc, blob[start:start + length]
        offset = start + length


def test_every_frame_is_the_canonical_encoding_of_its_payload():
    scenario = ConfrontationScenario(
        seed=1, config=SafeguardConfig.full(), threats=ThreatConfig(),
        n_drones_per_org=4, n_mules_per_org=2,
        safety_transport="reliable", signed_commands=True,
        durability="journal+snapshot", compaction_policy="size",
        health=True, reputation=True,
    )
    summary = scenario.run(until=150.0)
    assert summary["compactions_sized"] > 0

    storage = scenario.storage
    names = storage.names()
    assert any(name.endswith(".audit") for name in names)
    assert any(name.endswith(".audit" + SNAPSHOT_SUFFIX) for name in names)
    checked = 0
    for name in names:
        for crc, body in frames(storage.read(name)):
            assert zlib.crc32(body) == crc, name
            assert body == reference(json.loads(body)), name
            checked += 1
    assert checked > 500

    logs = list(scenario.audits.values()) + [scenario.authz_audit,
                                            scenario.alerts.audit]
    for log in logs:
        assert log.journaled
        head, length = log.head_hash(), len(log)
        log.crash_volatile()
        report = log.recover()
        assert report == {"replayed": length, "lost": 0, "gap": False}
        assert log.head_hash() == head
