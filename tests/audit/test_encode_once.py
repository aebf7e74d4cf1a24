"""An audit entry is encoded once, and both its hash and its journal frame
are the bytes the plain ``json.dumps`` formulation gives.

The reference below is the encoding every journal and hash used before
the entry's text was shared: ``json.dumps`` with sorted keys, compact
separators and ``default=str``, over the hash dict and over
``{"seq": seq, **entry.to_payload()}``.  Entries are drawn to make the
splice go wrong if it could: ``detail`` keys that collide with the
frame's own members, strings that need escaping, integer, numpy and
non-finite times, tuples, and values only ``default=str`` can render.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from decimal import Decimal

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.audit.log import AuditEntry, AuditLog
from repro.canonical import canonical_json
from repro.store.journal import _HEADER, Journal
from repro.store.stable import StableStorage


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def reference_frame(payload: dict) -> bytes:
    body = reference(payload).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


class Opaque:
    """A value JSON cannot hold: ``default=str`` renders it."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __str__(self) -> str:
        return f"<opaque {self.label}>"


TRICKY_TEXT = st.sampled_from([
    "", '"', "\\", '\\"', "\"seq\":1,", "},{", "drone-3", "ünïcödé",
    " ", "\x00\x1f", "\ud800", "😀", '{"hash":"x"}',
])
TEXT = st.one_of(TRICKY_TEXT, st.text(max_size=12))
KEYS = st.one_of(st.sampled_from(["seq", "subject", "index", "hash", "prev",
                                  "time", "detail", "kind"]), TEXT)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), TEXT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-10**6, 10**6).map(np.int64),
    TEXT.map(Opaque),
    st.decimals(allow_nan=False, allow_infinity=False),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(KEYS, inner, max_size=3),
    ),
    max_leaves=10,
)
DETAILS = st.one_of(st.none(), st.dictionaries(KEYS, VALUES, max_size=5))
TIMES = st.one_of(
    st.integers(0, 10**9), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.just(math.nan).map(np.float64),
)
ENTRIES = st.lists(st.tuples(TIMES, TEXT, TEXT, DETAILS), min_size=1,
                   max_size=4)


@settings(max_examples=300, deadline=None)
@given(ENTRIES)
def test_hash_and_frame_equal_the_reference_encoding(entries):
    storage = StableStorage()
    log = AuditLog(journal=Journal(storage, "a.audit"))
    expected_blob = b""
    prev = "0" * 64
    for seq, (time, kind, subject, detail) in enumerate(entries, start=1):
        entry = log.append(time, kind, subject, detail)
        hash_body = reference({"index": seq - 1, "time": time, "kind": kind,
                               "subject": subject, "detail": entry.detail,
                               "prev": prev})
        assert entry.entry_hash == hashlib.sha256(
            hash_body.encode("utf-8")).hexdigest()
        assert entry.entry_hash == AuditEntry.compute_hash(
            entry.index, entry.time, entry.kind, entry.subject,
            entry.detail, entry.prev_hash)
        expected_blob += reference_frame({"seq": seq, **entry.to_payload()})
        assert storage.read("a.audit") == expected_blob
        prev = entry.entry_hash


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_the_shared_encoder_is_the_reference(value):
    assert canonical_json(value) == reference(value)
    assert canonical_json({"v": value, "seq": 1}) == reference(
        {"v": value, "seq": 1})


def test_a_plain_append_frames_the_reference_encoding():
    storage = StableStorage()
    journal = Journal(storage, "j")
    payload = {"z": (1, 2.5), "a": Opaque("x"), "seq_": "ü", "n": math.nan,
               "d": Decimal("1.10")}
    assert journal.append(payload) == 1
    assert storage.read("j") == reference_frame({"seq": 1, **payload})
