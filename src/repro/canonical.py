"""Canonical JSON: the one encoding every hash, MAC and journal frame uses.

Sorted keys, no whitespace, ASCII-only, NaN and infinities as
``NaN``/``Infinity``, and ``str()`` for anything else JSON cannot hold —
exactly ``json.dumps(payload, sort_keys=True, separators=(",", ":"),
default=str)``.  That call builds a new :class:`json.JSONEncoder` each
time; this module holds one and shares it, so the bytes are the same and
only the per-call set-up goes.
"""

from __future__ import annotations

import json

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=str)

#: ``canonical_json(payload) -> str``: the canonical text of ``payload``.
canonical_json = _ENCODER.encode
