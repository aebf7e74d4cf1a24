"""The warehouse row: one run, one schema-versioned, content-addressed record.

A :class:`RunRecord` is the normalized form every ingested artifact —
telemetry bundle, ``BENCH_*.json``, ``run_matrix`` cell — collapses
into: an identity (:class:`RunKey`), a flat ``{metric: float}`` mapping
queries address, and a context dict for the non-numeric facts
(protocols, quick-mode flags, manifest metadata) the sentinel consults
when deciding whether two runs are even comparable.

Records are **content-addressed**: :meth:`RunRecord.digest` hashes the
canonical JSON of everything but the digest itself, and the store
refuses duplicates — re-ingesting the same bundle is a no-op by
construction, not by caller discipline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.canonical import canonical_json

#: Warehouse record schema.  Bump on any key-meaning change; the store
#: keeps old-schema rows readable but stamps every new row with this.
SCHEMA_VERSION = 1

#: Record kinds the warehouse knows.
KINDS = ("bundle", "bench", "matrix", "synthetic")


def flatten_numeric(obj, prefix: str = "", out: Optional[dict] = None) -> dict:
    """Collapse nested dicts/lists into ``{dotted.path: float}``.

    Only numeric leaves survive (bools are *facts*, not measurements —
    they land in record context, never in metrics); list elements are
    indexed (``per_trial_overhead_pct.0``).  This is the one shape the
    query layer addresses, whatever the artifact looked like.
    """
    flat = out if out is not None else {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            name = f"{prefix}.{key}" if prefix else str(key)
            flatten_numeric(obj[key], name, flat)
    elif isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            name = f"{prefix}.{index}" if prefix else str(index)
            flatten_numeric(item, name, flat)
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        value = float(obj)
        if value == value:               # NaN carries no comparable signal
            flat[prefix] = value
    return flat


@dataclass(frozen=True)
class RunKey:
    """What identifies a run across the whole history: which experiment,
    which ablation arm, which seed, which revision of the code."""

    experiment: str
    arm: str = ""
    seed: Optional[int] = None
    git_rev: str = "unknown"

    def to_dict(self) -> dict:
        return {"experiment": self.experiment, "arm": self.arm,
                "seed": self.seed, "git_rev": self.git_rev}

    @staticmethod
    def from_dict(raw: dict) -> "RunKey":
        seed = raw.get("seed")
        return RunKey(str(raw.get("experiment", "")),
                      str(raw.get("arm", "") or ""),
                      int(seed) if seed is not None else None,
                      str(raw.get("git_rev", "unknown")))

    def label(self) -> str:
        parts = [self.experiment]
        if self.arm:
            parts.append(self.arm)
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        parts.append(self.git_rev[:12])
        return "/".join(parts)


@dataclass
class RunRecord:
    """One ingested run: identity + flat metrics + context + provenance."""

    key: RunKey
    kind: str = "bundle"
    metrics: dict = field(default_factory=dict)
    context: dict = field(default_factory=dict)
    source: str = ""
    tag: str = ""
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown record kind {self.kind!r} "
                             f"(expected one of {KINDS})")

    # -- content addressing -----------------------------------------------------

    def digest(self) -> str:
        """SHA-256 of the canonical payload sans digest: two ingests of
        the same artifact under the same identity collide here, which is
        exactly how the store makes re-ingest a no-op."""
        payload = self.to_payload()
        payload.pop("digest", None)
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    # -- (de)serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "key": self.key.to_dict(),
            "metrics": self.metrics,
            "context": self.context,
            "source": self.source,
            "tag": self.tag,
        }

    @staticmethod
    def from_payload(payload: dict) -> "RunRecord":
        return RunRecord(
            key=RunKey.from_dict(payload.get("key", {})),
            kind=str(payload.get("kind", "bundle")),
            metrics=dict(payload.get("metrics", {})),
            context=dict(payload.get("context", {})),
            source=str(payload.get("source", "")),
            tag=str(payload.get("tag", "")),
            schema=int(payload.get("schema", 0)),
        )

    # -- metric access ----------------------------------------------------------

    def quick(self) -> bool:
        """Whether this run came from a reduced (CI quick-mode) protocol
        — the sentinel refuses to gate wall-clock families across a
        quick/full boundary."""
        return bool(self.context.get("quick", False))
