"""Directory-backed stable storage: the E18 journal contract on disk.

:class:`FileStorage` implements the :class:`~repro.store.stable.
StableStorage` surface over a real directory, one file per blob, so the
CRC-framed :class:`~repro.store.journal.Journal` (torn-tail truncation,
snapshot compaction, sequence anchoring) persists across *processes*,
not just across simulated crashes.  This is what the telemetry
warehouse (E24) journals into: an interrupted ingest leaves a torn tail
the next open truncates away, exactly like a device journal after a
power cut.

Write semantics mirror what the journal expects from flash:

* :meth:`append` is an ``O_APPEND``-mode write followed by a flush —
  the frame either lands whole or lands torn, and a torn tail is the
  journal's problem to detect (its CRC framing exists for this).  That
  covers snapshot segments too: a crash mid-segment leaves the ``.snap``
  blob ending in a torn frame, which the next open cuts away while
  keeping the segments before it;
* :meth:`write` (journal compaction, and the rewrite of a damaged
  snapshot blob) goes through a temp file + ``os.replace`` so a crash
  mid-write leaves the previous blob intact, never a half-written one;
* blob names map to file names directly, so they must be simple
  (no path separators, no traversal).
"""

from __future__ import annotations

import os

from repro.errors import StorageError
from repro.store.stable import StableStorage

_FORBIDDEN = ("/", "\\", "\x00")


class FileStorage(StableStorage):
    """Named byte blobs as files under one directory."""

    def __init__(self, dirpath: str):
        super().__init__()
        self.dirpath = dirpath
        os.makedirs(dirpath, exist_ok=True)

    def _path(self, name: str) -> str:
        if not name or name in (".", "..") or any(
                sep in name for sep in _FORBIDDEN):
            raise StorageError(f"illegal blob name {name!r}")
        return os.path.join(self.dirpath, name)

    # -- basic blob IO ---------------------------------------------------------

    def append(self, name: str, data: bytes) -> None:
        with open(self._path(name), "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        self.appends += 1
        self.bytes_written += len(data)

    def write(self, name: str, data: bytes) -> None:
        path = self._path(name)
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        self.appends += 1
        self.bytes_written += len(data)

    def read(self, name: str) -> bytes:
        path = self._path(name)
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as handle:
            return handle.read()

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def delete(self, name: str) -> None:
        path = self._path(name)
        if os.path.exists(path):
            os.remove(path)

    def names(self, prefix: str = "") -> list:
        return sorted(
            entry for entry in os.listdir(self.dirpath)
            if entry.startswith(prefix) and not entry.endswith(".tmp")
            and os.path.isfile(os.path.join(self.dirpath, entry))
        )

    def size(self, name: str) -> int:
        path = self._path(name)
        return os.path.getsize(path) if os.path.exists(path) else 0

    def truncate(self, name: str, length: int) -> None:
        path = self._path(name)
        if not os.path.exists(path):
            raise StorageError(f"no blob named {name!r} to truncate")
        current = os.path.getsize(path)
        if length < 0 or length > current:
            raise StorageError(
                f"cannot truncate {name!r} ({current} bytes) to {length}"
            )
        with open(path, "r+b") as handle:
            handle.truncate(length)

    # -- fault hooks -----------------------------------------------------------

    def corrupt_tail(self, name: str, drop_bytes: int = 0,
                     flip_bit=None) -> dict:
        """Same damage model as the in-memory storage, applied on disk
        (tests exercise recovery of a warehouse whose last ingest tore)."""
        path = self._path(name)
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            return {"dropped": 0, "flipped": None}
        size = os.path.getsize(path)
        dropped = min(max(0, drop_bytes), size)
        if dropped:
            with open(path, "r+b") as handle:
                handle.truncate(size - dropped)
            size -= dropped
        flipped = None
        if flip_bit is not None and size:
            offset = size - 1 - min(flip_bit // 8, size - 1)
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)[0]
                handle.seek(offset)
                handle.write(bytes([byte ^ (1 << (flip_bit % 8))]))
            flipped = offset
        return {"dropped": dropped, "flipped": flipped}
