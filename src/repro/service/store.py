"""Persistent, content-addressed artifact store shared between processes.

:class:`DiskArtifactStore` implements the
:class:`~repro.api.cache.ArtifactStoreBackend` protocol over a directory
tree, so an :class:`~repro.api.cache.ArtifactCache` constructed with
``backend=DiskArtifactStore(path)`` transparently reuses every artifact any
earlier (or concurrent) process computed for a structurally identical
(sub)tree.

Design points:

* **Content addressing.**  Entries live at
  ``<root>/v<FORMAT_VERSION>/<kind-slug>/<hh>/<hash>.art`` where ``hash`` is
  the cache's own key, the structure hash of a (sub)tree.  Identical keys
  imply identical values (the keys are content hashes over everything that
  influences the artifact, and no artifact depends on probabilities), so
  concurrent writers racing on one entry are benign — whichever atomic
  rename lands last installs the same bytes.
* **Atomic writes.**  Every entry is written to a unique temporary file in
  the destination directory and published with :func:`os.replace`; a reader
  can never observe a half-written entry under its final name, and a crashed
  writer leaves only a ``*.tmp*`` file that is ignored (and swept by
  :meth:`sweep_temp_files`).
* **Versioned format with integrity checks.**  Each file carries a magic
  tag, a format version and a SHA-256 digest of the pickled payload.  A torn,
  truncated or bit-flipped entry fails verification, is treated as a miss and
  is deleted so it cannot poison later readers.  Bumping
  :data:`FORMAT_VERSION` retires old entries wholesale (they live under a
  different version directory) instead of misreading them.
* **Best-effort durability.**  ``store`` never raises on unpicklable values
  or filesystem trouble — the memory tier still holds the artifact and the
  analysis proceeds; the failure is only counted (``errors`` /
  ``skipped_unpicklable`` in :meth:`stats`).
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import re
import struct
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.api.cache import ARTIFACT_CAMPAIGN_LEDGER, ArtifactStoreBackend
from repro.observability.log import log_event
from repro.observability.metrics import get_metrics

__all__ = ["DiskArtifactStore", "FORMAT_VERSION", "MAGIC", "open_store"]

#: Magic tag opening every artifact file.
MAGIC = b"RPROART1"
#: On-disk format version; bump to orphan (not misread) old entries.
FORMAT_VERSION = 1

#: Header layout after the magic: format version, payload length, SHA-256
#: digest of the payload.  Fixed-size so verification reads are trivial.
_HEADER = struct.Struct(">IQ32s")

_SLUG_RE = re.compile(r"[^a-z0-9_-]+")


def _kind_slug(kind: str) -> str:
    """Filesystem-safe directory name for an artifact kind."""
    slug = _SLUG_RE.sub("-", kind.lower()).strip("-")
    return slug or "unknown"


class DiskArtifactStore(ArtifactStoreBackend):
    """Disk-backed second tier for :class:`~repro.api.cache.ArtifactCache`.

    Parameters
    ----------
    root:
        Directory holding the store (created on demand).  Multiple processes
        may point at the same root concurrently.
    protocol:
        Pickle protocol for payloads; defaults to
        :data:`pickle.HIGHEST_PROTOCOL`.
    fsync:
        When true, fsync every entry before publishing it.  Off by default —
        the store is a cache: losing an entry on power failure only costs a
        recomputation, while fsync per artifact costs milliseconds each.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        *,
        protocol: int = pickle.HIGHEST_PROTOCOL,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root)
        self.protocol = protocol
        self.fsync = fsync
        self._version_dir = self.root / f"v{FORMAT_VERSION}"
        self._version_dir.mkdir(parents=True, exist_ok=True)
        # The store deserialises pickles, so its directory is a trust
        # boundary: anyone who can write it can execute code in every
        # process that reads it.  Keep it private to the owning user
        # (best effort — e.g. FAT filesystems have no mode bits).
        try:
            os.chmod(self.root, 0o700)
        except OSError:
            pass
        self._entries_memo: Optional[Tuple[float, int]] = None
        # One handle is shared by every worker thread (the pool deliberately
        # shares it so the statistics cover the whole service), so the memo's
        # read-modify-write updates need a lock to not lose counts.
        self._memo_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "loads": 0,
            "load_hits": 0,
            "load_misses": 0,
            "writes": 0,
            "corrupt_dropped": 0,
            "skipped_unpicklable": 0,
            "errors": 0,
            "gc_runs": 0,
            "gc_removed": 0,
            "gc_removed_bytes": 0,
            "gc_protected": 0,
        }

    # -- key -> path mapping ----------------------------------------------------------

    def path_for(self, key_hash: str, kind: str) -> Path:
        """The on-disk location of the entry for ``(key_hash, kind)``."""
        return self._version_dir / _kind_slug(kind) / key_hash[:2] / f"{key_hash}.art"

    # -- ArtifactStoreBackend protocol ------------------------------------------------

    def load(self, key_hash: str, kind: str) -> Tuple[bool, Any]:
        """Read and verify one entry; corrupt entries count as misses and are dropped."""
        self._counters["loads"] += 1
        registry = get_metrics()
        registry.inc("repro_store_reads_total", kind=kind)
        path = self.path_for(key_hash, kind)
        try:
            blob = path.read_bytes()
        except OSError:
            self._counters["load_misses"] += 1
            return False, None
        value, ok = self._decode(blob)
        if not ok:
            self._counters["corrupt_dropped"] += 1
            self._counters["load_misses"] += 1
            registry.inc("repro_store_dropped_entries_total", reason="corrupt", kind=kind)
            log_event(
                "service.store",
                "corrupt_entry_dropped",
                kind=kind,
                key=key_hash,
                path=str(path),
            )
            self._unlink_quietly(path)
            return False, None
        self._counters["load_hits"] += 1
        return True, value

    def discard(self, key_hash: str) -> int:
        """Remove every kind stored under ``key_hash``; returns the count.

        Backs :meth:`ArtifactCache.invalidate` for store-backed caches; the
        scan is one glob per kind directory, not a full store walk.
        """
        removed = 0
        for path in self._version_dir.glob(f"*/{key_hash[:2]}/{key_hash}.art"):
            self._unlink_quietly(path)
            removed += 1
        return removed

    def store(self, key_hash: str, kind: str, value: Any) -> None:
        """Atomically persist one entry; never raises (best-effort tier)."""
        registry = get_metrics()
        try:
            payload = pickle.dumps(value, protocol=self.protocol)
        except Exception as exc:  # noqa: BLE001 - unpicklable artifacts are skipped
            self._counters["skipped_unpicklable"] += 1
            registry.inc(
                "repro_store_dropped_entries_total", reason="unpicklable", kind=kind
            )
            log_event(
                "service.store",
                "unpicklable_entry_skipped",
                kind=kind,
                key=key_hash,
                error=type(exc).__name__,
            )
            return
        blob = self._encode(payload)
        path = self.path_for(key_hash, kind)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key_hash[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                    if self.fsync:
                        handle.flush()
                        os.fsync(handle.fileno())
                # Keep the memoised entry count fresh under heavy writing: a
                # brand-new entry bumps the count in place (overwrites leave
                # it unchanged).  The existence check, the publishing rename
                # and the bump form one critical section so two threads
                # racing on the same new key cannot both count it; the memo's
                # timestamp is deliberately untouched so the periodic full
                # recount still reconciles entries written by *other*
                # processes sharing the store directory.
                with self._memo_lock:
                    existed = path.is_file()
                    os.replace(temp_name, path)
                    if not existed and self._entries_memo is not None:
                        self._entries_memo = (
                            self._entries_memo[0],
                            self._entries_memo[1] + 1,
                        )
            except BaseException:
                self._unlink_quietly(Path(temp_name))
                raise
            self._counters["writes"] += 1
            registry.inc("repro_store_writes_total", kind=kind)
        except OSError as exc:
            self._counters["errors"] += 1
            registry.inc(
                "repro_store_dropped_entries_total", reason="io_error", kind=kind
            )
            log_event(
                "service.store",
                "write_failed",
                kind=kind,
                key=key_hash,
                error=type(exc).__name__,
            )

    # -- wire format ------------------------------------------------------------------

    def _encode(self, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).digest()
        buffer = io.BytesIO()
        buffer.write(MAGIC)
        buffer.write(_HEADER.pack(FORMAT_VERSION, len(payload), digest))
        buffer.write(payload)
        return buffer.getvalue()

    @staticmethod
    def _decode(blob: bytes) -> Tuple[Any, bool]:
        """``(value, ok)``; ``ok`` is false for torn/corrupt/foreign content."""
        header_end = len(MAGIC) + _HEADER.size
        if len(blob) < header_end or not blob.startswith(MAGIC):
            return None, False
        version, length, digest = _HEADER.unpack_from(blob, len(MAGIC))
        payload = blob[header_end:]
        if version != FORMAT_VERSION or len(payload) != length:
            return None, False
        if hashlib.sha256(payload).digest() != digest:
            return None, False
        try:
            return pickle.loads(payload), True
        except Exception:  # obs-exempt: load() logs and counts corrupt_dropped
            return None, False

    # -- maintenance ------------------------------------------------------------------

    def __contains__(self, key: Tuple[str, str]) -> bool:
        key_hash, kind = key
        return self.path_for(key_hash, kind).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def _entry_paths(self) -> Iterator[Path]:
        yield from self._version_dir.glob("*/*/*.art")

    def _unlink_quietly(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def sweep_temp_files(self) -> int:
        """Remove temporary files abandoned by crashed writers; returns the count."""
        removed = 0
        for leftover in self._version_dir.glob("*/*/.*.tmp*"):
            self._unlink_quietly(leftover)
            removed += 1
        return removed

    def clear(self) -> int:
        """Delete every entry of the current format version; returns the count."""
        removed = 0
        for path in list(self._entry_paths()):
            self._unlink_quietly(path)
            removed += 1
        return removed

    def _protected_ledger_paths(self) -> "set[Path]":
        """Campaign-ledger entries that :meth:`gc` must never evict.

        Evicting the completion ledger of a campaign that is still running
        (or was killed mid-run and will be resumed) would silently turn its
        resume into a full recomputation, so every ledger record — chunk and
        state alike — of a campaign whose state is not terminal is protected.
        A campaign with no readable state record is treated as non-terminal:
        the conservative default keeps a crashed-before-first-state-write
        campaign resumable.
        """
        ledger_dir = self._version_dir / _kind_slug(ARTIFACT_CAMPAIGN_LEDGER)
        records: "list[Tuple[Path, Dict[str, Any]]]" = []
        status_by_campaign: Dict[str, str] = {}
        for path in ledger_dir.glob("*/*.art"):
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            value, ok = self._decode(blob)
            if not ok or not isinstance(value, dict):
                continue  # corrupt/foreign: not protected, normal gc applies
            campaign = value.get("campaign")
            if not isinstance(campaign, str):
                continue
            records.append((path, value))
            if "spec" in value and isinstance(value.get("status"), str):
                status_by_campaign[campaign] = value["status"]
        terminal = ("done", "failed")
        return {
            path
            for path, value in records
            if status_by_campaign.get(value["campaign"]) not in terminal
        }

    def gc(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> Dict[str, int]:
        """Evict entries by age and/or total size; returns a removal summary.

        ``max_age_s`` drops every entry older than that many seconds (by
        mtime — an overwrite refreshes it).  ``max_bytes`` then evicts
        oldest-first until the store fits the budget.  Both are optional and
        compose; calling with neither is a no-op.  Ledger entries of
        non-terminal campaigns are never evicted (see
        :meth:`_protected_ledger_paths`) — they are the resume state of
        in-flight work, not reproducible cache content.  Eviction totals
        accumulate in :meth:`stats` (``gc_removed``, ``gc_removed_bytes``,
        ``gc_protected``).
        """
        now = time.time()
        removed = 0
        removed_bytes = 0
        protected_kept = 0
        protected = self._protected_ledger_paths() if (
            max_bytes is not None or max_age_s is not None
        ) else set()

        entries: "list[Tuple[float, int, Path]]" = []
        for path in self._entry_paths():
            try:
                info = path.stat()
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path))

        survivors: "list[Tuple[float, int, Path]]" = []
        for mtime, size, path in entries:
            if max_age_s is not None and now - mtime > max_age_s:
                if path in protected:
                    protected_kept += 1
                    survivors.append((mtime, size, path))
                    continue
                self._unlink_quietly(path)
                removed += 1
                removed_bytes += size
                continue
            survivors.append((mtime, size, path))

        if max_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            for mtime, size, path in sorted(survivors):
                if total <= max_bytes:
                    break
                if path in protected:
                    protected_kept += 1
                    continue
                self._unlink_quietly(path)
                removed += 1
                removed_bytes += size
                total -= size

        with self._memo_lock:
            self._entries_memo = None  # force a recount at the next stats()
            self._counters["gc_runs"] += 1
            self._counters["gc_removed"] += removed
            self._counters["gc_removed_bytes"] += removed_bytes
            self._counters["gc_protected"] += protected_kept
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "protected": protected_kept,
        }

    def size_bytes(self) -> int:
        """Total payload bytes currently on disk (entries of this version)."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    #: How long a counted on-disk entry total stays fresh in :meth:`stats`.
    ENTRIES_MEMO_TTL_S = 15.0

    def stats(self) -> Dict[str, Any]:
        """Process-local operation counters plus the on-disk entry count.

        Counting entries walks the store directory (O(entries)); the count is
        memoised for :data:`ENTRIES_MEMO_TTL_S` so a monitoring loop polling
        ``/health`` does not turn into a continuous filesystem scan.  Writes
        of *new* entries through this handle bump the memoised count in place
        (see :meth:`store`), so ``entries`` stays accurate during heavy
        writing; entries created by other processes appear at the next
        TTL-driven recount.
        """
        now = time.monotonic()
        with self._memo_lock:
            memo = self._entries_memo
        if memo is None or now - memo[0] > self.ENTRIES_MEMO_TTL_S:
            # len(self) walks the directory: keep it outside the lock, and
            # re-check on publication so a racing recount is not regressed.
            memo = (now, len(self))
            with self._memo_lock:
                if self._entries_memo is None or self._entries_memo[0] < now:
                    self._entries_memo = memo
                memo = self._entries_memo
        stats: Dict[str, Any] = dict(self._counters)
        stats["entries"] = memo[1]
        stats["root"] = str(self.root)
        stats["format_version"] = FORMAT_VERSION
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskArtifactStore(root={str(self.root)!r})"


def open_store(path: "Optional[str | os.PathLike[str]]") -> Optional[DiskArtifactStore]:
    """``DiskArtifactStore(path)`` or ``None`` when no path is configured."""
    return DiskArtifactStore(path) if path is not None else None
