"""Process-level store tiers above the on-disk artifact directory.

The on-disk :class:`~repro.engine.artifacts.ArtifactStore` (T1) sits
under two in-process tiers, mirroring the paper's argument that a
small well-placed cache absorbs almost all traffic:

T0 -- :class:`MemoryTier`
    A byte-bounded in-process LRU of *deserialized* artifacts, shared
    by every :class:`~repro.engine.runner.Engine` and store instance in
    the process.  Entries remember the stat identities ``(size,
    mtime_ns, inode)`` of the files they came from (payload and
    sidecar) and re-stat on every hit, so anything rewritten,
    quarantined or cleared on disk reads as a miss instead of serving
    stale bytes.  Budget: ``REPRO_STORE_MEMORY_BYTES`` (default
    256 MiB; ``0`` disables the tier).

T0 -- :class:`DigestCache`
    Verify-once SHA-256 memoization keyed by the same stat identity:
    an unchanged file is hashed at most once per process, turning the
    per-load full-file re-verify into a single ``stat``.
    ``REPRO_STORE_VERIFY=always`` restores hash-every-load.

Keeping the tiers in their own module (with no imports from
:mod:`~repro.engine.artifacts`) lets the store, the fault-injection
helpers and the CLI all reach the same process-wide instances without
an import cycle.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional

#: Default T0 budget.  Profiles and address streams at reproduction
#: scale are a few MB each, so this holds a whole experiment grid.
DEFAULT_MEMORY_BYTES = 256 * 1024 * 1024

#: Bound on digest-cache entries (each ~100 bytes); far above any real
#: store's file count, present only so a pathological scan cannot grow
#: without limit.
DIGEST_CACHE_ENTRIES = 1 << 16

#: Sentinel distinguishing "cached None" from "not cached".
MISS = object()


def file_digest(path) -> str:
    """SHA-256 of a file's bytes.  On Python >= 3.11
    :func:`hashlib.file_digest` keeps the read loop in C; the fallback
    streams 1 MiB blocks."""
    with open(path, "rb") as handle:
        if hasattr(hashlib, "file_digest"):
            return hashlib.file_digest(handle, "sha256").hexdigest()
        digest = hashlib.sha256()
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
        return digest.hexdigest()


def _stat_key(path) -> Optional[tuple]:
    """The freshness identity of a file: ``(size, mtime_ns, inode)``,
    or ``None`` when it does not exist."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return (status.st_size, status.st_mtime_ns, status.st_ino)


class DigestCache:
    """Verify-once SHA-256 cache keyed by ``(path, size, mtime_ns,
    inode)``.  Thread-safe; bounded LRU."""

    def __init__(self, max_entries: int = DIGEST_CACHE_ENTRIES):
        self.max_entries = int(max_entries)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def digest(self, path) -> str:
        """The file's SHA-256, hashed at most once per (unchanged)
        file per process."""
        if os.environ.get("REPRO_STORE_VERIFY") == "always":
            return file_digest(path)
        key = str(path)
        stat = _stat_key(key)
        if stat is not None:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry[0] == stat:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry[1]
        value = file_digest(path)
        # Re-stat *after* hashing: a file rewritten mid-hash must not
        # pin its new identity to the old content's digest.
        stat = _stat_key(key)
        with self._lock:
            self.misses += 1
            if stat is not None:
                self._entries[key] = (stat, value)
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        return value

    def record(self, path, digest: str) -> None:
        """Seed the cache for a file this process just hashed while
        publishing it, so the first verified load costs one ``stat``."""
        key = str(path)
        stat = _stat_key(key)
        if stat is None:
            return
        with self._lock:
            self._entries[key] = (stat, digest)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def invalidate(self, path=None) -> None:
        """Forget one path, or everything when ``path`` is ``None``."""
        with self._lock:
            if path is None:
                self._entries.clear()
            else:
                self._entries.pop(str(path), None)

    def invalidate_under(self, root) -> None:
        """Forget every cached digest of a file under ``root``."""
        prefix = str(root).rstrip(os.sep) + os.sep
        with self._lock:
            for key in [k for k in self._entries if k.startswith(prefix)]:
                del self._entries[key]

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {"entries": len(self._entries), "hits": self.hits,
                    "misses": self.misses,
                    "hit_rate": self.hits / lookups if lookups else 0.0}


class _Entry:
    __slots__ = ("value", "nbytes", "anchors")

    def __init__(self, value, nbytes, anchors):
        self.value = value
        self.nbytes = nbytes
        #: tuple of (path, stat_key) pairs; every one must still match
        #: on disk for the entry to count as fresh.
        self.anchors = anchors


class MemoryTier:
    """Byte-bounded process-wide LRU of deserialized artifacts (T0).

    Keys are ``(store_root, kind, fingerprint)``; every entry carries
    the stat identity of the payload file it was deserialized from and
    :meth:`get` re-stats to revalidate, so on-disk tampering, clears
    and quarantines invalidate instead of serving stale values.
    """

    def __init__(self, max_bytes: int = DEFAULT_MEMORY_BYTES):
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def get(self, key):
        """The cached value, or :data:`MISS`.  A hit whose backing
        files changed identity on disk is dropped and reads as a
        miss."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            with self._lock:
                self.misses += 1
            return MISS
        stale = any(_stat_key(path) != stat
                    for path, stat in entry.anchors)
        with self._lock:
            if stale:
                survivor = self._entries.pop(key, None)
                if survivor is not None:
                    self._bytes -= survivor.nbytes
                self.invalidations += 1
                self.misses += 1
                return MISS
            if key in self._entries:
                self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def put(self, key, paths, value, nbytes: int) -> None:
        """Insert (write-through or fill) one deserialized artifact,
        anchored on every file in ``paths``, evicting
        least-recently-used entries past the byte budget.  A value
        larger than the whole budget is not cached."""
        nbytes = int(nbytes)
        if not self.enabled or nbytes > self.max_bytes:
            return
        if isinstance(paths, (str, Path)):
            paths = (paths,)
        anchors = []
        for path in dict.fromkeys(str(p) for p in paths):
            stat = _stat_key(path)
            if stat is None:
                return  # no durable file to revalidate against
            anchors.append((path, stat))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = _Entry(value, nbytes, tuple(anchors))
            self._bytes += nbytes
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1

    def invalidate(self, path=None) -> None:
        """Drop entries anchored on ``path`` (every entry when
        ``None``)."""
        with self._lock:
            if path is None:
                self._entries.clear()
                self._bytes = 0
                return
            wanted = str(path)
            for key in [k for k, e in self._entries.items()
                        if any(p == wanted for p, _ in e.anchors)]:
                self._bytes -= self._entries.pop(key).nbytes
                self.invalidations += 1

    def invalidate_store(self, root) -> None:
        """Drop every entry belonging to the store rooted at
        ``root``."""
        wanted = str(root)
        with self._lock:
            for key in [k for k in self._entries if k[0] == wanted]:
                self._bytes -= self._entries.pop(key).nbytes

    def resize(self, max_bytes: int) -> None:
        """Change the byte budget, evicting down to it."""
        with self._lock:
            self.max_bytes = int(max_bytes)
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {"enabled": self.enabled, "max_bytes": self.max_bytes,
                    "bytes": self._bytes, "entries": len(self._entries),
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "invalidations": self.invalidations,
                    "hit_rate": self.hits / lookups if lookups else 0.0}


def _memory_budget_from_env() -> int:
    raw = os.environ.get("REPRO_STORE_MEMORY_BYTES")
    if raw is None:
        return DEFAULT_MEMORY_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_MEMORY_BYTES


_MEMORY = MemoryTier(_memory_budget_from_env())
_DIGESTS = DigestCache()


def memory_tier() -> MemoryTier:
    """The process-wide T0, re-reading the environment budget so tests
    and benchmarks can resize/disable it between runs."""
    budget = _memory_budget_from_env()
    if budget != _MEMORY.max_bytes:
        _MEMORY.resize(budget)
    return _MEMORY


def digest_cache() -> DigestCache:
    """The process-wide verify-once digest cache."""
    return _DIGESTS


def invalidate_path(path) -> None:
    """Drop every process-level cache entry backed by ``path`` -- the
    hook on-disk tampering (tests' fault injection, quarantines) uses
    so T0 can never mask what the disk tier would detect."""
    _MEMORY.invalidate(path)
    _DIGESTS.invalidate(path)


def clear_process_caches() -> None:
    """Empty T0 and the digest cache (counters are kept)."""
    _MEMORY.invalidate(None)
    _DIGESTS.invalidate(None)
