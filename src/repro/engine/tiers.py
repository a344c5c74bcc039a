"""Process-level store tiers above the on-disk artifact directory.

The on-disk :class:`~repro.engine.artifacts.ArtifactStore` (T1) sits
under two in-process tiers, mirroring the paper's argument that a
small well-placed cache absorbs almost all traffic:

T0 -- :class:`MemoryTier`
    A byte-bounded in-process LRU of *deserialized* artifacts, shared
    by every :class:`~repro.engine.runner.Engine` and store instance in
    the process.  Entries remember the identities ``(size, mtime_ns,
    inode)`` of the files they stand for (payload and sidecar), as the
    read that filled them or the publish that wrote them took them
    from descriptors, and re-stat on every hit, so anything rewritten,
    quarantined or cleared on disk reads as a miss instead of serving
    stale bytes.  Budget: :data:`DEFAULT_MEMORY_BYTES`.

T0 -- :class:`DigestCache`
    Verify-once SHA-256 memoization keyed by the same identity: an
    unchanged file is hashed at most once per process.  Identities come
    only from descriptors: a publish records the digest of the bytes it
    wrote under the ``fstat`` identity of the file it wrote, and the
    store's one check looks a file up under the ``fstat`` identity of
    the descriptor it opened, so neither costs a ``stat``.  A check
    records a digest it hashed only when a second ``fstat`` still shows
    the identity taken before hashing, so a file rewritten mid-hash is
    hashed again next time.

Keeping the tiers in their own module (with no imports from
:mod:`~repro.engine.artifacts`) lets the store, the fault-injection
helpers and the CLI all reach the same process-wide instances without
an import cycle.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Optional

#: T0 budget.  Profiles and address streams at reproduction scale are
#: a few MB each, so this holds a whole experiment grid.
DEFAULT_MEMORY_BYTES = 256 * 1024 * 1024

#: Bound on digest-cache entries (each ~100 bytes); far above any real
#: store's file count, present only so a pathological scan cannot grow
#: without limit.
DIGEST_CACHE_ENTRIES = 1 << 16

#: Sentinel distinguishing "cached None" from "not cached".
MISS = object()


def stat_identity(status) -> tuple:
    """The freshness identity ``(size, mtime_ns, inode)`` of a
    ``stat`` or ``fstat`` result."""
    return (status.st_size, status.st_mtime_ns, status.st_ino)


def _stat_key(path) -> Optional[tuple]:
    """The freshness identity of a file, or ``None`` when it does not
    exist."""
    try:
        return stat_identity(os.stat(path))
    except OSError:
        return None


class DigestCache:
    """Verify-once SHA-256 cache keyed by ``(path, size, mtime_ns,
    inode)``.  Thread-safe; bounded LRU."""

    def __init__(self, max_entries: int = DIGEST_CACHE_ENTRIES):
        self.max_entries = int(max_entries)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, path, identity: tuple) -> Optional[str]:
        """The digest recorded for ``path`` at ``identity``, or ``None``
        (counted as a hit or a miss)."""
        key = str(path)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == identity:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1]
            self.misses += 1
            return None

    def remember(self, path, identity: tuple, digest: str) -> None:
        """Record ``digest`` as the content of ``path`` at ``identity``,
        an identity taken from a descriptor of the bytes hashed."""
        key = str(path)
        with self._lock:
            self._entries[key] = (identity, digest)
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
        #: tuple of (path, identity) pairs; every one must still match
        #: on disk for the entry to count as fresh.
        self.anchors = anchors


class MemoryTier:
    """Byte-bounded process-wide LRU of deserialized artifacts (T0).

    Keys are ``(store_root, kind, fingerprint)``; every entry carries
    the identities of the files it stands for and :meth:`get` re-stats
    to revalidate, so on-disk tampering, clears and quarantines
    invalidate instead of serving stale values.
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

    def put(self, key, anchors, value, nbytes: int) -> None:
        """Insert (write-through or fill) one deserialized artifact,
        evicting least-recently-used entries past the byte budget.  A
        value larger than the whole budget is not cached.

        ``anchors`` are the ``(path, identity)`` of every file the value
        stands for, each identity taken from a descriptor of that file:
        by the read that filled the value, or by the publish that wrote
        it.  So a file replaced since reads as a miss."""
        nbytes = int(nbytes)
        if nbytes > self.max_bytes:
            return
        anchors = tuple((str(path), identity) for path, identity in anchors)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = _Entry(value, nbytes, anchors)
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

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {"max_bytes": self.max_bytes, "bytes": self._bytes,
                    "entries": len(self._entries),
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "invalidations": self.invalidations,
                    "hit_rate": self.hits / lookups if lookups else 0.0}


_MEMORY = MemoryTier()
_DIGESTS = DigestCache()


def memory_tier() -> MemoryTier:
    """The process-wide T0."""
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
