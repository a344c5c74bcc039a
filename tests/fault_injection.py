"""Fault-injection helpers for store/engine robustness tests.

These simulate the failure modes the hardened artifact store must
absorb: writers killed between payload write and publish, disks that
fill up or go read-only mid-save, truncated/zeroed/bit-rotted
payloads, foreign archives, and temp-file litter from dead processes.
"""

from __future__ import annotations

import errno
import hashlib
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.engine import artifacts, tiers


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


class SimulatedKill(BaseException):
    """Raised at an injected kill point.  A ``BaseException`` so
    production ``except Exception`` blocks cannot absorb it, mirroring
    how SIGKILL preempts cleanup."""


@contextmanager
def killed_writer(at_replace: int = 0):
    """Simulate SIGKILL between payload write and ``os.replace``.

    The ``at_replace``-th publish raises :class:`SimulatedKill` and the
    temp-file cleanup is disabled for the duration -- exactly the
    on-disk state a killed process leaves behind: ``*.tmp*`` litter,
    nothing (or only earlier files) published.  ``at_replace=1`` kills
    between a payload's publish and its sidecar's.
    """
    calls = {"n": 0}
    real_replace = artifacts._replace
    real_discard = artifacts._discard_temp

    def dying_replace(source, destination):
        if calls["n"] >= at_replace:
            raise SimulatedKill(
                f"writer killed before publish #{calls['n']}")
        calls["n"] += 1
        real_replace(source, destination)

    artifacts._replace = dying_replace
    artifacts._discard_temp = lambda temp_name: None
    try:
        yield
    finally:
        artifacts._replace = real_replace
        artifacts._discard_temp = real_discard


@contextmanager
def disk_full(code: int = errno.ENOSPC):
    """Every publish fails like a broken disk: ``os.replace`` raises
    ``OSError(code)`` (default ENOSPC; try EROFS/EACCES too)."""
    real_replace = artifacts._replace

    def full(source, destination):
        raise OSError(code, os.strerror(code), str(destination))

    artifacts._replace = full
    try:
        yield
    finally:
        artifacts._replace = real_replace


@contextmanager
def failing_write(code: int = errno.ENOSPC):
    """Every store file write fails like a broken disk mid-file: a few
    bytes reach the temporary file, then ``OSError(code)``."""
    real_write = artifacts._write_chunks

    def torn(handle, chunks):
        handle.write(b"half")
        raise OSError(code, os.strerror(code))

    artifacts._write_chunks = torn
    try:
        yield
    finally:
        artifacts._write_chunks = real_write


def _forget(path) -> None:
    """Drop process caches that could mask on-disk tampering.

    Rewriting a payload in place refreshes its mtime, but on coarse
    filesystem clocks a same-size rewrite can land inside one mtime
    tick and leave the T0 stat key valid.  Tamper helpers invalidate
    explicitly so detection never depends on clock granularity."""
    tiers.memory_tier().invalidate(None)
    tiers.digest_cache().invalidate(str(path))


def truncate(path, keep: int = 8) -> None:
    """Chop a payload down to its first ``keep`` bytes (torn write)."""
    path = Path(path)
    path.write_bytes(path.read_bytes()[:keep])
    _forget(path)


def zero(path) -> None:
    """Replace a payload with a zero-byte file."""
    Path(path).write_bytes(b"")
    _forget(path)


def flip_bit(path, offset: int = None) -> None:
    """Flip one bit in the middle of a payload (silent bit rot)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    index = len(data) // 2 if offset is None else offset
    data[index] ^= 0x10
    path.write_bytes(bytes(data))
    _forget(path)


def litter_tmp(directory, suffix: str = ".npz", age_s: float = 0.0) -> Path:
    """Drop realistic ``*.tmp*`` litter (what mkstemp leaves when its
    writer dies), optionally back-dated ``age_s`` seconds."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    descriptor, name = tempfile.mkstemp(dir=directory, suffix=".tmp" + suffix)
    os.write(descriptor, b"half-written payload")
    os.close(descriptor)
    if age_s:
        backdate(name, age_s)
    return Path(name)


def backdate(path, age_s: float) -> None:
    """Push a file's mtime ``age_s`` seconds into the past, aging it
    out of the store's in-flight-write grace window."""
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))


def restamp(store, kind: str, digest: str, suffix: str) -> None:
    """Recompute the sidecar envelope to match the (tampered) payload
    on disk -- simulating a confused-but-checksumming writer, so the
    schema layer beneath the digest check gets exercised."""
    import json

    payload_path = store._path(kind, digest, suffix)
    sidecar = store._path(kind, digest, ".json")
    meta = json.loads(sidecar.read_text())
    meta["envelope"] = {
        "kind": kind,
        "digest": file_digest(payload_path),
        "nbytes": payload_path.stat().st_size,
    }
    sidecar.write_text(json.dumps(meta, indent=1))
    _forget(payload_path)
    _forget(sidecar)


@contextmanager
def fault_plan(plan: str):
    """Arm the deterministic chaos harness for the duration: set
    ``REPRO_FAULT_PLAN`` (``scope=once`` directives claim their marker
    in the store's ``locks/``).

    Arm *before* the stream pool spawns -- workers read the plan from
    the environment they inherit at fork."""
    saved = os.environ.get("REPRO_FAULT_PLAN")
    os.environ["REPRO_FAULT_PLAN"] = plan
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_FAULT_PLAN", None)
        else:
            os.environ["REPRO_FAULT_PLAN"] = saved


def payload_files(store, kind: str):
    """The payload files (non-sidecar, non-tmp) of one artifact kind."""
    directory = Path(store.root) / kind
    if not directory.is_dir():
        return []
    return sorted(f for f in directory.glob("*")
                  if f.suffix != ".json" and ".tmp" not in f.name)
