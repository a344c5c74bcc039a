"""Content-addressed on-disk artifact store.

Every stage of the render -> trace -> simulate pipeline is a pure
function of its inputs, so each intermediate can be cached on disk and
shared by every process that asks for the same inputs: benchmark
sessions, the CLI and the examples all hit one store instead of
re-rendering per process.

Artifacts are addressed by a SHA-256 fingerprint of a canonical JSON
payload describing *all* the inputs of the stage -- scene name,
reproduction scale, animation time, traversal-order spec, filtering
options, layout spec and a pipeline version stamp -- so artifacts
produced by an older pipeline (or different parameters) simply never
match and stale data self-invalidates.  Four artifact kinds exist:

``traces/``
    Rendered :class:`~repro.pipeline.trace.TexelTrace` streams stored
    as a *part list*: ``<digest>.pNNNNN.npz`` part files (one
    :class:`~repro.pipeline.trace.FragmentBlock` each, in the one
    :mod:`repro.pipeline.traceio` encoding, one row per filter quad)
    and a ``.json`` sidecar listing every part's integrity envelope in
    stream order, plus the render counters and the human-readable key.
    Parts are written and read one block at a time, so traces larger
    than RAM round-trip through the store.  A trace saved from RAM is
    cut at :data:`DEFAULT_CHUNK_SIZE` accesses; a streamed render
    writes its blocks as they come.  :func:`part_name` is the one
    owner of part file names.  A trace sidecar without a part list
    (the older single-archive format) fails verification as legacy.
``addresses/``
    Per-layout byte-address streams: one-dimensional integer ``.npy``
    arrays, loaded as read-only arrays over a map of the file.
``profiles/``
    Fully-associative LRU stack-distance summaries per line size
    (``.i64``: raw int64 words, see :func:`_profile_words`), loaded as
    the one-set :class:`~repro.core.kernels.SetDistanceProfile` of the
    key's line size.
``set_profiles/``
    Per-set stack-distance summaries per ``(line_size, n_sets)`` with
    more than one set (``.i64`` likewise); one answers every
    associativity sharing that set count, so warm sessions sweep whole
    grids without a distance pass.

Every store file is written by one publish (:func:`_publish_file`),
which hashes the bytes it writes and reads nothing back, and checked
by one check (:func:`_check_file`).  Address streams and profiles
share one read (T0 lookup, one checked pass over the two files, decode
of the bytes that pass read -- quarantined when it fails -- and T0
fill) and one publish (payload, sidecar, T0 write-through).

The root directory defaults to ``benchmarks/.cache/`` and is
overridable with the ``REPRO_CACHE_DIR`` environment variable.

Failure model
-------------
The store assumes writers can be killed at any instruction, disks can
fill up or go read-only, and bytes can rot between a write and the
next read.  Its defenses:

* **Atomic publishes.**  Writes go to a ``*.tmp*`` sibling the store
  creates with ``O_EXCL`` and are moved into place with
  ``os.replace``; readers never observe a half-written file, only
  litter (which :meth:`ArtifactStore.repair` purges once it is stale).
* **Integrity envelopes.**  Every payload's ``.json`` sidecar records
  the artifact's key, and the SHA-256 digest and byte size of the
  bytes its writer wrote -- not of a read-back, so a file another
  writer replaced between the two publishes fails its envelope.  Every
  load reads the sidecar once, requires its key to equal the
  requested one (the fingerprint only picks the file, as a cache's
  index picks a line; the key is the tag), then re-verifies the
  payload's size and digest (:func:`_check_file`).  Anything
  torn, truncated, bit-rotted, foreign (a checksummed artifact under
  another key's name) or legacy (pre-envelope) is moved to
  ``quarantine/`` with a reason record and reported as a miss, so the
  caller transparently recomputes.  Missing-counterpart states
  younger than :data:`TORN_GRACE_S` are treated as in-flight writes (a
  concurrent saver between its two publishes) and skipped without
  quarantining; :meth:`ArtifactStore.verify` applies the same rule.
* **Single-flight locks.**  :meth:`ArtifactStore.single_flight` takes
  a per-fingerprint ``fcntl`` advisory lock so N racing processes
  perform one render instead of N.  Locks die with their holder; a
  hung holder is abandoned after a timeout (the waiter proceeds and
  computes redundantly but correctly: a part the two writers both
  wrote fails the envelope of the one whose sidecar lists it, and is
  computed again).
* **Degraded mode.**  A save that fails like a broken disk (ENOSPC,
  EROFS, EACCES, ...) demotes the store: one warning, writes become
  no-ops, reads keep working (a warm read-only store still serves
  artifacts) and callers fall back to their in-memory memos.
* **Resume records.**  An interrupted cold fold leaves its finished
  ranges' parts and one record per range (the fold's range geometry
  and the parts' envelopes) -- the whole resume state.  Maintenance
  keeps record-covered parts for the next fold, and purges resume
  files that outlived their artifact or cover no verified part.

Tiered reads
------------
The directory above is tier T1 of a read-through hierarchy (see
:mod:`~repro.engine.tiers`).  Loads consult the process-wide
in-memory tier (T0) first -- deserialized artifacts in a 256 MiB LRU,
revalidated against the ``(size, mtime_ns, inode)`` of their payload
and sidecar on every hit.  A T0 miss of an address stream or a profile
is one pass over each file, with no ``stat`` call
(:func:`_read_payload`): the sidecar is read once, and the payload is
opened once, ``fstat``'d for its size check, read (an address stream:
mapped), digest-checked and decoded from those bytes.  The digest
check consults a verify-once digest cache keyed by that ``fstat``
identity, so an unchanged file is SHA-256-hashed at most once per
process; a publish records the digest of the bytes it wrote under the
identity of the file it wrote.  T0 is filled, or written through, with
the identities the read or the writes took from their descriptors, so
a file replaced after the read or the write reads as a T0 miss.
Neither tier changes fingerprints or bytes: both serve exactly what
the disk tier verified.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import mmap
import os
import re
import shutil
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.lib import format as npy_format

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..core.kernels import SetDistanceProfile
from ..core.stackdist import DistanceProfile
from ..pipeline import traceio
from ..pipeline.renderer import RenderResult
from ..pipeline.trace import FragmentBlock, concat_blocks, iter_blocks
from . import tiers
from .spec import TraceSpec

#: Stamped into every fingerprint; bump when any pipeline stage changes
#: its output (renderer, layouts, trace format, ...) so every existing
#: artifact self-invalidates.
PIPELINE_VERSION = 1

#: Artifact kinds, also the store's subdirectory names.
KINDS = ("traces", "addresses", "profiles", "set_profiles")

#: Payload suffix of both profile kinds, and the encoding stamp of
#: their keys: the ``.npz`` profiles of older stores sit under other
#: fingerprints, so none is ever decoded as raw words.
PROFILE_SUFFIX = ".i64"
PROFILE_ENCODING = "i64"
#: Word type of a profile payload, and its header length in words.
_PROFILE_WORD = np.dtype("<i8")
_PROFILE_HEADER = 5

#: Maintenance subdirectories (never fingerprint-addressed).
QUARANTINE_DIR = "quarantine"
LOCKS_DIR = "locks"

#: Age below which a missing-counterpart artifact (payload without
#: sidecar, or the reverse) and ``*.tmp*`` litter are presumed to be a
#: concurrent writer mid-publish rather than a crash, and left alone.
TORN_GRACE_S = 60.0

#: How long :meth:`ArtifactStore.single_flight` waits for a lock before
#: abandoning it (stale-lock takeover) and computing anyway.
LOCK_TIMEOUT_S = 300.0
LOCK_POLL_S = 0.05

#: Default block bound in texel accesses (~21 MB of trace columns in
#: RAM, at 21 bytes an access without positions): the part size
#: :meth:`ArtifactStore.save_render` cuts in-RAM traces into, and the
#: streaming fold's default chunk size.
DEFAULT_CHUNK_SIZE = 1 << 20

#: Trace part files: ``<digest>.pNNNNN.npz`` (built by
#: :func:`part_name`; the stem a ``Path`` reports is
#: ``<digest>.pNNNNN``).  Parts are only artifacts through the sidecar
#: that lists them; a part no sidecar claims is litter, like a stale
#: ``*.tmp*``.
_PART_STEM = re.compile(r"^([0-9a-f]{64})\.p(\d+)$")

#: Crash-resume metadata of an interrupted cold fold:
#: ``<digest>.rNNNNN.done.json``, one completion record per finished
#: range, carrying the fold's range geometry (``<digest>.plan.json`` is
#: the range plan older runs wrote beside them).  A record marks the
#: strided orphan parts it lists as *resumable* -- the next cold fold
#: re-verifies and folds them warm instead of re-rendering -- so
#: maintenance must not mistake resume files for artifact sidecars or
#: purge the parts they cover.
_RESUME_STEM = re.compile(r"^([0-9a-f]{64})\.(plan|r\d+\.done)$")
_RANGE_RECORD_INDEX = re.compile(r"\.r(\d+)\.done\.json$")

#: ``errno`` values that mean "the disk, not the data": the store
#: demotes itself instead of failing the experiment.
_UNAVAILABLE_ERRNOS = frozenset(
    code for code in (
        errno.ENOSPC, errno.EROFS, errno.EACCES, errno.EPERM,
        getattr(errno, "EDQUOT", None),
    ) if code is not None
)


class StoreError(Exception):
    """Base class for artifact-store failures."""


class CorruptArtifact(StoreError):
    """An artifact failed integrity verification.

    ``survivor`` names the one file left of a state a concurrent writer
    passes through (payload published, sidecar not yet, or the
    reverse); such a state only counts as damage once that file is
    older than :data:`TORN_GRACE_S`.
    """

    def __init__(self, message: str, survivor=None):
        super().__init__(message)
        self.survivor = survivor

    @property
    def in_flight(self) -> bool:
        """Whether this is a concurrent writer mid-publish, not damage:
        the one rule of loads and :meth:`ArtifactStore.verify`."""
        return self.survivor is not None and not _is_stale(self.survivor)


class StoreUnavailable(StoreError):
    """The store's disk is full, read-only or permission-denied."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``benchmarks/.cache`` in the
    repository the package is installed from."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "benchmarks" / ".cache"


def fingerprint(payload: dict) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload`` (with the
    pipeline version stamp mixed in)."""
    record = dict(payload)
    record["pipeline_version"] = PIPELINE_VERSION
    record["trace_format"] = traceio.FORMAT_VERSION
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def addresses_payload(trace_spec: TraceSpec, layout_spec, alignment: int = 16) -> dict:
    """Fingerprint payload for a byte-address stream."""
    return {
        "trace": trace_spec.payload(),
        "layout": list(layout_spec),
        "alignment": alignment,
    }


def profile_payload(address_payload: dict, line_size: int) -> dict:
    """Fingerprint payload for a stack-distance profile."""
    return {"addresses": address_payload, "line_size": line_size,
            "encoding": PROFILE_ENCODING}


def set_profile_payload(address_payload: dict, line_size: int,
                        n_sets: int) -> dict:
    """Fingerprint payload for a per-set stack-distance profile."""
    return {"addresses": address_payload, "line_size": line_size,
            "n_sets": n_sets, "encoding": PROFILE_ENCODING}


def _replace(source: str, destination) -> None:
    """Publish step of an atomic write.  A module-level indirection so
    fault-injection tests can simulate a writer killed (or a disk
    filling up) between payload write and publish."""
    os.replace(source, destination)


def _discard_temp(temp_name: str) -> None:
    """Cleanup step of a failed atomic write; also an indirection so a
    simulated kill can leave realistic ``*.tmp*`` litter behind."""
    if os.path.exists(temp_name):
        os.unlink(temp_name)


def _translate_os_error(fault: OSError) -> None:
    """Re-raise disk-shaped OS errors as :class:`StoreUnavailable`."""
    if fault.errno in _UNAVAILABLE_ERRNOS:
        raise StoreUnavailable(str(fault)) from fault
    raise fault


def _write_chunks(handle, chunks) -> dict:
    """Write the bytes-like ``chunks`` to the unbuffered ``handle`` in
    order, hashing them as they go: the ``digest`` and ``nbytes`` of the
    bytes written.  A module-level step so fault-injection tests can
    fail it like a full or read-only disk."""
    hasher, nbytes = hashlib.sha256(), 0
    for chunk in chunks:
        view = memoryview(chunk).cast("B")
        hasher.update(view)
        nbytes += len(view)
        while view:
            view = view[handle.write(view):]
    return {"digest": hasher.hexdigest(), "nbytes": nbytes}


def _create_private(name: str):
    """A new file ``name`` (``O_EXCL``, mode 0600) open for unbuffered
    writing; its directory is made only when the create finds it
    missing."""
    def opener(path, flags):
        return os.open(path, flags, 0o600)
    try:
        return open(name, "xb", buffering=0, opener=opener)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(name), exist_ok=True)
        return open(name, "xb", buffering=0, opener=opener)


def _publish_file(path, chunks) -> tuple:
    """The one publish of every store file: ``(envelope, identity)``.

    ``chunks`` are written once (:func:`_write_chunks`) to a temporary
    sibling that keeps the real extension last.  Its name is chosen
    before the file exists, and the file is created
    (:func:`_create_private`) inside the ``try`` that discards it, so a
    writer unwound at any line (a pool worker turns SIGTERM into
    ``SystemExit``) leaves no temporary file behind.  The descriptor's
    ``fstat`` identity, which the rename onto ``path``
    (:func:`_replace`) keeps, anchors the digest of the bytes written
    in the digest cache: nothing is read back or stat'd.  OS errors
    that mean a broken disk are raised as :class:`StoreUnavailable`."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    temp_name = os.path.join(
        directory, f"tmp{os.urandom(8).hex()}.tmp{os.path.splitext(name)[1]}")
    try:
        with _create_private(temp_name) as handle:
            envelope = _write_chunks(handle, chunks)
            identity = tiers.stat_identity(os.fstat(handle.fileno()))
        _replace(temp_name, path)
    except BaseException as fault:
        _discard_temp(temp_name)
        if isinstance(fault, OSError):
            _translate_os_error(fault)
        raise
    tiers.digest_cache().remember(path, identity, envelope["digest"])
    return envelope, identity


def _publish_json(path, record: dict) -> tuple:
    """:func:`_publish_file` of one JSON record (a sidecar or a range
    record)."""
    return _publish_file(path, [json.dumps(record, indent=1).encode()])


def _same_key(recorded, requested) -> bool:
    """Whether a sidecar's recorded key equals the requested payload as
    a JSON value (a tuple and the list it was recorded as compare
    equal)."""
    return recorded == requested or \
        recorded == json.loads(json.dumps(requested))


def _object_nbytes(value) -> int:
    """Rough deserialized footprint of an artifact for the T0 byte
    budget: its numpy array fields plus a small fixed overhead."""
    total = 256
    try:
        fields = vars(value).values()
    except TypeError:
        return total
    for field in fields:
        if isinstance(field, np.ndarray):
            total += field.nbytes
    return total


def _payload_nbytes(value) -> int:
    """T0 footprint of an address stream or a profile: its array bytes
    (a profile's histogram plus a small fixed overhead)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    return value.counts.nbytes + 64


#: ``.npy`` header readers by format version (``np.save`` writes 1.0,
#: and 2.0 only for headers past 64 KiB), and the prefix of a payload
#: that holds any header numpy accepts (it refuses those over 10000
#: bytes).
_NPY_HEADERS = {(1, 0): npy_format.read_array_header_1_0,
                (2, 0): npy_format.read_array_header_2_0}
_NPY_HEAD_BYTES = 1 << 14


def _decode_addresses(data) -> np.ndarray:
    """A read-only array over ``data``, the bytes (or the map) of an
    ``.npy`` address stream.  Raises ``ValueError`` for anything but a
    one-dimensional integer array."""
    head = io.BytesIO(data[:_NPY_HEAD_BYTES])
    version = npy_format.read_magic(head)
    if version not in _NPY_HEADERS:
        raise ValueError(f".npy format {version} is not an address stream")
    shape, _, dtype = _NPY_HEADERS[version](head)
    if len(shape) != 1 or shape[0] < 0 or dtype.kind not in "iu":
        raise ValueError(f"a {dtype} array of shape {shape} is not an "
                         "address stream")
    return np.frombuffer(data, dtype=dtype, count=shape[0],
                         offset=head.tell())


def _profile_geometry(payload: dict) -> tuple:
    """``(line_size, n_sets)`` of a profile key; one set for a
    ``profiles/`` key."""
    return int(payload["line_size"]), int(payload.get("n_sets", 1))


def _address_chunks(addresses: np.ndarray) -> tuple:
    """The bytes ``np.save`` writes for an address stream: its ``.npy``
    header, then the array's own buffer (no copy)."""
    array = np.ascontiguousarray(addresses)
    header = io.BytesIO()
    npy_format.write_array_header_1_0(
        header, npy_format.header_data_from_array_1_0(array))
    return header.getvalue(), array


def _profile_words(profile: DistanceProfile, payload: dict) -> np.ndarray:
    """The payload of the profile keyed by ``payload``: raw
    little-endian int64 words, the header ``(line_size, n_sets, cold,
    duplicate_hits, n)`` with the key's geometry, then the ``n``
    histogram counts.  The envelope digest guards integrity; the
    header ties the payload to its key."""
    return np.concatenate((
        [*_profile_geometry(payload), profile.cold, profile.duplicate_hits,
         len(profile.counts)], profile.counts)).astype(_PROFILE_WORD)


def _decode_profile(data, payload: dict) -> SetDistanceProfile:
    """Decode the bytes of a :func:`_profile_words` payload keyed by
    ``payload``.  Raises ``ValueError`` for a size other than
    ``8 * (5 + n)``, a negative word or a geometry other than the
    key's."""
    words = np.frombuffer(data, dtype=_PROFILE_WORD)
    header = words[:_PROFILE_HEADER].tolist()
    if len(header) < _PROFILE_HEADER or \
            len(words) != _PROFILE_HEADER + header[-1]:
        raise ValueError(f"{words.nbytes} bytes are not a profile header "
                         "and the counts it declares")
    if (words < 0).any():
        raise ValueError("negative profile word")
    line_size, n_sets, cold, duplicate_hits, _ = header
    if (line_size, n_sets) != _profile_geometry(payload):
        raise ValueError(f"profile of {(line_size, n_sets)} under the key "
                         f"of {_profile_geometry(payload)}")
    return SetDistanceProfile(
        line_size=line_size, n_sets=n_sets, cold=cold,
        duplicate_hits=duplicate_hits,
        counts=words[_PROFILE_HEADER:].astype(np.int64))


def part_name(digest: str, index: int) -> str:
    """File name of part ``index`` of the trace ``digest``:
    ``<digest>.pNNNNN.npz`` (at least five digits)."""
    return f"{digest}.p{int(index):05d}.npz"


def load_part_block(root, name: str, index: int) -> FragmentBlock:
    """Deserialize one trace part file into a
    :class:`~repro.pipeline.trace.FragmentBlock` -- the loader shared
    by :class:`ChunkedRenderReader` and the pipelined ``fold`` jobs
    (which name their parts instead of reading a sidecar)."""
    return FragmentBlock(
        **traceio.load_columns(Path(root) / "traces" / name), index=index)


def _is_stale(path, grace_s: float = TORN_GRACE_S) -> bool:
    """Whether ``path`` is old enough that no live writer can still be
    mid-publish around it."""
    try:
        return time.time() - os.stat(path).st_mtime >= grace_s
    except OSError:
        return True  # vanished: nothing left to protect


def _read_sidecar(sidecar, path, key: Optional[dict] = None) -> tuple:
    """``(meta, identity)`` of an artifact's sidecar, opened once:
    ``meta`` is ``None`` when neither it nor the payload ``path``
    exists, and ``identity`` is the sidecar's ``fstat`` identity.
    Raises :class:`CorruptArtifact` for a payload without a sidecar, an
    unreadable or legacy sidecar and, given ``key``, a recorded key
    other than ``key`` (:func:`_same_key`), which tells a foreign
    artifact under this fingerprint's name from the requested one."""
    try:
        with open(sidecar, "rb", buffering=0) as handle:
            identity = tiers.stat_identity(os.fstat(handle.fileno()))
            meta = json.loads(handle.read())
    except FileNotFoundError:
        if not os.path.exists(path):
            return None, None
        raise CorruptArtifact(
            "missing sidecar (legacy artifact or torn write)",
            survivor=path) from None
    except (OSError, ValueError) as fault:
        raise CorruptArtifact(f"unreadable sidecar ({fault})") from fault
    if not isinstance(meta, dict):
        raise CorruptArtifact("legacy sidecar (no integrity envelope)")
    if key is not None and not _same_key(meta.get("key"), key):
        raise CorruptArtifact(
            "foreign artifact (its sidecar records another key)")
    return meta, identity


def _payload_envelope(meta: dict) -> dict:
    """The integrity envelope a single-payload sidecar records."""
    envelope = meta.get("envelope")
    if not isinstance(envelope, dict):
        raise CorruptArtifact("legacy sidecar (no integrity envelope)")
    return envelope


def _read_bytes(handle, size: int):
    """The bytes of the open file."""
    return handle.read()


def _map_bytes(handle, size: int):
    """A read-only map of the open file (bytes for an empty one)."""
    if not size:
        return b""
    return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)


def _check_file(path: str, envelope: dict, missing: str, survivor=None,
                label: str = "", read=None) -> tuple:
    """The one check of every store file against the envelope recorded
    for it: ``(data, identity)``.

    The file is opened once and ``fstat``'d.  Its size must equal the
    envelope's ``nbytes``, then its SHA-256 its ``digest``, which the
    digest cache answers under that ``fstat`` identity.  A miss hashes
    the bytes, and records them only when a second ``fstat`` still
    shows the identity.  A caller that keeps the bytes passes how to
    ``read(handle, size)`` them (:func:`_read_bytes`, or
    :func:`_map_bytes` for a read-only map) and gets them as ``data``;
    without ``read``, a cache hit reads nothing and ``data`` is
    ``None``.  ``identity`` was taken before the file was read.

    Raises :class:`CorruptArtifact` for the first defect: ``missing``
    when the file cannot be opened, in flight while ``survivor`` is
    young, or a reason prefixed with ``label``."""
    try:
        handle = open(path, "rb", buffering=0)
    except OSError:
        raise CorruptArtifact(missing, survivor=survivor) from None
    with handle:
        status = os.fstat(handle.fileno())
        if status.st_size != envelope.get("nbytes"):
            raise CorruptArtifact(
                f"{label}size mismatch ({status.st_size} bytes on disk, "
                f"{envelope.get('nbytes')} recorded -- truncated or torn)")
        identity = tiers.stat_identity(status)
        cache = tiers.digest_cache()
        digest = cache.lookup(path, identity)
        data = None
        if read is not None or digest is None:
            try:
                data = (read or _map_bytes)(handle, status.st_size)
            except (OSError, ValueError) as fault:
                # ValueError: a file emptied since its fstat cannot be
                # mapped.
                raise CorruptArtifact(
                    f"{label}unreadable payload ({fault})") from fault
        if digest is None:
            digest = hashlib.sha256(data).hexdigest()
            if tiers.stat_identity(os.fstat(handle.fileno())) == identity:
                cache.remember(path, identity, digest)
    if digest != envelope.get("digest"):
        raise CorruptArtifact(
            f"{label}content digest mismatch (bit rot or foreign payload)")
    return (data if read is not None else None), identity


def _read_payload(path: str, sidecar: str, key: dict, read):
    """One pass over a single-payload artifact: ``(data, anchors)``, or
    ``None`` when neither file exists.

    The sidecar is read once (:func:`_read_sidecar`) and the payload
    checked and ``read`` once (:func:`_check_file`).  ``anchors`` pair
    both paths, payload first, with the identities taken before each
    file was read.  Raises :class:`CorruptArtifact` like
    :meth:`ArtifactStore._verify_envelope`."""
    meta, sidecar_identity = _read_sidecar(sidecar, path, key)
    if meta is None:
        return None
    data, identity = _check_file(
        path, _payload_envelope(meta), "orphaned sidecar (payload missing)",
        sidecar, read=read)
    return data, ((path, identity), (sidecar, sidecar_identity))


class ArtifactStore:
    """Content-addressed cache of pipeline intermediates on disk.

    Loads verify the integrity envelope and quarantine damage; saves
    are atomic and, when the disk itself fails, demote the store to a
    warn-once no-op (readers keep working) rather than raising
    mid-experiment.
    """

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._demoted = False
        self._demotion_reason: Optional[str] = None
        #: Human-readable degradation log (demotions, quarantines) so
        #: CLI summaries can surface what a run survived instead of
        #: burying it in RuntimeWarnings.  Bounded; newest last.
        self.recovery_events: list = []

    def _note_recovery(self, event: str) -> None:
        if len(self.recovery_events) < 100:
            self.recovery_events.append(event)

    def _path(self, kind: str, digest: str, suffix: str) -> Path:
        return self.root / kind / (digest + suffix)

    # -- process tier (T0 memory) ----------------------------------------

    def _memory_get(self, kind: str, digest: str):
        """T0 lookup: the deserialized artifact, or ``tiers.MISS``."""
        return tiers.memory_tier().get((str(self.root), kind, digest))

    def _memory_put(self, kind: str, digest: str, anchors, value,
                    nbytes: int) -> None:
        """T0 fill/write-through, anchored to the payload file AND the
        ``.json`` sidecar (the sidecar alone, for a trace): ``anchors``
        pair each path with the identity that the read or the publish
        of that file took, and revalidate the entry on every later hit
        -- so a rewrite of either reads as a miss, same as the disk
        tier."""
        tiers.memory_tier().put((str(self.root), kind, digest), anchors,
                                value, nbytes)

    # -- degraded mode ---------------------------------------------------

    @property
    def available(self) -> bool:
        """False once the store has demoted itself to read-only."""
        return not self._demoted

    def _demote(self, fault: StoreUnavailable) -> None:
        self._demoted = True
        self._demotion_reason = str(fault)
        self._note_recovery(f"store demoted to in-memory mode: {fault}")
        warnings.warn(
            f"artifact store at {self.root} is unavailable "
            f"({fault}); continuing without persistence -- results are "
            "kept in-memory only for this process",
            RuntimeWarning, stacklevel=4)

    def _guarded_write(self, publish):
        """``publish()``, or ``None`` when the store is demoted or the
        call fails like a broken disk, which demotes it (warn once)
        instead of propagating."""
        if self._demoted:
            return None
        try:
            return publish()
        except StoreUnavailable as fault:
            self._demote(fault)
            return None

    # -- integrity envelope ----------------------------------------------

    def _verify_envelope(self, kind: str, path: Path, sidecar: Path,
                         key: Optional[dict] = None):
        """Check one artifact on disk: ``(meta, identity)`` of its
        sidecar, ``None`` when neither file exists, or
        :class:`CorruptArtifact` describing the damage -- the check of
        traces and of :meth:`verify`.

        The sidecar is read once (:func:`_read_sidecar`, which compares
        ``key`` when given).  Traces (sidecars with a ``parts`` list
        instead of a payload ``envelope``) verify every listed part; a
        trace sidecar without a part list is legacy.  Any other payload
        gets the one check (:func:`_check_file`), which reads nothing
        for a file the digest cache knows."""
        meta, identity = _read_sidecar(sidecar, path, key)
        if meta is None:
            return None
        if isinstance(meta.get("parts"), list):
            self._verify_parts(kind, meta["parts"], sidecar)
        elif kind == "traces":
            raise CorruptArtifact("legacy trace (no part list)")
        else:
            _check_file(path, _payload_envelope(meta),
                        "orphaned sidecar (payload missing)", sidecar)
        return meta, identity

    def _verify_parts(self, kind: str, parts: list,
                      sidecar: Optional[Path] = None) -> None:
        """Check every part of a chunked artifact against its recorded
        envelope; raises :class:`CorruptArtifact` on the first defect.
        A missing part is in flight while ``sidecar`` is young."""
        for entry in parts:
            name = entry.get("name") if isinstance(entry, dict) else None
            if (not isinstance(name, str) or os.sep in name
                    or ".tmp" in name or not _PART_STEM.match(
                        name[:-len(".npz")] if name.endswith(".npz") else name)):
                raise CorruptArtifact("malformed parts manifest")
            _check_file(os.path.join(self.root, kind, name), entry,
                        f"missing part {name}", sidecar, f"part {name}: ")

    def _listed_part_names(self, kind: str, digest: str):
        """Part names the digest's sidecar claims, or ``None`` when
        there is no (readable, chunked) sidecar."""
        try:
            meta = json.loads(self._path(kind, digest, ".json").read_text())
        except (OSError, ValueError):
            return None
        parts = meta.get("parts") if isinstance(meta, dict) else None
        if not isinstance(parts, list):
            return None
        return {entry.get("name") for entry in parts
                if isinstance(entry, dict)}

    def _open_verified(self, kind: str, digest: str, check):
        """``check()``, or ``None`` when it raises
        :class:`CorruptArtifact`: damage, a foreign key included, is
        quarantined, and an in-flight write reads as a plain miss."""
        try:
            return check()
        except CorruptArtifact as fault:
            if not fault.in_flight:
                self.quarantine(kind, digest, str(fault))
            return None

    def quarantine(self, kind: str, digest: str, reason: str) -> None:
        """Move an artifact's files to ``quarantine/<kind>/`` alongside
        a ``<digest>.reason.json`` record.  Best-effort: on an
        unwritable store the damage stays in place and keeps reading as
        a miss."""
        self._note_recovery(
            f"quarantined {kind}/{digest[:12]}…: {reason}")
        target_dir = self.root / QUARANTINE_DIR / kind
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            moved = []
            for candidate in sorted((self.root / kind).glob(digest + ".*")):
                if ".tmp" in candidate.name:
                    continue
                tiers.invalidate_path(candidate)
                os.replace(candidate, target_dir / candidate.name)
                moved.append(candidate.name)
            _publish_json(target_dir / (digest + ".reason.json"), {
                "kind": kind, "digest": digest, "reason": reason,
                "files": moved, "quarantined_at": time.time()})
        except (OSError, StoreUnavailable):
            pass

    # -- single-flight locking -------------------------------------------

    @contextmanager
    def single_flight(self, kind: str, digest: str,
                      timeout: Optional[float] = None):
        """Advisory per-fingerprint lock for miss-path computation.

        Yields True when this process holds the lock.  Yields False --
        and the caller simply computes redundantly, which is always
        correct -- when locking is unavailable (no ``fcntl``, unwritable
        store) or a hung holder did not release within ``timeout``
        (stale-lock takeover; crashed holders release automatically).
        Callers must re-check the store after acquisition: the previous
        holder usually published the artifact.
        """
        if fcntl is None or self._demoted:
            yield False
            return
        lock_path = self.root / LOCKS_DIR / f"{kind}-{digest}.lock"
        try:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(lock_path, "a+")
        except OSError:
            yield False
            return
        acquired = False
        try:
            deadline = time.monotonic() + \
                (LOCK_TIMEOUT_S if timeout is None else timeout)
            while True:
                try:
                    fcntl.flock(handle.fileno(),
                                fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(LOCK_POLL_S)
            yield acquired
        finally:
            if acquired:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
            handle.close()

    # -- rendered traces -------------------------------------------------

    def load_render(self, spec: TraceSpec) -> Optional[RenderResult]:
        """The cached render for ``spec`` (its verified parts,
        concatenated in stream order), or ``None`` on a miss.

        Reconstructed results carry the trace and the triangle/fragment
        counters; the framebuffer and per-triangle breakdown are only
        available from a fresh render.
        """
        digest = fingerprint(spec.payload())
        cached = self._memory_get("traces", digest)
        if cached is not tiers.MISS:
            return cached
        reader = self.open_render_blocks(spec)
        if reader is None:
            return None
        try:
            trace = concat_blocks(reader)
            # The sidecar's count is exact; parts cut from RAM only
            # bound it under anisotropic filtering.
            trace.n_fragments = reader.n_fragments
            result = RenderResult(
                trace=trace,
                framebuffer=None,
                n_fragments=trace.n_fragments,
                n_triangles_submitted=reader.n_triangles_submitted,
                n_triangles_rasterized=reader.n_triangles_rasterized,
            )
        except (ValueError, OSError, KeyError, TypeError) as fault:
            self.quarantine("traces", digest,
                            f"undecodable trace artifact ({fault!r})")
            return None
        # T0 revalidates on the sidecar, the one file whose identity
        # covers the whole part list, as the check of its parts read it.
        self._memory_put("traces", digest, [reader.anchor], result,
                         _object_nbytes(trace))
        return result

    def save_render(self, spec: TraceSpec, result: RenderResult) -> Path:
        """Store ``result``'s trace as a part list cut at
        :data:`DEFAULT_CHUNK_SIZE` accesses, unless the store already
        holds the trace.  Callers hold the trace's single-flight lock.
        Returns the sidecar path."""
        sidecar = self._path("traces", fingerprint(spec.payload()), ".json")
        if self.open_render_blocks(spec) is not None:
            # Every writer stores the same stream, though perhaps cut
            # differently; rewriting the parts would change what a
            # reader that already verified them goes on to read.
            return sidecar
        writer = self.open_render_writer(spec)
        for block in iter_blocks(result.trace, DEFAULT_CHUNK_SIZE):
            writer.append(block)
        writer.finish({
            "n_fragments": int(result.trace.n_fragments),
            "n_triangles_submitted": int(result.n_triangles_submitted),
            "n_triangles_rasterized": int(result.n_triangles_rasterized),
        })
        return sidecar

    # -- trace parts -----------------------------------------------------

    def open_render_writer(self, spec: TraceSpec,
                           part_base: int = 0) -> "ChunkedRenderWriter":
        """A :class:`ChunkedRenderWriter` that persists ``spec``'s
        render one :class:`~repro.pipeline.trace.FragmentBlock` at a
        time; peak store-side memory is one block.  ``part_base``
        offsets the part numbering so several writers (one per
        pipelined range) can stream the same trace without colliding;
        :mod:`~repro.engine.pipelined` then publishes one sidecar
        listing every range's parts under the names their writers gave
        them (:meth:`publish_chunked_sidecar`)."""
        return ChunkedRenderWriter(self, spec, part_base=part_base)

    def publish_chunked_sidecar(self, spec: TraceSpec, parts: list,
                                counters: dict) -> bool:
        """Publish the sidecar that turns already-written part files
        into a complete trace artifact -- the single commit point of
        :meth:`save_render` (through :class:`ChunkedRenderWriter`) and
        of :mod:`~repro.engine.pipelined` assembling parts from several
        writers.  ``counters`` must carry ``n_triangles_submitted`` /
        ``n_triangles_rasterized`` (and optionally ``has_positions``
        and the frame's exact ``n_fragments``); the access total, and
        the fragment total by default, come from the part envelopes."""
        digest = fingerprint(spec.payload())
        meta = {
            "key": spec.payload(),
            "parts": list(parts),
            "n_parts": len(parts),
            "n_accesses": sum(int(entry["n_accesses"]) for entry in parts),
            "n_fragments": int(counters.get("n_fragments", sum(
                int(entry["n_fragments"]) for entry in parts))),
            "has_positions": bool(counters.get("has_positions", False)),
            "n_triangles_submitted": int(counters["n_triangles_submitted"]),
            "n_triangles_rasterized": int(counters["n_triangles_rasterized"]),
        }

        return self._guarded_write(lambda: _publish_json(
            self._path("traces", digest, ".json"), meta)) is not None

    # -- crash-resume metadata (interrupted cold folds) --------------------

    def save_range_record(self, spec: TraceSpec, index: int,
                          payload: dict) -> bool:
        """Atomically record one completed range of a cold fold: the
        fold's range geometry (``n_ranges``, ``chunk_size``,
        ``part_stride``), the range's part envelopes and its render
        totals.  The record is what makes the range's strided parts
        *resumable* -- a future run verifies the envelopes and folds
        the parts warm instead of re-rendering the slice, cutting the
        other ranges with the recorded geometry."""
        digest = fingerprint(spec.payload())
        return self._guarded_write(lambda: _publish_json(
            self._path("traces", digest, f".r{int(index):05d}.done.json"),
            payload)) is not None

    def load_range_records(self, spec: TraceSpec) -> dict:
        """``{range_index: record}`` for every readable completion
        record of ``spec``'s interrupted render (unverified -- callers
        check the envelopes against the parts on disk)."""
        digest = fingerprint(spec.payload())
        records: dict = {}
        directory = self.root / "traces"
        if not directory.is_dir():
            return records
        for path in sorted(directory.glob(digest + ".r*.done.json")):
            match = _RANGE_RECORD_INDEX.search(path.name)
            if match is None:
                continue
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(record, dict):
                records[int(match.group(1))] = record
        return records

    def discard_range_record(self, spec: TraceSpec, index: int,
                             part_names=()) -> None:
        """Drop one range's stale completion record and (optionally)
        the part files it claimed -- the record failed verification, so
        the range re-renders from scratch."""
        digest = fingerprint(spec.payload())
        candidates = [self._path("traces", digest,
                                 f".r{int(index):05d}.done.json")]
        for name in part_names:
            if isinstance(name, str) and os.sep not in name \
                    and name.startswith(digest):
                candidates.append(self.root / "traces" / name)
        for path in candidates:
            try:
                path.unlink()
            except OSError:
                pass

    def discard_resume_state(self, spec: TraceSpec) -> None:
        """Drop every resume-metadata file of ``spec`` -- called after
        the assembled artifact publishes, when there is nothing left to
        resume.  Part files are not touched: published ones belong to
        the artifact, unpublished ones age out as orphan litter."""
        digest = fingerprint(spec.payload())
        directory = self.root / "traces"
        if not directory.is_dir():
            return
        for path in directory.glob(digest + ".*.json"):
            if _RESUME_STEM.match(path.stem):
                try:
                    path.unlink()
                except OSError:
                    pass

    def verify_part_list(self, kind: str, parts: list) -> bool:
        """Whether every part envelope in ``parts`` matches the file on
        disk (size and content digest) -- :meth:`_verify_parts` as a
        predicate, for resume-record validation."""
        try:
            self._verify_parts(kind, parts)
        except CorruptArtifact:
            return False
        return True

    def open_render_blocks(self, spec: TraceSpec):
        """A :class:`ChunkedRenderReader` over ``spec``'s trace parts,
        or ``None`` on a miss or damage (damage, a legacy trace
        included, is quarantined).

        Every part's integrity envelope is verified up front (constant
        memory); parts then deserialize lazily, one block per
        :meth:`ChunkedRenderReader.read_part`."""
        # ".npz" also catches a legacy single-archive payload left
        # without its sidecar.
        key = spec.payload()
        digest = fingerprint(key)
        sidecar = self._path("traces", digest, ".json")
        checked = self._open_verified("traces", digest, lambda: (
            self._verify_envelope(
                "traces", self._path("traces", digest, ".npz"), sidecar,
                key)))
        if checked is None:
            return None
        meta, identity = checked
        return ChunkedRenderReader(self, meta, (sidecar, identity))

    # -- payload artifacts: address streams and profiles ------------------

    def _read(self, kind: str, payload: dict, suffix: str, decode, what: str,
              read=_read_bytes):
        """The one read of every single-payload artifact: T0, else one
        verified pass over its two files (:func:`_read_payload`) and
        ``decode(data)`` of the bytes it ``read`` -- quarantined as
        undecodable ``what`` when that fails -- filling T0 with the
        identities the pass took."""
        digest = fingerprint(payload)
        cached = self._memory_get(kind, digest)
        if cached is not tiers.MISS:
            return cached
        base = os.path.join(self.root, kind, digest)
        checked = self._open_verified(kind, digest, lambda: _read_payload(
            base + suffix, base + ".json", payload, read))
        if checked is None:
            return None
        data, anchors = checked
        try:
            value = decode(data)
        except (ValueError, OSError, KeyError) as fault:
            self.quarantine(kind, digest, f"undecodable {what} ({fault!r})")
            return None
        self._memory_put(kind, digest, anchors, value, _payload_nbytes(value))
        return value

    def _publish(self, kind: str, payload: dict, suffix: str, chunks,
                 value) -> Path:
        """The one publish of every single-payload artifact: the payload
        ``chunks``, then the sidecar recording the envelope of the bytes
        written, then ``value`` written through to T0 under the
        identities the two writes took."""
        digest = fingerprint(payload)
        base = os.path.join(self.root, kind, digest)
        path, sidecar = base + suffix, base + ".json"

        def publish():
            envelope, identity = _publish_file(path, chunks)
            _, sidecar_identity = _publish_json(sidecar, {
                "key": payload, "envelope": {"kind": kind, **envelope}})
            return (path, identity), (sidecar, sidecar_identity)
        anchors = self._guarded_write(publish)
        if anchors is not None:
            self._memory_put(kind, digest, anchors, value,
                             _payload_nbytes(value))
        return Path(path)

    def load_addresses(self, payload: dict) -> Optional[np.ndarray]:
        # A read-only map instead of a copy: every consumer derives
        # new arrays (line reduction, collapses) and never writes
        # back, so a warm load costs the page-ins its digest check
        # makes, not a copy.
        return self._read("addresses", payload, ".npy", _decode_addresses,
                          "address stream", read=_map_bytes)

    def save_addresses(self, payload: dict, addresses: np.ndarray) -> Path:
        return self._publish("addresses", payload, ".npy",
                             _address_chunks(addresses), addresses)

    def load_profile(self, payload: dict) -> Optional[SetDistanceProfile]:
        """The fully-associative profile: the one-set per-set profile
        of the payload's line size."""
        return self._read("profiles", payload, PROFILE_SUFFIX,
                          lambda data: _decode_profile(data, payload),
                          "profile")

    def save_profile(self, payload: dict, profile: DistanceProfile) -> Path:
        return self._publish("profiles", payload, PROFILE_SUFFIX,
                             [_profile_words(profile, payload)], profile)

    def load_set_profile(self, payload: dict) -> Optional[SetDistanceProfile]:
        return self._read("set_profiles", payload, PROFILE_SUFFIX,
                          lambda data: _decode_profile(data, payload),
                          "per-set profile")

    def save_set_profile(self, payload: dict,
                         profile: SetDistanceProfile) -> Path:
        return self._publish("set_profiles", payload, PROFILE_SUFFIX,
                             [_profile_words(profile, payload)], profile)

    # -- maintenance -----------------------------------------------------

    def _scan_kind(self, kind: str):
        """``(payloads, sidecar_stems, tmp_names, parts, resume)`` for
        one kind, tolerant of files vanishing mid-scan (concurrent
        ``clear()``).  ``parts`` maps each digest to its chunked part
        files on disk (listed or not by any sidecar); ``resume`` maps
        each digest to its crash-resume metadata files, which must
        never be mistaken for artifact sidecars."""
        payloads, sidecars, tmp, parts, resume = {}, set(), [], {}, {}
        directory = self.root / kind
        if not directory.is_dir():
            return payloads, sidecars, tmp, parts, resume
        for entry in sorted(directory.glob("*")):
            try:
                if not entry.is_file():
                    continue
                entry.stat()
            except OSError:
                continue  # deleted between glob and stat: skip
            match = _PART_STEM.match(entry.stem)
            resume_match = _RESUME_STEM.match(entry.stem)
            if ".tmp" in entry.name:
                tmp.append(entry.name)
            elif match is not None and entry.suffix == ".npz":
                parts.setdefault(match.group(1), []).append(entry)
            elif resume_match is not None and entry.suffix == ".json":
                resume.setdefault(resume_match.group(1), []).append(entry)
            elif entry.suffix == ".json":
                sidecars.add(entry.stem)
            else:
                payloads[entry.stem] = entry
        return payloads, sidecars, tmp, parts, resume

    def _record_parts(self, kind: str, path: Path, verified: bool) -> list:
        """Names of the parts the range record at ``path`` lists; with
        ``verified``, only when every one passes its envelope check
        (deep, unlike the cheap name-level read).  Empty for an
        unreadable record or any other resume file."""
        if not path.name.endswith(".done.json"):
            return []
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            return []
        envelopes = record.get("envelopes") \
            if isinstance(record, dict) else None
        if not isinstance(envelopes, list) or (
                verified and not self.verify_part_list(kind, envelopes)):
            return []
        return [entry["name"] for entry in envelopes
                if isinstance(entry, dict)
                and isinstance(entry.get("name"), str)]

    def stats(self) -> dict:
        """Per-kind artifact counts and byte totals -- chunked trace
        parts reported separately -- plus orphaned ``*.tmp*`` litter,
        orphaned part files (parts no sidecar lists, counted as
        litter) and quarantined-file counts."""
        report = {"root": str(self.root), "kinds": {}, "total_bytes": 0,
                  "total_files": 0, "tmp_files": 0,
                  "part_files": 0, "part_bytes": 0, "orphaned_parts": 0,
                  "resumable_parts": 0,
                  "quarantined": self._count_quarantined(),
                  "memory": tiers.memory_tier().stats(),
                  "digest_cache": tiers.digest_cache().stats()}
        for kind in KINDS:
            payloads, sidecars, tmp_names, parts, resume = \
                self._scan_kind(kind)
            files = nbytes = 0
            for entry in list(payloads.values()) + [
                    self._path(kind, stem, ".json") for stem in sidecars]:
                try:
                    size = entry.stat().st_size
                except OSError:
                    continue  # vanished between glob and stat
                files += 1
                nbytes += size
            part_files = part_bytes = orphaned = resumable = 0
            for digest, entries in parts.items():
                listed = self._listed_part_names(kind, digest)
                covered = {name for path in resume.get(digest, ())
                           for name in self._record_parts(kind, path, False)}
                for part in entries:
                    try:
                        size = part.stat().st_size
                    except OSError:
                        continue
                    part_files += 1
                    part_bytes += size
                    if listed is not None and part.name in listed:
                        continue
                    if part.name in covered:
                        resumable += 1
                    else:
                        orphaned += 1
            report["kinds"][kind] = {
                "files": files, "bytes": nbytes, "tmp": len(tmp_names),
                "parts": part_files, "part_bytes": part_bytes,
                "orphaned_parts": orphaned, "resumable_parts": resumable}
            report["total_files"] += files + part_files
            report["total_bytes"] += nbytes + part_bytes
            report["tmp_files"] += len(tmp_names)
            report["part_files"] += part_files
            report["part_bytes"] += part_bytes
            report["orphaned_parts"] += orphaned
            report["resumable_parts"] += resumable
        return report

    def _count_quarantined(self) -> int:
        quarantine_root = self.root / QUARANTINE_DIR
        if not quarantine_root.is_dir():
            return 0
        count = 0
        for entry in quarantine_root.glob("*/*"):
            try:
                if entry.is_file() and not entry.name.endswith(".reason.json"):
                    count += 1
            except OSError:
                continue
        return count

    def verify(self) -> dict:
        """Scan every artifact's integrity envelope without modifying
        anything.  Keys are not compared: the scan requests none, and
        an artifact of an older :data:`PIPELINE_VERSION` is unreachable
        but not damaged.  ``bad`` lists verifiable damage; ``pending``
        counts in-flight (younger than the grace window) torn states;
        ``tmp`` lists temp-file litter; ``orphaned_parts`` lists stale
        trace parts no sidecar claims (litter, not corruption): parts
        of a writer that died before publishing its sidecar;
        ``resumable`` lists stale unlisted parts that an interrupted
        cold fold's completion records cover (envelope-verified) -- the
        next cold fold resumes from them, so they are neither damage
        nor litter and :meth:`repair` keeps them; ``stale_resume``
        lists stale resume files whose artifact has published or which
        cover no verified part."""
        report = {"root": str(self.root), "kinds": {},
                  "ok": 0, "bad": 0, "pending": 0, "tmp": 0,
                  "orphaned_parts": 0, "resumable": 0}
        for kind in KINDS:
            payloads, sidecars, tmp_names, parts, resume = \
                self._scan_kind(kind)
            entry = {"ok": 0, "bad": [], "pending": 0, "tmp": tmp_names,
                     "orphaned_parts": [], "resumable": [],
                     "stale_resume": []}
            for stem in sorted(set(payloads) | sidecars):
                path = payloads.get(stem, self._path(kind, stem, ".npz"))
                sidecar = self._path(kind, stem, ".json")
                try:
                    checked = self._verify_envelope(kind, path, sidecar)
                except CorruptArtifact as fault:
                    if fault.in_flight:
                        entry["pending"] += 1
                    else:
                        name = path.name if stem in payloads else sidecar.name
                        entry["bad"].append({"file": name,
                                             "reason": str(fault)})
                    continue
                if checked is not None:  # else both vanished mid-scan
                    entry["ok"] += 1
            verified_resumable: dict = {}
            for digest, meta_paths in resume.items():
                covered: set = set()
                for path in meta_paths:
                    names = self._record_parts(kind, path, True)
                    covered.update(names)
                    # A resume file is litter once its artifact has
                    # published, or when it covers no verified part (a
                    # damaged record, or a plan an older run wrote).
                    if _is_stale(path) and (digest in sidecars
                                            or not names):
                        entry["stale_resume"].append(path.name)
                verified_resumable[digest] = covered
            for digest in sorted(parts):
                listed = self._listed_part_names(kind, digest) or set()
                covered = verified_resumable.get(digest, set())
                for part in parts[digest]:
                    if part.name in listed:
                        continue  # accounted for by its artifact above
                    if not _is_stale(part):
                        entry["pending"] += 1
                    elif part.name in covered:
                        entry["resumable"].append(part.name)
                    else:
                        entry["orphaned_parts"].append(part.name)
            report["kinds"][kind] = entry
            report["ok"] += entry["ok"]
            report["bad"] += len(entry["bad"])
            report["pending"] += entry["pending"]
            report["tmp"] += len(entry["tmp"])
            report["orphaned_parts"] += len(entry["orphaned_parts"])
            report["resumable"] += len(entry["resumable"])
        report["clean"] = report["bad"] == 0
        return report

    def repair(self) -> dict:
        """Self-heal the store: quarantine every artifact that fails
        verification (legacy traces included), purge stale ``*.tmp*``
        litter left by killed writers and the stale orphaned trace
        parts and resume files :meth:`verify` lists.  In-flight writes
        (within the grace window) and resumable parts of interrupted
        cold folds -- along with the range records that cover them --
        are left alone until their artifact publishes."""
        scan = self.verify()
        quarantined, purged, purged_parts, purged_resume = [], [], [], []
        for kind, entry in scan["kinds"].items():
            for problem in entry["bad"]:
                digest = problem["file"].split(".", 1)[0]
                self.quarantine(kind, digest, problem["reason"])
                quarantined.append(f"{kind}/{problem['file']}")
            for name in entry["tmp"]:
                litter = self.root / kind / name
                if not _is_stale(litter):
                    continue  # a live writer may still publish it
                try:
                    litter.unlink()
                except OSError:
                    continue
                purged.append(f"{kind}/{name}")
            for name in entry["orphaned_parts"]:
                # verify() already held these to the staleness window.
                try:
                    (self.root / kind / name).unlink()
                except OSError:
                    continue
                purged_parts.append(f"{kind}/{name}")
            for name in entry["stale_resume"]:
                try:
                    (self.root / kind / name).unlink()
                except OSError:
                    continue
                purged_resume.append(f"{kind}/{name}")
        return {"root": str(self.root), "quarantined": quarantined,
                "purged_tmp": purged, "purged_parts": purged_parts,
                "purged_resume": purged_resume,
                "kept_resumable": scan["resumable"]}

    def clear(self) -> dict:
        """Delete every artifact, quarantine, locks and temp litter
        included, and this store's entries in the process tiers;
        returns the pre-clear :meth:`stats`."""
        report = self.stats()
        for kind in KINDS + (QUARANTINE_DIR, LOCKS_DIR):
            shutil.rmtree(self.root / kind, ignore_errors=True)
        # Cleared disk entries could only ever read as stat-mismatch
        # misses anyway; dropping them keeps the byte budget honest.
        tiers.memory_tier().invalidate_store(str(self.root))
        tiers.digest_cache().invalidate_under(self.root)
        return report


class ChunkedRenderWriter:
    """Stream a render into the store as checksummed part files.

    Feed :meth:`append` each :class:`~repro.pipeline.trace.FragmentBlock`
    as it is produced, then :meth:`finish` with the render counters;
    only then is the sidecar -- the thing that makes the parts an
    artifact -- published.  A writer killed mid-stream leaves orphaned
    parts, which read as a plain miss and are purged by
    :meth:`ArtifactStore.repair` once stale.  On a demoted store every
    method is a no-op and :meth:`finish` returns ``False``; if any
    single part fails to publish, the sidecar is withheld so a partial
    trace can never verify as complete.  A block that breaks the trace
    encoding's 2x2 quads raises ``ValueError`` and publishes no part.
    """

    def __init__(self, store: ArtifactStore, spec: TraceSpec,
                 part_base: int = 0):
        self._store = store
        self._spec = spec
        self._digest = fingerprint(spec.payload())
        self._part_base = int(part_base)
        self._parts = []
        self._has_positions = False
        self._complete = True
        self._finished = False

    def append(self, block) -> None:
        """Atomically publish one block as the next part file."""
        if self._finished:
            raise StoreError("ChunkedRenderWriter already finished")
        store = self._store
        name = part_name(self._digest, self._part_base + len(self._parts))
        written = store._guarded_write(lambda: _publish_file(
            os.path.join(store.root, "traces", name),
            [traceio.encode_trace(block)]))
        if written is None:
            self._complete = False
            return
        envelope, _ = written
        self._parts.append({"name": name, **envelope,
                            "n_accesses": int(block.n_accesses),
                            "n_fragments": int(block.n_fragments)})
        self._has_positions = bool(block.has_positions)

    def finish(self, counters: dict) -> bool:
        """Publish the sidecar listing every part.  ``counters`` must
        carry ``n_triangles_submitted``/``n_triangles_rasterized`` (see
        :meth:`ArtifactStore.publish_chunked_sidecar`).  Returns
        whether the artifact is now complete on disk."""
        parts, complete, has_positions = self.finish_parts()
        if not complete:
            return False
        return self._store.publish_chunked_sidecar(
            self._spec, parts, {**counters, "has_positions": has_positions})

    def finish_parts(self) -> tuple:
        """Close the writer WITHOUT publishing a sidecar; returns
        ``(envelopes, complete, has_positions)``.  This is the
        pipelined-range half of :meth:`finish`: each worker's writer
        hands its envelopes to the parent, which assembles every
        range's parts in order and commits the sidecar itself -- so a
        partial fleet can never publish a partial trace."""
        if self._finished:
            raise StoreError("ChunkedRenderWriter already finished")
        self._finished = True
        complete = self._complete and not self._store._demoted
        return list(self._parts), complete, self._has_positions


class ChunkedRenderReader:
    """Iterate a chunked trace artifact one
    :class:`~repro.pipeline.trace.FragmentBlock` at a time.

    Obtained from :meth:`ArtifactStore.open_render_blocks`, which has
    already verified every part's integrity envelope; reading holds
    one part in memory.  Carries the sidecar's render counters, and
    its ``anchor``: the sidecar's path and the identity its check
    took."""

    def __init__(self, store: ArtifactStore, meta: dict, anchor: tuple):
        self._root = store.root
        self.meta = meta
        self.parts = meta["parts"]
        self.anchor = anchor

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    @property
    def n_accesses(self) -> int:
        return int(self.meta["n_accesses"])

    @property
    def n_fragments(self) -> int:
        return int(self.meta["n_fragments"])

    @property
    def n_triangles_submitted(self) -> int:
        return int(self.meta["n_triangles_submitted"])

    @property
    def n_triangles_rasterized(self) -> int:
        return int(self.meta["n_triangles_rasterized"])

    def read_part(self, index: int) -> FragmentBlock:
        return load_part_block(self._root, self.parts[index]["name"], index)

    def __iter__(self):
        for index in range(self.n_parts):
            yield self.read_part(index)

    def __len__(self) -> int:
        return self.n_parts
