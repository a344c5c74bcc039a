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
share one read (one checked pass over the two files, and a decode of
the bytes that pass read, quarantined when it fails) and one publish
(payload, then sidecar); only the profile loads and saves consult and
fill T0 (below).

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
  and the parts' envelopes) -- the whole resume state, which this
  module alone reads and writes.  One rule, :func:`resumable_ranges`,
  decides which ranges resume: the fold asks it through
  :meth:`ArtifactStore.resume`, which deletes each record it rejects
  and nothing else, and :meth:`ArtifactStore.verify` lists as
  resumable exactly the parts of the ranges it accepts, so
  :meth:`ArtifactStore.repair` purges exactly what the next fold
  would not resume.  Every trace publish (:meth:`ArtifactStore.commit`)
  retires the trace's resume records.

Tiered reads
------------
The directory above is tier T1 of a read-through hierarchy (see
:mod:`~repro.engine.tiers`).  Profile loads consult the process-wide
in-memory tier (T0) first -- decoded profiles in a 256 MiB LRU,
revalidated against the ``(size, mtime_ns, inode)`` of their payload
and sidecar on every hit -- and profile saves write through to it.
T0 holds profiles only, because only profiles are read again in one
process: over the cold paper LRU suite (the eight figure and table
benches at scale 0.25, one process) it answered none of 494 lookups
while holding 55 address streams (246.8 MiB) written through, and on
the end-to-end grids every hit was a profile served to a fresh engine
while every trace and address-stream lookup missed.  An engine keeps
the traces and address streams it uses, and frees them when it is
dropped.  A T0 hit costs one dict lookup and those two ``stat`` calls,
and encodes no key: profile keys have one owner, :class:`ProfileKeys`,
which encodes an address stream's key once and derives every
``(line_size, n_sets)`` pair's payload and digest from that encoding,
and the profile loads and saves take their pair through it.  T0 hands
one profile to every engine in the process, so its counts are made
read-only.  A load of an address stream, or of a profile T0 misses,
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
from typing import NamedTuple, Optional

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
#: ``*.tmp*``, unless a range record :func:`resumable_ranges` accepts
#: names it.
_PART_STEM = re.compile(r"^([0-9a-f]{64})\.p(\d+)$")

#: Crash-resume metadata of an interrupted cold fold:
#: ``<digest>.rNNNNN.done.json``, one completion record per finished
#: range, carrying the fold's range geometry (``<digest>.plan.json`` is
#: the range plan older runs wrote beside them; the second group is a
#: record's range index).  Maintenance must not mistake resume files
#: for artifact sidecars.
_RESUME_STEM = re.compile(r"^([0-9a-f]{64})\.(?:plan|r(\d+)\.done)$")

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


class ProfileKey(NamedTuple):
    """The key of one stored profile, as :class:`ProfileKeys` derives
    it: the artifact ``kind``, the pair, the key ``payload`` and its
    :func:`fingerprint` ``digest``."""

    kind: str
    line_size: int
    n_sets: int
    payload: dict
    digest: str


class ProfileKeys:
    """The one owner of the profile keys of one address stream.

    The ``(line_size, n_sets)`` profile of the stream keyed by
    ``address_payload`` is keyed by :func:`profile_payload` for one set
    (the fully-associative ``profiles/`` artifact) and by
    :func:`set_profile_payload` otherwise.  The ``addresses`` member
    sorts first in the canonical JSON that :func:`fingerprint` hashes,
    and the pair's members sort between ``encoding`` and the version
    stamps, so the stream's key is encoded and hashed once, here, and
    each pair's digest hashes on from a copy of that state: bit for bit
    the digest :func:`fingerprint` gives, with no JSON encoding.  The
    store's profile loads and saves take their pair through an owner
    (:meth:`key`), so no caller hands the store a digest."""

    def __init__(self, address_payload: dict):
        self.address_payload = address_payload
        head = json.dumps({"addresses": address_payload,
                           "encoding": PROFILE_ENCODING},
                          sort_keys=True, separators=(",", ":"))
        self._head = hashlib.sha256(head[:-1].encode())
        self._stamps = (f',"pipeline_version":{PIPELINE_VERSION:d}'
                        f',"trace_format":{traceio.FORMAT_VERSION:d}}}')
        self._keys: dict = {}

    def key(self, line_size: int, n_sets: int = 1) -> ProfileKey:
        """The key of the ``(line_size, n_sets)`` profile, derived once
        per pair."""
        pair = (int(line_size), int(n_sets))
        key = self._keys.get(pair)
        if key is None:
            key = self._keys[pair] = self._derive(*pair)
        return key

    def _derive(self, line_size: int, n_sets: int) -> ProfileKey:
        members = f',"line_size":{line_size:d}'
        if n_sets == 1:
            kind = "profiles"
            payload = profile_payload(self.address_payload, line_size)
        else:
            kind = "set_profiles"
            members += f',"n_sets":{n_sets:d}'
            payload = set_profile_payload(self.address_payload, line_size,
                                          n_sets)
        hasher = self._head.copy()
        hasher.update((members + self._stamps).encode())
        return ProfileKey(kind, line_size, n_sets, payload,
                          hasher.hexdigest())


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


def _address_chunks(addresses: np.ndarray) -> tuple:
    """The bytes ``np.save`` writes for an address stream: its ``.npy``
    header, then the array's own buffer (no copy)."""
    array = np.ascontiguousarray(addresses)
    header = io.BytesIO()
    npy_format.write_array_header_1_0(
        header, npy_format.header_data_from_array_1_0(array))
    return header.getvalue(), array


def _profile_words(profile: DistanceProfile, key: ProfileKey) -> np.ndarray:
    """The payload of the profile stored under ``key``: raw
    little-endian int64 words, the header ``(line_size, n_sets, cold,
    duplicate_hits, n)`` with the key's geometry, then the ``n``
    histogram counts.  The envelope digest guards integrity; the
    header ties the payload to its key."""
    return np.concatenate((
        [key.line_size, key.n_sets, profile.cold, profile.duplicate_hits,
         len(profile.counts)], profile.counts)).astype(_PROFILE_WORD)


def _decode_profile(data, key: ProfileKey) -> SetDistanceProfile:
    """Decode the bytes of a :func:`_profile_words` payload stored
    under ``key``; on a little-endian host its counts are a view of
    ``data``.  Raises ``ValueError`` for a size other than
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
    if (line_size, n_sets) != (key.line_size, key.n_sets):
        raise ValueError(f"profile of {(line_size, n_sets)} under the key "
                         f"of {(key.line_size, key.n_sets)}")
    return SetDistanceProfile(
        line_size=line_size, n_sets=n_sets, cold=cold,
        duplicate_hits=duplicate_hits,
        counts=words[_PROFILE_HEADER:].astype(np.int64, copy=False))


#: Part-index stride between the ranges of a cold fold: range ``r``
#: writes parts ``r * PART_STRIDE + 0, 1, ...``, so that several
#: writers stream one trace without colliding and the sidecar lists
#: every part under the name its writer gave it.  It must exceed any
#: single range's block count.
PART_STRIDE = 100_000


def part_name(digest: str, index: int, range_index: int = 0) -> str:
    """File name of part ``index`` of range ``range_index`` of the
    trace ``digest``: ``<digest>.pNNNNN.npz`` (at least five digits),
    the one place the strided part index is computed."""
    return f"{digest}.p{int(range_index) * PART_STRIDE + int(index):05d}.npz"


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


def _check_parts(directory, parts: list, sidecar=None) -> None:
    """Check every trace part in ``directory`` against the envelope
    ``parts`` records for it (:func:`_check_file`); raises
    :class:`CorruptArtifact` on the first defect.  A missing part is
    in flight while ``sidecar`` is young."""
    for entry in parts:
        name = entry.get("name") if isinstance(entry, dict) else None
        if (not isinstance(name, str) or os.sep in name
                or ".tmp" in name or not _PART_STEM.match(
                    name[:-len(".npz")] if name.endswith(".npz") else name)):
            raise CorruptArtifact("malformed parts manifest")
        _check_file(os.path.join(directory, name), entry,
                    f"missing part {name}", sidecar, f"part {name}: ")


def resumable_ranges(directory, digest: str, records: dict) -> tuple:
    """The one rule for which ranges of an interrupted cold fold of the
    trace ``digest`` resume: ``(geometry, {range index: record})``,
    with ``geometry`` the ``(n_ranges, chunk_size)`` the accepted
    records carry (``None`` when none is).

    ``records`` are keyed by the range index in their names.  In range
    order, a record is accepted when, checked in this order, its
    geometry is sane with ``part_stride`` :data:`PART_STRIDE`; it
    agrees with the records accepted before it; it is ``complete``,
    with ``n_blocks`` envelopes and its ``totals``; its part names are
    the range's own (:func:`part_name`); and every part in
    ``directory`` checks against its envelope.  The rule changes no
    file: :meth:`ArtifactStore.resume` (the fold's call) and
    :meth:`ArtifactStore.verify` both judge by it."""
    geometry, accepted = None, {}
    for index, record in sorted(records.items()):
        try:
            shape = (int(record["n_ranges"]), int(record["chunk_size"]))
            stride = int(record["part_stride"])
        except (KeyError, TypeError, ValueError):
            continue
        envelopes = record.get("envelopes")
        if not (stride == PART_STRIDE and 0 <= index < shape[0]
                and shape[1] >= 1
                and geometry in (None, shape)
                and record.get("complete") is True
                and isinstance(envelopes, list)
                and record.get("n_blocks") == len(envelopes)
                and isinstance(record.get("totals"), dict)
                and [entry.get("name") if isinstance(entry, dict) else None
                     for entry in envelopes]
                == [part_name(digest, sequence, index)
                    for sequence in range(len(envelopes))]):
            continue
        try:
            _check_parts(directory, envelopes)
        except CorruptArtifact:
            continue
        geometry, accepted[index] = shape, record
    return geometry, accepted


def _judge_records(directory, digest: str, paths) -> tuple:
    """``(geometry, accepted, kept)``: the verdict of
    :func:`resumable_ranges` on the range records among the resume
    files ``paths`` of the trace ``digest`` in ``directory`` (an
    unreadable record is judged as ``None``), and the files of the
    records it accepts."""
    records, files = {}, {}
    for path in paths:
        index = _RESUME_STEM.match(path.stem).group(2)
        if index is None:
            continue  # a range plan an older version wrote
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            record = None
        records[int(index)], files[int(index)] = record, path
    geometry, accepted = resumable_ranges(directory, digest, records)
    return geometry, accepted, {files[index] for index in accepted}


def _file_sizes(paths) -> tuple:
    """``(files, bytes)`` of the files among ``paths`` still there."""
    files = nbytes = 0
    for path in paths:
        try:
            nbytes += path.stat().st_size
        except OSError:
            continue  # vanished between glob and stat
        files += 1
    return files, nbytes


def _remove(paths) -> None:
    """Delete ``paths``, passing over those already gone or not
    deletable."""
    for path in paths:
        try:
            path.unlink()
        except OSError:
            pass


class ArtifactStore:
    """Content-addressed cache of pipeline intermediates on disk.

    Loads verify the integrity envelope and quarantine damage; saves
    are atomic and, when the disk itself fails, demote the store to a
    warn-once no-op (readers keep working) rather than raising
    mid-experiment.
    """

    def __init__(self, root=None):
        # One spelling of every path: the digest cache and T0 key
        # files by it, whatever the working directory was called.
        self.root = Path(root if root is not None
                         else default_cache_dir()).absolute()
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

    def _memory_get(self, key: ProfileKey):
        """T0 lookup of the profile stored under ``key``: the decoded
        profile, or ``tiers.MISS``."""
        return tiers.memory_tier().get((str(self.root), key.kind,
                                        key.digest))

    def _memory_put(self, key: ProfileKey, anchors,
                    profile: DistanceProfile) -> None:
        """T0 fill/write-through of the profile stored under ``key``,
        anchored to the payload file AND the ``.json`` sidecar:
        ``anchors`` pair each path with the identity that the read or
        the publish of that file took, and revalidate the entry on
        every later hit -- so a rewrite of either reads as a miss, same
        as the disk tier.  T0 hands the profile to every engine in the
        process, so its counts are made read-only first."""
        profile.counts.flags.writeable = False
        tiers.memory_tier().put((str(self.root), key.kind, key.digest),
                                anchors, profile, profile.counts.nbytes + 64)

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
        """Check one artifact on disk: its sidecar's record, ``None``
        when neither file exists, or :class:`CorruptArtifact`
        describing the damage -- the check of traces and of
        :meth:`verify`.

        The sidecar is read once (:func:`_read_sidecar`, which compares
        ``key`` when given).  Traces (sidecars with a ``parts`` list
        instead of a payload ``envelope``) verify every listed part; a
        trace sidecar without a part list is legacy.  Any other payload
        gets the one check (:func:`_check_file`), which reads nothing
        for a file the digest cache knows."""
        meta, _ = _read_sidecar(sidecar, path, key)
        if meta is None:
            return None
        if isinstance(meta.get("parts"), list):
            _check_parts(self.root / kind, meta["parts"], sidecar)
        elif kind == "traces":
            raise CorruptArtifact("legacy trace (no part list)")
        else:
            _check_file(path, _payload_envelope(meta),
                        "orphaned sidecar (payload missing)", sidecar)
        return meta

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
            self.quarantine("traces", fingerprint(spec.payload()),
                            f"undecodable trace artifact ({fault!r})")
            return None
        return result

    def save_render(self, spec: TraceSpec, result: RenderResult) -> Path:
        """Store ``result``'s trace as a part list cut at
        :data:`DEFAULT_CHUNK_SIZE` accesses, committed as one range
        (:meth:`commit`), unless the store already holds the trace.
        Callers hold the trace's single-flight lock.  Returns the
        sidecar path."""
        sidecar = self._path("traces", fingerprint(spec.payload()), ".json")
        if self.open_render_blocks(spec) is not None:
            # Every writer stores the same stream, though perhaps cut
            # differently; rewriting the parts would change what a
            # reader that already verified them goes on to read.
            return sidecar
        writer = self.open_render_writer(spec)
        for block in iter_blocks(result.trace, DEFAULT_CHUNK_SIZE):
            writer.append(block)
        self.commit(spec, [writer.close({
            "n_fragments": int(result.trace.n_fragments),
            "n_triangles_submitted": int(result.n_triangles_submitted),
            "n_triangles_rasterized": int(result.n_triangles_rasterized),
        })])
        return sidecar

    # -- trace parts, commits and resume state ----------------------------

    def open_render_writer(self, spec: TraceSpec,
                           range_index: int = 0) -> "ChunkedRenderWriter":
        """A :class:`ChunkedRenderWriter` that persists range
        ``range_index`` of ``spec``'s render one
        :class:`~repro.pipeline.trace.FragmentBlock` at a time; peak
        store-side memory is one block.  Each range writes its own
        strided part names (:func:`part_name`), so the writers of one
        fold's ranges stream the same trace without colliding and
        :meth:`commit` lists every part under the name its writer gave
        it."""
        return ChunkedRenderWriter(self, spec, range_index)

    def publish_chunked_sidecar(self, spec: TraceSpec, parts: list,
                                counters: dict) -> bool:
        """Publish the sidecar that turns already-written part files
        into a complete trace artifact -- the publish step of
        :meth:`commit`.  ``counters`` must carry
        ``n_triangles_submitted`` / ``n_triangles_rasterized`` (and
        optionally ``has_positions`` and the frame's exact
        ``n_fragments``); the access total, and the fragment total by
        default, come from the part envelopes."""
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

    def commit(self, spec: TraceSpec, records: list) -> bool:
        """Publish ``spec``'s trace from its ranges' records
        (:meth:`ChunkedRenderWriter.close`), in range order: the one
        trace commit, of :meth:`save_render` and of every streamed
        fold.  The sidecar lists every range's parts under the names
        their writers gave them, with the frame's totals summed over
        the ranges.  Nothing is published unless every range persisted
        completely, so a partial trace never verifies as complete, or
        when a range's parts would run into the next range's index
        space.  A publish retires the trace's resume files; a commit
        that publishes nothing keeps them, so the finished ranges stay
        resumable.  Returns whether the trace was published."""
        if not all(record["complete"] for record in records) or (
                len(records) > 1 and any(len(record["envelopes"]) >= PART_STRIDE
                                         for record in records)):
            return False
        totals = dict(records[0]["totals"])  # n_triangles_submitted is global
        for key in ("n_fragments", "n_triangles_rasterized"):
            totals[key] = sum(int(record["totals"][key]) for record in records)
        totals["has_positions"] = any(
            record["totals"].get("has_positions") for record in records)
        if not self.publish_chunked_sidecar(
                spec, [entry for record in records
                       for entry in record["envelopes"]], totals):
            return False
        _remove(self._resume_files(fingerprint(spec.payload())))
        return True

    def resume(self, spec: TraceSpec) -> tuple:
        """What a cold fold of ``spec`` resumes: ``(geometry, {range
        index: record})`` by :func:`resumable_ranges`, or ``(None,
        {})``.  Every resume file the rule does not accept is deleted,
        and nothing else: the parts a rejected record named stay as
        unlisted parts, which the range's re-render overwrites under
        the same names and :meth:`repair` purges once stale.  The fold
        calls this under the trace's single-flight lock."""
        digest = fingerprint(spec.payload())
        paths = self._resume_files(digest)
        geometry, accepted, kept = _judge_records(self.root / "traces",
                                                  digest, paths)
        _remove(path for path in paths if path not in kept)
        return geometry, accepted

    def _resume_files(self, digest: str) -> list:
        """The resume files of the trace ``digest``: its range records
        and any range plan an older version wrote."""
        return sorted(path for path in
                      (self.root / "traces").glob(digest + ".*.json")
                      if _RESUME_STEM.match(path.stem))

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
        meta = self._open_verified("traces", digest, lambda: (
            self._verify_envelope(
                "traces", self._path("traces", digest, ".npz"),
                self._path("traces", digest, ".json"), key)))
        if meta is None:
            return None
        return ChunkedRenderReader(self, meta)

    # -- payload artifacts: address streams and profiles ------------------

    def _read(self, kind: str, payload: dict, digest: str, suffix: str,
              decode, what: str, read=_read_bytes):
        """The one read of every single-payload artifact, keyed by
        ``payload`` under its fingerprint ``digest``: one verified pass
        over its two files (:func:`_read_payload`) and ``decode(data)``
        of the bytes it ``read`` -- quarantined as undecodable ``what``
        when that fails.  Returns ``(value, anchors)``, the anchors
        being the identities the pass took, or ``None``."""
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
        return value, anchors

    def _publish(self, kind: str, payload: dict, digest: str, suffix: str,
                 chunks) -> tuple:
        """The one publish of every single-payload artifact, keyed by
        ``payload`` under its fingerprint ``digest``: the payload
        ``chunks``, then the sidecar recording the envelope of the bytes
        written.  Returns ``(path, anchors)``: the payload's path, and
        the identities the two writes took (``None`` when the store
        wrote nothing: it is demoted)."""
        base = os.path.join(self.root, kind, digest)
        path, sidecar = base + suffix, base + ".json"

        def publish():
            envelope, identity = _publish_file(path, chunks)
            _, sidecar_identity = _publish_json(sidecar, {
                "key": payload, "envelope": {"kind": kind, **envelope}})
            return (path, identity), (sidecar, sidecar_identity)
        return Path(path), self._guarded_write(publish)

    def load_addresses(self, payload: dict) -> Optional[np.ndarray]:
        # A read-only map instead of a copy: every consumer derives
        # new arrays (line reduction, collapses) and never writes
        # back, so a warm load costs the page-ins its digest check
        # makes, not a copy.
        read = self._read("addresses", payload, fingerprint(payload), ".npy",
                          _decode_addresses, "address stream",
                          read=_map_bytes)
        return None if read is None else read[0]

    def save_addresses(self, payload: dict, addresses: np.ndarray) -> Path:
        path, _ = self._publish("addresses", payload, fingerprint(payload),
                                ".npy", _address_chunks(addresses))
        return path

    def load_profile(self, keys: ProfileKeys,
                     line_size: int) -> Optional[SetDistanceProfile]:
        """The fully-associative profile of ``keys``' address stream:
        the one-set per-set profile of ``line_size``."""
        return self._read_profile(keys.key(line_size))

    def save_profile(self, keys: ProfileKeys, line_size: int,
                     profile: DistanceProfile) -> Path:
        return self._publish_profile(keys.key(line_size), profile)

    def load_set_profile(self, keys: ProfileKeys, line_size: int,
                         n_sets: int) -> Optional[SetDistanceProfile]:
        """The ``(line_size, n_sets)`` profile of ``keys``' address
        stream (one set is :meth:`load_profile`)."""
        return self._read_profile(keys.key(line_size, n_sets))

    def save_set_profile(self, keys: ProfileKeys, line_size: int,
                         n_sets: int, profile: SetDistanceProfile) -> Path:
        return self._publish_profile(keys.key(line_size, n_sets), profile)

    def _read_profile(self, key: ProfileKey) -> Optional[SetDistanceProfile]:
        """The profile stored under ``key``: T0, else the one read
        (:meth:`_read`), filling T0 with the identities it took."""
        cached = self._memory_get(key)
        if cached is not tiers.MISS:
            return cached
        read = self._read(key.kind, key.payload, key.digest, PROFILE_SUFFIX,
                          lambda data: _decode_profile(data, key),
                          "profile" if key.n_sets == 1 else "per-set profile")
        if read is None:
            return None
        profile, anchors = read
        self._memory_put(key, anchors, profile)
        return profile

    def _publish_profile(self, key: ProfileKey,
                         profile: DistanceProfile) -> Path:
        """The one publish (:meth:`_publish`) of the profile stored
        under ``key``, written through to T0 under the identities the
        writes took."""
        path, anchors = self._publish(key.kind, key.payload, key.digest,
                                      PROFILE_SUFFIX,
                                      [_profile_words(profile, key)])
        if anchors is not None:
            self._memory_put(key, anchors, profile)
        return path

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

    def stats(self) -> dict:
        """Per-kind artifact counts and byte totals -- chunked trace
        parts reported separately, whatever their state -- plus
        ``*.tmp*`` litter and quarantined-file counts.  Nothing here
        judges a part: that takes its envelope check, which only
        :meth:`verify` makes."""
        report = {"root": str(self.root), "kinds": {}, "total_bytes": 0,
                  "total_files": 0, "tmp_files": 0,
                  "part_files": 0, "part_bytes": 0,
                  "quarantined": self._count_quarantined(),
                  "memory": tiers.memory_tier().stats(),
                  "digest_cache": tiers.digest_cache().stats()}
        for kind in KINDS:
            payloads, sidecars, tmp_names, parts, _ = self._scan_kind(kind)
            files, nbytes = _file_sizes(list(payloads.values()) + [
                self._path(kind, stem, ".json") for stem in sidecars])
            part_files, part_bytes = _file_sizes(
                part for entries in parts.values() for part in entries)
            report["kinds"][kind] = {
                "files": files, "bytes": nbytes, "tmp": len(tmp_names),
                "parts": part_files, "part_bytes": part_bytes}
            report["total_files"] += files + part_files
            report["total_bytes"] += nbytes + part_bytes
            report["tmp_files"] += len(tmp_names)
            report["part_files"] += part_files
            report["part_bytes"] += part_bytes
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
        ``tmp`` lists temp-file litter.  A stale trace part no sidecar
        lists is ``resumable`` when a range record that
        :func:`resumable_ranges` accepts names it -- exactly the parts
        the next cold fold resumes from, which :meth:`repair` keeps --
        and otherwise ``orphaned_parts``: litter, not corruption.
        ``stale_resume`` lists the stale resume files that the rule
        does not accept, or that outlived their published artifact."""
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
            covered: dict = {}
            for digest, paths in resume.items():
                accepted, kept = {}, set()
                if digest not in sidecars:  # a published trace resumes nothing
                    _, accepted, kept = _judge_records(self.root / kind,
                                                       digest, paths)
                covered[digest] = {part["name"] for record in accepted.values()
                                   for part in record["envelopes"]}
                entry["stale_resume"].extend(
                    path.name for path in paths
                    if path not in kept and _is_stale(path))
            for digest in sorted(parts):
                listed = self._listed_part_names(kind, digest) or set()
                for part in parts[digest]:
                    if part.name in listed:
                        continue  # accounted for by its artifact above
                    if not _is_stale(part):
                        entry["pending"] += 1
                    elif part.name in covered.get(digest, ()):
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
        (within the grace window) are left alone, and so are the
        resumable parts of interrupted cold folds with the records that
        name them: repair purges exactly what the next cold fold would
        not resume."""
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
    """Stream one range of a render into the store as checksummed part
    files.

    Feed :meth:`append` each :class:`~repro.pipeline.trace.FragmentBlock`
    as it is produced, then :meth:`close` for the range's record, which
    :meth:`ArtifactStore.commit` turns into the sidecar -- the thing
    that makes the parts an artifact.  A writer killed mid-stream
    leaves unlisted parts, which read as a plain miss and are purged by
    :meth:`ArtifactStore.repair` once stale.  On a demoted store every
    append is a no-op; if any single part fails to publish, the record
    is incomplete, so a partial trace can never be committed.  A block
    that breaks the trace encoding's 2x2 quads raises ``ValueError``
    and publishes no part.
    """

    def __init__(self, store: ArtifactStore, spec: TraceSpec,
                 range_index: int = 0):
        self._store = store
        self._digest = fingerprint(spec.payload())
        self._range = int(range_index)
        self._parts = []
        self._n_blocks = 0
        self._has_positions = False
        self._complete = True
        self._closed = False

    def append(self, block) -> None:
        """Atomically publish one block as the range's next part file."""
        if self._closed:
            raise StoreError("ChunkedRenderWriter already closed")
        store = self._store
        name = part_name(self._digest, len(self._parts), self._range)
        written = store._guarded_write(lambda: _publish_file(
            os.path.join(store.root, "traces", name),
            [traceio.encode_trace(block)]))
        self._n_blocks += 1
        if written is None:
            self._complete = False
            return
        envelope, _ = written
        self._parts.append({"name": name, **envelope,
                            "n_accesses": int(block.n_accesses),
                            "n_fragments": int(block.n_fragments)})
        self._has_positions = bool(block.has_positions)

    def close(self, totals: dict, geometry=None) -> dict:
        """Close the writer and return the range's record: its part
        ``envelopes``, whether every part published (``complete``), the
        render ``totals`` with ``has_positions`` and its ``n_blocks``.
        Given the cold fold's ``(n_ranges, chunk_size)``, the record
        leads with the fold's range geometry and, when complete, is
        saved as the range's resume record before it is returned, so a
        fold interrupted after this range resumes it
        (:func:`resumable_ranges`)."""
        if self._closed:
            raise StoreError("ChunkedRenderWriter already closed")
        self._closed = True
        store = self._store
        record = {"envelopes": list(self._parts),
                  "complete": self._complete and not store._demoted,
                  "totals": {**totals, "has_positions": self._has_positions},
                  "n_blocks": self._n_blocks}
        if geometry is None:
            return record
        n_ranges, chunk_size = geometry
        record = {"range": self._range, "n_ranges": n_ranges,
                  "chunk_size": chunk_size, "part_stride": PART_STRIDE,
                  **record}
        if record["complete"]:
            store._guarded_write(lambda: _publish_json(store._path(
                "traces", self._digest, f".r{self._range:05d}.done.json"),
                record))
        return record


class ChunkedRenderReader:
    """Iterate a chunked trace artifact one
    :class:`~repro.pipeline.trace.FragmentBlock` at a time.

    Obtained from :meth:`ArtifactStore.open_render_blocks`, which has
    already verified every part's integrity envelope; reading holds
    one part in memory.  Carries the sidecar's render counters."""

    def __init__(self, store: ArtifactStore, meta: dict):
        self._root = store.root
        self.meta = meta
        self.parts = meta["parts"]

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
