"""Pipelined parallel streaming: overlap render, persist and fold.

The serial streaming fold (:mod:`repro.engine.streaming`) renders
blocks, persists parts and folds profiles strictly one after another
in a single process.  This module runs the same fold across a
**persistent** pool of worker processes, with bit-identical results::

    parent                          workers (persistent StreamPool)
    ------                          -------------------------------
    submit render ranges   ----->   task queue
    supervise: heartbeats,          render one contiguous clipped-
    deadlines, respawn dead         triangle slice -> FragmentBlocks,
    workers, retry failed           persist each part, fold it into
    ranges with backoff             the range's per-pair states
    collect range states   <-----   event queue (per-range partial
    merge in range order            states + part envelopes)
    renumber + publish
    sidecar (all ranges
    complete, or nothing)

**Parallel cold render.**  The clipped triangle index space is cut
into equal contiguous slices (:func:`~repro.pipeline.renderer.
triangle_slice_bounds` -- a pure function of the clipped triangle
count, so each worker derives its own bounds).  Triangle boundaries
are fragment boundaries, so concatenating the slices' block streams
in slice order is bit-identical to the unsliced stream, and the
associative-exact :meth:`~repro.core.kernels.PartialSetProfile.merge`
over per-range states in range order reproduces the serial fold bit
for bit (merge is *not* commutative -- order is load-bearing).

**Fold in the workers.**  Each worker folds the blocks it renders
right after persisting them and ships only its range's tiny partial
states: render and fold both parallelize across the whole pool and no
block-sized data crosses a process boundary.

**Persistence.**  Each worker writes its slice's parts through its
own ``part_base``-offset :class:`~repro.engine.artifacts.
ChunkedRenderWriter` (checksummed, atomically published, sidecar
withheld).  Only the parent -- after every range reports complete --
renumbers the strided parts into the dense ``.p00000`` sequence and
publishes the sidecar, so a partially rendered trace can never
verify as a complete artifact.

**Self-healing.**  A fold does not fail whole on the first fault; it
degrades through an escalation ladder, each rung strictly cheaper
than the next:

1. *Supervised retry.*  The parent (:class:`_Supervision`) tracks
   which worker owns which range through ``started`` events and a
   shared heartbeat array.  A dead worker (SIGKILL, OOM) is detected
   by liveness polling and respawned in place -- forked from the
   parent, so it re-inherits the copy-on-write scene memo -- and a
   wedged worker (heartbeat stale past the per-job deadline,
   ``REPRO_STREAM_JOB_TIMEOUT``) is killed first.  Only the *failed
   contiguous ranges* are re-dispatched, with bounded retries and
   exponential backoff (:data:`STREAM_RETRIES`).
2. *Residual recovery.*  A range that exhausts its retry budget is
   rendered or folded serially in the parent -- the fold still
   completes bit-identically, with a ``RuntimeWarning`` naming the
   residual count.
3. *Serial fallback.*  Only when *no* range succeeds through the pool
   (or the pipeline itself is unusable) does :class:`PipelineError`
   propagate and :class:`~repro.engine.streaming.StreamedProfiles`
   rerun the entire serial path.

**Crash-resume.**  A cold fold killed mid-run (SIGKILL of the parent,
ENOSPC demotion) leaves checksummed strided parts behind plus two
kinds of resume metadata (:meth:`~repro.engine.artifacts.
ArtifactStore.save_stream_plan` / ``save_range_record``): the range
plan written at dispatch and one completion record per finished
range, listing its part envelopes.  The next cold fold of the same
spec verifies the surviving parts against those envelopes, folds the
verified ranges *warm* (``foldparts`` jobs), re-renders only the
missing ranges under the original plan geometry, then renumbers and
publishes as usual -- bit-identical to an uninterrupted run.

**Observability.**  Every fold accounts its recovery actions in a
:class:`StreamReport` hung off the ``StreamedProfiles`` and surfaced
on ``ExperimentResult`` and in the CLI: respawns, retried/residual/
resumed ranges, serial fallbacks and recovery wall-clock (time from a
range's first failure to its recovery, plus respawn and residual
work; resumed work is *saved* time and is counted by range/part
instead).  Deterministic fault injection for all of the above lives
in :mod:`repro.engine.faults` (``REPRO_FAULT_PLAN``).

**Warm traces** (chunked parts already in the store) skip the render
stage: part ranges fan out over the same pool, each worker folds its
range into picklable partial states, and the parent merges them in
part order under the same supervision.  A single-part trace has
nothing to fan out and folds in the parent.
"""

from __future__ import annotations

import atexit
import os
import random
import time
import traceback
import warnings
from dataclasses import dataclass, field
from queue import Empty

import numpy as np

from ..core.kernels import PartialSetProfile
from ..pipeline import traceio
from ..pipeline.renderer import render_trace_blocks
from ..texture.memory import place_textures
from . import faults
from .artifacts import ArtifactStore, fingerprint, load_part_block
from .spec import layout_from_spec, order_from_spec

#: Part-index stride between ranges; the parent renumbers densely, so
#: this only needs to exceed any single range's block count.
PART_STRIDE = 100_000

#: Render/fold ranges per worker: >1 so a fragment-heavy slice is
#: rebalanced dynamically through the shared task queue, but low --
#: each range pays fixed dispatch/flush costs, and on the few-core
#: hosts this targets the smoothing won from finer slices is smaller
#: than that overhead.
RANGES_PER_WORKER = 2

#: Event-queue poll interval.
EVENT_POLL_S = 0.05

#: How often the supervisor polls worker liveness and heartbeats.
HEALTH_POLL_S = 0.5

#: A pipeline that neither delivers an event nor recovers a range for
#: this long (with live workers) is declared wedged.
NO_PROGRESS_TIMEOUT_S = 600.0

#: Per-range retry budget and backoff base: a range is retried this
#: many times (with exponential backoff and jitter) before becoming
#: *residual* and recovering serially in the parent.
STREAM_RETRIES = 2
STREAM_BACKOFF_S = 0.25

#: A dispatched range whose worker heartbeat goes stale for this long
#: is presumed wedged: the worker is killed, respawned, and the range
#: retried.  Override with ``REPRO_STREAM_JOB_TIMEOUT`` (seconds).
STREAM_JOB_TIMEOUT_S = 600.0


def _job_timeout_s() -> float:
    """``REPRO_STREAM_JOB_TIMEOUT`` when it parses to a number > 0,
    else :data:`STREAM_JOB_TIMEOUT_S`.  A zero or negative deadline
    would declare every busy worker wedged, and ``nan`` fails every
    comparison, so both are treated like unparsable values."""
    try:
        value = float(os.environ.get("REPRO_STREAM_JOB_TIMEOUT", ""))
    except ValueError:
        return STREAM_JOB_TIMEOUT_S
    return value if value > 0 else STREAM_JOB_TIMEOUT_S


class PipelineError(RuntimeError):
    """The pipelined fold could not run or finish; callers degrade to
    the serial streaming path (results stay bit-identical)."""


@dataclass
class StreamReport:
    """Recovery accounting for the pipelined streaming engine.  One
    report accumulates across every fold of a ``StreamedProfiles`` (an
    experiment row folds once per trace/layout); ``recovery_s`` is the
    wall-clock from each range's first failure to its recovery plus
    respawn and residual-recovery work, while *resumed* work -- saved,
    not lost, time -- is counted by range and part instead."""

    folds: int = 0
    respawns: int = 0
    retried_ranges: int = 0
    residual_ranges: int = 0
    resumed_ranges: int = 0
    resumed_parts: int = 0
    fallbacks: int = 0
    recovery_s: float = 0.0
    events: tuple = field(default=())

    _MAX_EVENTS = 64

    def note(self, event: str) -> None:
        if len(self.events) < self._MAX_EVENTS:
            self.events = (*self.events, str(event))

    @property
    def clean(self) -> bool:
        """True when every fold ran without any recovery action."""
        return not (self.respawns or self.retried_ranges
                    or self.residual_ranges or self.resumed_ranges
                    or self.fallbacks or self.events)

    def absorb(self, other: "StreamReport") -> None:
        """Fold another report into this one (a run aggregates the
        per-``StreamedProfiles`` reports of every trace/layout row)."""
        self.folds += other.folds
        self.respawns += other.respawns
        self.retried_ranges += other.retried_ranges
        self.residual_ranges += other.residual_ranges
        self.resumed_ranges += other.resumed_ranges
        self.resumed_parts += other.resumed_parts
        self.fallbacks += other.fallbacks
        self.recovery_s += other.recovery_s
        for event in other.events:
            self.note(event)

    def summary(self) -> str:
        if self.clean:
            return (f"stream: {self.folds} pipelined fold(s), "
                    "no recovery needed")
        parts = [f"stream: {self.folds} fold(s)"]
        if self.respawns:
            parts.append(f"{self.respawns} worker respawn(s)")
        if self.retried_ranges:
            parts.append(f"{self.retried_ranges} range retry(ies)")
        if self.residual_ranges:
            parts.append(f"{self.residual_ranges} residual range(s) "
                         "recovered serially")
        if self.resumed_ranges:
            parts.append(f"{self.resumed_ranges} range(s) resumed from "
                         f"{self.resumed_parts} published part(s)")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} serial fallback(s)")
        if self.recovery_s:
            parts.append(f"recovery {self.recovery_s:.2f}s")
        return ", ".join(parts)


def _report_of(profiles) -> StreamReport:
    """The profiles' recovery report, created on first use (keeps
    ``fold_pipelined`` usable on bare test doubles)."""
    report = getattr(profiles, "stream_report", None)
    if report is None:
        report = StreamReport()
        try:
            profiles.stream_report = report
        except AttributeError:
            pass
    return report


# -- fold and render helpers (workers and parent) -------------------------

#: Per-worker memo of the last built scene / placements: an experiment
#: grid re-renders and re-folds the same scene across many rows, and
#: the pool persists across rows, so this is where scene builds
#: amortize.  Size-one on purpose (bounded worker RSS).
_SCENES: dict = {}
_PLACEMENTS: dict = {}
_READERS: dict = {}


def _cached_scene(spec):
    from .streaming import _build_scene
    key = (spec.scene, float(spec.scale), float(spec.time))
    if key not in _SCENES:
        _SCENES.clear()
        _PLACEMENTS.clear()
        _SCENES[key] = _build_scene(spec)
    return _SCENES[key]


def _cached_placements(spec, layout_spec):
    key = (spec.scene, float(spec.scale), float(spec.time),
           tuple(layout_spec))
    if key not in _PLACEMENTS:
        _PLACEMENTS.clear()
        _PLACEMENTS[key] = place_textures(
            _cached_scene(spec).get_mipmaps(),
            layout_from_spec(layout_spec))
    return _PLACEMENTS[key]


def _cached_reader(root: str, spec):
    """Open (and envelope-verify) a chunked trace once per worker, not
    once per fold job: a published trace is immutable and an experiment
    grid folds the same trace once per profile pair, so re-verifying
    every part's checksum on every job dominates small fold ranges."""
    key = (root, fingerprint(spec.payload()))
    if key not in _READERS:
        reader = ArtifactStore(root).open_render_blocks(spec)
        if reader is None:
            return None  # never cache a miss: the trace may land later
        _READERS.clear()
        _READERS[key] = reader
    return _READERS[key]


def _fold_blocks(pairs, placements, blocks, beat=None) -> dict:
    """Fold ``blocks`` in order into fresh per-pair partial states."""
    from .streaming import _fold_block_into
    states = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
    for block in blocks:
        _fold_block_into(states, block.byte_addresses(placements))
        if beat is not None:
            beat()
    return states


def _merge_in_order(pairs, ranges) -> dict:
    """Merge per-range states in range order: ``merge`` is
    associative-exact but not commutative, and range order is stream
    order."""
    merged = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
    for states in ranges:
        for pair in pairs:
            merged[pair] = merged[pair].merge(states[pair])
    return merged


def _render_range(store, job: dict, placements, before_block=None) -> tuple:
    """Render one triangle slice: persist its parts (strided index
    space) and fold each block into the range's per-pair states as it
    is produced.  Returns ``(states, payload)`` with the part
    envelopes and slice totals; a completed range also leaves a
    completion record in the store, on disk before anyone hears the
    range is done, so an interrupted run can resume from its parts.
    ``before_block(n)`` runs ahead of block ``n`` (worker heartbeat
    and fault injection)."""
    from .streaming import _fold_block_into
    spec = job["trace_spec"]
    writer = store.open_render_writer(spec, part_base=job["part_base"])
    states = {pair: PartialSetProfile.empty(*pair) for pair in job["pairs"]}
    totals: dict = {}
    n_blocks = 0
    for block in render_trace_blocks(
            _cached_scene(spec), job["chunk_size"],
            order=order_from_spec(spec.order), raster=spec.raster,
            record_positions=spec.record_positions,
            max_anisotropy=spec.max_anisotropy, lod_bias=spec.lod_bias,
            use_mipmaps=spec.use_mipmaps, totals=totals,
            triangle_slice=(job["range"], job["n_ranges"])):
        if before_block is not None:
            before_block(n_blocks)
        writer.append(block)
        _fold_block_into(states, block.byte_addresses(placements))
        n_blocks += 1
    envelopes, complete, has_positions = writer.finish_parts()
    totals.pop("per_triangle_fragments", None)
    totals["has_positions"] = has_positions
    payload = {"envelopes": envelopes, "complete": complete,
               "totals": totals, "n_blocks": n_blocks}
    if complete:
        store.save_range_record(spec, job["range"],
                                {"range": job["range"], **payload})
    return states, payload


# -- worker side -----------------------------------------------------------

def _bind_to_parent_lifetime() -> None:
    """Linux: ask the kernel to SIGTERM this worker when its parent
    dies (``PR_SET_PDEATHSIG``).  A parent killed without cleanup --
    SIGKILL, ``os._exit`` -- must not leave orphaned workers blocked
    forever on the task queue; crash-resume replaces them on the next
    run."""
    try:
        import ctypes
        import signal as signals
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signals.SIGTERM, 0, 0, 0)  # 1 = PR_SET_PDEATHSIG
    except Exception:
        pass  # non-Linux hosts: orphans idle until their queue closes


def _worker_loop(tasks, events, heartbeats, slot) -> None:
    """Generic persistent worker: render and fold ranges until the
    ``None`` sentinel.  A task failure is reported as an event and the
    worker lives on; only a hard crash kills it.  The worker stamps
    ``heartbeats[slot]`` at task pickup and per block/part so the
    supervisor can tell wedged from slow."""
    _bind_to_parent_lifetime()
    while True:
        task = tasks.get()
        if task is None:
            break
        kind, job = task
        heartbeats[slot] = time.monotonic()

        def beat():
            heartbeats[slot] = time.monotonic()

        events.put(("started", job.get("fold", 0), job.get("range", -1),
                    job.get("attempt", 0), slot, os.getpid()))
        try:
            if kind == "render":
                _worker_render(job, events, beat)
            elif kind == "fold":
                _worker_fold(job, events, beat)
            elif kind == "foldparts":
                _worker_fold_parts(job, events, beat)
            else:
                raise RuntimeError(f"unknown stream task {kind!r}")
        except Exception:
            events.put(("error", job.get("fold", 0), job.get("range", -1),
                        job.get("attempt", 0), traceback.format_exc()))
        beat()


def _run_worker_fault(fault, store) -> None:
    """Execute an armed render-block fault directive in the worker."""
    if fault.action == "kill-worker":
        os._exit(1)  # a hard crash: no cleanup, like the OOM killer
    elif fault.action == "wedge-worker":
        time.sleep(float(fault.param("seconds", 3600.0)))
    elif fault.action == "enospc":
        # What ArtifactStore._demote does when the disk fills, minus
        # the warning: writes silently stop persisting mid-range.
        store._demoted = True


def _worker_render(job: dict, events, beat) -> None:
    """Render, persist and fold one triangle slice; report its part
    envelopes and per-pair states."""
    store = ArtifactStore(job["root"])

    def before_block(n_blocks):
        beat()
        fault = faults.maybe_fault("render-block", range=job["range"],
                                   block=n_blocks)
        if fault is not None:
            _run_worker_fault(fault, store)

    states, payload = _render_range(
        store, job, _cached_placements(job["trace_spec"], job["layout_spec"]),
        before_block)
    events.put(("range_done", job.get("fold", 0), job["range"],
                job.get("attempt", 0), {**payload, "states": states}))


def _worker_fold(job: dict, events, beat) -> None:
    """Fold one contiguous part range of a warm chunked trace into
    per-pair partial states (picklable; parent merges in part order)."""
    reader = _cached_reader(job["root"], job["trace_spec"])
    if reader is None:
        raise RuntimeError("chunked trace vanished under the fold")
    placements = _cached_placements(job["trace_spec"], job["layout_spec"])
    states = _fold_blocks(
        job["pairs"], placements,
        (reader.read_part(index) for index in range(job["lo"], job["hi"])),
        beat)
    events.put(("fold_done", job.get("fold", 0), job["range"],
                job.get("attempt", 0), states))


def _worker_fold_parts(job: dict, events, beat) -> None:
    """Fold the explicitly named (envelope-verified) part files of one
    resumed range -- the crash-resume analog of :func:`_worker_fold`,
    which cannot be used because an interrupted render has no sidecar
    to open a reader from."""
    placements = _cached_placements(job["trace_spec"], job["layout_spec"])
    states = _fold_blocks(
        job["pairs"], placements,
        (load_part_block(job["root"], name, sequence)
         for sequence, name in enumerate(job["parts"])),
        beat)
    events.put(("fold_done", job.get("fold", 0), job["range"],
                job.get("attempt", 0), states))


# -- the persistent pool ---------------------------------------------------

#: Process-wide respawn counter: folds snapshot it around their run to
#: attribute respawns (including ones performed by ``get_pool``
#: between folds) without double counting.
_RESPAWNS_TOTAL = 0


class StreamPool:
    """A persistent pool of streaming workers plus the two queues that
    connect them to the parent.  One pool serves every fold of every
    row of an experiment grid; individual dead workers are respawned
    in place (:meth:`respawn_dead`) and the pool is only rebuilt when
    the worker count changes."""

    def __init__(self, workers: int):
        import multiprocessing
        self.workers = int(workers)
        self._context = multiprocessing.get_context()
        self.tasks = self._context.Queue()
        # Unbounded on purpose: a bounded queue's slot semaphore is
        # acquired at put() but only released when the parent receives
        # the message, so a worker crashing between put() and its
        # feeder thread's flush would leak the slot forever -- enough
        # crashes and every future worker wedges inside put().  Events
        # are small (per-range states and envelopes), so nothing needs
        # the backpressure a bound would give.
        self.events = self._context.Queue()
        #: Worker liveness stamps (``time.monotonic`` is system-wide on
        #: the platforms with fork, so parent and child clocks agree).
        self.heartbeats = self._context.Array("d", self.workers)
        #: Monotonic per-pool fold counter: events carry the fold id
        #: they belong to, so a fold never consumes a predecessor's
        #: stragglers (a worker may outlive the fold that queued its
        #: task).
        self.fold_id = 0
        self.respawns = 0
        self.processes = [None] * self.workers
        for slot in range(self.workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        self.heartbeats[slot] = time.monotonic()
        process = self._context.Process(
            target=_worker_loop,
            args=(self.tasks, self.events, self.heartbeats, slot),
            name=f"stream-worker-{slot}", daemon=True)
        process.start()
        self.processes[slot] = process

    def alive(self) -> bool:
        return all(process.is_alive() for process in self.processes)

    def dead_slots(self) -> list:
        return [slot for slot, process in enumerate(self.processes)
                if not process.is_alive()]

    def respawn_dead(self) -> int:
        """Replace every dead worker with a fresh fork of the parent
        (which re-inherits the copy-on-write scene memo seeded before
        the original pool start).  Returns the number respawned."""
        global _RESPAWNS_TOTAL
        respawned = 0
        for slot in self.dead_slots():
            try:
                self.processes[slot].join(timeout=0)  # reap the zombie
            except Exception:
                pass
            self._spawn(slot)
            respawned += 1
        self.respawns += respawned
        _RESPAWNS_TOTAL += respawned
        return respawned

    def kill_slot(self, slot: int) -> None:
        """Terminate one (presumed wedged) worker so
        :meth:`respawn_dead` can replace it."""
        process = self.processes[slot]
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)

    def shutdown(self, force: bool = False) -> None:
        if not force:
            for _ in self.processes:
                try:
                    self.tasks.put_nowait(None)
                except Exception:
                    break
            for process in self.processes:
                process.join(timeout=5.0)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        # Never read the event queue here: a terminated worker can leave
        # an event half-written in the pipe, and reading it blocks.
        for channel in (self.tasks, self.events):
            try:
                channel.close()
                channel.cancel_join_thread()
            except Exception:
                pass


_POOL: StreamPool = None


def _seed_pool_memos(spec, layout_spec, workers: int) -> None:
    """Pre-build the scene and placements in the parent when a fresh
    pool is about to fork: children inherit the worker memos
    copy-on-write, so the whole pool pays one scene build -- mipmaps
    included -- instead of one per worker.  Texture synthesis dominates
    cold time on small scenes, and the duplicated builds also contended
    for memory bandwidth.  Also the reason respawned workers stay
    cheap: they fork from a parent whose memo is already warm.  No-op
    when the pool already exists with every worker alive (the forks
    already happened) or the start method cannot inherit parent
    memory."""
    import multiprocessing
    if _POOL is not None and _POOL.workers == int(workers) \
            and _POOL.alive():
        return
    if multiprocessing.get_start_method() != "fork":
        return
    _cached_placements(spec, layout_spec)


def get_pool(workers: int) -> StreamPool:
    """The process-wide persistent pool, (re)built on first use or on a
    worker-count change.  Workers that died since the last fold are
    respawned in place -- a cheap liveness check instead of failing the
    first post-crash dispatch or tearing down the whole pool -- and
    only an unrespawnable pool is replaced."""
    global _POOL
    workers = int(workers)
    if _POOL is not None and _POOL.workers != workers:
        _POOL.shutdown(force=not _POOL.alive())
        _POOL = None
    if _POOL is not None and not _POOL.alive():
        try:
            _POOL.respawn_dead()
        except Exception:
            _POOL.shutdown(force=True)
            _POOL = None
    if _POOL is None:
        _POOL = StreamPool(workers)
    return _POOL


def shutdown_stream_pool() -> None:
    """Tear down the persistent pool (idempotent; re-created lazily)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


def _break_pool() -> None:
    """Hard-stop a pool in an unknown state (failed run): a clean one
    is rebuilt on the next fold."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(force=True)


atexit.register(shutdown_stream_pool)


# -- parent-side supervision -----------------------------------------------

class _Supervision:
    """Parent-side supervisor for one pipelined fold: tracks which
    worker owns which range (via ``started`` events), detects dead and
    wedged workers, respawns them, and re-dispatches only the failed
    ranges with bounded retries and exponential backoff.  A range that
    exhausts the budget becomes *residual* -- recovered serially by
    the caller -- instead of failing the fold."""

    def __init__(self, pool: StreamPool, jobs: dict,
                 report: StreamReport, label: str):
        self.pool = pool
        self.report = report
        self.label = label
        self.jobs = dict(jobs)  # range index -> (task kind, job dict)
        self.attempt = {index: 0 for index in self.jobs}
        self.tries = {index: 0 for index in self.jobs}
        self.dispatched_at: dict = {}
        self.owner: dict = {}       # range index -> worker slot
        self.slot_range: dict = {}  # worker slot -> range index
        self.complete: set = set()
        self.residual: dict = {}    # range index -> first terminal reason
        self.retry_at: list = []    # (due monotonic time, range index)
        self.first_failed_at: dict = {}
        self.timeout = _job_timeout_s()

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, index: int) -> None:
        kind, job = self.jobs[index]
        self.tries[index] += 1
        self.dispatched_at[index] = time.monotonic()
        self.pool.tasks.put((kind, dict(job, attempt=self.attempt[index],
                                        fold=self.pool.fold_id)))

    def dispatch_all(self) -> None:
        for index in self.jobs:
            self.dispatch(index)

    def flush_due(self) -> bool:
        """Dispatch retries whose backoff has elapsed (the event loop
        stays non-blocking: the parent never sleeps a backoff)."""
        if not self.retry_at:
            return False
        now = time.monotonic()
        due = [index for when, index in self.retry_at if when <= now]
        if not due:
            return False
        self.retry_at = [(when, index) for when, index in self.retry_at
                         if when > now]
        for index in due:
            self.dispatch(index)
        return True

    # -- bookkeeping ------------------------------------------------------

    def current(self, index: int, attempt: int) -> bool:
        """Whether an event belongs to the range's current attempt."""
        return self.attempt.get(index) == attempt

    def note_started(self, index: int, attempt: int, slot: int) -> None:
        if index in self.complete or index in self.residual \
                or not self.current(index, attempt):
            return
        previous = self.owner.get(index)
        if previous is not None:
            self.slot_range.pop(previous, None)
        self.owner[index] = slot
        self.slot_range[slot] = index

    def note_complete(self, index: int) -> None:
        self.complete.add(index)
        self.residual.pop(index, None)  # a late success beats recovery
        slot = self.owner.pop(index, None)
        if slot is not None:
            self.slot_range.pop(slot, None)
        failed_at = self.first_failed_at.pop(index, None)
        if failed_at is not None:
            self.report.recovery_s += time.monotonic() - failed_at

    def fail(self, index: int, why: str) -> None:
        """Record one attempt failure: schedule a backoff retry inside
        the budget, park the range as residual beyond it."""
        if index in self.complete or index in self.residual \
                or index not in self.jobs:
            return
        slot = self.owner.pop(index, None)
        if slot is not None:
            self.slot_range.pop(slot, None)
        self.attempt[index] += 1
        self.first_failed_at.setdefault(index, time.monotonic())
        self.report.note(f"{self.label} range {index}: {why}")
        if self.tries[index] > STREAM_RETRIES:
            self.residual[index] = why
            self.report.residual_ranges += 1
            return
        self.report.retried_ranges += 1
        delay = STREAM_BACKOFF_S * (2 ** (self.tries[index] - 1))
        delay *= 0.5 + random.random()  # jitter
        self.retry_at.append((time.monotonic() + delay, index))

    # -- health -----------------------------------------------------------

    def check_health(self) -> bool:
        """Detect dead and wedged workers; fail their ranges and
        respawn replacements.  Returns True when it acted (which counts
        as progress for the stall detector)."""
        acted = False
        pool = self.pool
        dead = pool.dead_slots()
        unattributed = 0
        for slot in dead:
            index = self.slot_range.get(slot)
            if index is not None:
                self.fail(index, f"worker died (slot {slot})")
                acted = True
            else:
                unattributed += 1
        if unattributed:
            # A worker that crashes right after claiming a task usually
            # kills its queue feeder thread before the "started" event
            # flushes, so the death cannot be attributed to a range.
            # Each dead worker held at most one task: fail the oldest
            # in-flight unattributed ranges, one per death.  If the
            # guess is wrong (the worker died idle, or the claim event
            # is still in the queue), the duplicate dispatch is safe --
            # stale attempts are filtered and duplicate part publishes
            # are atomic replaces of identical bytes.
            pending_retry = {index for _, index in self.retry_at}
            candidates = sorted(
                (index for index in self.jobs
                 if index not in self.complete
                 and index not in self.residual
                 and index not in self.owner
                 and index not in pending_retry),
                key=lambda index: self.dispatched_at.get(index, 0.0))
            for index in candidates[:unattributed]:
                self.fail(index, "worker died before reporting its range")
                acted = True
        if dead:
            started = time.monotonic()
            if pool.respawn_dead():
                self.report.recovery_s += time.monotonic() - started
                acted = True
        now = time.monotonic()
        for slot, index in list(self.slot_range.items()):
            if now - pool.heartbeats[slot] <= self.timeout:
                continue
            pool.kill_slot(slot)
            self.fail(index, f"worker wedged (slot {slot}: no heartbeat "
                             f"for {self.timeout:.0f}s)")
            pool.respawn_dead()
            acted = True
        # A task dispatched but never started past the deadline has
        # fallen out of the queue (poisoned pickle, queue feeder died
        # with the worker); re-dispatching a duplicate is safe -- a
        # straggler's stale-attempt events are filtered, and duplicate
        # part publishes are atomic replaces of identical bytes.
        pending_retry = {index for _, index in self.retry_at}
        for index in self.jobs:
            if index in self.complete or index in self.residual \
                    or index in self.owner or index in pending_retry:
                continue
            if now - self.dispatched_at.get(index, now) > self.timeout:
                self.fail(index, "task lost (dispatched, never started)")
                acted = True
        return acted

    def finished(self) -> bool:
        return len(self.complete) + len(self.residual) == len(self.jobs)


def _last_line(text: str) -> str:
    lines = str(text).strip().splitlines()
    return lines[-1] if lines else str(text)


def _receive(pool: StreamPool, supervisor: _Supervision, message,
             handle) -> bool:
    """Route one event-queue message: filter stale folds, apply
    supervision events, delegate data events to the fold's handler.
    Returns True when the message constituted progress."""
    kind, fold, index, attempt = (message[0], message[1],
                                  message[2], message[3])
    if fold != pool.fold_id:
        return False  # a straggler from an earlier fold of this pool
    if kind == "started":
        slot, pid = message[4], message[5]
        process = pool.processes[slot] \
            if 0 <= slot < len(pool.processes) else None
        if process is None or process.pid != pid:
            # The claim came from a previous incarnation of this slot:
            # the claimer died (and was respawned) before its event was
            # drained, so its range needs a retry *now* -- mapping it
            # to the idle replacement would stall it until the job
            # deadline.
            if supervisor.current(index, attempt):
                supervisor.fail(
                    index, f"worker died at startup (slot {slot})")
            return True
        supervisor.note_started(index, attempt, slot)
        return True  # liveness: the range is in flight, not stalled
    if kind == "error":
        if index < 0:
            raise PipelineError(
                f"stream worker failed:\n{message[4]}")
        if supervisor.current(index, attempt):
            supervisor.fail(
                index, f"worker task failed: {_last_line(message[4])}")
        return True
    return handle(kind, index, message)


def _drive(pool: StreamPool, supervisor: _Supervision, handle,
           what: str = "pipelined fold") -> None:
    """The supervised event loop shared by the warm and cold folds:
    flush due retries, consume events, check worker health on a short
    period, and declare a stall only when nothing -- events or
    recoveries -- has progressed for :data:`NO_PROGRESS_TIMEOUT_S`."""
    last_progress = last_health = time.monotonic()
    while not supervisor.finished():
        if supervisor.flush_due():
            last_progress = time.monotonic()
        try:
            message = pool.events.get(timeout=EVENT_POLL_S)
        except Empty:
            message = None
        now = time.monotonic()
        if message is not None and _receive(pool, supervisor, message,
                                            handle):
            last_progress = now
            continue
        if now - last_health >= HEALTH_POLL_S:
            last_health = now
            if supervisor.check_health():
                last_progress = now
                continue
        if now - last_progress > NO_PROGRESS_TIMEOUT_S:
            raise PipelineError(
                f"{what} stalled (no progress for "
                f"{NO_PROGRESS_TIMEOUT_S:.0f}s)")


def _maybe_kill_run(done_count: int) -> None:
    """Chaos hook: crash the *parent* after ``after`` ranges completed
    (``kill-run`` in ``REPRO_FAULT_PLAN``) -- the deterministic stand-in
    for SIGKILL in crash-resume tests."""
    fault = faults.maybe_fault("range-complete", after=done_count)
    if fault is None:
        return
    if fault.param("mode", "raise") == "exit":
        os._exit(42)
    raise faults.InjectedCrash(
        f"injected parent crash after {done_count} completed range(s)")


# -- parent-side drivers ---------------------------------------------------

def fold_pipelined(profiles, pairs) -> dict:
    """Compute every pair's :class:`PartialSetProfile` for
    ``profiles`` (a :class:`~repro.engine.streaming.StreamedProfiles`)
    through the pipelined pool, self-healing per range.  Raises
    :class:`PipelineError` -- with the pool torn down -- only when the
    pipeline is unusable or no range succeeded, so the caller can
    rerun the serial path."""
    pairs = tuple(pairs)
    if int(profiles.stream_workers) < 2:
        raise PipelineError("pipelined fold needs stream_workers >= 2")
    report = _report_of(profiles)
    report.folds += 1
    respawns_before = _RESPAWNS_TOTAL
    try:
        return _fold_dispatch(profiles, pairs)
    except PipelineError:
        _break_pool()
        raise
    except Exception as fault:
        _break_pool()
        raise PipelineError(f"{type(fault).__name__}: {fault}") from fault
    finally:
        report.respawns += _RESPAWNS_TOTAL - respawns_before


def _fold_dispatch(profiles, pairs) -> dict:
    store = profiles.store
    spec = profiles.trace_spec
    reader = store.open_render_blocks(spec)
    if reader is None and store.load_render(spec) is not None:
        # Monolithic artifact: re-chunk it (serial, IO-bound) so the
        # warm parallel fold below has parts to fan out.
        reader = profiles._ensure_chunked()
        if reader is None:
            raise PipelineError(
                "store cannot hold the chunked representation")
    if reader is not None:
        return _fold_warm(profiles, pairs, reader)
    return _fold_cold(profiles, pairs)


def _fold_warm(profiles, pairs, reader) -> dict:
    """Fan a warm chunked trace's part ranges over the pool (a
    single-part trace has nothing to fan out: it folds here)."""
    if len(reader) < 2:
        return _fold_blocks(
            pairs, _cached_placements(profiles.trace_spec,
                                      profiles.layout_spec), reader)
    report = _report_of(profiles)
    _seed_pool_memos(profiles.trace_spec, profiles.layout_spec,
                     profiles.stream_workers)
    pool = get_pool(profiles.stream_workers)
    n_parts = len(reader)
    n_ranges = min(n_parts, pool.workers * RANGES_PER_WORKER)
    bounds = np.linspace(0, n_parts, n_ranges + 1).astype(int)
    jobs = {index: ("fold", {"range": index,
                             "root": str(profiles.store.root),
                             "trace_spec": profiles.trace_spec,
                             "layout_spec": profiles.layout_spec,
                             "lo": int(lo), "hi": int(hi), "pairs": pairs})
            for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
            if hi > lo}
    pool.fold_id += 1
    supervisor = _Supervision(
        pool, jobs, report, f"warm fold ({profiles.trace_spec.scene})")
    results: dict = {}

    def handle(kind, index, message):
        if kind != "fold_done":
            raise PipelineError(
                f"unexpected {kind!r} event in warm fold")
        if index in supervisor.complete:
            return False  # a duplicate attempt finished too; harmless
        results[index] = message[4]
        supervisor.note_complete(index)
        return True

    supervisor.dispatch_all()
    _drive(pool, supervisor, handle, what="pipelined warm fold")
    if supervisor.residual:
        if not supervisor.complete:
            raise PipelineError(
                "every warm fold range failed in the pool "
                f"({_last_line(next(iter(supervisor.residual.values())))})")
        _recover_residual_warm(profiles, pairs, reader, supervisor,
                               results, report)
    return _merge_in_order(pairs, (results[index] for index in sorted(jobs)))


def _recover_residual_warm(profiles, pairs, reader, supervisor, results,
                           report) -> None:
    """Escalation rung two for the warm fold: fold the residual part
    ranges serially in the parent."""
    residual = sorted(supervisor.residual)
    started = time.monotonic()
    placements = _cached_placements(profiles.trace_spec,
                                    profiles.layout_spec)
    for index in residual:
        _, job = supervisor.jobs[index]
        results[index] = _fold_blocks(
            pairs, placements,
            (reader.read_part(part) for part in range(job["lo"], job["hi"])))
        supervisor.note_complete(index)
    report.recovery_s += time.monotonic() - started
    warnings.warn(
        f"pipelined warm fold recovered {len(residual)} residual "
        "range(s) serially in the parent after the retry budget",
        RuntimeWarning, stacklevel=6)


def _fold_cold(profiles, pairs) -> dict:
    """Render, persist and fold a cold trace concurrently, resuming
    from the verified parts of a previously interrupted run."""
    store = profiles.store
    spec = profiles.trace_spec
    report = _report_of(profiles)
    _seed_pool_memos(spec, profiles.layout_spec, profiles.stream_workers)
    pool = get_pool(profiles.stream_workers)
    digest = fingerprint(spec.payload())
    with store.single_flight("traces", digest):
        reader = store.open_render_blocks(spec)
        if reader is not None:
            # A racing process published the trace while we waited.
            return _fold_warm(profiles, pairs, reader)
        from . import runner
        runner.RENDER_CALLS += 1
        plan, resumed = _load_resume(store, spec)
        if plan is None or not resumed:
            # Nothing usable survives: plan this run from scratch.
            store.discard_resume_state(spec)
            n_ranges = pool.workers * RANGES_PER_WORKER
            chunk_size = profiles.chunk_size
            store.save_stream_plan(spec, {
                "n_ranges": n_ranges, "chunk_size": int(chunk_size),
                "part_stride": PART_STRIDE, "created_at": time.time()})
            resumed = {}
        else:
            # Resume MUST reuse the interrupted run's slicing geometry:
            # the surviving parts embody its range bounds and chunk
            # size, and only identical bounds make "fold the survivors,
            # render the rest" bit-identical to an uninterrupted run.
            n_ranges = int(plan["n_ranges"])
            chunk_size = int(plan["chunk_size"])
            report.resumed_ranges += len(resumed)
            report.resumed_parts += sum(
                len(record["envelopes"]) for record in resumed.values())
            report.note(
                f"cold fold ({spec.scene}): resumed {len(resumed)}/"
                f"{n_ranges} range(s) from a prior interrupted render")
        common = {"root": str(store.root), "trace_spec": spec,
                  "layout_spec": profiles.layout_spec, "pairs": pairs}
        jobs: dict = {}
        for index in range(n_ranges):
            if index in resumed:
                jobs[index] = ("foldparts", {
                    **common, "range": index,
                    "parts": [entry["name"]
                              for entry in resumed[index]["envelopes"]]})
            else:
                jobs[index] = ("render", {
                    **common, "range": index, "n_ranges": n_ranges,
                    "chunk_size": chunk_size,
                    "part_base": index * PART_STRIDE})
        pool.fold_id += 1
        supervisor = _Supervision(pool, jobs, report,
                                  f"cold fold ({spec.scene})")
        supervisor.dispatch_all()
        states, done = _collect_cold(pool, supervisor, resumed, pairs)
        if supervisor.residual:
            if not supervisor.complete:
                raise PipelineError(
                    "every render range failed in the pool "
                    f"({_last_line(next(iter(supervisor.residual.values())))})")
            _recover_residual_cold(profiles, supervisor, pairs, store,
                                   spec, states, done, report)
        merged = _merge_in_order(pairs, (states[index]
                                         for index in range(n_ranges)))
        _publish_assembled(store, spec, done, n_ranges)
    return merged


def _load_resume(store, spec) -> tuple:
    """The interrupted-run plan and its verified completion records:
    ``(plan, {range index: record})``.  A record only qualifies when
    its geometry is sane and *every* part it lists passes a deep
    envelope check (checksum + size); anything else is discarded --
    along with its parts -- so a half-valid record can never smuggle a
    torn part into a resumed fold."""
    plan = store.load_stream_plan(spec)
    if not isinstance(plan, dict):
        return None, {}
    try:
        n_ranges = int(plan["n_ranges"])
        chunk_size = int(plan["chunk_size"])
        stride = int(plan.get("part_stride", -1))
    except (KeyError, TypeError, ValueError):
        return None, {}
    if stride != PART_STRIDE or n_ranges < 1 or chunk_size < 1:
        return None, {}
    digest = fingerprint(spec.payload())
    resumed = {}
    for index, record in sorted(store.load_range_records(spec).items()):
        envelopes = record.get("envelopes")
        names = [entry.get("name") for entry in envelopes
                 if isinstance(entry, dict)] \
            if isinstance(envelopes, list) else []
        expected = [
            f"{digest}.p{index * PART_STRIDE + seq:0{traceio.PART_DIGITS}d}"
            f".npz" for seq in range(len(names))]
        valid = (
            0 <= index < n_ranges
            and record.get("complete") is True
            and isinstance(envelopes, list)
            and record.get("n_blocks") == len(envelopes)
            and isinstance(record.get("totals"), dict)
            and names == expected
            and store.verify_part_list("traces", envelopes))
        if valid:
            resumed[index] = record
        else:
            store.discard_range_record(spec, index, names)
    return plan, resumed


def _collect_cold(pool, supervisor, resumed, pairs) -> tuple:
    """Drive the supervised event loop until every range is complete or
    residual.  Render ranges arrive folded by the worker that rendered
    them (``range_done``); resumed ranges arrive folded by ``foldparts``
    jobs (``fold_done``) and keep their completion records."""
    states = {index: {pair: PartialSetProfile.empty(*pair)
                      for pair in pairs} for index in supervisor.jobs}
    done = {index: dict(record) for index, record in resumed.items()}

    def handle(kind, index, message):
        if index in supervisor.complete:
            return False  # a duplicate attempt finished; harmless
        if kind == "range_done":
            payload = message[4]
            if not payload.get("complete"):
                supervisor.fail(index, "range persisted incomplete "
                                       "(worker store demoted)")
                return True
            states[index] = payload.pop("states")
            done[index] = payload
        elif kind == "fold_done":
            states[index] = message[4]
        else:
            raise PipelineError(f"unexpected {kind!r} event in cold fold")
        supervisor.note_complete(index)
        _maybe_kill_run(len(supervisor.complete))
        return True

    _drive(pool, supervisor, handle, what="pipelined cold fold")
    return states, done


def _recover_residual_cold(profiles, supervisor, pairs, store, spec,
                           states, done, report) -> None:
    """Escalation rung two for the cold fold: render (or, for a
    resumed range, fold) each residual range serially in the parent.
    The parent reuses the pre-fork scene memo, so no scene rebuild."""
    residual = sorted(supervisor.residual)
    started = time.monotonic()
    placements = _cached_placements(spec, profiles.layout_spec)
    for index in residual:
        kind, job = supervisor.jobs[index]
        if kind == "render":
            states[index], done[index] = _render_range(store, job,
                                                       placements)
        else:  # a resumed range whose foldparts job kept failing
            states[index] = _fold_blocks(
                pairs, placements,
                (load_part_block(store.root, name, sequence)
                 for sequence, name in enumerate(job["parts"])))
        supervisor.note_complete(index)
    report.recovery_s += time.monotonic() - started
    warnings.warn(
        f"pipelined cold fold recovered {len(residual)} residual "
        "range(s) serially in the parent after the retry budget",
        RuntimeWarning, stacklevel=6)


def _publish_assembled(store, spec, done, n_ranges) -> bool:
    """Commit the sidecar over every range's parts, in range order,
    renumbered densely -- but only when *all* ranges persisted
    completely, so the artifact can never be partial.  Publishing (or
    even attempting the renumber, which consumes the strided parts)
    retires the run's crash-resume metadata; an incomplete set keeps
    it, so the completed ranges stay resumable."""
    infos = [done[index] for index in range(n_ranges)]
    if not store.available or not all(info["complete"] for info in infos):
        return False
    if any(len(info["envelopes"]) >= PART_STRIDE for info in infos):
        return False  # would alias another range's index space
    envelopes = [entry for info in infos for entry in info["envelopes"]]
    renamed = store.renumber_parts(spec, envelopes)
    if renamed is None:
        return False
    store.discard_resume_state(spec)  # records point at consumed names
    totals = dict(infos[0]["totals"])  # n_triangles_submitted is global
    totals["n_triangles_rasterized"] = sum(
        int(info["totals"]["n_triangles_rasterized"]) for info in infos)
    totals["has_positions"] = any(
        info["totals"].get("has_positions") for info in infos)
    published = store.publish_chunked_sidecar(spec, renamed, totals)
    if published:
        # Each part was hashed by the worker that wrote it; seeding
        # the parent's verify-once cache from those envelopes means
        # the first warm fold over this trace re-verifies with stats
        # instead of re-hashing the whole artifact.
        from . import tiers
        for entry in renamed:
            tiers.digest_cache().record(
                store.root / "traces" / entry["name"], entry["digest"])
    else:
        warnings.warn(
            f"pipelined render for {spec.scene} persisted its parts but "
            "could not publish the sidecar; the next run re-renders",
            RuntimeWarning, stacklevel=4)
    return published
