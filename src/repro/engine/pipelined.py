"""Every streamed fold, run as range jobs; pipelined over a pool.

Every fold of :mod:`repro.engine.streaming` runs here as range jobs.
With ``stream_workers < 2`` no pool starts and the parent runs the
jobs itself -- that is the serial fold: a cold trace is one
``render`` range, a stored one a single ``fold`` job.  With more
workers it overlaps render, persist and fold across a **persistent**
pool of worker processes, with bit-identical results::

    parent                          workers (persistent StreamPool)
    ------                          -------------------------------
    send each idle worker  ----->   one pipe per worker, one range
    its next range job              job in flight at a time
    (render | fold)
    supervise: a pipe at            render: render one contiguous
    end of file is a dead           clipped-triangle slice, persist
    worker, one silent past         each part, fold each block into
    the deadline a wedged           the range's per-pair states
    one; respawn it, retry          fold: fold the named parts
    only its range
    collect range states   <-----   the same pipe (beat per block;
    merge in range order            range_done: per-range partial
    publish sidecar over            states, plus a render range's
    the parts as written            part envelopes; or error)
    (all ranges complete,
    or nothing)

**Two job kinds.**  Every range is one job.  A ``render`` job renders
a triangle slice; a ``fold`` job folds an explicit list of part files
the parent has already envelope-verified -- a warm trace's parts,
sliced from the reader the parent opened, or a resumed range's parts,
taken from its completion record.  Workers run both through
:func:`_run_job` and report each as one ``range_done`` message; the
parent runs the same function in one loop for a fold with no pool,
for residual ranges and after a serial fallback.

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

**Persistence.**  Each range writes its slice's parts through its
own ``part_base``-offset :class:`~repro.engine.artifacts.
ChunkedRenderWriter` (checksummed, atomically published, sidecar
withheld; range 0 starts at ``.p00000``).  Only the parent -- after
every range reports complete -- publishes the sidecar
(:func:`_publish`), listing the parts in range order under the names
their writers gave them, so a partially rendered trace can never
verify as a complete artifact and no part is renamed.  Serial and
pipelined folds commit the same way.

**Self-healing.**  A fold does not fail whole on the first fault; it
degrades through an escalation ladder, each rung strictly cheaper
than the next:

1. *Supervised retry.*  The parent (:class:`_Supervision`) sends
   each idle worker one range at a time down that worker's own pipe,
   so it knows every worker's range from the moment it dispatches it.
   A dead worker (SIGKILL, OOM) reads as end of file on its pipe; a
   wedged one sends nothing -- no ``beat``, no result -- for the job
   deadline (``REPRO_STREAM_JOB_TIMEOUT``) and is killed.  Either is
   respawned in place behind a fresh pipe -- forked from the parent,
   so it re-inherits the copy-on-write scene memo -- and only its
   range is retried, with bounded retries and exponential backoff
   (:data:`STREAM_RETRIES`).  Workers share no queue and no lock, so
   a worker that dies -- idle or mid-job -- cannot leave one held for
   its replacements; and since a range runs in at most one worker at
   a time, a fold that finishes leaves every worker idle, while one
   that does not (an error, a stall, a crash) breaks the pool.
2. *Residual recovery.*  A range that exhausts its retry budget runs
   its job serially in the parent -- the fold still completes
   bit-identically, with a ``RuntimeWarning`` naming the residual
   count.
3. *Serial fallback.*  Only when *no* range succeeds through the pool
   (or the pipeline itself is unusable, :class:`PipelineError`) is the
   pool torn down and does :func:`fold_pipelined` warn that it is
   falling back and rerun the fold's jobs in the parent -- resuming
   the ranges the pool completed from their parts instead of
   rendering them again.

**Crash-resume.**  A cold fold killed mid-run (SIGKILL of the parent,
ENOSPC demotion) leaves checksummed strided parts behind plus one
completion record per finished range (:meth:`~repro.engine.artifacts.
ArtifactStore.save_range_record`), listing its part envelopes and the
fold's range geometry (``n_ranges``, ``chunk_size``,
``part_stride``).  The next cold fold of the same spec -- serial or
pipelined, whichever of them wrote the records -- verifies the
surviving parts against those envelopes, runs the verified ranges as
``fold`` jobs, re-renders only the missing ranges under the recorded
geometry, then publishes as usual -- bit-identical to an
uninterrupted run.  Since publishing renames nothing, the records
stay valid until the sidecar is on disk.

**Observability.**  Every fold, serial or pipelined, accounts its
recovery actions in a :class:`StreamReport` hung off the
``StreamedProfiles`` and surfaced on ``ExperimentResult`` and in the
CLI: respawns, retried/residual/
resumed ranges, serial fallbacks and recovery wall-clock (time from a
range's first failure to its recovery, plus respawn and residual
work; resumed work is *saved* time and is counted by range/part
instead).  Deterministic fault injection for all of the above lives
in :mod:`repro.engine.faults` (``REPRO_FAULT_PLAN``).

**Warm traces** (parts already in the store, however they were
written) skip the render stage: the parent slices the part names of
the reader it opened into contiguous ``fold`` jobs under the same
supervision and merges the results in part order.  A single-part
trace has nothing to fan out and runs its one job in the parent.
"""

from __future__ import annotations

import atexit
import os
import random
import signal
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..core.kernels import PartialSetProfile
from . import faults
from .artifacts import ArtifactStore, fingerprint, load_part_block, part_name
from .streaming import _cached_placements, _fold_blocks, _render_blocks

#: Part-index stride between ranges: range ``i`` writes parts
#: ``i * PART_STRIDE + 0, 1, ...`` and the sidecar lists them under
#: those names, so this must exceed any single range's block count.
PART_STRIDE = 100_000

#: Render/fold ranges per worker: >1 so a fragment-heavy slice is
#: rebalanced dynamically (each worker is sent the next range as it
#: goes idle), but low -- each range pays fixed dispatch/flush costs,
#: and on the few-core hosts this targets the smoothing won from finer
#: slices is smaller than that overhead.
RANGES_PER_WORKER = 2

#: How long the supervisor waits on the workers' pipes before it
#: checks retry backoffs, job deadlines and the stall detector.
EVENT_POLL_S = 0.05

#: A pipeline that neither delivers a result nor recovers a range for
#: this long (with live workers) is declared wedged.
NO_PROGRESS_TIMEOUT_S = 600.0

#: Per-range retry budget and backoff base: a range is retried this
#: many times (with exponential backoff and jitter) before becoming
#: *residual* and recovering serially in the parent.
STREAM_RETRIES = 2
STREAM_BACKOFF_S = 0.25

#: A worker that sends nothing -- no beat, no result -- for this long
#: while it holds a range is presumed wedged: it is killed, respawned,
#: and the range retried.  Override with ``REPRO_STREAM_JOB_TIMEOUT``
#: (seconds).
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
    """The pool could not run or finish a fold; :func:`fold_pipelined`
    falls back to running its jobs in the parent (results stay
    bit-identical)."""


@dataclass
class StreamReport:
    """Recovery accounting for streamed folds.  One
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
            return f"stream: {self.folds} fold(s), no recovery needed"
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


# -- range jobs (workers and parent) ----------------------------------------

def _merge_in_order(pairs, ranges) -> dict:
    """Merge per-range states in range order: ``merge`` is
    associative-exact but not commutative, and range order is stream
    order."""
    merged = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
    for states in ranges:
        for pair in pairs:
            merged[pair] = merged[pair].merge(states[pair])
    return merged


def _run_job(store, kind: str, job: dict, before_block=None) -> dict:
    """Run one range job and return its ``range_done`` payload: the
    range's per-pair partial states under ``"states"``, plus -- for a
    ``render`` job -- its completion record.  Pool workers and the
    parent (:func:`_run_ranges`) both call this.  ``before_block(n)``
    runs ahead of block ``n`` (worker heartbeat and, for ``render``
    jobs, fault injection)."""
    placements = _cached_placements(job["trace_spec"], job["layout_spec"])
    if kind == "render":
        return _render_range(store, job, placements, before_block)
    if kind != "fold":
        raise RuntimeError(f"unknown stream task {kind!r}")
    blocks = (load_part_block(store.root, name, sequence)
              for sequence, name in enumerate(job["parts"]))
    return {"states": _fold_blocks(job["pairs"], placements, blocks,
                                   before_block)}


def _render_range(store, job: dict, placements, before_block=None) -> dict:
    """Render one triangle slice: persist its parts (strided index
    space) and fold each block into the range's per-pair states as it
    is produced.  The payload carries the states, the part envelopes
    and the slice totals; a completed range also leaves a completion
    record in the store, on disk before anyone hears the range is
    done, so an interrupted run can resume from its parts."""
    spec = job["trace_spec"]
    writer = store.open_render_writer(spec, part_base=job["part_base"])
    totals: dict = {}
    n_blocks = 0

    def persisted():
        nonlocal n_blocks
        for block in _render_blocks(spec, job["chunk_size"], totals,
                                    (job["range"], job["n_ranges"])):
            if before_block is not None:
                before_block(n_blocks)
            writer.append(block)
            n_blocks += 1
            yield block

    states = _fold_blocks(job["pairs"], placements, persisted())
    envelopes, complete, has_positions = writer.finish_parts()
    totals.pop("per_triangle_fragments", None)
    totals["has_positions"] = has_positions
    record = {"envelopes": envelopes, "complete": complete,
              "totals": totals, "n_blocks": n_blocks}
    if complete:
        store.save_range_record(spec, job["range"], {
            "range": job["range"], "n_ranges": job["n_ranges"],
            "chunk_size": job["chunk_size"], "part_stride": PART_STRIDE,
            **record})
    return {"states": states, **record}


# -- worker side -----------------------------------------------------------

def _bind_to_parent_lifetime() -> None:
    """Linux: ask the kernel to SIGTERM this worker when its parent
    dies (``PR_SET_PDEATHSIG``).  A parent killed without cleanup --
    SIGKILL, ``os._exit`` -- must not leave orphaned workers blocked
    forever in ``recv``: every forked worker inherits copies of the
    pipes' parent ends, so the parent's death alone never reads as end
    of file.  Crash-resume replaces the orphans' work on the next
    run."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM, 0, 0, 0)  # 1 = PR_SET_PDEATHSIG
    except Exception:
        pass  # non-Linux hosts: orphans idle until the host reaps them


def _worker_loop(conn) -> None:
    """Persistent worker: run the ``(kind, job)`` range jobs the parent
    sends down ``conn`` until ``None`` or end of file, answering each
    with one ``range_done`` or ``error`` message.  A job failure is
    reported and the worker lives on; only a hard crash kills it.  A
    ``beat`` message ahead of every block lets the parent tell wedged
    from slow."""
    _bind_to_parent_lifetime()
    signal.signal(signal.SIGTERM, _unwind)
    while True:
        try:
            task = conn.recv()
        except EOFError:
            break
        if task is None:
            break
        kind, job = task
        try:
            store = ArtifactStore(job["root"])

            def before_block(n_blocks):
                conn.send(("beat",))
                if kind == "render":
                    fault = faults.maybe_fault("render-block",
                                               range=job["range"],
                                               block=n_blocks)
                    if fault is not None:
                        _run_worker_fault(fault, store)

            conn.send(("range_done", _run_job(store, kind, job,
                                              before_block)))
        except Exception:
            conn.send(("error", traceback.format_exc()))


def _unwind(signum, frame) -> None:
    """SIGTERM handler of a worker -- respawned, torn down with its
    pool, or orphaned by its parent: exit by unwinding, so an atomic
    write it interrupts discards its temporary file instead of leaving
    it in the store."""
    raise SystemExit(128 + signum)


def _stop(process) -> None:
    """Terminate a worker and reap it; SIGKILL one that has not
    unwound within 5 s."""
    process.terminate()
    process.join(timeout=5.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)


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


# -- the persistent pool ---------------------------------------------------

#: Process-wide respawn counter: folds snapshot it around their run to
#: attribute respawns (including ones performed by ``get_pool``
#: between folds) without double counting.
_RESPAWNS_TOTAL = 0


class StreamPool:
    """A persistent pool of streaming workers, each behind its own
    pipe: ``processes[slot]`` and ``conns[slot]``, the parent's end of
    that slot's pipe.  No channel or lock is shared between workers,
    so a worker that dies -- idle or mid-job -- takes down only its own
    pipe.  One pool serves every fold of every row of an experiment
    grid; a dead or wedged worker is respawned in place
    (:meth:`respawn`) and the pool is only rebuilt when the worker
    count changes."""

    def __init__(self, workers: int):
        import multiprocessing
        self.workers = int(workers)
        self._context = multiprocessing.get_context()
        self.respawns = 0
        self.processes = [None] * self.workers
        self.conns = [None] * self.workers
        for slot in range(self.workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_loop, args=(child_conn,),
            name=f"stream-worker-{slot}", daemon=True)
        process.start()
        # Only the worker may hold the child end: its death must read
        # as end of file here.
        child_conn.close()
        self.processes[slot] = process
        self.conns[slot] = conn

    def respawn(self, slot: int) -> None:
        """Replace one worker -- dead, or presumed wedged and killed
        here -- with a fresh fork of the parent (which re-inherits the
        copy-on-write scene memo seeded before the original pool start)
        behind a fresh pipe."""
        global _RESPAWNS_TOTAL
        _stop(self.processes[slot])
        self.conns[slot].close()
        self._spawn(slot)
        self.respawns += 1
        _RESPAWNS_TOTAL += 1

    def alive(self) -> bool:
        return all(process.is_alive() for process in self.processes)

    def shutdown(self, force: bool = False) -> None:
        if not force:
            for conn in self.conns:
                try:
                    conn.send(None)
                except OSError:
                    pass  # that worker is already gone
            for process in self.processes:
                process.join(timeout=5.0)
        for process in self.processes:
            if process.is_alive():
                _stop(process)
        for conn in self.conns:
            conn.close()


_POOL: StreamPool = None


def _seed_pool_memos(spec, layout_spec, workers: int) -> None:
    """Pre-build the scene and placements in the parent when a fresh
    pool is about to fork: children inherit the streaming scene memo
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
            for slot, process in enumerate(_POOL.processes):
                if not process.is_alive():
                    _POOL.respawn(slot)
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
    """Hard-stop a pool in an unknown state (a fold that did not
    finish may leave workers mid-job): a clean one is rebuilt on the
    next fold."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(force=True)


atexit.register(shutdown_stream_pool)


# -- parent-side supervision -----------------------------------------------

class _Supervision:
    """Parent-side supervisor for one pipelined fold.  It sends each
    idle worker the next due range, one job in flight per worker, so it
    knows every worker's range from the moment it dispatches it.  A
    worker whose pipe reads as end of file died; one silent past the
    job deadline is wedged and killed.  Either way it is respawned and
    only its range is retried, with bounded retries and exponential
    backoff.  A range that exhausts the budget becomes *residual* --
    recovered serially by the caller -- instead of failing the
    fold."""

    def __init__(self, pool: StreamPool, jobs: dict, report: StreamReport,
                 stage: str, scene: str, payloads: dict):
        self.pool = pool
        self.report = report
        self.stage = stage
        self.label = f"{stage} fold ({scene})"
        self.jobs = dict(jobs)  # range index -> (task kind, job dict)
        self.payloads = payloads
        self.tries = {index: 0 for index in self.jobs}
        self.ready = sorted(self.jobs)  # ranges due, in range order
        self.retry_at: list = []   # (due monotonic time, range index)
        self.running: dict = {}    # worker slot -> range index
        self.heard: dict = {}      # worker slot -> time of its last message
        self.complete: set = set()
        self.residual: dict = {}   # range index -> first terminal reason
        self.first_failed_at: dict = {}
        self.timeout = _job_timeout_s()

    def dispatch(self) -> None:
        """Move due retries to ``ready`` (the loop never sleeps a
        backoff) and send each idle worker the next ready range."""
        now = time.monotonic()
        due = [index for when, index in self.retry_at if when <= now]
        if due:
            self.retry_at = [(when, index) for when, index in self.retry_at
                             if when > now]
            self.ready = sorted(self.ready + due)
        for slot in range(self.pool.workers):
            if not self.ready:
                return
            if slot in self.running:
                continue
            index = self.ready.pop(0)
            try:
                self.pool.conns[slot].send(self.jobs[index])
            except OSError:
                # The worker died idle, before it could take the job.
                self.ready.insert(0, index)
                self.lose(slot, f"worker died (slot {slot})")
                continue
            self.tries[index] += 1
            self.running[slot] = index
            self.heard[slot] = now

    def receive(self, slot: int) -> bool:
        """Read one message from ``slot``'s worker (its pipe or its
        process sentinel is ready).  Returns True when it was progress:
        a result or a recovery, not a beat."""
        conn = self.pool.conns[slot]
        try:
            if not conn.poll():
                raise EOFError  # the process exited and its pipe is empty
            message = conn.recv()
        except (EOFError, OSError):
            self.lose(slot, f"worker died (slot {slot})")
            return True
        self.heard[slot] = time.monotonic()
        if message[0] == "beat":
            return False
        index = self.running.pop(slot)
        if message[0] == "error":
            self.fail(index, f"worker task failed: {_last_line(message[1])}")
        elif message[1].get("complete") is False:
            self.fail(index, "range persisted incomplete "
                             "(worker store demoted)")
        else:
            self.payloads[index] = message[1]
            self.note_complete(index)
            if self.stage == "cold":
                _maybe_kill_run(len(self.complete))
        return True

    def check_wedged(self) -> bool:
        """Kill and respawn every busy worker silent for longer than
        the job deadline, retrying its range.  Returns True when it
        acted."""
        now = time.monotonic()
        wedged = [slot for slot in self.running
                  if now - self.heard[slot] > self.timeout]
        for slot in wedged:
            self.lose(slot, f"worker wedged (slot {slot}: silent for "
                            f"{self.timeout:.0f}s)")
        return bool(wedged)

    def lose(self, slot: int, why: str) -> None:
        """Fail the range ``slot`` was running, if any, and replace its
        worker behind a fresh pipe."""
        index = self.running.pop(slot, None)
        if index is not None:
            self.fail(index, why)
        started = time.monotonic()
        self.pool.respawn(slot)
        self.report.recovery_s += time.monotonic() - started

    def note_complete(self, index: int) -> None:
        self.complete.add(index)
        failed_at = self.first_failed_at.pop(index, None)
        if failed_at is not None:
            self.report.recovery_s += time.monotonic() - failed_at

    def fail(self, index: int, why: str) -> None:
        """Record one attempt failure: schedule a backoff retry inside
        the budget, park the range as residual beyond it."""
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

    def finished(self) -> bool:
        return len(self.complete) + len(self.residual) == len(self.jobs)


def _last_line(text: str) -> str:
    lines = str(text).strip().splitlines()
    return lines[-1] if lines else str(text)


def _drive(supervisor: _Supervision, what: str) -> None:
    """The supervised loop shared by the warm and cold folds: dispatch
    to idle workers, wait on every worker's pipe and process sentinel,
    read what is ready, kill wedged workers, and declare a stall only
    when nothing -- results or recoveries -- has progressed for
    :data:`NO_PROGRESS_TIMEOUT_S`."""
    from multiprocessing.connection import wait
    pool = supervisor.pool
    last_progress = time.monotonic()
    while not supervisor.finished():
        supervisor.dispatch()
        slot_of = {}
        for slot in range(pool.workers):
            slot_of[pool.conns[slot]] = slot
            slot_of[pool.processes[slot].sentinel] = slot
        ready = wait(list(slot_of), timeout=EVENT_POLL_S)
        progress = False
        for slot in sorted({slot_of[handle] for handle in ready}):
            progress |= supervisor.receive(slot)
        progress |= supervisor.check_wedged()
        now = time.monotonic()
        if progress:
            last_progress = now
        elif now - last_progress > NO_PROGRESS_TIMEOUT_S:
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
    -- the one entry point of every streamed fold.  With ``stream_workers
    >= 2`` the jobs run on the pool, self-healing per range; when the
    pool is unusable or no range succeeds there, the pool is torn down
    and the fold falls back to running its jobs in this process,
    resuming the ranges the pool completed.  With fewer workers they
    run here from the start."""
    pairs = tuple(pairs)
    workers = int(profiles.stream_workers)
    report = _report_of(profiles)
    report.folds += 1
    respawns_before = _RESPAWNS_TOTAL
    try:
        if workers >= 2:
            try:
                return _fold(profiles, pairs, workers)
            except Exception as fault:
                why = (fault if isinstance(fault, PipelineError)
                       else f"{type(fault).__name__}: {fault}")
                report.fallbacks += 1
                report.note(f"serial fallback: {why}")
                warnings.warn(
                    f"pipelined streaming fold failed ({why}); "
                    "falling back to the serial streaming path",
                    RuntimeWarning, stacklevel=4)
        return _fold(profiles, pairs, 0)
    finally:
        report.respawns += _RESPAWNS_TOTAL - respawns_before


def _fold(profiles, pairs, workers: int) -> dict:
    """A stored trace folds as ``fold`` jobs over its parts; a cold one
    renders under the trace's single-flight lock."""
    store = profiles.store
    spec = profiles.trace_spec
    reader = store.open_render_blocks(spec)
    if reader is not None:
        return _fold_warm(profiles, pairs, reader, workers)
    with store.single_flight("traces", fingerprint(spec.payload())):
        reader = store.open_render_blocks(spec)
        if reader is not None:
            # A racing process published the trace while we waited.
            return _fold_warm(profiles, pairs, reader, workers)
        return _fold_cold(profiles, pairs, workers)


def _n_ranges(workers: int) -> int:
    """Ranges to cut a fold into: one per job the pool can balance, or
    a single range when the fold runs in the parent."""
    return workers * RANGES_PER_WORKER if workers >= 2 else 1


def _job(profiles, pairs, **fields) -> dict:
    return {"root": str(profiles.store.root),
            "trace_spec": profiles.trace_spec,
            "layout_spec": profiles.layout_spec, "pairs": pairs, **fields}


def _fold_warm(profiles, pairs, reader, workers: int) -> dict:
    """Fold a stored trace as contiguous ``fold`` jobs, naming the parts
    ``reader`` already verified."""
    names = [entry["name"] for entry in reader.parts]
    n_ranges = max(1, min(len(names), _n_ranges(workers)))
    bounds = np.linspace(0, len(names), n_ranges + 1).astype(int)
    jobs = {index: ("fold", _job(profiles, pairs, range=index,
                                 parts=names[lo:hi]))
            for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))}
    payloads = _run_ranges(profiles, jobs, "warm", workers)
    return _merge_in_order(pairs, (payloads[index]["states"]
                                   for index in range(n_ranges)))


def _fold_cold(profiles, pairs, workers: int) -> dict:
    """Render, persist and fold a cold trace (``render`` jobs), folding
    the ranges a previously interrupted run completed from their
    verified parts (``fold`` jobs).  Runs under the trace's
    single-flight lock."""
    store = profiles.store
    spec = profiles.trace_spec
    report = _report_of(profiles)
    geometry, resumed = _load_resume(store, spec)
    if not resumed:
        # Nothing usable survives: cut this run's own ranges.
        n_ranges, chunk_size = _n_ranges(workers), profiles.chunk_size
    else:
        # Resume MUST reuse the interrupted run's slicing geometry:
        # the surviving parts embody its range bounds and chunk size,
        # and only identical bounds make "fold the survivors, render
        # the rest" bit-identical to an uninterrupted run.
        n_ranges, chunk_size = geometry
        report.resumed_ranges += len(resumed)
        report.resumed_parts += sum(
            len(record["envelopes"]) for record in resumed.values())
        report.note(
            f"cold fold ({spec.scene}): resumed {len(resumed)}/"
            f"{n_ranges} range(s) from a prior interrupted render")
    jobs = {}
    for index in range(n_ranges):
        if index in resumed:
            jobs[index] = ("fold", _job(
                profiles, pairs, range=index,
                parts=[entry["name"]
                       for entry in resumed[index]["envelopes"]]))
        else:
            jobs[index] = ("render", _job(
                profiles, pairs, range=index, n_ranges=n_ranges,
                chunk_size=chunk_size, part_base=index * PART_STRIDE))
    if len(resumed) < n_ranges:
        from . import runner
        runner.RENDER_CALLS += 1  # a fully resumed fold renders nothing
    payloads = _run_ranges(profiles, jobs, "cold", workers)
    _publish(store, spec, [resumed.get(index, payloads[index])
                           for index in range(n_ranges)])
    return _merge_in_order(pairs, (payloads[index]["states"]
                                   for index in range(n_ranges)))


def _run_ranges(profiles, jobs: dict, stage: str, workers: int) -> dict:
    """Run ``jobs`` (range index -> ``(kind, job)``) and return every
    range's ``range_done`` payload.  With fewer than two workers, or a
    single job, every job runs in the parent; otherwise on the pool
    (:func:`_run_on_pool`), and a range that exhausts its retry budget
    then runs in the parent -- the same loop, by the same
    :func:`_run_job` a worker runs.  ``stage`` is ``"warm"`` or
    ``"cold"``; only cold folds arm the ``kill-run`` fault, wherever
    their ranges ran."""
    payloads: dict = {}
    supervisor = None
    in_parent = sorted(jobs)
    if workers >= 2 and len(jobs) > 1:
        supervisor = _run_on_pool(profiles, jobs, stage, workers, payloads)
        in_parent = sorted(supervisor.residual)
    started = time.monotonic()
    for index in in_parent:
        kind, job = jobs[index]
        payloads[index] = _run_job(profiles.store, kind, job)
        if supervisor is not None:
            supervisor.note_complete(index)
        if stage == "cold":
            _maybe_kill_run(len(payloads))
    if supervisor is not None and in_parent:
        _report_of(profiles).recovery_s += time.monotonic() - started
        warnings.warn(
            f"pipelined {stage} fold recovered {len(in_parent)} residual "
            "range(s) serially in the parent after the retry budget",
            RuntimeWarning, stacklevel=6)
    return payloads


def _run_on_pool(profiles, jobs: dict, stage: str, workers: int,
                 payloads: dict) -> _Supervision:
    """Run ``jobs`` on the pool under supervision, filling ``payloads``;
    returns the supervisor, whose ``residual`` ranges exhausted their
    retry budget.  :class:`PipelineError` when no range succeeded.
    Whatever leaves here unfinished -- an error, a stall, an injected
    crash -- breaks the pool, since its workers may be mid-job; a fold
    that finishes leaves every worker idle."""
    try:
        _seed_pool_memos(profiles.trace_spec, profiles.layout_spec, workers)
        supervisor = _Supervision(get_pool(workers), jobs,
                                  _report_of(profiles), stage,
                                  profiles.trace_spec.scene, payloads)
        _drive(supervisor, f"pipelined {stage} fold")
        if supervisor.residual and not supervisor.complete:
            raise PipelineError(
                f"every {stage} fold range failed in the pool "
                f"({_last_line(next(iter(supervisor.residual.values())))})")
    except BaseException:
        _break_pool()
        raise
    return supervisor


def _load_resume(store, spec) -> tuple:
    """The verified completion records of an interrupted cold fold and
    the range geometry they carry: ``((n_ranges, chunk_size), {range
    index: record})``, or ``(None, {})``.  A record only qualifies when
    its geometry is sane and agrees with the records before it, and
    *every* part it lists passes a deep envelope check (checksum +
    size); anything else is discarded -- along with its parts -- so a
    half-valid record can never smuggle a torn part into a resumed
    fold."""
    digest = fingerprint(spec.payload())
    geometry = None
    resumed = {}
    for index, record in sorted(store.load_range_records(spec).items()):
        envelopes = record.get("envelopes")
        names = [entry.get("name") for entry in envelopes
                 if isinstance(entry, dict)] \
            if isinstance(envelopes, list) else []
        expected = [part_name(digest, index * PART_STRIDE + seq)
                    for seq in range(len(names))]
        try:
            shape = (int(record["n_ranges"]), int(record["chunk_size"]))
            stride = int(record["part_stride"])
        except (KeyError, TypeError, ValueError):
            shape, stride = None, None
        valid = (
            shape is not None
            and stride == PART_STRIDE
            and geometry in (None, shape)
            and shape[1] >= 1
            and 0 <= index < shape[0]
            and record.get("complete") is True
            and isinstance(envelopes, list)
            and record.get("n_blocks") == len(envelopes)
            and isinstance(record.get("totals"), dict)
            and names == expected
            and store.verify_part_list("traces", envelopes))
        if valid:
            geometry = shape
            resumed[index] = record
        else:
            store.discard_range_record(spec, index, names)
    return geometry, resumed


def _publish(store, spec, records) -> None:
    """Commit the sidecar over every range's parts, in range order,
    under the names their writers gave them -- but only when *all*
    ranges persisted completely, so the artifact can never be partial.
    Publishing retires the run's crash-resume metadata; a run that
    does not publish keeps it, so its completed ranges stay
    resumable."""
    if not store.available or not all(record["complete"]
                                       for record in records):
        return
    if len(records) > 1 and any(len(record["envelopes"]) >= PART_STRIDE
                                for record in records):
        return  # would alias another range's index space
    parts = [entry for record in records for entry in record["envelopes"]]
    totals = dict(records[0]["totals"])  # n_triangles_submitted is global
    for key in ("n_fragments", "n_triangles_rasterized"):
        totals[key] = sum(int(record["totals"][key]) for record in records)
    totals["has_positions"] = any(
        record["totals"].get("has_positions") for record in records)
    if not store.publish_chunked_sidecar(spec, parts, totals):
        warnings.warn(
            f"streamed render for {spec.scene} persisted its parts but "
            "could not publish the sidecar; the next run resumes from "
            "them", RuntimeWarning, stacklevel=4)
        return
    store.discard_resume_state(spec)
    # Each part was hashed by the worker that wrote it; seeding the
    # parent's verify-once cache from those envelopes means the first
    # warm fold over this trace re-verifies with stats instead of
    # re-hashing the whole artifact.
    from . import tiers
    for entry in parts:
        tiers.digest_cache().record(store.root / "traces" / entry["name"],
                                    entry["digest"])
