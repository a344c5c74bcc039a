"""Every streamed fold, run as range jobs; pipelined over a pool.

Every fold of :mod:`repro.engine.streaming` runs here as range jobs,
all folds of one request in one :func:`fold_pipelined` call.  With
``stream_workers < 2`` no pool starts and the parent runs the jobs
itself, fold after fold -- that is the serial fold: a cold trace is
one ``render`` range, a stored one a single ``fold`` job.  With more
workers it overlaps render, persist and fold across a pool of worker
processes that lives for the call, with bit-identical results::

    parent                          workers (one StreamPool per call)
    ------                          ---------------------------------
    send each idle worker  ----->   one pipe per worker, one range
    the next range job, in          job in flight at a time
    trace then range order          (render | fold)
    supervise: a pipe at            render: render one contiguous
    end of file is a dead           clipped-triangle slice, persist
    worker, one silent past         each part, fold each block into
    the deadline a wedged           the range's per-pair states
    one; respawn it, retry          fold: fold the named parts
    only its range
    collect range states   <-----   the same pipe (beat per block;
    merge them in range             range_done: per-range partial
    order; once a trace's           states, plus a render range's
    are all in, publish it          part envelopes; or error)
    and save its profiles

**Two job kinds.**  Every range is one job.  A ``render`` job renders
a triangle slice; a ``fold`` job folds an explicit list of part files
the parent has already envelope-verified -- a warm trace's parts,
sliced from the reader the parent opened, or a resumed range's parts,
taken from its completion record.  Workers run both through
:func:`_run_job` and report each as one ``range_done`` message; the
parent runs the same function in one loop for a call with no pool, for
residual ranges and after a serial fallback.

**One run per call.**  :class:`_Supervision` sends every job of the
call in trace order, then range order, so a worker that finishes one
trace's last range takes the next trace's first.  A cold trace's folds
under other layouts are planned once it is published, and join the
same run as ``fold`` jobs over its parts.  The call takes the
single-flight locks of all its cold traces up front, in fingerprint
order, so two processes that share traces cannot deadlock.  A call
that does not finish breaks its pool: its workers may be mid-job.

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

**Self-healing.**  A call does not fail whole on the first fault; it
degrades through an escalation ladder, each rung strictly cheaper
than the next:

1. *Supervised retry.*  The parent (:class:`_Supervision`) sends
   each idle worker one range at a time down that worker's own pipe,
   so it knows every worker's range from the moment it dispatches it.
   A dead worker (SIGKILL, OOM) reads as end of file on its pipe; a
   wedged one sends nothing -- no ``beat``, no result -- for the job
   deadline (:data:`STREAM_JOB_TIMEOUT_S`) and is killed.  Either is
   respawned in place behind a fresh pipe, and only its range is
   retried, with bounded retries and exponential backoff
   (:data:`STREAM_RETRIES`).  A worker that dies while idle is found
   by the next send to it, or by its pipe reading as end of file, and
   respawned the same way.  Workers share no queue and no lock, so a
   dead worker cannot leave one held for its replacements.
2. *Residual recovery.*  A range that exhausts its retry budget runs
   its job serially in the parent once the pool run ends -- the call
   still completes bit-identically, with a ``RuntimeWarning`` naming
   the residual count.
3. *Serial fallback.*  When the pool run fails outright -- *no* range
   succeeds there, it stalls (:class:`PipelineError`) or the pool
   cannot start -- the pool is torn down, :meth:`_Supervision.run`
   warns that it is falling back, and the parent runs only the ranges
   the pool did not finish; the ranges it finished keep their states.

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
stay valid until the sidecar is on disk.  Resume is per trace.

**Observability.**  Every fold, serial or pipelined, accounts its
recovery actions in a :class:`StreamReport`, surfaced on
``ExperimentResult`` and in the CLI (see its docstring).
Deterministic fault injection for all of the above lives in
:mod:`repro.engine.faults` (``REPRO_FAULT_PLAN``).

**Warm traces** (parts already in the store, however they were
written) skip the render stage: the parent slices the part names of
the reader it opened into contiguous ``fold`` jobs.  A call with a
single job -- a single-part trace, say -- runs it in the parent.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
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
#: (seconds) while it holds a range is presumed wedged: it is killed,
#: respawned, and the range retried.
STREAM_JOB_TIMEOUT_S = 600.0


class PipelineError(RuntimeError):
    """The pool could not run or finish a fold; :meth:`_Supervision.run`
    falls back to running its unfinished ranges in the parent (results
    stay bit-identical)."""


@dataclass
class StreamReport:
    """Recovery accounting for streamed folds.  One report accumulates
    across every fold it is handed: ``Engine.run`` hands its own to
    every ``StreamedProfiles`` of the run, and a ``StreamedProfiles``
    used directly starts with one of its own.  ``recovery_s`` is the
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


# -- range jobs (workers and parent) ----------------------------------------

def _run_job(store, kind: str, job: dict, before_block=None) -> dict:
    """Run one range job and return its ``range_done`` payload: the
    range's per-pair partial states under ``"states"``, plus -- for a
    ``render`` job -- its completion record.  Pool workers and the
    parent (:meth:`_Supervision.run`) both call this.  ``before_block(n)``
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
    """Pool worker: run the ``(kind, job)`` range jobs the parent
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


# -- the pool of one call --------------------------------------------------

class StreamPool:
    """The streaming workers of one :func:`fold_pipelined` call, each
    behind its own pipe: ``processes[slot]`` and ``conns[slot]``, the
    parent's end of that slot's pipe.  No channel or lock is shared
    between workers, so a worker that dies -- idle or mid-job -- takes
    down only its own pipe.  The call's :class:`_Supervision` starts
    it, respawns a dead or wedged worker in place (:meth:`respawn`)
    and shuts it down before the call returns."""

    def __init__(self, workers: int):
        import multiprocessing
        self.workers = int(workers)
        self._context = multiprocessing.get_context()
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
        here -- with a fresh fork of the parent behind a fresh pipe.
        Only the supervisor calls this (:meth:`_Supervision.lose`)."""
        _stop(self.processes[slot])
        self.conns[slot].close()
        self._spawn(slot)

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


def shutdown_stream_pool() -> None:
    """Nothing to stop: each pool shuts down before the
    :func:`fold_pipelined` call that started it returns."""


# -- parent-side supervision -----------------------------------------------

class _Supervision:
    """The one run of every range job of a :func:`fold_pipelined`
    call, each keyed ``(fold position, range index)`` and sent in that
    order, one job in flight per idle worker.  A dead or wedged worker
    is respawned and only its range retried, with bounded retries and
    exponential backoff; a range beyond the budget is *residual* and
    runs in the parent once the pool run ends.  :meth:`settle` merges
    the ranges that landed, saves each fold whose ranges are all in
    and plans the folds waiting on its trace."""

    def __init__(self, folds, workers: int, report: StreamReport):
        self.folds = folds
        self.workers = workers
        self.report = report
        self.pool = None
        self.jobs: dict = {}       # key -> (task kind, job dict)
        self.tries = collections.Counter()
        self.ready: list = []      # keys due, in trace then range order
        self.retry_at: list = []   # (due monotonic time, key)
        self.running: dict = {}    # worker slot -> key
        self.heard: dict = {}      # worker slot -> time of its last message
        self.complete: set = set()
        self.residual: dict = {}   # key -> first terminal reason
        self.first_failed_at: dict = {}
        self.timeout = STREAM_JOB_TIMEOUT_S
        self.open: list = []       # folds planned, not yet saved
        self.waiting: dict = {}    # trace spec -> its folds not planned
        for fold in folds:
            self.waiting.setdefault(fold.spec, []).append(fold)
        for spec in list(self.waiting):
            self.plan(spec)

    def plan(self, spec) -> None:
        """Plan ``spec``'s waiting folds in order, up to and including
        the first cold one: the folds behind it fold the parts it
        publishes, so they are planned once it has."""
        waiting = self.waiting[spec]
        while waiting:
            fold = waiting.pop(0)
            for index, job in fold.plan(self.workers).items():
                key = (fold.position, index)
                self.jobs[key] = job
                bisect.insort(self.ready, key)
            self.open.append(fold)
            if fold.stage == "cold":
                return

    def run(self) -> None:
        """Run every job: on a pool when there are at least two workers
        and two jobs, then here every job the pool did not finish -- all
        of them without a pool.  A pool run that ends stops the pool;
        any other exit -- an error, a stall, an injected crash -- breaks
        it, since its workers may be mid-job."""
        pooled = self.workers >= 2 and len(self.jobs) > 1
        if pooled:
            try:
                self.pool = StreamPool(self.workers)
                self.drive()
                if self.residual and not self.complete:
                    raise PipelineError(
                        "every fold range failed in the pool ("
                        f"{_last_line(next(iter(self.residual.values())))})")
                self.pool.shutdown()
            except BaseException as fault:
                if self.pool is not None:
                    self.pool.shutdown(force=True)
                if not isinstance(fault, Exception):
                    raise
                pooled = False
                why = (fault if isinstance(fault, PipelineError)
                       else f"{type(fault).__name__}: {fault}")
                self.report.fallbacks += 1
                self.report.note(f"serial fallback: {why}")
                warnings.warn(
                    f"pipelined fold failed ({why}); falling back to the "
                    "serial streaming path for its "
                    f"{len(self.jobs) - len(self.complete)} unfinished "
                    "range(s)", RuntimeWarning, stacklevel=4)
        started = time.monotonic()
        self.settle()  # a fold a failed pool run could not save
        while len(self.complete) < len(self.jobs):
            key = min(set(self.jobs) - self.complete)
            kind, job = self.jobs[key]
            self.land(key, _run_job(self.folds[key[0]].profiles.store,
                                    kind, job))
            self.settle()
        if pooled and self.residual:
            self.report.recovery_s += time.monotonic() - started
            warnings.warn(
                f"pipelined fold recovered {len(self.residual)} residual "
                "range(s) serially in the parent after the retry budget",
                RuntimeWarning, stacklevel=4)

    def drive(self) -> None:
        """Until no job is due, retrying or running: dispatch, wait on
        every worker's pipe and process sentinel, read what is ready,
        kill wedged workers, dispatch again, then settle what landed.
        A stall is no progress for :data:`NO_PROGRESS_TIMEOUT_S`."""
        from multiprocessing.connection import wait
        pool = self.pool
        last_progress = time.monotonic()
        while self.ready or self.retry_at or self.running:
            self.dispatch()
            slot_of = {}
            for slot in range(pool.workers):
                slot_of[pool.conns[slot]] = slot
                slot_of[pool.processes[slot].sentinel] = slot
            ready = wait(list(slot_of), timeout=EVENT_POLL_S)
            progress = False
            for slot in sorted({slot_of[handle] for handle in ready}):
                progress |= self.receive(slot)
            progress |= self.check_wedged()
            self.dispatch()
            self.settle()
            now = time.monotonic()
            if progress:
                last_progress = now
            elif now - last_progress > NO_PROGRESS_TIMEOUT_S:
                raise PipelineError(
                    "pipelined fold stalled (no progress for "
                    f"{NO_PROGRESS_TIMEOUT_S:.0f}s)")

    def dispatch(self) -> None:
        """Move due retries to ``ready`` (the loop never sleeps a
        backoff) and send each idle worker the next ready job."""
        now = time.monotonic()
        due = [key for when, key in self.retry_at if when <= now]
        if due:
            self.retry_at = [(when, key) for when, key in self.retry_at
                             if when > now]
            self.ready = sorted(self.ready + due)
        for slot in range(self.pool.workers):
            if not self.ready:
                return
            if slot in self.running:
                continue
            key = self.ready.pop(0)
            try:
                self.pool.conns[slot].send(self.jobs[key])
            except OSError:
                # The worker died idle, before it could take the job.
                self.ready.insert(0, key)
                self.lose(slot, f"worker died (slot {slot})")
                continue
            self.tries[key] += 1
            self.running[slot] = key
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
        key = self.running.pop(slot)
        if message[0] == "error":
            self.fail(key, f"worker task failed: {_last_line(message[1])}")
        elif message[1].get("complete") is False:
            self.fail(key, "range persisted incomplete "
                           "(worker store demoted)")
        else:
            self.land(key, message[1])
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
        key = self.running.pop(slot, None)
        if key is not None:
            self.fail(key, why)
        started = time.monotonic()
        self.pool.respawn(slot)
        self.report.respawns += 1
        self.report.recovery_s += time.monotonic() - started

    def land(self, key, payload: dict) -> None:
        """Hand one range's ``range_done`` payload to its fold."""
        self.complete.add(key)
        failed_at = self.first_failed_at.pop(key, None)
        if failed_at is not None:
            self.report.recovery_s += time.monotonic() - failed_at
        self.folds[key[0]].land(key[1], payload)

    def fail(self, key, why: str) -> None:
        """Record one attempt failure: schedule a backoff retry inside
        the budget, park the range as residual beyond it."""
        fold = self.folds[key[0]]
        self.first_failed_at.setdefault(key, time.monotonic())
        self.report.note(f"{fold.stage} fold ({fold.spec.scene}) range "
                         f"{key[1]}: {why}")
        if self.tries[key] > STREAM_RETRIES:
            self.residual[key] = why
            self.report.residual_ranges += 1
            return
        self.report.retried_ranges += 1
        delay = STREAM_BACKOFF_S * (2 ** (self.tries[key] - 1))
        delay *= 0.5 + random.random()  # jitter
        self.retry_at.append((time.monotonic() + delay, key))

    def settle(self) -> None:
        """Merge what landed; publish and save each fold whose ranges
        are all merged, then plan the folds waiting on its trace."""
        for fold in list(self.open):
            if fold.merge_landed():
                fold.finish()
                self.open.remove(fold)
                self.plan(fold.spec)


def _last_line(text: str) -> str:
    lines = str(text).strip().splitlines()
    return lines[-1] if lines else str(text)


def _maybe_kill_run(done_count: int) -> None:
    """Chaos hook: crash the *parent* after ``after`` ranges of one
    cold fold completed (``kill-run`` in ``REPRO_FAULT_PLAN``) -- the
    deterministic stand-in for SIGKILL in crash-resume tests."""
    fault = faults.maybe_fault("range-complete", after=done_count)
    if fault is None:
        return
    if fault.param("mode", "raise") == "exit":
        os._exit(42)
    raise faults.InjectedCrash(
        f"injected parent crash after {done_count} completed range(s)")


# -- parent-side drivers ---------------------------------------------------

def fold_pipelined(folds) -> None:
    """Fold every ``(profiles, pairs)`` of ``folds`` -- a
    :class:`~repro.engine.streaming.StreamedProfiles` and the pairs it
    lacks, in trace order, sharing the first one's store, worker count
    and :class:`StreamReport` -- and save each one's profiles once its
    ranges are in: the one entry point of every streamed fold, one
    call per request (see the module docstring)."""
    folds = [_Fold(position, profiles, pairs)
             for position, (profiles, pairs) in enumerate(folds)]
    head = folds[0].profiles
    head.stream_report.folds += len(folds)
    cold = sorted({fingerprint(spec.payload())
                   for spec in {fold.spec for fold in folds}
                   if head.store.open_render_blocks(spec) is None})
    with contextlib.ExitStack() as locks:
        # Every cold trace's lock, in fingerprint order, before any
        # job runs: two calls that share traces cannot deadlock.
        for digest in cold:
            locks.enter_context(head.store.single_flight("traces", digest))
        _Supervision(folds, int(head.stream_workers),
                     head.stream_report).run()


class _Fold:
    """One ``(trace, layout)`` fold of a call: its range jobs
    (:meth:`plan`), the range states that landed ahead of their turn
    and the states merged so far, in range order."""

    def __init__(self, position: int, profiles, pairs):
        self.position = position
        self.profiles = profiles
        self.pairs = tuple(pairs)
        self.spec = profiles.trace_spec
        self.stage = "warm"
        self.n_ranges = 0
        self.landed = {}   # range index -> states not merged yet
        self.records = {}  # range index -> completion record (cold)
        self.merged = {pair: PartialSetProfile.empty(*pair)
                       for pair in self.pairs}
        self.next = 0      # ranges merged

    def land(self, index: int, payload: dict) -> None:
        self.landed[index] = payload.pop("states")
        self.records.setdefault(index, payload)  # resumed: its record
        if self.stage == "cold":
            _maybe_kill_run(self.next + len(self.landed))

    def merge_landed(self) -> bool:
        """Merge, and drop, each landed range next in range order
        (``merge`` is not commutative); True once all are merged."""
        while self.next in self.landed:
            states = self.landed.pop(self.next)
            for pair in self.pairs:
                self.merged[pair] = self.merged[pair].merge(states[pair])
            self.next += 1
        return self.next == self.n_ranges

    def finish(self) -> None:
        """Publish a cold trace, then finalize and save the profiles;
        the call holds the states of the folds in flight only."""
        if self.stage == "cold":
            _publish(self.profiles.store, self.spec,
                     [self.records[index] for index in range(self.n_ranges)])
        self.profiles._keep(self.merged)
        self.merged = None

    def job(self, **fields) -> dict:
        return {"root": str(self.profiles.store.root),
                "trace_spec": self.spec, "pairs": self.pairs,
                "layout_spec": self.profiles.layout_spec, **fields}

    def plan(self, workers: int) -> dict:
        """Range index -> ``(kind, job)``: contiguous ``fold`` jobs over
        the parts of a stored trace that the reader verified, else
        :meth:`plan_cold`."""
        reader = self.profiles.store.open_render_blocks(self.spec)
        if reader is None:
            return self.plan_cold(workers)
        names = [entry["name"] for entry in reader.parts]
        self.n_ranges = max(1, min(len(names), _n_ranges(workers)))
        bounds = np.linspace(0, len(names), self.n_ranges + 1).astype(int)
        return {index: ("fold", self.job(range=index, parts=names[lo:hi]))
                for index, (lo, hi) in enumerate(zip(bounds[:-1],
                                                     bounds[1:]))}

    def plan_cold(self, workers: int) -> dict:
        """``render`` jobs for a cold trace, and ``fold`` jobs over the
        verified parts of the ranges a previously interrupted run
        completed.  Planned under the trace's single-flight lock."""
        report = self.profiles.stream_report
        geometry, resumed = _load_resume(self.profiles.store, self.spec)
        if not resumed:
            # Nothing usable survives: cut this run's own ranges.
            n_ranges, chunk_size = _n_ranges(workers), self.profiles.chunk_size
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
                f"cold fold ({self.spec.scene}): resumed {len(resumed)}/"
                f"{n_ranges} range(s) from a prior interrupted render")
        self.stage, self.n_ranges, self.records = "cold", n_ranges, resumed
        jobs = {}
        for index in range(n_ranges):
            if index in resumed:
                jobs[index] = ("fold", self.job(
                    range=index, parts=[entry["name"] for entry
                                        in resumed[index]["envelopes"]]))
            else:
                jobs[index] = ("render", self.job(
                    range=index, n_ranges=n_ranges, chunk_size=chunk_size,
                    part_base=index * PART_STRIDE))
        if len(resumed) < n_ranges:
            from . import runner
            runner.RENDER_CALLS += 1  # a fully resumed fold renders nothing
        return jobs


def _n_ranges(workers: int) -> int:
    """Ranges to cut a fold into: one per job the pool can balance, or
    a single range when the fold runs in the parent."""
    return workers * RANGES_PER_WORKER if workers >= 2 else 1


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
