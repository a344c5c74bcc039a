"""The shared experiment engine.

One :class:`Engine` sits between every consumer (benchmark harnesses,
the CLI, the examples) and the pipeline.  It deduplicates shared
stages -- one render per (scene, order, filtering), one byte-address
stream per layout, one collapsed :class:`~repro.core.sweep.LineStream`
and stack-distance profile per line size -- first against in-memory
memos, then against the on-disk :class:`~repro.engine.artifacts.ArtifactStore`,
so warm processes perform zero renders.

Both profile paths are one store-backed profile cache of one (trace,
layout), :class:`StoredProfiles`: the memo, ``profile``/
``set_profile``, batched ``prefetch``, the one owner of the profile
keys of its (trace, layout) and the one ``(line_size, n_sets)`` ->
artifact routing (the one-set profile is the fully-associative
``profiles/`` artifact).  They differ only in ``_compute``, which
computes a batch of profiles the store lacks:
:class:`StoredTraceStreams` off the in-RAM address stream,
:class:`~repro.engine.streaming.StreamedProfiles` as one fold over
fragment blocks.  Neither holds a request's settings: :meth:`Engine.run`
owns the kernel, chunk size, worker count and report of each run.

:func:`run_experiment` executes a declarative
:class:`~repro.engine.spec.ExperimentSpec` grid through one engine:
in RAM by default, or as a streaming fold over bounded blocks
(:mod:`repro.engine.streaming`) whose one parallel form is the
supervised pool of one request behind ``stream_workers``
(:mod:`repro.engine.pipelined`).

Fault tolerance
---------------
Store misses compute under the store's per-fingerprint single-flight
lock, so N racing processes produce one render per fingerprint.  An
unwritable store demotes itself (see :mod:`repro.engine.artifacts`)
and the engine transparently continues on its in-memory memos.
Worker failures in the pipelined fold are retried per range, and
every streamed run reports its folds and recoveries on
:attr:`ExperimentResult.stream_report`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.cache import CacheConfig, CacheStats, simulate
from ..core.kernels import SetDistanceProfile, check_kernel
from ..core.stackdist import miss_rate_curve
from ..core.sweep import TraceStreams
from ..pipeline.renderer import Renderer, RenderResult
from .artifacts import (
    DEFAULT_CHUNK_SIZE,
    ArtifactStore,
    ProfileKeys,
    addresses_payload,
    fingerprint,
)
from .spec import (
    ExperimentSpec,
    TraceSpec,
    order_from_spec,
    scene_data,
    scene_placements,
)

#: Number of actual scene renders performed by this process (cache
#: misses only).  Tests assert warm runs leave this untouched.
RENDER_CALLS = 0


def render_calls() -> int:
    """Scene renders performed by this process so far."""
    return RENDER_CALLS


def reset_render_calls() -> None:
    global RENDER_CALLS
    RENDER_CALLS = 0


class StoredProfiles:
    """The store-backed profile cache of both profile paths: a memo of
    per-set profiles keyed by ``(line_size, n_sets)`` over the artifact
    store, with batched :meth:`prefetch`.  The fully-associative
    :meth:`profile` is the one-set profile, the ``profiles/`` artifact;
    every other pair is a ``set_profiles/`` artifact.  ``keys``
    (:class:`~repro.engine.artifacts.ProfileKeys`) owns every pair's
    key: the address stream's key is encoded once per (trace, layout),
    and each load and save hands the store its pair through it.
    Subclasses supply :meth:`_compute`."""

    def __init__(self, store: ArtifactStore, key_payload: dict):
        self.store = store
        self.keys = ProfileKeys(key_payload)
        self._memo = {}

    def profile(self, line_size: int) -> SetDistanceProfile:
        return self.set_profile(line_size, 1)

    def set_profile(self, line_size: int, n_sets: int) -> SetDistanceProfile:
        key = (int(line_size), int(n_sets))
        if key not in self._memo:
            self.prefetch([key])
        return self._memo[key]

    def prefetch(self, pairs) -> None:
        """Resolve every ``(line_size, n_sets)`` profile in ``pairs``:
        the stored ones (:meth:`missing`), then one :meth:`_compute`
        call for the pairs the store lacks."""
        missing = self.missing(pairs)
        if missing:
            self._memo.update(self._compute(missing))

    def missing(self, pairs) -> list:
        """Memoize every profile of ``pairs`` the store holds, one store
        read per distinct pair not yet memoized; return the pairs it
        lacks, sorted."""
        missing = []
        for pair in sorted({(int(line_size), int(n_sets))
                            for line_size, n_sets in pairs}
                           - set(self._memo)):
            profile = self._load(pair)
            if profile is None:
                missing.append(pair)
            else:
                self._memo[pair] = profile
        return missing

    def _load(self, pair):
        """``pair``'s stored profile, or ``None``."""
        line_size, n_sets = pair
        if n_sets == 1:
            return self.store.load_profile(self.keys, line_size)
        return self.store.load_set_profile(self.keys, line_size, n_sets)

    def _save(self, pair, profile) -> None:
        line_size, n_sets = pair
        if n_sets == 1:
            self.store.save_profile(self.keys, line_size, profile)
        else:
            self.store.save_set_profile(self.keys, line_size, n_sets, profile)

    def _compute(self, pairs) -> dict:
        """``{pair: profile}`` for ``pairs`` (none of them stored),
        each saved to the store."""
        raise NotImplementedError


class StoredTraceStreams(StoredProfiles):
    """Distance profiles -- fully associative and per-set -- of one
    in-RAM byte-address stream that round-trip through the artifact
    store (computed once per store, not once per process).

    The stream is lazy: ``loader()`` resolves it (store load, or
    render + placement on a true miss) the first time a profile has
    to be *computed*, or :meth:`stream` or :attr:`addresses` is read,
    into the :class:`TraceStreams` this cache then computes with.  A
    pure-warm sweep -- every profile store-resident -- therefore never
    touches the addresses artifact, let alone the scene."""

    def __init__(self, store: ArtifactStore, key_payload: dict, loader):
        super().__init__(store, key_payload)
        self._loader = loader
        self._traces = None

    def _trace_streams(self) -> TraceStreams:
        """The stream's :class:`TraceStreams`, built on first use."""
        if self._traces is None:
            self._traces = TraceStreams(self._loader())
        return self._traces

    @property
    def addresses(self) -> np.ndarray:
        return self._trace_streams().addresses

    def stream(self, line_size: int):
        """The collapsed :class:`~repro.core.cache.LineStream` at
        ``line_size`` (the reference simulator replays it)."""
        return self._trace_streams().stream(line_size)

    def _compute(self, pairs) -> dict:
        """Compute each pair off the address stream under its
        artifact's single-flight lock, re-checking the store there so
        racing processes compute once."""
        computed = {}
        for pair in pairs:
            key = self.keys.key(*pair)
            with self.store.single_flight(key.kind, key.digest):
                profile = self._load(pair)
                if profile is None:
                    profile = self._trace_streams().set_profile(*pair)
                    self._save(pair, profile)
            computed[pair] = profile
        return computed


class Engine:
    """Memoized, store-backed access to every pipeline stage."""

    def __init__(self, store: Optional[ArtifactStore] = None):
        self.store = store if store is not None else ArtifactStore()
        #: Aggregated fold and recovery report of the last streamed
        #: run (:class:`~repro.engine.pipelined.StreamReport`), ``None``
        #: when the last run did not stream.
        self.last_stream_report = None
        self._renders = {}
        self._streams = {}
        self._streamed = {}

    # -- renders ---------------------------------------------------------

    def render(self, spec: TraceSpec, produce_image: bool = False,
               fresh: bool = False) -> RenderResult:
        """The render for ``spec``: memoized, then store-backed, then
        fresh.  ``produce_image=True`` always renders (framebuffers are
        not cached) but still persists the trace for later warm runs
        when the store lacks it; ``fresh=True`` also skips the memo and
        store so the result carries real ``phase_ms`` timings
        (``render --profile``).

        Store misses render, and every trace saves, under the
        per-fingerprint single-flight lock: of N racing processes one
        renders, the rest load its published artifact."""
        if produce_image or fresh:
            result = self._render_fresh(spec, produce_image=produce_image)
            with self.store.single_flight("traces",
                                          fingerprint(spec.payload())):
                self.store.save_render(spec, result)
            return result
        if spec not in self._renders:
            result = self.store.load_render(spec)
            if result is None:
                digest = fingerprint(spec.payload())
                with self.store.single_flight("traces", digest):
                    result = self.store.load_render(spec)
                    if result is None:
                        result = self._render_fresh(spec, produce_image=False)
                        self.store.save_render(spec, result)
            self._renders[spec] = result
        return self._renders[spec]

    def _render_fresh(self, spec: TraceSpec, produce_image: bool) -> RenderResult:
        global RENDER_CALLS
        scene = scene_data(spec.scene, spec.scale, spec.time)
        renderer = Renderer(
            order=order_from_spec(spec.order),
            produce_image=produce_image,
            record_positions=spec.record_positions,
            max_anisotropy=spec.max_anisotropy,
            lod_bias=spec.lod_bias,
            use_mipmaps=spec.use_mipmaps,
            raster=spec.raster,
        )
        RENDER_CALLS += 1
        return renderer.render(scene)

    def trace(self, spec: TraceSpec):
        return self.render(spec).trace

    # -- address streams -------------------------------------------------

    def addresses(self, trace_spec: TraceSpec, layout_spec) -> np.ndarray:
        """The byte-address stream for (trace, layout).  Warm hits load
        the stream directly, without building the scene or rendering."""
        return self.streams(trace_spec, layout_spec).addresses

    def streams(self, trace_spec: TraceSpec, layout_spec) -> StoredTraceStreams:
        """The in-RAM store-backed profile cache for (trace, layout),
        memoized.

        The address stream resolves lazily: nothing is loaded --
        let alone rendered -- until a profile actually needs the
        addresses, so pure-warm sweeps (profiles store-resident) skip
        the scene, the trace and the address artifact entirely."""
        key = (trace_spec, tuple(layout_spec))
        if key not in self._streams:
            payload = addresses_payload(trace_spec, layout_spec)
            # The loader reaches this engine's memos through a weak
            # reference: an engine and its streams form no cycle, so a
            # dropped engine is freed at once with the profiles it
            # memoized.  A loader that outlives its engine computes
            # through a fresh one over the same store.
            owner, store = weakref.ref(self), self.store

            def load_or_compute():
                addresses = store.load_addresses(payload)
                if addresses is None:
                    with store.single_flight("addresses",
                                             fingerprint(payload)):
                        addresses = store.load_addresses(payload)
                        if addresses is None:
                            engine = owner() or Engine(store=store)
                            trace = engine.trace(trace_spec)
                            addresses = trace.byte_addresses(
                                scene_placements(
                                    trace_spec.scene, trace_spec.scale,
                                    layout_spec, trace_spec.time))
                            store.save_addresses(payload, addresses)
                return addresses

            self._streams[key] = StoredTraceStreams(store, payload,
                                                    load_or_compute)
        return self._streams[key]

    def streamed(self, trace_spec: TraceSpec, layout_spec):
        """Constant-memory :class:`~repro.engine.streaming.StreamedProfiles`
        for (trace, layout), memoized like :meth:`streams`.  Same
        profiles (bit for bit) as :meth:`streams`, computed as a fold
        over bounded fragment blocks instead of materialized arrays,
        under the settings of the :meth:`run` that folds them."""
        from .streaming import StreamedProfiles
        key = (trace_spec, tuple(layout_spec))
        if key not in self._streamed:
            self._streamed[key] = StreamedProfiles(self.store, trace_spec,
                                                   layout_spec)
        return self._streamed[key]

    # -- experiment execution --------------------------------------------

    def run(self, experiment: ExperimentSpec, kernel: str = "vectorized",
            chunk_size: Optional[int] = None, stream_workers: int = 0,
            audit_parts: int = 0) -> "ExperimentResult":
        """Execute every cell of ``experiment``.

        ``kernel`` selects the LRU simulation path: the default reads
        every finite associativity off a store-backed per-set distance
        profile; ``"reference"`` runs the sequential
        :class:`~repro.core.cache.LRUCache` simulator.

        ``chunk_size`` and/or ``stream_workers > 0`` switch the profile
        stage to the streaming fold (:mod:`repro.engine.streaming`):
        the trace is never materialized, and the fold holds one block
        of ``chunk_size`` accesses (default
        :data:`~repro.engine.artifacts.DEFAULT_CHUNK_SIZE`) plus its
        per-pair states (a cold render also holds one triangle batch).
        These settings belong to the run, not to the memoized
        profiles: a profile this engine already holds is served
        whatever the run's settings.  Every fold runs as the range
        jobs of :mod:`repro.engine.pipelined`, which commits a cold
        trace as a part list and resumes an interrupted one.  Every
        stored profile of the grid resolves first; then every (trace,
        layout) that still lacks some folds in one call.  With
        ``stream_workers < 2`` the folds run in this process, one
        after another;
        ``stream_workers >= 2`` pipelines them over one worker pool
        that lives for the call: cold renders are partitioned across
        it, each worker folds the blocks it renders, and the parent
        merges the per-range states.  A grid whose profiles are all
        stored starts no pool and takes no lock.  Streaming produces
        bit-identical rows, sets
        :attr:`ExperimentResult.stream_report`, and requires the
        vectorized kernel (the reference simulator needs the in-RAM
        stream).

        ``audit_parts = N`` additionally replays N sampled parts of
        every streamed trace through the sequential reference oracle
        (:meth:`~repro.engine.streaming.StreamedProfiles.audit`),
        raising on any per-access disagreement with the folded
        profiles; the reports land on
        :attr:`ExperimentResult.audit_reports`.
        """
        check_kernel(kernel)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if stream_workers < 0:
            raise ValueError("stream_workers must not be negative")
        if audit_parts < 0:
            raise ValueError("audit_parts must not be negative")
        # Any pipeline request counts as streaming (a single worker
        # folds serially) so combining one with the reference kernel
        # fails loudly instead of silently running the non-streamed
        # vectorized path.
        streaming = bool(chunk_size) or stream_workers > 0
        if streaming and kernel != "vectorized":
            raise ValueError(
                "streaming execution (chunk_size/stream_workers) "
                "requires the vectorized kernel; the reference simulator "
                "replays the materialized stream")
        if audit_parts and not streaming:
            raise ValueError(
                "audit_parts spot-audits the streaming fold; enable "
                "streaming (chunk_size/stream_workers) to use it")
        rows = []
        audit_reports = []
        stream_report = None
        sweeps = _grid_configs(experiment)
        pairs = {(int(config.line_size), config.n_sets)
                 for configs in sweeps for config in configs}
        cells = [(trace_spec, layout_spec)
                 for trace_spec in experiment.trace_specs()
                 for layout_spec in experiment.layouts]
        if streaming:
            from .pipelined import StreamReport, fold_pipelined
            stream_report = StreamReport()
            profiles = [self.streamed(*cell) for cell in cells]
            folds = {streams: streams.missing(pairs) for streams in profiles}
            if any(folds.values()):
                fold_pipelined(
                    [fold for fold in folds.items() if fold[1]],
                    DEFAULT_CHUNK_SIZE if chunk_size is None
                    else int(chunk_size), int(stream_workers), stream_report)
        else:
            profiles = [self.streams(*cell) for cell in cells]
        for (trace_spec, layout_spec), streams in zip(cells, profiles):
            if kernel == "vectorized":
                # Batched grid serving: one store round-trip per
                # distinct (line_size, n_sets) pair up front, and the
                # misses computed together (streamed: already folded
                # above).  The reference kernel simulates every cell
                # and reads no profile.
                streams.prefetch(pairs)
            if audit_parts:
                audit_reports.append(streams.audit(pairs,
                                                   parts=audit_parts))
            layout = tuple(layout_spec)
            for configs in sweeps:
                rows.extend(
                    ExperimentRow(scene=trace_spec.scene,
                                  order=trace_spec.order, layout=layout,
                                  stats=stats)
                    for stats in _sweep_sizes(streams, configs, kernel))
        self.last_stream_report = stream_report
        return ExperimentResult(spec=experiment, rows=rows,
                                stream_report=stream_report,
                                audit_reports=tuple(audit_reports))


def _grid_configs(experiment: ExperimentSpec) -> list:
    """The grid's cache configurations, built once per run and shared
    by every trace: one list per (line size, associativity), in
    ascending size.  Their ``(line_size, n_sets)`` pairs are every
    profile the vectorized sweep reads (a fully-associative
    configuration has one set)."""
    sizes = sorted(experiment.cache_sizes)
    return [[CacheConfig(int(size), line_size, assoc) for size in sizes]
            for line_size in experiment.line_sizes
            for assoc in experiment.assocs]


def _sweep_sizes(streams, configs: list, kernel: str) -> list:
    """The :class:`CacheStats` of one trace under ``configs`` (one line
    size and associativity, ascending sizes)."""
    line_size = configs[0].line_size
    if kernel != "vectorized":
        # The reference oracle must really be the sequential simulator,
        # not the vectorized profile in disguise; only it materializes
        # the line stream (which streaming profiles refuse to do).
        stream = streams.stream(line_size)
        return [simulate(stream, config, kernel=kernel) for config in configs]
    if configs[0].assoc is None:
        curve = miss_rate_curve(streams, line_size,
                                [config.size for config in configs])
        return curve.as_stats(configs)
    return [streams.set_profile(line_size, config.n_sets).stats_for(config)
            for config in configs]


@dataclass(frozen=True)
class ExperimentRow:
    """One grid cell's result."""

    scene: str
    order: tuple
    layout: tuple
    stats: CacheStats

    @property
    def config(self) -> CacheConfig:
        return self.stats.config


@dataclass
class ExperimentResult:
    """All cells of one executed :class:`ExperimentSpec`."""

    spec: ExperimentSpec
    rows: list
    #: Aggregated :class:`~repro.engine.pipelined.StreamReport` of
    #: every fold and recovery whenever the run streamed (``chunk_size``
    #: or ``stream_workers`` set); ``None`` for an in-RAM run.
    stream_report: object = field(default=None)
    #: One :class:`~repro.engine.streaming.StreamAuditReport` per
    #: streamed (trace, layout) pair when ``audit_parts`` was set.
    audit_reports: tuple = ()

    def select(self, **criteria) -> list:
        """Rows matching the given field/config values, e.g.
        ``select(scene="town", line_size=64)``."""
        config_fields = {"cache_size": "size", "line_size": "line_size",
                         "assoc": "assoc"}
        matched = []
        for row in self.rows:
            keep = True
            for name, wanted in criteria.items():
                if name in config_fields:
                    value = getattr(row.config, config_fields[name])
                else:
                    value = getattr(row, name)
                if value != wanted:
                    keep = False
                    break
            if keep:
                matched.append(row)
        return matched


def run_experiment(experiment: ExperimentSpec,
                   store: Optional[ArtifactStore] = None,
                   engine: Optional[Engine] = None,
                   kernel: str = "vectorized",
                   chunk_size: Optional[int] = None,
                   stream_workers: int = 0,
                   audit_parts: int = 0) -> ExperimentResult:
    """Convenience wrapper: run ``experiment`` on ``engine`` (or a
    fresh one over ``store``)."""
    if engine is None:
        engine = Engine(store=store)
    return engine.run(experiment, kernel=kernel, chunk_size=chunk_size,
                      stream_workers=stream_workers,
                      audit_parts=audit_parts)
