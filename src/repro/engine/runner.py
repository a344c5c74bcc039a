"""The shared experiment engine.

One :class:`Engine` sits between every consumer (benchmark harnesses,
the CLI, the examples) and the pipeline.  It deduplicates shared
stages -- one render per (scene, order, filtering), one byte-address
stream per layout, one collapsed :class:`~repro.core.sweep.LineStream`
and stack-distance profile per line size -- first against in-memory
memos, then against the on-disk :class:`~repro.engine.artifacts.ArtifactStore`,
so warm processes perform zero renders.

Both profile paths are one store-backed profile cache,
:class:`StoredProfiles`: the memo, ``profile``/``set_profile``,
batched ``prefetch`` and the one ``(line_size, n_sets)`` -> artifact
routing (the one-set profile is the fully-associative ``profiles/``
artifact).  They differ only in ``_compute``, which computes a batch
of profiles the store lacks: :class:`StoredTraceStreams` off the
in-RAM address stream, :class:`~repro.engine.streaming.
StreamedProfiles` as one fold over fragment blocks.

:func:`run_experiment` executes a declarative
:class:`~repro.engine.spec.ExperimentSpec` grid through one engine:
in RAM by default, or as a constant-memory streaming fold
(:mod:`repro.engine.streaming`) whose one parallel form is the
supervised pipelined pool behind ``stream_workers``
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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.cache import CacheConfig, CacheStats, simulate
from ..core.classify import classify_counts
from ..core.kernels import SetDistanceProfile, check_kernel
from ..core.stackdist import miss_rate_curve
from ..core.sweep import TraceStreams
from ..pipeline.renderer import Renderer, RenderResult
from ..scenes import ALL_SCENES
from ..texture.memory import place_textures
from .artifacts import (
    ArtifactStore,
    addresses_payload,
    fingerprint,
    profile_payload,
    set_profile_payload,
)
from .spec import ExperimentSpec, TraceSpec, layout_from_spec, order_from_spec

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
    every other pair is a ``set_profiles/`` artifact.  Subclasses
    supply :meth:`_compute`."""

    def __init__(self, store: ArtifactStore, key_payload: dict):
        self.store = store
        self._key_payload = key_payload
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
        one store read per distinct pair not yet memoized, then one
        :meth:`_compute` call for the pairs the store lacks."""
        missing = []
        for pair in sorted({(int(line_size), int(n_sets))
                            for line_size, n_sets in pairs}
                           - set(self._memo)):
            _, payload, load, _ = self._artifact(pair)
            profile = load(payload)
            if profile is None:
                missing.append(pair)
            else:
                self._memo[pair] = profile
        if missing:
            self._memo.update(self._compute(missing))

    def _artifact(self, pair) -> tuple:
        """``(kind, payload, load, save)`` of the store artifact
        holding ``pair``'s profile."""
        line_size, n_sets = pair
        if n_sets == 1:
            return ("profiles", profile_payload(self._key_payload, line_size),
                    self.store.load_profile, self.store.save_profile)
        return ("set_profiles",
                set_profile_payload(self._key_payload, line_size, n_sets),
                self.store.load_set_profile, self.store.save_set_profile)

    def _compute(self, pairs) -> dict:
        """``{pair: profile}`` for ``pairs`` (none of them stored),
        each saved to the store."""
        raise NotImplementedError


def classify_profiles(profiles: StoredProfiles,
                      config: CacheConfig) -> CacheStats:
    """3C classification off stored profiles -- either path's, in RAM
    or streamed -- bit-identical to
    :func:`~repro.core.classify.classify_misses` over the materialized
    address stream.  Reads the line size's fully-associative and
    ``config``'s per-set profile, so a store that holds both runs no
    per-access pass."""
    profiles.prefetch([(config.line_size, 1),
                       (config.line_size, config.n_sets)])
    profile = profiles.profile(config.line_size)
    misses, cold = profiles.set_profile(
        config.line_size, config.n_sets).stats_pair(config)
    return classify_counts(config, profile.total_accesses, misses, cold,
                           profile.misses_at(config.n_lines))


class StoredTraceStreams(StoredProfiles, TraceStreams):
    """:class:`TraceStreams` whose distance profiles -- fully
    associative and per-set -- round-trip through the artifact store
    (computed once per store, not once per process).

    The byte-address stream itself is lazy: pass ``loader`` instead of
    ``addresses`` and the array is only resolved (store load, or
    render + placement on a true miss) the first time a profile
    actually has to be *computed*.  A pure-warm sweep -- every profile
    store-resident -- therefore never touches the addresses artifact,
    let alone the scene."""

    def __init__(self, addresses=None, store: Optional[ArtifactStore] = None,
                 key_payload: Optional[dict] = None,
                 kernel: str = "vectorized", loader=None):
        if addresses is None and loader is None:
            raise ValueError("StoredTraceStreams needs addresses or a loader")
        if store is None or key_payload is None:
            raise ValueError("StoredTraceStreams needs a store and the "
                             "addresses' key payload")
        StoredProfiles.__init__(self, store, key_payload)
        self._loader = loader
        # The dataclass base assigns self.addresses; the property
        # setter below routes that into _addresses.
        TraceStreams.__init__(self, addresses, kernel=kernel)

    @property
    def addresses(self):
        if self._addresses is None:
            self._addresses = self._loader()
        return self._addresses

    @addresses.setter
    def addresses(self, value):
        self._addresses = value

    def _compute(self, pairs) -> dict:
        """Compute each pair off the address stream under its
        artifact's single-flight lock, re-checking the store there so
        racing processes compute once."""
        computed = {}
        for pair in pairs:
            kind, payload, load, save = self._artifact(pair)
            with self.store.single_flight(kind, fingerprint(payload)):
                profile = load(payload)
                if profile is None:
                    line_size, n_sets = pair
                    profile = (TraceStreams.profile(self, line_size)
                               if n_sets == 1 else
                               TraceStreams.set_profile(self, line_size,
                                                        n_sets))
                    save(payload, profile)
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
        self._scenes = {}
        self._renders = {}
        self._placements = {}
        self._streams = {}
        self._streamed = {}

    # -- scene construction (cheap, never persisted) ---------------------

    def scene(self, name: str, scale: float, time: float = 0.0):
        """The built :class:`~repro.scenes.base.SceneData`, memoized."""
        key = (name, scale, time)
        if key not in self._scenes:
            self._scenes[key] = ALL_SCENES[name]().build(scale=scale, time=time)
        return self._scenes[key]

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
        scene = self.scene(spec.scene, spec.scale, spec.time)
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

    # -- placements and address streams ----------------------------------

    def placements(self, scene: str, scale: float, layout_spec,
                   time: float = 0.0) -> list:
        """Placed textures for (scene, layout), memoized."""
        key = (scene, scale, time, tuple(layout_spec))
        if key not in self._placements:
            built = self.scene(scene, scale, time)
            self._placements[key] = place_textures(
                built.get_mipmaps(), layout_from_spec(layout_spec))
        return self._placements[key]

    def addresses(self, trace_spec: TraceSpec, layout_spec) -> np.ndarray:
        """The byte-address stream for (trace, layout).  Warm hits load
        the stream directly, without building the scene or rendering."""
        return self.streams(trace_spec, layout_spec).addresses

    def streams(self, trace_spec: TraceSpec, layout_spec) -> StoredTraceStreams:
        """Store-backed :class:`TraceStreams` for (trace, layout).

        The address stream resolves lazily: nothing is loaded --
        let alone rendered -- until a profile actually needs the
        addresses, so pure-warm sweeps (profiles store-resident) skip
        the scene, the trace and the address artifact entirely."""
        key = (trace_spec, tuple(layout_spec))
        if key not in self._streams:
            payload = addresses_payload(trace_spec, layout_spec)

            def load_or_compute():
                addresses = self.store.load_addresses(payload)
                if addresses is None:
                    with self.store.single_flight("addresses",
                                                  fingerprint(payload)):
                        addresses = self.store.load_addresses(payload)
                        if addresses is None:
                            addresses = self.trace(trace_spec).byte_addresses(
                                self.placements(
                                    trace_spec.scene, trace_spec.scale,
                                    layout_spec, trace_spec.time))
                            self.store.save_addresses(payload, addresses)
                return addresses

            self._streams[key] = StoredTraceStreams(
                store=self.store, key_payload=payload,
                loader=load_or_compute)
        return self._streams[key]

    def streamed(self, trace_spec: TraceSpec, layout_spec,
                 chunk_size: Optional[int] = None, stream_workers: int = 0):
        """Constant-memory :class:`~repro.engine.streaming.StreamedProfiles`
        for (trace, layout), memoized.  Same profiles (bit for bit) as
        :meth:`streams`, computed as a fold over bounded fragment
        blocks instead of materialized arrays, as the range jobs of
        :mod:`repro.engine.pipelined`.  ``stream_workers >= 2`` runs
        them on the persistent pool: cold renders are
        partitioned across workers, each folding the blocks it
        renders."""
        from .streaming import DEFAULT_CHUNK_SIZE, StreamedProfiles
        chunk = int(chunk_size) if chunk_size else DEFAULT_CHUNK_SIZE
        key = (trace_spec, tuple(layout_spec), chunk, int(stream_workers))
        if key not in self._streamed:
            self._streamed[key] = StreamedProfiles(
                self.store, trace_spec, layout_spec, chunk_size=chunk,
                stream_workers=int(stream_workers))
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
        the trace is never materialized and peak memory is bounded by
        the chunk size independent of trace length.  Every fold runs
        as the range jobs of :mod:`repro.engine.pipelined`, which
        commits a cold trace as a part list and resumes an
        interrupted one.  With ``stream_workers < 2`` it runs in this
        process; ``stream_workers >= 2`` pipelines it: cold renders
        are partitioned across a persistent worker pool, each worker
        folds the blocks it renders, and the parent merges the
        per-range states.  Streaming produces bit-identical rows, sets
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
        if streaming:
            from .pipelined import StreamReport
            stream_report = StreamReport()
        pairs = _profile_pairs(experiment)
        for trace_spec in experiment.trace_specs():
            for layout_spec in experiment.layouts:
                if streaming:
                    streams = self.streamed(trace_spec, layout_spec,
                                            chunk_size=chunk_size,
                                            stream_workers=stream_workers)
                    # Per-run recovery accounting: every fold of this
                    # run, and none of a previous run's, lands in the
                    # run's report.
                    streams.stream_report = stream_report
                else:
                    streams = self.streams(trace_spec, layout_spec)
                if kernel == "vectorized":
                    # Batched grid serving: one store round-trip per
                    # distinct (line_size, n_sets) pair up front, and
                    # the misses computed together (streamed: in one
                    # pass over the blocks).  The reference kernel
                    # simulates every cell and reads no profile.
                    streams.prefetch(pairs)
                if audit_parts:
                    audit_reports.append(streams.audit(
                        pairs, parts=audit_parts))
                for line_size in experiment.line_sizes:
                    for assoc in experiment.assocs:
                        rows.extend(self._sweep_sizes(
                            trace_spec, layout_spec, streams, line_size,
                            assoc, experiment.cache_sizes, kernel))
        self.last_stream_report = stream_report
        return ExperimentResult(spec=experiment, rows=rows,
                                stream_report=stream_report,
                                audit_reports=tuple(audit_reports))

    def _sweep_sizes(self, trace_spec, layout_spec, streams, line_size,
                     assoc, cache_sizes, kernel: str = "vectorized") -> list:
        rows = []
        if assoc is None:
            if kernel == "vectorized":
                curve = miss_rate_curve(streams, line_size,
                                        sorted(cache_sizes))
                stats_per_size = curve.as_stats()
            else:
                # The reference oracle must really be the sequential
                # simulator, not the vectorized profile in disguise.
                stream = streams.stream(line_size)
                stats_per_size = [
                    simulate(stream, CacheConfig(int(size), line_size, None),
                             kernel=kernel)
                    for size in sorted(cache_sizes)]
            for stats in stats_per_size:
                rows.append(ExperimentRow(
                    scene=trace_spec.scene, order=trace_spec.order,
                    layout=tuple(layout_spec), stats=stats))
        else:
            # The vectorized path reads everything off per-set
            # profiles; only the reference simulator materializes the
            # line stream (which streaming profiles refuse to do).
            stream = None
            for size in sorted(cache_sizes):
                config = CacheConfig(int(size), line_size, assoc)
                if kernel == "vectorized":
                    stats = streams.set_profile(
                        line_size, config.n_sets).stats_for(config)
                else:
                    if stream is None:
                        stream = streams.stream(line_size)
                    stats = simulate(stream, config, kernel=kernel)
                rows.append(ExperimentRow(
                    scene=trace_spec.scene, order=trace_spec.order,
                    layout=tuple(layout_spec), stats=stats))
        return rows


def _profile_pairs(experiment: ExperimentSpec) -> set:
    """Every ``(line_size, n_sets)`` profile the grid's vectorized
    sweep will read -- the prefetch set for one streaming fold pass."""
    pairs = set()
    for line_size in experiment.line_sizes:
        for assoc in experiment.assocs:
            if assoc is None:
                pairs.add((int(line_size), 1))
            else:
                for size in experiment.cache_sizes:
                    config = CacheConfig(int(size), int(line_size), assoc)
                    pairs.add((int(line_size), config.n_sets))
    return pairs


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
