"""Streaming execution of the simulate pipeline over bounded blocks.

The in-RAM pipeline materializes a whole frame's texel trace, its
byte-address stream and the per-line-size collapsed streams before any
profile pass runs, so peak memory scales with trace length -- the cap
that kept experiments at reproduction scale 0.25.  This module folds
the same pipeline over bounded :class:`~repro.pipeline.trace.FragmentBlock`
chunks instead::

    render_blocks --> per-block byte addresses --> PartialSetProfile
    per (line_size, n_sets) --> merge --> finalize

:class:`StreamedProfiles` is the in-RAM path's store-backed profile
cache (:class:`~repro.engine.runner.StoredProfiles`) of one (trace,
layout) with another ``_compute``: it serves the
``profile``/``set_profile``/``stream`` interface that
``miss_rate_curve`` and ``runner._sweep_sizes`` consume, and loads or
saves the *same* store artifacts (``profiles/``, ``set_profiles/``)
through the same routing -- so streamed and in-RAM runs warm each
other.  It holds no request setting: ``Engine.run`` hands the chunk
size, worker count and report of each request to the one fold call
that computes its misses.  Because
:meth:`~repro.core.kernels.PartialSetProfile.merge` is exactly the
profile of the concatenated stream, every downstream number
(miss-rate curves, 3C classification) is bit-identical to the in-RAM
path.

A fold holds one block plus its per-pair partial states, which grow
with the distinct lines the trace touches, not with its length; a
cold fold also holds the renderer's current triangle batch, and the
scene's textures stay resident.  ``tests/test_streaming_pipeline.py``
bounds a warm fold's traced peak by a quarter of the trace's column
bytes, and a cold fold's by three quarters.

Every fold runs as the range jobs of :mod:`repro.engine.pipelined`,
one call per request: with fewer than two workers this process runs
them itself (a cold trace is one ``render`` range), with more it fans
them out over a supervised pool that lives for the call.  Per-range
partial states merge associatively in stream order, so every form is
bit-identical too, and a cold fold publishes the trace as the same
part list :meth:`~repro.engine.artifacts.ArtifactStore.save_render`
writes, which every later fold reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cache import LineStream, collapse_consecutive, to_lines
from ..core.kernels import (
    PartialSetProfile,
    per_set_distances,
    previous_occurrences,
)
from ..pipeline.renderer import render_trace_blocks
from .artifacts import DEFAULT_CHUNK_SIZE, ArtifactStore, addresses_payload
from .runner import StoredProfiles
from .spec import TraceSpec, order_from_spec, scene_data, scene_placements


def _render_blocks(spec: TraceSpec, chunk_size: int, totals=None,
                   triangle_slice=None):
    """``spec``'s render off the process's scene memo as a block stream
    (one ``(index, count)`` triangle slice of it, given
    ``triangle_slice``); ``totals`` receives the render counters once
    it is exhausted."""
    return render_trace_blocks(
        scene_data(spec.scene, spec.scale, spec.time), chunk_size,
        order=order_from_spec(spec.order),
        raster=spec.raster, record_positions=spec.record_positions,
        max_anisotropy=spec.max_anisotropy, lod_bias=spec.lod_bias,
        use_mipmaps=spec.use_mipmaps, totals=totals,
        triangle_slice=triangle_slice)


def _fold_blocks(pairs, placements, blocks, beat=None) -> dict:
    """Fold ``blocks`` in order into fresh per-pair partial states --
    the one block-fold loop of every range job, in a pool worker or
    in the parent.  ``beat(n)`` runs ahead of block ``n`` (a pool
    worker's heartbeat)."""
    states = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
    for sequence, block in enumerate(blocks):
        if beat is not None:
            beat(sequence)
        _fold_block_into(states, block.byte_addresses(placements))
    return states


def _fold_block_into(states: dict, addresses: np.ndarray) -> None:
    """Merge one block's addresses into every ``(line_size, n_sets)``
    partial state: one line reduction, consecutive-run collapse,
    previous-occurrence argsort and nested set-count pass
    (:meth:`~repro.core.kernels.PartialSetProfile.from_runs`) per line
    size."""
    by_line_size = {}
    for line_size, n_sets in states:
        by_line_size.setdefault(line_size, []).append(n_sets)
    for line_size, set_counts in by_line_size.items():
        lines = to_lines(addresses, line_size)
        if len(lines) == 0:
            continue
        run_lines, duplicate_hits = collapse_consecutive(lines)
        partials = PartialSetProfile.from_runs(
            run_lines, previous_occurrences(run_lines), duplicate_hits,
            len(lines), line_size, set_counts)
        for n_sets, partial in partials.items():
            key = (line_size, n_sets)
            states[key] = states[key].merge(partial)


class StreamingAuditError(RuntimeError):
    """A spot-audited part disagreed with the sequential reference
    oracle (or the folded profile disagreed with the trace totals)."""


@dataclass(frozen=True)
class StreamAuditReport:
    """What one streamed spot audit checked (it raises on failure)."""

    parts: tuple        # sampled part indices
    n_parts: int        # parts in the chunked trace
    pairs: tuple        # audited (line_size, n_sets) pairs
    accesses: int       # texel accesses replayed through the oracle


def _sequential_set_distances(run_lines, n_sets: int) -> tuple:
    """Per-access LRU stack distances of a collapsed run stream by the
    obvious sequential walk (one MRU-first list per set) -- the oracle
    the streamed spot audit replays against the vectorized kernel.
    Returns ``(distances, cold)`` matching
    :func:`~repro.core.kernels.per_set_distances` (distance values on
    cold accesses are unspecified there, so compare warm slots only).
    """
    distances = np.zeros(len(run_lines), dtype=np.int64)
    cold = np.zeros(len(run_lines), dtype=bool)
    stacks: dict = {}
    for position, line in enumerate(map(int, run_lines)):
        stack = stacks.setdefault(line % n_sets, [])
        try:
            depth = stack.index(line)
        except ValueError:
            cold[position] = True
        else:
            distances[position] = depth + 1
            del stack[depth]
        stack.insert(0, line)
    return distances, cold


class StreamedProfiles(StoredProfiles):
    """Distance profiles for one ``(trace, layout)`` computed as a
    fold over bounded fragment blocks.

    Counterpart of the in-RAM
    :class:`~repro.engine.runner.StoredTraceStreams` on the vectorized
    kernel: the same store-backed profile cache, computing its misses
    with one fold.  :meth:`stream`
    exists only to satisfy the duck check and raises, because
    streaming never materializes a :class:`~repro.core.cache.LineStream`
    (the reference simulator needs the in-RAM path).
    """

    def __init__(self, store: ArtifactStore, trace_spec: TraceSpec,
                 layout_spec):
        super().__init__(store, addresses_payload(trace_spec,
                                                  tuple(layout_spec)))
        self.trace_spec = trace_spec
        self.layout_spec = tuple(layout_spec)

    def stream(self, line_size: int) -> LineStream:
        raise RuntimeError(
            "streaming mode never materializes a LineStream; the reference "
            "kernel needs the in-RAM path (drop --chunk-size/"
            "--stream-workers)")

    # -- the fold ----------------------------------------------------------

    def _compute(self, pairs) -> dict:
        """Fold every pair in one serial pass over blocks of
        :data:`~repro.engine.artifacts.DEFAULT_CHUNK_SIZE` accesses, a
        request of its own (``Engine.run`` folds a grid's pairs in one
        call, under the run's settings)."""
        from .pipelined import StreamReport, fold_pipelined
        fold_pipelined([(self, pairs)], DEFAULT_CHUNK_SIZE, 0, StreamReport())
        return {pair: self._memo[pair] for pair in pairs}

    def _keep(self, states: dict) -> None:
        """Finalize, memoize and save each folded pair's profile."""
        for pair, state in states.items():
            self._memo[pair] = state.finalize()
            self._save(pair, self._memo[pair])

    # -- spot audit --------------------------------------------------------

    def audit(self, pairs, parts: int = 2) -> StreamAuditReport:
        """Replay ``parts`` evenly-sampled chunks of the trace through
        the sequential reference oracle and assert, per access, that
        the vectorized fold agrees.

        Streaming refuses the reference kernel (it needs the
        materialized stream), so this is the scoped substitute: for
        each sampled part and each ``(line_size, n_sets)`` pair it
        checks (1) the vectorized per-access stack distances and cold
        masks against a sequential per-set LRU walk, (2) the part's
        :class:`~repro.core.kernels.PartialSetProfile` against the
        oracle's histogram, and (3) the folded profile's access total
        against the chunked trace's counters.  Raises
        :class:`StreamingAuditError` on the first disagreement;
        returns a :class:`StreamAuditReport` describing the sample.
        """
        pairs = sorted({(int(line_size), int(n_sets))
                        for line_size, n_sets in pairs})
        if not pairs:
            raise ValueError("audit needs at least one pair")
        reader = self._ensure_chunked()
        if reader is None:
            raise StreamingAuditError(
                "spot audit needs the trace's parts in the store "
                "(store demoted?)")
        n_parts = len(reader)
        sampled = sorted({int(index) for index in np.linspace(
            0, n_parts - 1, max(1, min(int(parts), n_parts)))})
        by_line_size = {}
        for line_size, n_sets in pairs:
            by_line_size.setdefault(line_size, []).append(n_sets)
        spec = self.trace_spec
        placements = scene_placements(spec.scene, spec.scale,
                                      self.layout_spec, spec.time)
        accesses = 0
        texels_per_access = None
        for part_index in sampled:
            block = reader.read_part(part_index)
            addresses = block.byte_addresses(placements)
            if block.n_accesses:
                texels_per_access = len(addresses) // int(block.n_accesses)
            for line_size, set_counts in by_line_size.items():
                lines = to_lines(addresses, line_size)
                run_lines, duplicate_hits = collapse_consecutive(lines)
                for n_sets in set_counts:
                    self._audit_part(part_index, lines, run_lines,
                                     duplicate_hits, line_size, n_sets)
            accesses += int(block.n_accesses)
        for line_size, n_sets in pairs:
            profile = self.set_profile(line_size, n_sets)
            if texels_per_access and profile.total_accesses != \
                    texels_per_access * reader.n_accesses:
                raise StreamingAuditError(
                    f"folded ({line_size}B, {n_sets} sets) profile "
                    f"covers {profile.total_accesses} accesses; the "
                    f"chunked trace implies "
                    f"{texels_per_access * reader.n_accesses}")
        return StreamAuditReport(parts=tuple(sampled), n_parts=n_parts,
                                 pairs=tuple(pairs), accesses=accesses)

    def _audit_part(self, part_index, lines, run_lines, duplicate_hits,
                    line_size, n_sets) -> None:
        """One part x one pair: vectorized kernel vs sequential walk."""
        label = f"part {part_index}, ({line_size}B, {n_sets} sets)"
        vec_distances, vec_cold = per_set_distances(run_lines, n_sets)
        ref_distances, ref_cold = _sequential_set_distances(
            run_lines, n_sets)
        if not np.array_equal(vec_cold, ref_cold):
            raise StreamingAuditError(
                f"{label}: cold-access mask disagrees with the "
                "sequential oracle")
        if not np.array_equal(vec_distances[~vec_cold],
                              ref_distances[~ref_cold]):
            raise StreamingAuditError(
                f"{label}: per-access stack distances disagree with "
                "the sequential oracle")
        partial = PartialSetProfile.from_lines(lines, line_size, n_sets)
        warm = ref_distances[~ref_cold]
        counts = (np.bincount(warm) if len(warm)
                  else np.zeros(1, dtype=np.int64))
        nonzero = np.flatnonzero(counts)
        counts = (counts[:int(nonzero[-1]) + 1] if len(nonzero)
                  else np.zeros(1, dtype=np.int64))
        if not np.array_equal(partial.counts, counts) \
                or partial.duplicate_hits != duplicate_hits \
                or len(partial.open_lines) != int(ref_cold.sum()) \
                or partial.total_accesses != len(lines):
            raise StreamingAuditError(
                f"{label}: partial profile disagrees with the "
                "sequential oracle's histogram")

    def _ensure_chunked(self):
        """The reader over the trace's stored parts, rendering and
        publishing them first (a fold with no pairs) on a miss;
        ``None`` when the store cannot hold them (demoted)."""
        reader = self.store.open_render_blocks(self.trace_spec)
        if reader is None and self.store.available:
            self._compute(())
            reader = self.store.open_render_blocks(self.trace_spec)
        return reader
