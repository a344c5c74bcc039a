"""End-to-end streaming pipeline: bit-identity with the in-RAM path.

The streaming fold (render blocks -> per-block addresses -> mergeable
per-set profiles) must reproduce the materialized pipeline exactly:
same rendered stream, same store artifacts, same miss-rate curves and
3C classifications -- serially, pipelined, and through ``Engine.run``.
Also covers the chunked trace representation in the artifact store and
its orphaned-part litter lifecycle.
"""

import os
import time

import numpy as np
import pytest

from repro.core.cache import CacheConfig
from repro.core.classify import classify_misses
from repro.core.stackdist import miss_rate_curve
from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    StreamedProfiles,
    TraceSpec,
    classify_streamed,
)
from repro.engine.spec import paper_order_spec
from repro.pipeline.renderer import render_trace, render_trace_blocks
from repro.pipeline.trace import concat_blocks

SCENE = "town"
SCALE = 0.05
LAYOUT = ("blocked", 8)
SIZES = (1024, 4096, 16384)


def town_spec():
    return TraceSpec(scene=SCENE, scale=SCALE, order=paper_order_spec(SCENE))


@pytest.fixture()
def stores(tmp_path):
    """Two independent store roots: in-RAM reference vs streamed."""
    return (ArtifactStore(tmp_path / "ram"), ArtifactStore(tmp_path / "st"))


def backdate(path, seconds=3600):
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestStreamingRender:
    def test_blocks_match_monolithic_render(self):
        scene = Engine().scene(SCENE, SCALE)
        whole = render_trace(scene)
        totals = {}
        blocks = list(render_trace_blocks(scene, 2048, totals=totals))
        rebuilt = concat_blocks(blocks)
        assert rebuilt.n_accesses == whole.trace.n_accesses
        assert rebuilt.n_fragments == whole.trace.n_fragments
        for column in ("texture_id", "level", "tu", "tv",
                       "tu_raw", "tv_raw", "kind"):
            assert np.array_equal(getattr(rebuilt, column),
                                  getattr(whole.trace, column))
        assert totals["n_fragments"] == whole.trace.n_fragments
        assert totals["n_triangles_submitted"] == whole.n_triangles_submitted
        assert totals["n_triangles_rasterized"] == whole.n_triangles_rasterized


class TestChunkedStore:
    def test_writer_reader_round_trip(self, stores):
        _, store = stores
        spec = town_spec()
        engine = Engine(store=ArtifactStore(store.root / "scratch"))
        result = engine.render(spec)
        writer = store.open_render_writer(spec)
        from repro.pipeline.trace import iter_blocks
        for block in iter_blocks(result.trace, 3000):
            writer.append(block)
        assert writer.finish({
            "n_triangles_submitted": result.n_triangles_submitted,
            "n_triangles_rasterized": result.n_triangles_rasterized})
        reader = store.open_render_blocks(spec)
        assert reader is not None and len(reader) > 1
        assert reader.n_accesses == result.trace.n_accesses
        rebuilt = concat_blocks(reader)
        assert np.array_equal(rebuilt.tu, result.trace.tu)
        # load_render materializes the chunked representation too.
        loaded = store.load_render(spec)
        assert np.array_equal(loaded.trace.kind, result.trace.kind)
        assert loaded.n_triangles_rasterized == result.n_triangles_rasterized

    def test_orphaned_parts_are_litter_not_corruption(self, stores):
        _, store = stores
        stray = store.root / "traces" / ("ab" * 32 + ".p00000.npz")
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_bytes(b"interrupted streaming writer residue")
        # Fresh: an in-flight writer may still publish its sidecar.
        scan = store.verify()
        assert scan["clean"] and scan["orphaned_parts"] == 0
        assert scan["pending"] >= 1
        backdate(stray)
        scan = store.verify()
        assert scan["clean"] and scan["orphaned_parts"] == 1
        stats = store.stats()
        assert stats["orphaned_parts"] == 1
        assert stats["kinds"]["traces"]["parts"] == 1
        report = store.repair()
        assert len(report["purged_parts"]) == 1
        assert not stray.exists()


class TestStreamedProfiles:
    def test_bit_identical_profiles_and_classification(self, stores):
        ram_store, st_store = stores
        spec = town_spec()
        engine = Engine(store=ram_store)
        streams = engine.streams(spec, LAYOUT)
        streamed = StreamedProfiles(st_store, spec, LAYOUT, chunk_size=4096)

        curve_ram = miss_rate_curve(streams, 64, sorted(SIZES))
        curve_st = miss_rate_curve(streamed, 64, sorted(SIZES))
        assert np.array_equal(curve_ram.miss_rates, curve_st.miss_rates)

        for assoc in (1, 2, 4):
            config = CacheConfig(8192, 64, assoc)
            expected = classify_misses(engine.addresses(spec, LAYOUT), config)
            assert classify_streamed(streamed, config) == expected

    def test_stream_materialization_refused(self, stores):
        _, st_store = stores
        streamed = StreamedProfiles(st_store, town_spec(), LAYOUT)
        with pytest.raises(RuntimeError):
            streamed.stream(64)

    def test_streamed_artifacts_warm_the_in_ram_path(self, stores):
        _, st_store = stores
        from repro.engine import runner
        spec = town_spec()
        streamed = StreamedProfiles(st_store, spec, LAYOUT, chunk_size=4096)
        streamed.prefetch([(64, 1), (64, 64)])
        # The fold streamed the render into the store chunk by chunk
        # and published the same profile artifacts the in-RAM path
        # keys, so a warm engine over the same root does zero renders.
        before = runner.render_calls()
        engine = Engine(store=st_store)
        engine.streams(spec, LAYOUT).profile(64)
        engine.streams(spec, LAYOUT).set_profile(64, 64)
        assert runner.render_calls() == before
        assert st_store.open_render_blocks(spec) is not None


class TestEngineRunStreaming:
    GRID = dict(scenes=(SCENE,), layouts=(LAYOUT, ("nonblocked",)),
                cache_sizes=SIZES, line_sizes=(32, 64), assocs=(None, 2),
                scale=SCALE)

    def rows(self, result):
        return [(r.scene, r.layout, r.config.label(), r.stats)
                for r in result.rows]

    def test_chunked_run_bit_identical(self, tmp_path):
        exp = ExperimentSpec(**self.GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        streamed = Engine(store=ArtifactStore(tmp_path / "b")).run(
            exp, chunk_size=4096)
        assert self.rows(ram) == self.rows(streamed)

    def test_streaming_rejects_reference_kernel(self, tmp_path):
        exp = ExperimentSpec(scenes=(SCENE,), layouts=(LAYOUT,), scale=SCALE)
        with pytest.raises(ValueError):
            Engine(store=ArtifactStore(tmp_path / "a")).run(
                exp, chunk_size=4096, kernel="reference")

    def test_stream_workers_reject_reference_kernel(self, tmp_path):
        # Any worker count (even 1, which folds serially) requests
        # streaming, so combining it with the reference simulator must
        # fail loudly rather than silently running vectorized-only.
        exp = ExperimentSpec(scenes=(SCENE,), layouts=(LAYOUT,), scale=SCALE)
        engine = Engine(store=ArtifactStore(tmp_path / "a"))
        for stream_workers in (1, 2):
            with pytest.raises(ValueError, match="vectorized"):
                engine.run(exp, stream_workers=stream_workers,
                           kernel="reference")

    def test_collapsed_runs_match_materialized(self, tmp_path):
        # Block-folded run collapse (with boundary stitching) must
        # equal collapse_consecutive over the materialized stream.
        from repro.core.cache import collapse_consecutive, to_lines

        engine = Engine(store=ArtifactStore(tmp_path / "a"))
        spec = town_spec()
        addresses = engine.addresses(spec, LAYOUT)
        for line_size in (16, 64):
            want_runs, want_dup = collapse_consecutive(
                to_lines(addresses, line_size))
            # A tiny chunk forces many block boundaries (and stitches).
            streams = engine.streamed(spec, LAYOUT, chunk_size=512)
            got_runs, got_dup = streams.collapsed_runs(line_size)
            assert np.array_equal(got_runs, want_runs)
            assert got_dup == want_dup

    def test_pipelined_run_bit_identical(self, tmp_path):
        from repro.engine import shutdown_stream_pool
        exp = ExperimentSpec(**self.GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        try:
            piped = Engine(store=ArtifactStore(tmp_path / "b")).run(
                exp, chunk_size=4096, stream_workers=2)
        finally:
            shutdown_stream_pool()
        assert self.rows(ram) == self.rows(piped)
        store = ArtifactStore(tmp_path / "b")
        assert store.open_render_blocks(exp.trace_specs()[0]) is not None

    def test_single_stream_worker_streams(self, tmp_path):
        # One worker has nothing to pipeline: the serial streamed fold
        # runs, through the chunked representation.
        exp = ExperimentSpec(**self.GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        streamed = Engine(store=ArtifactStore(tmp_path / "b")).run(
            exp, stream_workers=1)
        assert self.rows(ram) == self.rows(streamed)
        store = ArtifactStore(tmp_path / "b")
        assert store.open_render_blocks(exp.trace_specs()[0]) is not None
