"""End-to-end streaming pipeline: bit-identity with the in-RAM path.

The streaming fold (render blocks -> per-block addresses -> mergeable
per-set profiles) must reproduce the materialized pipeline exactly:
same rendered stream, same store artifacts, same miss-rate curves and
3C classifications -- serially, pipelined, and through ``Engine.run``.
Also covers the chunked trace representation in the artifact store and
its orphaned-part litter lifecycle.
"""

import os
import shutil
import time

import numpy as np
import pytest

from repro.core.cache import CacheConfig
from repro.core.classify import classify_counts, classify_misses
from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    StreamedProfiles,
    StreamReport,
    TraceSpec,
    render_calls,
)
from repro.engine.pipelined import fold_pipelined
from repro.engine.spec import paper_order_spec, scene_data, scene_placements
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


def fold(store, spec, pairs, chunk_size) -> StreamReport:
    """Fold ``pairs`` of (spec, LAYOUT) into ``store`` as one serial
    request in blocks of ``chunk_size`` accesses; returns its report."""
    report = StreamReport()
    fold_pipelined([(StreamedProfiles(store, spec, LAYOUT), pairs)],
                   chunk_size, 0, report)
    return report


def backdate(path, seconds=3600):
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestStreamingRender:
    def test_blocks_match_monolithic_render(self):
        scene = scene_data(SCENE, SCALE)
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
        assert store.commit(spec, [writer.close({
            "n_fragments": result.n_fragments,
            "n_triangles_submitted": result.n_triangles_submitted,
            "n_triangles_rasterized": result.n_triangles_rasterized})])
        reader = store.open_render_blocks(spec)
        assert reader is not None and len(reader) > 1
        assert reader.n_accesses == result.trace.n_accesses
        rebuilt = concat_blocks(reader)
        assert np.array_equal(rebuilt.tu, result.trace.tu)
        # load_render materializes the chunked representation too.
        loaded = store.load_render(spec)
        assert np.array_equal(loaded.trace.kind, result.trace.kind)
        assert loaded.n_triangles_rasterized == result.n_triangles_rasterized

    def test_ram_and_streamed_parts_share_one_encoding(self, stores):
        # Both writers store deflated quad archives (one row per 2x2
        # filter quad) that decode to the in-RAM trace.
        import zipfile

        from repro.pipeline.traceio import load_trace

        ram_store, st_store = stores
        spec = town_spec()
        trace = Engine(store=ram_store).render(spec).trace
        fold(st_store, spec, [(64, 1)], 4096)
        quad_rows = {name + ".npy" for name in (
            "texture_id", "level", "kind", "i0", "j0", "tu", "tv", "meta")}
        for store in stores:
            reader = store.open_render_blocks(spec)
            assert reader is not None
            paths = [store.root / "traces" / entry["name"]
                     for entry in reader.parts]
            for path in paths:
                with zipfile.ZipFile(path) as archive:
                    assert {info.compress_type for info in
                            archive.infolist()} == {zipfile.ZIP_DEFLATED}
                    assert set(archive.namelist()) == quad_rows
            rebuilt = concat_blocks(load_trace(path) for path in paths)
            for column in ("texture_id", "level", "tu", "tv",
                           "tu_raw", "tv_raw", "kind"):
                got, want = getattr(rebuilt, column), getattr(trace, column)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        assert len(st_store.open_render_blocks(spec).parts) > 1

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
        # stats() counts the part and judges nothing.
        stats = store.stats()
        assert stats["part_files"] == 1 and "orphaned_parts" not in stats
        assert stats["kinds"]["traces"]["parts"] == 1
        report = store.repair()
        assert len(report["purged_parts"]) == 1
        assert not stray.exists()


class TestStreamedProfiles:
    def test_bit_identical_profiles_and_classification(self, stores):
        # The in-RAM and streamed grids agree cell for cell, and the 3C
        # split of a streamed cell against the fully-associative cell
        # of its size equals classify_misses over the address stream.
        ram_store, st_store = stores
        spec = town_spec()
        exp = ExperimentSpec(scenes=(SCENE,), layouts=(LAYOUT,),
                             cache_sizes=SIZES + (8192,), line_sizes=(64,),
                             assocs=(None, 1, 2, 4), scale=SCALE)
        engine = Engine(store=ram_store)
        ram = engine.run(exp)
        streamed = Engine(store=st_store).run(exp, chunk_size=4096)
        assert [row.stats for row in streamed.rows] == \
            [row.stats for row in ram.rows]

        [full] = streamed.select(cache_size=8192, assoc=None)
        for assoc in (1, 2, 4):
            config = CacheConfig(8192, 64, assoc)
            [cell] = streamed.select(cache_size=8192, assoc=assoc)
            expected = classify_misses(engine.addresses(spec, LAYOUT), config)
            assert classify_counts(config, cell.stats.accesses,
                                   cell.stats.misses, cell.stats.cold_misses,
                                   full.stats.misses) == expected

    def test_stream_materialization_refused(self, stores):
        _, st_store = stores
        streamed = StreamedProfiles(st_store, town_spec(), LAYOUT)
        with pytest.raises(RuntimeError):
            streamed.stream(64)

    @pytest.mark.parametrize("fill,serve", [
        ({"chunk_size": 4096}, {}),
        ({}, {"chunk_size": 4096}),
    ], ids=["streamed_fills", "in_ram_fills"])
    def test_warm_in_ram_run_over_streamed_store_saves_nothing(
            self, tmp_path, monkeypatch, fill, serve):
        # The one-set profile (1 KB, 128 B lines, 8-way) is the
        # fully-associative one: both paths route it to the one
        # profiles/ artifact, so a warm run over a store the other
        # path filled stores nothing -- and a read-only store keeps
        # serving.
        import errno
        import warnings

        from tests import fault_injection as faults

        exp = ExperimentSpec(scenes=("goblet",), layouts=(LAYOUT,),
                             cache_sizes=(1024,), line_sizes=(128,),
                             assocs=(1, 2, 4, 8, None), scale=SCALE)
        root = tmp_path / "st"
        filled = Engine(store=ArtifactStore(root)).run(exp, **fill)
        saves = []
        for name in ("save_render", "save_addresses", "save_profile",
                     "save_set_profile"):
            def record(self, *args, _name=name, **kwargs):
                saves.append(_name)
            monkeypatch.setattr(ArtifactStore, name, record)
        engine = Engine(store=ArtifactStore(root))
        with faults.disk_full(errno.EROFS), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warm = engine.run(exp, **serve)
        assert saves == []
        assert engine.store.available
        assert [row.stats for row in warm.rows] == \
            [row.stats for row in filled.rows]
        if serve:
            assert warm.stream_report.folds == 0

    def test_streamed_artifacts_warm_the_in_ram_path(self, stores):
        _, st_store = stores
        from repro.engine import runner
        spec = town_spec()
        fold(st_store, spec, [(64, 1), (64, 64)], 4096)
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

    def test_set_counts_that_do_not_nest_match_reference(self, tmp_path):
        # 3, 4 and 6 KB at 32 B lines, 4-way: 24, 32 and 48 sets.  The
        # fold builds 48 from 24, and 32 (not a multiple of 24) from
        # the one-set stream, over several chunks.
        exp = ExperimentSpec(scenes=("goblet",), layouts=(LAYOUT,),
                             cache_sizes=(3072, 4096, 6144),
                             line_sizes=(32,), assocs=(4, None),
                             scale=SCALE)
        reference = Engine(store=ArtifactStore(tmp_path / "a")).run(
            exp, kernel="reference")
        engine = Engine(store=ArtifactStore(tmp_path / "b"))
        streamed = engine.run(exp, chunk_size=1024)
        assert self.rows(streamed) == self.rows(reference)
        spec = exp.trace_specs()[0]
        assert len(engine.store.open_render_blocks(spec)) > 2

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

    def test_run_settings_stay_with_the_run(self, tmp_path, monkeypatch):
        # Engine.run hands its chunk size, worker count and report to
        # its one fold call; the memoized (trace, layout) caches hold
        # none of them, so a later run under other settings serves
        # what the engine holds and folds nothing.  A StreamedProfiles
        # used on its own folds serially in DEFAULT_CHUNK_SIZE blocks.
        from repro.engine import DEFAULT_CHUNK_SIZE, pipelined

        calls = []
        fold_call = pipelined.fold_pipelined

        def recorded(folds, chunk_size, workers, report):
            calls.append((chunk_size, workers, report))
            return fold_call(folds, chunk_size, workers, report)

        monkeypatch.setattr(pipelined, "fold_pipelined", recorded)
        exp = ExperimentSpec(**self.GRID)
        spec = exp.trace_specs()[0]
        engine = Engine(store=ArtifactStore(tmp_path / "a"))
        first = engine.run(exp, chunk_size=4096)
        [(chunk_size, workers, report)] = calls
        assert (chunk_size, workers) == (4096, 0)
        assert report is first.stream_report and report.folds == 2
        streamed = engine.streamed(spec, LAYOUT)
        assert not {"chunk_size", "stream_workers", "stream_report"} & \
            set(vars(streamed))
        second = engine.run(exp, chunk_size=1024, stream_workers=2)
        assert len(calls) == 1 and second.stream_report.folds == 0
        assert engine.streamed(spec, LAYOUT) is streamed
        assert self.rows(second) == self.rows(first)
        StreamedProfiles(ArtifactStore(tmp_path / "b"), spec,
                         LAYOUT).profile(32)
        assert calls[1][:2] == (DEFAULT_CHUNK_SIZE, 0)

    def test_pipelined_run_bit_identical(self, tmp_path):
        exp = ExperimentSpec(**self.GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        piped = Engine(store=ArtifactStore(tmp_path / "b")).run(
            exp, chunk_size=4096, stream_workers=2)
        assert self.rows(ram) == self.rows(piped)
        store = ArtifactStore(tmp_path / "b")
        assert store.open_render_blocks(exp.trace_specs()[0]) is not None

    def test_serial_run_commits_like_the_pool(self, tmp_path, monkeypatch):
        # No workers: no pool starts, yet each cold trace commits as
        # one render range (parts from .p00000) through the store's
        # commit, and the run carries a StreamReport.
        from repro.engine import pipelined

        def no_pool(pool, workers):
            raise AssertionError("a serial fold started a pool")

        published = []
        commit = ArtifactStore.commit

        def recorded(store, spec, records):
            published.append([entry["name"] for record in records
                              for entry in record["envelopes"]])
            return commit(store, spec, records)

        monkeypatch.setattr(pipelined.StreamPool, "__init__", no_pool)
        monkeypatch.setattr(ArtifactStore, "commit", recorded)
        exp = ExperimentSpec(**self.GRID)
        result = Engine(store=ArtifactStore(tmp_path)).run(exp,
                                                           chunk_size=4096)
        [names] = published  # one cold trace, then one warm layout
        assert names[0].endswith(".p00000.npz") and len(names) > 1
        report = result.stream_report
        assert report is not None and report.clean
        assert report.folds == len(self.GRID["layouts"])
        reader = ArtifactStore(tmp_path).open_render_blocks(
            exp.trace_specs()[0])
        assert [entry["name"] for entry in reader.parts] == names

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

    def test_serial_grid_builds_each_scene_once(self, tmp_path,
                                                scene_builds):
        # The streamed folds share the process's scene memo, so a grid
        # that folds each scene under three layouts builds it once, not
        # per layout.
        exp = ExperimentSpec(
            scenes=("goblet", "town"), scale=SCALE, cache_sizes=SIZES,
            line_sizes=(32,), assocs=(None, 2),
            layouts=(("nonblocked",), ("blocked", 4), ("blocked", 8)))
        Engine(store=ArtifactStore(tmp_path / "a")).run(exp, chunk_size=4096)
        assert sorted(scene_builds) == ["GobletScene", "TownScene"]

    def test_in_ram_and_streamed_grids_build_a_scene_once(self, tmp_path,
                                                          scene_builds):
        # One memo per process: the in-RAM render and the streamed fold
        # of the same scene, each into its own cold store, share one
        # build.
        exp = ExperimentSpec(scenes=("goblet",), scale=SCALE,
                             cache_sizes=SIZES, line_sizes=(32,),
                             layouts=(LAYOUT,))
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        streamed = Engine(store=ArtifactStore(tmp_path / "b")).run(
            exp, chunk_size=4096)
        assert self.rows(ram) == self.rows(streamed)
        assert scene_builds == ["GobletScene"]

    @pytest.mark.parametrize("stream_workers", [0, 2])
    def test_each_trace_opens_once_when_warm_thrice_when_cold(
            self, tmp_path, monkeypatch, stream_workers):
        # A request opens each trace once and plans all its folds from
        # that reader; a cold one is opened again under its lock and
        # once after it publishes -- not once more per layout.
        opened = []
        real_open = ArtifactStore.open_render_blocks

        def counting_open(store, spec):
            opened.append(spec.scene)
            return real_open(store, spec)
        monkeypatch.setattr(ArtifactStore, "open_render_blocks",
                            counting_open)
        exp = ExperimentSpec(
            scenes=("goblet", "town"), scale=SCALE, cache_sizes=SIZES,
            line_sizes=(32,), assocs=(None, 2),
            layouts=(("nonblocked",), ("blocked", 4), ("blocked", 8)))

        def request():
            opened.clear()
            Engine(store=ArtifactStore(tmp_path)).run(
                exp, chunk_size=4096, stream_workers=stream_workers)
            return sorted(opened)
        assert request() == ["goblet"] * 3 + ["town"] * 3
        # Without the per-set profiles, the next request folds each
        # trace warm under all three layouts.
        shutil.rmtree(tmp_path / "set_profiles")
        assert request() == ["goblet", "town"]

    def test_a_trace_found_warm_is_never_planned_cold(self, tmp_path,
                                                      monkeypatch):
        # A trace that the request found warm is folded from the parts
        # its reader verified, even when a later open would miss: it is
        # never planned cold, so never rendered without its lock.
        exp = ExperimentSpec(scenes=(SCENE,), scale=SCALE,
                             cache_sizes=SIZES, line_sizes=(32,),
                             layouts=(LAYOUT, ("nonblocked",)))
        reference = Engine(store=ArtifactStore(tmp_path)).run(
            exp, chunk_size=4096)
        shutil.rmtree(tmp_path / "profiles")
        real_open = ArtifactStore.open_render_blocks
        opens = []

        def found_once(store, spec):
            opens.append(spec)
            return real_open(store, spec) if len(opens) == 1 else None
        monkeypatch.setattr(ArtifactStore, "open_render_blocks", found_once)
        before = render_calls()
        again = Engine(store=ArtifactStore(tmp_path)).run(
            exp, chunk_size=4096)
        assert render_calls() == before
        assert self.rows(again) == self.rows(reference)


class TestFoldMemory:
    #: Bytes of trace columns per access without positions (the figure
    #: behind DEFAULT_CHUNK_SIZE's "~21 MB" per million accesses).
    COLUMN_BYTES = 21

    def test_warm_fold_holds_one_block_not_the_trace(self, tmp_path):
        # A warm fold reads the stored parts one block at a time, so its
        # traced peak is one block plus the per-pair states, far below
        # the trace's columns.  A fold that gathered its blocks first
        # would hold them all.  Pool workers run the same
        # _run_job/_fold_blocks loop, so this bounds them too.
        import tracemalloc

        spec = TraceSpec(scene=SCENE, scale=0.25,
                         order=paper_order_spec(SCENE))
        pairs = [(64, 1), (64, 64)]
        fold(ArtifactStore(tmp_path), spec, pairs, 16384)
        for kind in ("profiles", "set_profiles"):
            shutil.rmtree(tmp_path / kind)
        scene_placements(spec.scene, spec.scale, LAYOUT)
        store = ArtifactStore(tmp_path)
        n_accesses = store.open_render_blocks(spec).n_accesses
        tracemalloc.start()
        try:
            report = fold(store, spec, pairs, 16384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.folds == 1
        assert peak < n_accesses * self.COLUMN_BYTES / 4

    def test_cold_fold_holds_one_triangle_batch_not_the_trace(self,
                                                              tmp_path):
        # A cold fold also holds the renderer's current triangle batch,
        # sized from the chunk -- the first one too.  Measured on town
        # at 0.25 with 16K-access chunks: 13.2 MiB, against 29.2 MiB
        # (more than the trace's 24.4 MiB of columns) when the first
        # batch was 256 triangles whatever the chunk.
        import tracemalloc

        spec = TraceSpec(scene=SCENE, scale=0.25,
                         order=paper_order_spec(SCENE))
        scene_placements(spec.scene, spec.scale, LAYOUT)
        store = ArtifactStore(tmp_path)
        tracemalloc.start()
        try:
            fold(store, spec, [(64, 1), (64, 64)], 16384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_accesses = store.open_render_blocks(spec).n_accesses
        assert peak < n_accesses * self.COLUMN_BYTES * 3 / 4
