"""Pipelined parallel streaming: bit-identity, fallbacks, auditing.

The pipelined fold (:mod:`repro.engine.pipelined`) partitions cold
renders across a persistent worker pool; each worker folds the slice
it renders and ships only per-range partial states.  Every path must
reproduce the in-RAM pipeline bit for bit; every failure mode must
degrade to the serial streamed path with a warning, never a wrong
answer.  Also covers the ``audit_parts`` sequential-oracle spot check
and the ``REPRO_STREAM_JOB_TIMEOUT`` parser.
"""

import contextlib
import re
import warnings

import numpy as np
import pytest

from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    StreamAuditReport,
    StreamedProfiles,
    StreamingAuditError,
    TraceSpec,
)
from repro.engine import pipelined, streaming
from repro.engine.pipelined import shutdown_stream_pool
from repro.engine.spec import paper_order_spec
from repro.pipeline.renderer import (
    render_trace,
    render_trace_blocks,
    triangle_slice_bounds,
)
from repro.pipeline.trace import concat_blocks, iter_blocks

from tests import fault_injection as injection

SCENE = "town"
SCALE = 0.05
LAYOUT = ("blocked", 8)
SIZES = (1024, 4096, 16384)

GRID = dict(scenes=(SCENE,), layouts=(LAYOUT,), cache_sizes=SIZES,
            line_sizes=(32, 64), assocs=(None, 2), scale=SCALE)


def town_spec():
    return TraceSpec(scene=SCENE, scale=SCALE, order=paper_order_spec(SCENE))


def rows(result):
    return [(r.scene, r.layout, r.config.label(), r.stats)
            for r in result.rows]


@contextlib.contextmanager
def no_fallback_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    fallbacks = [w for w in caught if "falling back" in str(w.message)]
    assert not fallbacks, [str(w.message) for w in fallbacks]


@pytest.fixture(autouse=True)
def fresh_pool():
    """Workers inherit the environment at spawn, so every test starts
    (and leaves) with no pool: fault-injection env vars set by one test
    must never leak into another test's persistent workers."""
    shutdown_stream_pool()
    yield
    shutdown_stream_pool()


class TestTriangleSlices:
    def test_slice_bounds_partition_the_index_space(self):
        for n in (0, 1, 7, 100):
            for count in (1, 2, 3, 8):
                bounds = [triangle_slice_bounds(n, (i, count))
                          for i in range(count)]
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (_, hi), (lo, _) in zip(bounds[:-1], bounds[1:]):
                    assert hi == lo
        assert triangle_slice_bounds(10) == (0, 10)
        with pytest.raises(ValueError):
            triangle_slice_bounds(10, (2, 2))
        with pytest.raises(ValueError):
            triangle_slice_bounds(10, (0, 0))

    def test_sliced_streams_concatenate_bit_identical(self):
        scene = Engine().scene(SCENE, SCALE)
        whole = render_trace(scene).trace
        blocks, totals = [], []
        for index in range(3):
            slice_totals = {}
            blocks.extend(render_trace_blocks(
                scene, 2048, totals=slice_totals,
                triangle_slice=(index, 3)))
            totals.append(slice_totals)
        rebuilt = concat_blocks(blocks)
        assert rebuilt.n_accesses == whole.n_accesses
        for column in ("texture_id", "level", "tu", "tv",
                       "tu_raw", "tv_raw", "kind"):
            assert np.array_equal(getattr(rebuilt, column),
                                  getattr(whole, column))
        # Slice totals are slice-local and sum to the frame's.
        assert sum(t["n_fragments"] for t in totals) == whole.n_fragments


class TestPipelinedRun:
    def test_cold_pipelined_run_bit_identical(self, tmp_path, monkeypatch):
        # Snapshot the range records as the parent retires them on
        # publish (the records are deleted right after).
        records = {}
        retire = ArtifactStore.discard_resume_state

        def snapshot(store, spec):
            records.update(store.load_range_records(spec))
            retire(store, spec)

        monkeypatch.setattr(ArtifactStore, "discard_resume_state", snapshot)
        exp = ExperimentSpec(**GRID)
        ram_engine = Engine(store=ArtifactStore(tmp_path / "a"))
        ram = ram_engine.run(exp)
        pipe_store = ArtifactStore(tmp_path / "b")
        piped = Engine(store=pipe_store).run(exp, chunk_size=4096,
                                             stream_workers=2)
        assert rows(ram) == rows(piped)
        # The parallel render committed a verifiable chunked trace whose
        # sidecar lists exactly the parts the range records named, in
        # range order, under the names the workers wrote, with the
        # frame's totals summed over the ranges.
        reader = pipe_store.open_render_blocks(exp.trace_specs()[0])
        assert reader is not None and len(reader) > 1
        rendered = ram_engine.render(exp.trace_specs()[0])
        assert reader.n_fragments == rendered.n_fragments
        assert reader.n_triangles_rasterized == \
            rendered.n_triangles_rasterized
        assert sorted(records) == list(range(len(records)))
        assert reader.meta["parts"] == [
            entry for index in sorted(records)
            for entry in records[index]["envelopes"]]
        assert any(int(re.search(r"\.p(\d+)\.npz$", entry["name"]).group(1))
                   >= pipelined.PART_STRIDE for entry in reader.meta["parts"])
        scan = pipe_store.verify()
        assert scan["clean"] and scan["bad"] == 0

    def test_warm_pipelined_fold_bit_identical(self, tmp_path):
        # Build the chunked trace without publishing any profiles, so
        # prefetch() must actually run the warm pipelined fold rather
        # than loading cached artifacts.
        spec = town_spec()
        scratch = Engine(store=ArtifactStore(tmp_path / "scratch"))
        result = scratch.render(spec)
        store = ArtifactStore(tmp_path / "warm")
        writer = store.open_render_writer(spec)
        for block in iter_blocks(result.trace, 3000):
            writer.append(block)
        assert writer.finish({
            "n_triangles_submitted": result.n_triangles_submitted,
            "n_triangles_rasterized": result.n_triangles_rasterized})

        streamed = StreamedProfiles(store, spec, LAYOUT, chunk_size=3000,
                                    stream_workers=2)
        reference = scratch.streams(spec, LAYOUT)
        for pair in ((32, 1), (32, 64), (64, 1), (64, 16)):
            got = streamed.set_profile(*pair)
            want = reference.set_profile(*pair)
            assert np.array_equal(got.counts, want.counts)
            assert got.cold == want.cold
            assert got.duplicate_hits == want.duplicate_hits

    def test_pool_persists_across_folds(self, tmp_path):
        exp = ExperimentSpec(**GRID)
        engine = Engine(store=ArtifactStore(tmp_path / "a"))
        engine.run(exp, chunk_size=4096, stream_workers=2)
        pool = pipelined._POOL
        assert pool is not None
        assert all(process.is_alive() for process in pool.processes)
        pids = [process.pid for process in pool.processes]
        # A second grid over the same pool: different layout, so the
        # fold runs again (warm this time) instead of loading caches.
        engine.run(ExperimentSpec(**{**GRID, "layouts": (("nonblocked",),)}),
                   chunk_size=4096, stream_workers=2)
        assert pipelined._POOL is pool
        assert [process.pid for process in pool.processes] == pids
        assert all(process.is_alive() for process in pool.processes)

    def test_parent_builds_no_scene(self, tmp_path, monkeypatch):
        # A cold pipelined fold renders and folds in the workers: the
        # parent builds no scene of its own, not even before the pool
        # forks.
        monkeypatch.setattr(streaming, "_SCENES", {})
        monkeypatch.setattr(streaming, "_PLACEMENTS", {})
        Engine(store=ArtifactStore(tmp_path / "a")).run(
            ExperimentSpec(**GRID), chunk_size=4096, stream_workers=2)
        assert pipelined._POOL is not None
        assert streaming._SCENES == {}

    def test_stream_workers_reject_reference_kernel(self, tmp_path):
        exp = ExperimentSpec(scenes=(SCENE,), layouts=(LAYOUT,), scale=SCALE)
        with pytest.raises(ValueError, match="vectorized"):
            Engine(store=ArtifactStore(tmp_path / "a")).run(
                exp, stream_workers=2, kernel="reference")

    def test_audit_parts_requires_streaming(self, tmp_path):
        exp = ExperimentSpec(scenes=(SCENE,), layouts=(LAYOUT,), scale=SCALE)
        with pytest.raises(ValueError, match="streaming"):
            Engine(store=ArtifactStore(tmp_path / "a")).run(
                exp, audit_parts=2)


class TestJobTimeout:
    @pytest.mark.parametrize("value,expected", [
        ("0", pipelined.STREAM_JOB_TIMEOUT_S),
        ("-5", pipelined.STREAM_JOB_TIMEOUT_S),
        ("nan", pipelined.STREAM_JOB_TIMEOUT_S),
        ("abc", pipelined.STREAM_JOB_TIMEOUT_S),
        ("5", 5.0),
    ])
    def test_only_positive_deadlines_override_the_default(
            self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_STREAM_JOB_TIMEOUT", value)
        assert pipelined._job_timeout_s() == expected


class TestFallbacks:
    def test_pool_death_falls_back_to_serial(self, tmp_path):
        # kill-worker with no matchers and the default scope (always)
        # kills every render attempt, so no range can succeed.
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        with injection.fault_plan("kill-worker"):
            with pytest.warns(RuntimeWarning, match="falling back"):
                piped = Engine(store=ArtifactStore(tmp_path / "b")).run(
                    exp, chunk_size=4096, stream_workers=2)
        assert rows(ram) == rows(piped)
        assert piped.stream_report.fallbacks == 1

    def test_single_part_trace_folds_without_fallback(self, tmp_path):
        # A trace stored as one part has nothing to fan out: it folds
        # in the parent, and the pool, warnings and report stay clean.
        engine = Engine(store=ArtifactStore(tmp_path / "a"))
        engine.run(ExperimentSpec(**GRID), chunk_size=4096,
                   stream_workers=2)
        pool = pipelined._POOL
        assert pool is not None
        goblet = dict(GRID, scenes=("goblet",))
        # A chunk larger than the trace stores it as a single part ...
        engine.run(ExperimentSpec(**goblet), chunk_size=1 << 20)
        spec = ExperimentSpec(**goblet).trace_specs()[0]
        assert len(engine.store.open_render_blocks(spec)) == 1
        # ... which a pipelined run over another layout then folds.
        other = ExperimentSpec(**dict(goblet, layouts=(("nonblocked",),)))
        with no_fallback_warning():
            piped = engine.run(other, chunk_size=4096, stream_workers=2)
        assert piped.stream_report is not None
        assert piped.stream_report.clean
        assert pipelined._POOL is pool
        ram = Engine(store=ArtifactStore(tmp_path / "ram")).run(other)
        assert rows(ram) == rows(piped)

    def test_single_worker_request_stays_serial(self, tmp_path):
        # stream_workers=1 requests streaming but there is nothing to
        # pipeline; the serial fold runs without any fallback warning.
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        with no_fallback_warning():
            piped = Engine(store=ArtifactStore(tmp_path / "b")).run(
                exp, stream_workers=1)
        assert rows(ram) == rows(piped)
        assert pipelined._POOL is None


class TestAudit:
    def test_audit_report_via_engine_run(self, tmp_path):
        exp = ExperimentSpec(**GRID)
        result = Engine(store=ArtifactStore(tmp_path / "a")).run(
            exp, chunk_size=4096, stream_workers=2, audit_parts=2)
        assert len(result.audit_reports) == 1
        report = result.audit_reports[0]
        assert isinstance(report, StreamAuditReport)
        assert 1 <= len(report.parts) <= 2
        assert all(0 <= p < report.n_parts for p in report.parts)
        assert report.accesses > 0
        # Every (line_size, n_sets) pair of the grid got audited.
        line_sizes = {pair[0] for pair in report.pairs}
        assert line_sizes == set(GRID["line_sizes"])

    def test_audit_detects_a_broken_kernel(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "a")
        streamed = StreamedProfiles(store, town_spec(), LAYOUT,
                                    chunk_size=4096)
        pairs = [(64, 1), (64, 16)]
        streamed.prefetch(pairs)
        assert isinstance(streamed.audit(pairs, parts=2), StreamAuditReport)

        real = streaming.per_set_distances

        def corrupted(run_lines, n_sets):
            distances, cold = real(run_lines, n_sets)
            distances = distances.copy()
            if len(distances) and (~cold).any():
                warm = np.flatnonzero(~cold)
                distances[warm[-1]] += 1  # off-by-one a warm distance
            return distances, cold

        monkeypatch.setattr(streaming, "per_set_distances", corrupted)
        with pytest.raises(StreamingAuditError):
            streamed.audit(pairs, parts=2)

