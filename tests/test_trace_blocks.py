"""Fragment-accurate slicing and block streaming of texel traces.

Covers the quad-structure fragment accounting (``count_fragments``,
``fragment_starts``, the ``TexelTrace.slice`` n_fragments fix),
and ``iter_blocks``/``concat_blocks`` round trips.
"""

import numpy as np
import pytest

from repro.engine.spec import paper_order_spec
from repro.pipeline.renderer import render_trace
from repro.pipeline.trace import (
    concat_blocks,
    count_fragments,
    fragment_starts,
    iter_blocks,
)
from repro.raster.order import make_order
from repro.scenes import make_scene

TRACE_COLUMNS = ("texture_id", "level", "tu", "tv", "tu_raw", "tv_raw", "kind")


@pytest.fixture(scope="module")
def rendered():
    scene = make_scene("town").build(scale=0.05)
    order = make_order(paper_order_spec("town")[0])
    return render_trace(scene, order=order)


def fragment_index(kind):
    """Oracle: the owning-fragment index of every access, derived from
    the quad structure independent of the slicing code under test."""
    starts = fragment_starts(kind)
    return np.searchsorted(starts, np.arange(len(kind)), side="right") - 1


def assert_traces_equal(a, b):
    assert a.n_accesses == b.n_accesses
    assert a.n_fragments == b.n_fragments
    for column in TRACE_COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column))
    assert a.has_positions == b.has_positions


class TestFragmentCounting:
    def test_full_range_matches_render_count(self, rendered):
        trace = rendered.trace
        assert count_fragments(trace.kind) == trace.n_fragments
        assert len(fragment_starts(trace.kind)) == trace.n_fragments

    def test_slice_counts_covered_fragments(self, rendered):
        """Regression: ``slice()`` used to report the whole frame's
        fragment count on every sub-trace; it must count exactly the
        fragments with at least one access inside the slice."""
        trace = rendered.trace
        owners = fragment_index(trace.kind)
        rng = np.random.default_rng(7)
        cuts = rng.integers(0, trace.n_accesses + 1, size=(40, 2))
        for start, stop in np.sort(cuts, axis=1):
            piece = trace.slice(int(start), int(stop))
            expected = len(np.unique(owners[start:stop]))
            assert piece.n_fragments == expected
            assert piece.n_accesses == stop - start

    def test_boundary_aligned_slices_partition_the_count(self, rendered):
        trace = rendered.trace
        starts = fragment_starts(trace.kind)
        bounds = [0, int(starts[len(starts) // 3]),
                  int(starts[2 * len(starts) // 3]), trace.n_accesses]
        total = sum(trace.slice(a, b).n_fragments
                    for a, b in zip(bounds[:-1], bounds[1:]))
        assert total == trace.n_fragments

    def test_empty_slice(self, rendered):
        assert rendered.trace.slice(8, 8).n_fragments == 0


class TestBlockStreaming:
    @pytest.mark.parametrize("chunk_size", [64, 1000, 10**9])
    def test_concat_inverts_iter(self, rendered, chunk_size):
        trace = rendered.trace
        blocks = list(iter_blocks(trace, chunk_size))
        assert [b.index for b in blocks] == list(range(len(blocks)))
        assert all(b.n_accesses <= max(chunk_size, 8) for b in blocks)
        assert sum(b.n_fragments for b in blocks) == trace.n_fragments
        assert_traces_equal(concat_blocks(blocks), trace)

    def test_blocks_cut_at_fragment_boundaries(self, rendered):
        trace = rendered.trace
        owners = fragment_index(trace.kind)
        begin = 0
        for block in iter_blocks(trace, 128):
            end = begin + block.n_accesses
            if end < trace.n_accesses:
                assert owners[end - 1] != owners[end]
            begin = end

    def test_rejects_nonpositive_chunk(self, rendered):
        with pytest.raises(ValueError):
            next(iter_blocks(rendered.trace, 0))

    def test_empty_concat(self):
        assert concat_blocks([]).n_accesses == 0

