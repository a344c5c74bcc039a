"""Property tests for the mergeable profile algebra (streaming fold).

The streaming pipeline's correctness reduces to one algebraic claim:
``PartialSetProfile.merge(a, b)`` equals the profile of the
concatenated stream, field for field.  That makes the merge
associative, so any block partition (and any merge tree over shards)
finalizes to the exact whole-stream :class:`SetDistanceProfile` --
which these tests check directly against ``from_stream`` and against
the sequential cache simulator, across the paper's cache grids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import (
    CacheConfig,
    LineStream,
    LRUCache,
    collapse_consecutive,
)
from repro.core.kernels import (
    PartialSetProfile,
    SetDistanceProfile,
    previous_occurrences,
)
from repro.core.sweep import PAPER_ASSOCIATIVITIES, PAPER_LINE_SIZES

lines_strategy = st.lists(st.integers(min_value=0, max_value=63),
                          min_size=0, max_size=300)

#: Small (size, line_size, assoc) grid drawn from the paper's axes.
GRID_CONFIGS = [
    CacheConfig(size=4096, line_size=line_size, assoc=assoc)
    for line_size in PAPER_LINE_SIZES[:3]
    for assoc in PAPER_ASSOCIATIVITIES
]


def _stream(lines, line_size):
    runs, _ = collapse_consecutive(np.asarray(lines, dtype=np.int64))
    return LineStream(line_size=line_size, run_lines=runs,
                      total_accesses=len(lines))


def _profiles_equal(a, b):
    return (np.array_equal(a.counts, b.counts) and a.cold == b.cold
            and a.duplicate_hits == b.duplicate_hits
            and a.line_size == b.line_size and a.n_sets == b.n_sets)


def _states_equal(a, b):
    return (np.array_equal(a.counts, b.counts)
            and a.duplicate_hits == b.duplicate_hits
            and a.total_accesses == b.total_accesses
            and np.array_equal(a.stack_lines, b.stack_lines)
            and np.array_equal(a.open_lines, b.open_lines)
            and np.array_equal(a.offsets, b.offsets)
            and a.first_line == b.first_line and a.last_line == b.last_line)


@st.composite
def partitioned_stream(draw):
    """A random line stream plus random cut points (empty blocks and
    cuts inside duplicate runs included)."""
    lines = draw(st.lists(st.integers(0, 63), min_size=0, max_size=300))
    # Duplicate runs exercise the boundary-collapse correction.
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(lines),
                            max_size=len(lines)))
    lines = np.repeat(np.asarray(lines, dtype=np.int64), repeats)
    n = len(lines)
    cuts = draw(st.lists(st.integers(0, n), min_size=0, max_size=6))
    bounds = [0] + sorted(cuts) + [n]
    blocks = [lines[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return lines, blocks


class TestBlockPartitionExactness:
    @given(data=partitioned_stream(),
           n_sets=st.sampled_from([1, 2, 4, 8, 16]),
           line_size=st.sampled_from(PAPER_LINE_SIZES))
    @settings(max_examples=80, deadline=None)
    def test_fold_matches_whole_stream(self, data, n_sets, line_size):
        lines, blocks = data
        reference = SetDistanceProfile.from_stream(
            _stream(lines, line_size), n_sets)
        folded = SetDistanceProfile.from_blocks(blocks, line_size, n_sets)
        assert _profiles_equal(reference, folded)
        assert reference.total_accesses == folded.total_accesses

    @given(data=partitioned_stream())
    @settings(max_examples=40, deadline=None)
    def test_fold_miss_counts_across_paper_grid(self, data):
        lines, blocks = data
        for config in GRID_CONFIGS:
            reference = SetDistanceProfile.from_stream(
                _stream(lines, config.line_size), config.n_sets)
            folded = SetDistanceProfile.from_blocks(
                blocks, config.line_size, config.n_sets)
            assert folded.misses_at(config.ways) \
                == reference.misses_at(config.ways)
            assert folded.cold == reference.cold

    @given(lines=lines_strategy, n_sets=st.sampled_from([1, 4]))
    @settings(max_examples=40, deadline=None)
    def test_single_block_is_whole_stream(self, lines, n_sets):
        lines = np.asarray(lines, dtype=np.int64)
        reference = SetDistanceProfile.from_stream(_stream(lines, 32), n_sets)
        folded = SetDistanceProfile.from_blocks([lines], 32, n_sets)
        assert _profiles_equal(reference, folded)


class TestMergeAlgebra:
    @given(parts=st.lists(lines_strategy, min_size=3, max_size=3),
           n_sets=st.sampled_from([1, 2, 8]))
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, parts, n_sets):
        a, b, c = (PartialSetProfile.from_lines(
            np.asarray(p, dtype=np.int64), 32, n_sets) for p in parts)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert _states_equal(left, right)

    @given(parts=st.lists(lines_strategy, min_size=2, max_size=2),
           n_sets=st.sampled_from([1, 2, 8]))
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation_state(self, parts, n_sets):
        # Stronger than profile equality: the merged *state* matches
        # the state of the concatenated stream, which is what makes
        # further merges (associativity at any depth) exact.
        x = np.asarray(parts[0], dtype=np.int64)
        y = np.asarray(parts[1], dtype=np.int64)
        merged = PartialSetProfile.from_lines(x, 32, n_sets).merge(
            PartialSetProfile.from_lines(y, 32, n_sets))
        whole = PartialSetProfile.from_lines(
            np.concatenate([x, y]), 32, n_sets)
        assert _states_equal(merged, whole)

    @given(lines=lines_strategy, n_sets=st.sampled_from([1, 4]))
    @settings(max_examples=30, deadline=None)
    def test_empty_is_identity(self, lines, n_sets):
        lines = np.asarray(lines, dtype=np.int64)
        state = PartialSetProfile.from_lines(lines, 32, n_sets)
        identity = PartialSetProfile.empty(32, n_sets)
        assert _states_equal(identity.merge(state), state)
        assert _states_equal(state.merge(identity), state)

    def test_mismatched_geometry_rejected(self):
        a = PartialSetProfile.empty(32, 4)
        import pytest
        with pytest.raises(ValueError):
            a.merge(PartialSetProfile.empty(32, 8))
        with pytest.raises(ValueError):
            a.merge(PartialSetProfile.empty(64, 4))

    def test_boundary_duplicate_credited_as_hit(self):
        # a ends and b begins with the same line: the concatenated
        # collapsed stream suppresses b's leading access, so the fold
        # must credit it to duplicate_hits, not distance 1.
        a = PartialSetProfile.from_lines(np.array([3, 5]), 32, 1)
        b = PartialSetProfile.from_lines(np.array([5, 5, 3]), 32, 1)
        merged = a.merge(b)
        whole = PartialSetProfile.from_lines(
            np.array([3, 5, 5, 5, 3]), 32, 1)
        assert _states_equal(merged, whole)
        assert merged.duplicate_hits == 2
        profile = merged.finalize()
        assert profile.cold == 2
        # 3's re-access at distance 2 is the only closed distance.
        assert profile.counts.tolist() == [0, 0, 1]


#: Set counts one ``from_runs`` call builds together: powers of two
#: mixed with counts that do not nest in them (24 beside 32, 5 and 10
#: beside 8), so some counts split from a coarser residue and others
#: start again from the one-set stream.
SET_COUNT_MIXES = [(1, 3, 4, 6, 12, 24), (5, 8, 10), (24, 32, 48),
                   (1, 2, 4, 8, 16, 32, 64)]


class TestNestedSetCounts:
    @given(lines=st.lists(st.integers(0, 160), max_size=400),
           repeats=st.lists(st.integers(1, 3), max_size=400),
           set_counts=st.one_of(
               st.sampled_from(SET_COUNT_MIXES),
               st.lists(st.integers(1, 48), min_size=1, max_size=6,
                        unique=True).map(tuple)),
           line_size=st.sampled_from(PAPER_LINE_SIZES))
    @settings(max_examples=80, deadline=None)
    def test_one_call_matches_each_count_alone(self, lines, repeats,
                                               set_counts, line_size):
        # Duplicate runs make the raw stream differ from its collapse.
        repeats = (repeats + [1] * len(lines))[:len(lines)]
        lines = np.repeat(np.asarray(lines, dtype=np.int64), repeats)
        runs, duplicate_hits = collapse_consecutive(lines)
        states = PartialSetProfile.from_runs(
            runs, previous_occurrences(runs), duplicate_hits, len(lines),
            line_size, set_counts)
        assert sorted(states) == sorted(set_counts)
        for n_sets, state in states.items():
            assert (state.line_size, state.n_sets) == (line_size, n_sets)
            assert _states_equal(
                state, PartialSetProfile.from_lines(lines, line_size, n_sets))
            profile = state.finalize()
            for ways in range(1, 9):
                cache = LRUCache(CacheConfig(n_sets * ways * line_size,
                                             line_size, ways))
                for line in lines.tolist():
                    cache.access(line)
                assert profile.misses_at(ways) == cache.misses
                assert profile.cold == cache.cold_misses

    def test_rejects_a_count_below_one(self):
        import pytest
        runs = np.array([1, 2, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            PartialSetProfile.from_runs(runs, previous_occurrences(runs), 0,
                                        3, 32, (4, 0))
