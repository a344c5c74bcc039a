"""Unit tests for the per-trace profile memos (repro.core.sweep)."""

import numpy as np
import pytest

from repro.core.cache import CacheConfig, simulate
from repro.core.classify import classify_misses
from repro.core.stackdist import miss_rate_curve
from repro.core.sweep import (
    PAPER_ASSOCIATIVITIES,
    PAPER_CACHE_SIZES,
    TraceStreams,
)


@pytest.fixture
def addresses():
    rng = np.random.default_rng(17)
    return np.concatenate([
        rng.integers(0, 1024, size=3000) * 16,
        np.arange(0, 32768, 16),
    ])


class TestTraceStreams:
    def test_stream_memoized(self, addresses):
        streams = TraceStreams(addresses)
        assert streams.stream(32) is streams.stream(32)
        assert streams.stream(32) is not streams.stream(64)

    def test_profile_memoized(self, addresses):
        streams = TraceStreams(addresses)
        assert streams.profile(32) is streams.profile(32)

    def test_set_profile_memoized_and_shared(self, addresses):
        streams = TraceStreams(addresses)
        assert streams.set_profile(32, 8) is streams.set_profile(32, 8)
        # One set = fully associative: shares the distance profile's
        # counts instead of running a second pass.
        assert streams.set_profile(32, 1).counts is streams.profile(32).counts

    def test_rejects_unknown_kernel(self, addresses):
        with pytest.raises(ValueError):
            TraceStreams(addresses, kernel="fenwick")

    def test_reference_kernel_profile_matches(self, addresses):
        fast = TraceStreams(addresses).profile(32)
        slow = TraceStreams(addresses, kernel="reference").profile(32)
        assert np.array_equal(fast.counts, slow.counts)
        assert fast.cold == slow.cold


class TestSweeps:
    """The sweeps ``Engine.run`` reads off a :class:`TraceStreams` --
    the fully-associative curve and each size's per-set profile --
    against the sequential simulator."""

    @staticmethod
    def sweep(streams, line_size, sizes, assoc):
        """Stats per size off ``streams``, the way ``Engine.run`` reads
        each finite-associativity cell."""
        configs = [CacheConfig(size, line_size, assoc) for size in sizes]
        return [streams.set_profile(line_size, config.n_sets)
                .stats_for(config) for config in configs]

    def test_fully_associative_sweep_matches_simulation(self, addresses):
        curve = miss_rate_curve(TraceStreams(addresses), 32, [1024, 8192])
        for entry in curve.as_stats():
            direct = simulate(addresses, entry.config)
            assert entry.misses == direct.misses

    def test_finite_assoc_sweep(self, addresses):
        stats = self.sweep(TraceStreams(addresses), 32, [1024, 4096], 2)
        assert [s.config.size for s in stats] == [1024, 4096]
        assert stats[0].misses >= stats[1].misses

    def test_associativity_sweep_matches_direct_simulation(self, addresses):
        streams = TraceStreams(addresses)
        for assoc in (1, 2, None):
            [entry] = self.sweep(streams, 64, [4096], assoc)
            assert entry.misses == simulate(addresses, entry.config).misses

    def test_associativity_removes_pathological_conflicts(self):
        # Alternating same-set lines: direct-mapped thrashes, 2-way
        # holds both (Section 5.3.3's Mip-level conflict scenario).
        addresses = np.tile([0, 4096], 100).astype(np.int64) * 1
        streams = TraceStreams(addresses)
        for assoc, misses in ((1, 200), (2, 2)):
            config = CacheConfig(4096, 64, assoc)
            [entry] = self.sweep(streams, 64, [4096], assoc)
            assert entry.misses == misses
            assert simulate(addresses, config, kernel="reference").misses \
                == misses

    def test_associativity_sweep_classified(self, addresses):
        stream = TraceStreams(addresses).stream(64)
        for assoc in (1, 2):
            entry = classify_misses(stream, CacheConfig(2048, 64, assoc))
            assert entry.conflict_misses is not None
            assert entry.cold_misses + entry.capacity_misses + entry.conflict_misses == entry.misses

    def test_curve_helper(self, addresses):
        curve = miss_rate_curve(TraceStreams(addresses), 32, [1024, 2048])
        assert len(curve.miss_rates) == 2

    def test_paper_grids(self):
        assert 32 * 1024 in PAPER_CACHE_SIZES
        assert None in PAPER_ASSOCIATIVITIES

    def test_kernels_agree_across_size_sweep(self, addresses):
        # Both kernels' profiles serve the fully-associative cells; the
        # finite ones compare with the sequential simulator.
        fast = TraceStreams(addresses)
        slow = TraceStreams(addresses, kernel="reference")
        sizes = [1024, 4096, 16384]
        assert np.array_equal(
            miss_rate_curve(fast, 32, sizes).miss_counts,
            miss_rate_curve(slow, 32, sizes).miss_counts)
        for assoc in (None, 1, 4):
            for a in self.sweep(fast, 32, sizes, assoc):
                b = simulate(addresses, a.config, kernel="reference")
                assert (a.accesses, a.misses, a.cold_misses) == \
                       (b.accesses, b.misses, b.cold_misses)

    def test_kernels_agree_across_assoc_sweep(self, addresses):
        streams = TraceStreams(addresses)
        for assoc in PAPER_ASSOCIATIVITIES:
            [a] = self.sweep(streams, 32, [4096], assoc)
            b = simulate(addresses, a.config, kernel="reference")
            assert (a.misses, a.cold_misses) == (b.misses, b.cold_misses)
            fast = classify_misses(streams.stream(32), a.config)
            slow = classify_misses(streams.stream(32), a.config,
                                   kernel="reference")
            assert (fast.misses, fast.cold_misses, fast.capacity_misses,
                    fast.conflict_misses) == \
                   (slow.misses, slow.cold_misses, slow.capacity_misses,
                    slow.conflict_misses)

    def test_fully_associative_stats_are_exact_integers(self, addresses):
        curve = miss_rate_curve(TraceStreams(addresses), 32, [1024, 8192])
        assert curve.miss_counts is not None
        for entry in curve.as_stats():
            direct = simulate(addresses, entry.config)
            assert entry.misses == direct.misses
            assert entry.cold_misses == direct.cold_misses
