"""Unit tests for miss classification (repro.core.classify)."""

import numpy as np

from repro.core.cache import CacheConfig
from repro.core.classify import classify_counts, classify_misses


class TestClassifyMisses:
    def test_categories_sum_to_misses(self):
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 8192, size=5000) * 4
        stats = classify_misses(addresses, CacheConfig(size=1024, line_size=32, assoc=2))
        assert stats.cold_misses + stats.capacity_misses + stats.conflict_misses == stats.misses

    def test_pure_streaming_is_all_cold(self):
        addresses = np.arange(0, 16384, 4)
        stats = classify_misses(addresses, CacheConfig(size=1024, line_size=32, assoc=1))
        assert stats.capacity_misses == 0
        assert stats.conflict_misses == 0
        assert stats.cold_misses == stats.misses

    def test_fully_associative_has_no_conflicts(self):
        rng = np.random.default_rng(9)
        addresses = rng.integers(0, 4096, size=4000) * 4
        stats = classify_misses(addresses, CacheConfig(size=512, line_size=32))
        assert stats.conflict_misses == 0
        assert stats.capacity_misses > 0

    def test_known_conflict_pattern(self):
        # Two lines mapping to the same direct-mapped set, alternating:
        # every access after the first two is a conflict miss.
        config = CacheConfig(size=256, line_size=32, assoc=1)  # 8 sets
        stride = 256  # same set, different tags
        addresses = np.tile([0, stride], 50).astype(np.int64)
        stats = classify_misses(addresses, config)
        assert stats.misses == 100
        assert stats.cold_misses == 2
        assert stats.capacity_misses == 0
        assert stats.conflict_misses == 98

    def test_capacity_pattern(self):
        # Cyclic sweep over 2x the cache: fully-associative LRU misses
        # everything; all non-cold misses are capacity.
        config = CacheConfig(size=256, line_size=32)  # 8 lines
        lines = np.tile(np.arange(16), 10)
        addresses = lines * 32
        stats = classify_misses(addresses, config)
        assert stats.misses == 160
        assert stats.cold_misses == 16
        assert stats.capacity_misses == 144
        assert stats.conflict_misses == 0

    def test_conflict_never_negative(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            addresses = np.random.default_rng(seed).integers(0, 512, size=1000) * 32
            stats = classify_misses(addresses, CacheConfig(size=256, line_size=32, assoc=2))
            assert stats.conflict_misses >= 0
            assert stats.capacity_misses >= 0

    def test_kernels_agree(self):
        for seed in range(5):
            addresses = np.random.default_rng(seed).integers(0, 4096, size=3000) * 4
            for config in (CacheConfig(512, 32, 1), CacheConfig(1024, 32, 2),
                           CacheConfig(2048, 64, 8), CacheConfig(512, 32)):
                fast = classify_misses(addresses, config)
                slow = classify_misses(addresses, config, kernel="reference")
                assert (fast.misses, fast.cold_misses, fast.capacity_misses,
                        fast.conflict_misses) == \
                       (slow.misses, slow.cold_misses, slow.capacity_misses,
                        slow.conflict_misses)

    def test_counts_rule_folds_negative_conflict_into_capacity(self):
        # 2-way LRU with fewer misses than fully-associative LRU of the
        # same size: the rule clamps conflict at zero and keeps the sum.
        config = CacheConfig(size=1024, line_size=32, assoc=2)
        stats = classify_counts(config, accesses=1000, misses=90, cold=40,
                                fully_associative_misses=100)
        assert (stats.cold_misses, stats.capacity_misses,
                stats.conflict_misses) == (40, 50, 0)
        assert stats.accesses == 1000 and stats.misses == 90
