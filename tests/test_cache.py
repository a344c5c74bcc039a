"""Unit tests for the cache simulator (repro.core.cache)."""

import numpy as np
import pytest

from repro.core.cache import (
    CacheConfig,
    LineStream,
    LRUCache,
    collapse_consecutive,
    simulate,
    to_lines,
)


class TestCacheConfig:
    def test_basic_properties(self):
        config = CacheConfig(size=32 * 1024, line_size=128, assoc=2)
        assert config.n_lines == 256
        assert config.ways == 2
        assert config.n_sets == 128
        assert not config.fully_associative

    def test_fully_associative(self):
        config = CacheConfig(size=1024, line_size=32)
        assert config.ways == config.n_lines == 32
        assert config.n_sets == 1
        assert config.fully_associative

    def test_assoc_beyond_lines_degrades_to_full(self):
        config = CacheConfig(size=1024, line_size=128, assoc=16)
        assert config.n_lines == 8
        assert config.ways == 8
        assert config.fully_associative

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1024, line_size=48)

    def test_rejects_size_not_multiple_of_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1000, line_size=64)

    def test_rejects_bad_assoc(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1024, line_size=32, assoc=0)

    def test_labels(self):
        assert CacheConfig(32 * 1024, 128, 2).label() == "32KB/128B/2-way"
        assert CacheConfig(128 * 1024, 64, 1).label() == "128KB/64B/direct"
        assert CacheConfig(4096, 32).label() == "4KB/32B/full"


    def test_geometry_derived_once_and_invisible(self):
        # n_lines, ways and n_sets are plain values set at
        # construction, yet equality, hashing, pickles, repr and
        # labels see only the fields.
        import dataclasses
        import pickle

        config = CacheConfig(size=8192, line_size=64, assoc=4)
        assert vars(config) == {"size": 8192, "line_size": 64, "assoc": 4,
                                "n_lines": 128, "ways": 4, "n_sets": 32}
        assert dataclasses.asdict(config) == {"size": 8192,
                                              "line_size": 64, "assoc": 4}
        assert repr(config) == \
            "CacheConfig(size=8192, line_size=64, assoc=4)"
        fresh = CacheConfig(size=8192, line_size=64, assoc=4)
        assert config == fresh and hash(config) == hash(fresh)
        assert config != CacheConfig(size=8192, line_size=64, assoc=2)
        copy = pickle.loads(pickle.dumps(config))
        assert vars(copy) == vars(config) and copy == config
        assert copy.label() == config.label() == "8KB/64B/4-way"
        with pytest.raises(AttributeError):
            config.size = 4096


class TestToLinesAndCollapse:
    def test_to_lines(self):
        lines = to_lines(np.array([0, 31, 32, 100]), 32)
        assert lines.tolist() == [0, 0, 1, 3]

    def test_collapse(self):
        runs, dup = collapse_consecutive(np.array([5, 5, 5, 7, 5, 5]))
        assert runs.tolist() == [5, 7, 5]
        assert dup == 3

    def test_collapse_empty(self):
        runs, dup = collapse_consecutive(np.array([], dtype=np.int64))
        assert len(runs) == 0
        assert dup == 0

    def test_line_stream(self):
        stream = LineStream.from_addresses(np.array([0, 4, 8, 64, 68]), 64)
        assert stream.total_accesses == 5
        assert stream.run_lines.tolist() == [0, 1]
        assert stream.duplicate_hits == 3


class TestLRUCacheReference:
    def test_hit_after_miss(self):
        cache = LRUCache(CacheConfig(size=128, line_size=32))
        assert cache.access(1) is False
        assert cache.access(1) is True
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = LRUCache(CacheConfig(size=64, line_size=32))  # 2 lines, FA
        cache.access(1)
        cache.access(2)
        cache.access(1)      # 1 becomes MRU
        cache.access(3)      # evicts 2
        assert cache.access(1) is True
        assert cache.access(2) is False

    def test_set_mapping_direct(self):
        cache = LRUCache(CacheConfig(size=128, line_size=32, assoc=1))  # 4 sets
        cache.access(0)
        cache.access(4)      # same set 0, evicts line 0
        assert cache.access(0) is False

    def test_set_mapping_two_way(self):
        cache = LRUCache(CacheConfig(size=256, line_size=32, assoc=2))  # 4 sets
        cache.access(0)
        cache.access(4)
        assert cache.access(0) is True  # both fit in set 0
        cache.access(8)                 # evicts LRU of set 0 = 4
        assert cache.access(4) is False

    def test_cold_miss_tracking(self):
        cache = LRUCache(CacheConfig(size=64, line_size=32))
        for line in (1, 2, 3, 1):
            cache.access(line)
        # line 1 was evicted: second access to 1 is a non-cold miss.
        assert cache.misses == 4
        assert cache.cold_misses == 3

    def test_contents(self):
        cache = LRUCache(CacheConfig(size=64, line_size=32))
        cache.access(1)
        cache.access(2)
        assert cache.contents() == {1, 2}

    def test_stats_roundtrip(self):
        cache = LRUCache(CacheConfig(size=64, line_size=32))
        cache.access(1)
        cache.access(1)
        stats = cache.stats()
        assert stats.accesses == 2
        assert stats.hits == 1
        assert stats.miss_rate == 0.5


class TestSimulate:
    def test_sequential_scan_miss_rate(self):
        # A pure sequential scan misses once per line.
        addresses = np.arange(0, 8192, 4)
        stats = simulate(addresses, CacheConfig(size=256, line_size=32))
        assert stats.accesses == 2048
        assert stats.misses == 8192 // 32
        assert stats.cold_misses == stats.misses

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(42)
        addresses = rng.integers(0, 4096, size=3000) * 4
        config = CacheConfig(size=512, line_size=32, assoc=2)
        fast = simulate(addresses, config)
        reference = LRUCache(config)
        for line in to_lines(addresses, 32).tolist():
            reference.access(line)
        assert fast.misses == reference.misses
        assert fast.cold_misses == reference.cold_misses

    def test_line_stream_reuse(self):
        addresses = np.arange(0, 4096, 4)
        stream = LineStream.from_addresses(addresses, 64)
        a = simulate(stream, CacheConfig(size=512, line_size=64, assoc=2))
        b = simulate(addresses, CacheConfig(size=512, line_size=64, assoc=2))
        assert a.misses == b.misses

    def test_line_size_mismatch_rejected(self):
        stream = LineStream.from_addresses(np.array([0]), 32)
        with pytest.raises(ValueError):
            simulate(stream, CacheConfig(size=512, line_size=64))

    def test_empty_trace(self):
        stats = simulate(np.array([], dtype=np.int64), CacheConfig(size=512, line_size=64))
        assert stats.accesses == 0
        assert stats.miss_rate == 0.0

    def test_non_pow2_sets_supported(self):
        # 3-way associative: 512/32/3 -> ways must divide lines; use a
        # config whose set count is not a power of two instead.
        config = CacheConfig(size=96 * 32, line_size=32, assoc=2)  # 48 sets
        addresses = np.arange(0, 96 * 32 * 2, 32)
        stats = simulate(addresses, config)
        assert stats.misses == 192
