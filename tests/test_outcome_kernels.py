"""Equivalence tests for the per-access outcome kernels
(repro.core.kernels.miss_mask and friends) and the five simulators
rewired onto them: hierarchy, prefetch, DRAM, victim and parallel.

Every test here checks *exact* equality -- integer miss counts,
per-level stats, per-fragment arrays and cycle totals -- between the
vectorized paths and the sequential reference loops, on randomized
streams across the paper's grids, on a real rendered scene slice and
on each paper scene's whole stream.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.cache import CacheConfig, LineStream, LRUCache, simulate, to_lines
from repro.core.dram import PAPER_DRAM, DramModel
from repro.core.hierarchy import simulate_hierarchy
from repro.core.kernels import line_miss_mask, miss_mask, miss_stream
from repro.core.prefetch import fragment_miss_counts
from repro.core.victim import simulate_victim
from repro.engine import Engine, TraceSpec
from repro.scenes import ALL_SCENES

SIZES = (512, 4096)
LINE_SIZES = (16, 64)
ASSOCS = (1, 2, 8, None)


def random_addresses(seed, n=4000, span=1 << 14):
    return np.random.default_rng(seed).integers(0, span, size=n,
                                                dtype=np.int64)


def naive_outcomes(lines, config):
    """Per-access hit/miss verdicts from the sequential reference
    cache (consecutive duplicates are MRU hits there too)."""
    cache = LRUCache(config)
    outcomes = np.empty(len(lines), dtype=bool)
    for index, line in enumerate(lines.tolist()):
        outcomes[index] = not cache.access(line)
    return outcomes


class TestMissMask:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sequential_walk_on_grid(self, seed):
        addresses = random_addresses(seed)
        for line_size in LINE_SIZES:
            for size in SIZES:
                for assoc in ASSOCS:
                    config = CacheConfig(size, line_size, assoc)
                    lines = to_lines(addresses, line_size)
                    np.testing.assert_array_equal(
                        miss_mask(addresses, config),
                        naive_outcomes(lines, config), err_msg=config.label())

    def test_agrees_with_aggregate_simulator(self):
        addresses = random_addresses(99, n=6000)
        for assoc in ASSOCS:
            config = CacheConfig(2048, 32, assoc)
            mask = miss_mask(addresses, config)
            stats = simulate(addresses, config)
            assert int(mask.sum()) == stats.misses

    def test_line_mask_consecutive_duplicates_are_hits(self):
        lines = np.array([5, 5, 5, 9, 9, 5], dtype=np.int64)
        mask = line_miss_mask(lines, CacheConfig(8 * 32, 32, None))
        np.testing.assert_array_equal(
            mask, [True, False, False, True, False, False])

    def test_empty(self):
        config = CacheConfig(256, 32, 1)
        assert len(miss_mask(np.empty(0, dtype=np.int64), config)) == 0
        assert len(miss_stream(np.empty(0, dtype=np.int64), config)) == 0


class TestMissStream:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_fetch_order(self, seed):
        addresses = random_addresses(seed, n=3000)
        for line_size in LINE_SIZES:
            for size in SIZES:
                for assoc in ASSOCS:
                    config = CacheConfig(size, line_size, assoc)
                    cache = LRUCache(config)
                    fetched = [line for line
                               in to_lines(addresses, line_size).tolist()
                               if not cache.access(line)]
                    np.testing.assert_array_equal(
                        miss_stream(addresses, config),
                        np.asarray(fetched, dtype=np.int64),
                        err_msg=config.label())

    def test_cold_stream_is_identity(self):
        lines = np.arange(100, dtype=np.int64)
        config = CacheConfig(64, 32, 1)
        np.testing.assert_array_equal(miss_stream(lines * 32, config), lines)


class TestPerSetDistances:
    @pytest.mark.parametrize("n_sets", [1, 2, 8, 64])
    def test_scatter_matches_sequential_per_set(self, n_sets):
        run = np.random.default_rng(n_sets).integers(0, 200, size=2500,
                                                     dtype=np.int64)
        distances, cold = kernels.per_set_distances(run, n_sets)
        # Walk each set's substream with a plain LRU stack.
        stacks = {}
        for index, line in enumerate(run.tolist()):
            stack = stacks.setdefault(line % n_sets, [])
            if line in stack:
                depth = len(stack) - stack.index(line)
                assert not cold[index]
                assert distances[index] == depth, index
                stack.remove(line)
            else:
                assert cold[index], index
            stack.append(line)


class TestHierarchyEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_levels_bit_identical(self, seed):
        addresses = random_addresses(seed, n=5000, span=1 << 15)
        for l1_assoc in (1, 2):
            configs = [CacheConfig(1024, 32, l1_assoc),
                       CacheConfig(8192, 128, 2)]
            fast = simulate_hierarchy(addresses, configs)
            slow = simulate_hierarchy(addresses, configs, kernel="reference")
            for a, b in zip(fast.levels, slow.levels):
                assert (a.accesses, a.misses, a.cold_misses) == \
                       (b.accesses, b.misses, b.cold_misses)

    def test_three_levels(self):
        addresses = random_addresses(7, n=4000, span=1 << 16)
        configs = [CacheConfig(512, 16, 1), CacheConfig(4096, 64, 2),
                   CacheConfig(16384, 128, None)]
        fast = simulate_hierarchy(addresses, configs)
        slow = simulate_hierarchy(addresses, configs, kernel="reference")
        assert [s.misses for s in fast.levels] == \
               [s.misses for s in slow.levels]
        assert fast.memory_miss_rate == slow.memory_miss_rate

    def test_level_stream_is_miss_stream(self):
        addresses = random_addresses(3, n=3000)
        l1 = CacheConfig(1024, 32, 2)
        l2 = CacheConfig(8192, 128, 2)
        stats = simulate_hierarchy(addresses, [l1, l2])
        fills = miss_stream(addresses, l1) * l1.line_size
        lone_l2 = simulate(fills, l2)
        assert stats.levels[1].misses == lone_l2.misses
        assert stats.levels[1].accesses == lone_l2.accesses

    def test_bad_kernel_rejected(self):
        with pytest.raises(ValueError):
            simulate_hierarchy(np.arange(8), [CacheConfig(256, 32)],
                               kernel="numba")


class TestFragmentMissCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_both_kernels_identical(self, seed):
        addresses = random_addresses(seed, n=4001)  # trailing remainder
        for line_size in LINE_SIZES:
            for assoc in (1, 2, None):
                config = CacheConfig(2048, line_size, assoc)
                np.testing.assert_array_equal(
                    fragment_miss_counts(addresses, config),
                    fragment_miss_counts(addresses, config,
                                         kernel="reference"),
                    err_msg=config.label())

    def test_fragment_fold(self):
        config = CacheConfig(4096, 32, None)
        addresses = np.arange(0, 16 * 32, 32, dtype=np.int64)  # all cold
        counts = fragment_miss_counts(addresses, config,
                                      accesses_per_fragment=4)
        np.testing.assert_array_equal(counts, [4, 4, 4, 4])


class TestDramEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_access_cycles_both_kernels(self, seed):
        addresses = random_addresses(seed, n=3000, span=1 << 20)
        for burst in (4, 32, 128):
            fast = PAPER_DRAM.access_cycles(addresses, burst)
            slow = PAPER_DRAM.access_cycles(addresses, burst,
                                            kernel="reference")
            assert fast == slow, burst

    def test_single_bank_model(self):
        dram = DramModel(n_banks=1)
        addresses = random_addresses(11, n=2000, span=1 << 18)
        assert dram.access_cycles(addresses, 32) == \
               dram.access_cycles(addresses, 32, kernel="reference")

    def test_timing_matches_piecewise_metrics(self):
        addresses = random_addresses(2, n=1500, span=1 << 19)
        timing = PAPER_DRAM.timing(addresses, 64)
        assert timing.cycles == PAPER_DRAM.access_cycles(addresses, 64)
        assert timing.effective_bandwidth() == \
               PAPER_DRAM.effective_bandwidth(addresses, 64)
        assert timing.bus_utilization == \
               PAPER_DRAM.bus_utilization(addresses, 64)
        assert timing.total_bytes == len(addresses) * 64

    def test_empty_stream(self):
        empty = np.empty(0, dtype=np.int64)
        timing = PAPER_DRAM.timing(empty, 32)
        assert timing.cycles == 0.0
        assert timing.effective_bandwidth() == 0.0
        assert timing.bus_utilization == 1.0
        assert PAPER_DRAM.access_cycles(empty, 32,
                                        kernel="reference") == 0.0


class TestVictimEquivalence:
    VICTIM_LINES = (0, 1, 2, 4, 8, 16)

    @pytest.mark.parametrize("seed", range(5))
    def test_all_fields_match_reference(self, seed):
        addresses = random_addresses(seed, n=4000)
        for line_size in LINE_SIZES:
            for size in SIZES:
                config = CacheConfig(size, line_size, 1)
                for victim_lines in self.VICTIM_LINES:
                    fast = simulate_victim(addresses, config, victim_lines)
                    slow = simulate_victim(addresses, config, victim_lines,
                                           kernel="reference")
                    assert (fast.accesses, fast.misses, fast.victim_hits,
                            fast.cold_misses) == \
                           (slow.accesses, slow.misses, slow.victim_hits,
                            slow.cold_misses), (config.label(), victim_lines)

    def test_zero_victim_lines_is_plain_direct_mapped(self):
        addresses = random_addresses(31, n=3000)
        config = CacheConfig(1024, 32, 1)
        stats = simulate_victim(addresses, config, 0)
        plain = simulate(addresses, config)
        assert stats.misses == plain.misses
        assert stats.cold_misses == plain.cold_misses
        assert stats.victim_hits == 0

    def test_victim_hits_only_reduce_misses(self):
        addresses = random_addresses(5, n=3000)
        config = CacheConfig(512, 32, 1)
        baseline = simulate_victim(addresses, config, 0)
        for victim_lines in self.VICTIM_LINES:
            stats = simulate_victim(addresses, config, victim_lines)
            assert stats.misses + stats.victim_hits == baseline.misses
            assert stats.cold_misses == baseline.cold_misses


class TestSceneSlice:
    """Exact equivalence on a real rendered trace slice."""

    @pytest.fixture(scope="class")
    def addresses(self):
        engine = Engine()
        spec = TraceSpec("town", scale=0.05, order=("vertical",))
        return engine.addresses(spec, ("blocked", 4))[:60000]

    def test_hierarchy(self, addresses):
        for configs in ([CacheConfig(1024, 32, 2), CacheConfig(8192, 128, 2)],
                        [CacheConfig(512, 32, 2), CacheConfig(2048, 128, 2)]):
            fast = simulate_hierarchy(addresses, configs)
            slow = simulate_hierarchy(addresses, configs, kernel="reference")
            for a, b in zip(fast.levels, slow.levels):
                assert (a.accesses, a.misses, a.cold_misses) == \
                       (b.accesses, b.misses, b.cold_misses)

    def test_fragment_miss_counts(self, addresses):
        config = CacheConfig(2048, 128, 2)
        np.testing.assert_array_equal(
            fragment_miss_counts(addresses, config),
            fragment_miss_counts(addresses, config, kernel="reference"))

    def test_dram_cycles(self, addresses):
        for burst in (4, 128):
            assert PAPER_DRAM.access_cycles(addresses, burst) == \
                   PAPER_DRAM.access_cycles(addresses, burst,
                                            kernel="reference")

    def test_victim(self, addresses):
        config = CacheConfig(2048, 32, 1)
        stream = LineStream.from_addresses(addresses, config.line_size)
        for victim_lines in (0, 2, 8):
            fast = simulate_victim(stream, config, victim_lines)
            slow = simulate_victim(stream, config, victim_lines,
                                   kernel="reference")
            assert (fast.misses, fast.victim_hits, fast.cold_misses) == \
                   (slow.misses, slow.victim_hits, slow.cold_misses)

    def test_miss_mask_totals(self, addresses):
        config = CacheConfig(4096, 64, 2)
        mask = miss_mask(addresses, config)
        stats = simulate(addresses, config)
        assert int(mask.sum()) == stats.misses
        assert len(miss_stream(addresses, config)) == stats.misses


class TestPaperScenes(TestSceneSlice):
    """The scene-slice checks on each paper scene's whole stream at
    scale 0.05, in its paper order with 8x8 blocks."""

    @pytest.fixture(scope="class", params=tuple(ALL_SCENES))
    def addresses(self, request):
        spec = TraceSpec(request.param, scale=0.05, order="paper")
        return Engine().addresses(spec, ("blocked", 8))
