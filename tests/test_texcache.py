"""Cycle-exactness of the three-queue prefetching texture cache
(repro.core.texcache): the lag-blocked vectorized scan must agree with
the per-event sequential reference walk to the integer cycle, on
randomized streams (hypothesis), the sweep grid's batched rows, a real
rendered scene slice and each paper scene's whole stream -- plus the
edge cases the blocking logic is most likely to get wrong (empty
stream, depth-0 FIFO, single-bank DRAM service times).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheConfig
from repro.core.dram import PAPER_DRAM, DramModel
from repro.core.kernels import miss_stream
from repro.core.machine import PAPER_MACHINE, MachineModel
from repro.core.texcache import (
    TexCacheParams,
    TexCacheResult,
    fill_service_cycles,
    fragment_fill_streams,
    simulate_texcache,
    sweep_texcache,
)
from repro.engine import Engine, TraceSpec
from repro.scenes import ALL_SCENES

FIELDS = ("n_fragments", "n_fills", "total_cycles", "ideal_cycles",
          "stall_cycles", "fragment_fifo_wait", "request_fifo_wait",
          "reorder_buffer_wait")


def assert_results_equal(fast: TexCacheResult, slow: TexCacheResult, msg=""):
    for field in FIELDS:
        assert getattr(fast, field) == getattr(slow, field), (field, msg)


@st.composite
def timing_cases(draw):
    """A random fill-count stream with compatible queue parameters."""
    reorder = draw(st.integers(1, 10))
    n = draw(st.integers(0, 48))
    counts = np.asarray(
        draw(st.lists(st.integers(0, reorder), min_size=n, max_size=n)),
        dtype=np.int64)
    if n and draw(st.booleans()):  # sparse misses stress empty blocks
        counts[draw(st.integers(0, n - 1))::2] = 0
    params = TexCacheParams(
        fragment_fifo=draw(st.integers(0, 14)),
        request_fifo=draw(st.integers(1, 10)),
        reorder_buffer=reorder,
        fill_latency=draw(st.integers(1, 60)),
        fill_interval=draw(st.integers(1, 12)),
        consume_cycles=draw(st.integers(1, 6)),
        arrival_cycles=draw(st.integers(1, 6)),
    )
    services = None
    if draw(st.booleans()):
        n_fills = int(counts.sum())
        services = np.asarray(
            draw(st.lists(st.integers(1, 15), min_size=n_fills,
                          max_size=n_fills)), dtype=np.int64)
    return counts, services, params


class TestKernelEquivalence:
    @given(case=timing_cases())
    @settings(max_examples=150, deadline=None)
    def test_vectorized_matches_reference(self, case):
        counts, services, params = case
        fast = simulate_texcache(counts, params, services=services)
        slow = simulate_texcache(counts, params, services=services,
                                 kernel="reference")
        assert_results_equal(fast, slow, params)

    @given(case=timing_cases(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep_grid_matches_reference(self, case, data):
        # The sweep batches several depths into one blocked pass and
        # a whole latency axis into the scan rows; every cell must
        # still equal an independent reference walk.
        counts, services, params = case
        depths = data.draw(st.lists(st.integers(0, 12), min_size=1,
                                    max_size=4))
        latencies = data.draw(st.lists(st.integers(1, 50), min_size=1,
                                       max_size=3))
        fast = sweep_texcache(counts, params, depths, latencies,
                              services=services)
        slow = sweep_texcache(counts, params, depths, latencies,
                              services=services, kernel="reference")
        assert set(fast) == set(slow)
        for cell in fast:
            assert_results_equal(fast[cell], slow[cell], cell)

    def test_empty_stream(self):
        params = TexCacheParams()
        for kernel in ("vectorized", "reference"):
            result = simulate_texcache(np.zeros(0, dtype=np.int64), params,
                                       kernel=kernel)
            assert result.n_fragments == 0
            assert result.total_cycles == 0
            assert result.stall_cycles == 0
            assert result.fragments_per_second == 0.0

    def test_depth_zero_fifo_exposes_latency(self):
        # No prefetch: every miss serializes tag check -> fill ->
        # texture, so each missing fragment pays the full latency.
        counts = np.asarray([1, 0, 1, 1, 0], dtype=np.int64)
        params = TexCacheParams(fragment_fifo=0, fill_latency=40)
        fast = simulate_texcache(counts, params)
        slow = simulate_texcache(counts, params, kernel="reference")
        assert_results_equal(fast, slow)
        assert fast.stall_cycles >= 3 * params.fill_latency

    def test_deep_fifo_hides_latency(self):
        rng = np.random.default_rng(7)
        counts = (rng.random(600) < 0.05).astype(np.int64)
        shallow = simulate_texcache(
            counts, TexCacheParams(fragment_fifo=1, reorder_buffer=64,
                                   request_fifo=64, fill_interval=4))
        deep = simulate_texcache(
            counts, TexCacheParams(fragment_fifo=256, reorder_buffer=64,
                                   request_fifo=64, fill_interval=4))
        assert deep.total_cycles <= shallow.total_cycles
        assert deep.efficiency > 0.9

    def test_reorder_buffer_deadlock_rejected(self):
        counts = np.asarray([0, 3, 1], dtype=np.int64)
        params = TexCacheParams(reorder_buffer=2)
        for kernel in ("vectorized", "reference"):
            with pytest.raises(ValueError, match="deadlock"):
                simulate_texcache(counts, params, kernel=kernel)

    def test_bad_kernel_rejected(self):
        with pytest.raises(ValueError):
            simulate_texcache(np.zeros(1, dtype=np.int64), TexCacheParams(),
                              kernel="magic")


class TestFillServices:
    def test_sums_to_access_cycles(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 4096, size=2000, dtype=np.int64)
        for line_size in (16, 64, 128):
            services = fill_service_cycles(lines, line_size)
            want = PAPER_DRAM.access_cycles(lines * line_size, line_size)
            assert int(services.sum()) == int(want)

    def test_kernel_equivalence(self):
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 1 << 12, size=1500, dtype=np.int64)
        fast = fill_service_cycles(lines, 64)
        slow = fill_service_cycles(lines, 64, kernel="reference")
        np.testing.assert_array_equal(fast, slow)

    def test_single_bank_dram(self):
        # One bank: a row switch happens exactly where consecutive
        # fills touch different rows.
        dram = DramModel(n_banks=1)
        lines = np.asarray([0, 1, 200, 200, 0], dtype=np.int64)
        for kernel in ("vectorized", "reference"):
            services = fill_service_cycles(lines, 64, dram, kernel=kernel)
            bank, row = dram.bank_and_row(lines * 64)
            switch = np.r_[True, row[1:] != row[:-1]]
            beats = max(-(-64 // dram.beat_nbytes), 1)
            want = beats * dram.col_cycles + dram.row_cycles * switch
            np.testing.assert_array_equal(services, want)

    def test_single_bank_services_through_timing(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 3, size=120).astype(np.int64)
        services = fill_service_cycles(
            rng.integers(0, 256, size=int(counts.sum()), dtype=np.int64),
            64, DramModel(n_banks=1))
        params = TexCacheParams(reorder_buffer=4)
        fast = simulate_texcache(counts, params, services=services)
        slow = simulate_texcache(counts, params, services=services,
                                 kernel="reference")
        assert_results_equal(fast, slow)


class TestDerivation:
    def test_from_machine_matches_paper(self):
        params = TexCacheParams.from_machine(PAPER_MACHINE, 128)
        assert params.fill_latency == 50  # 18 + 128/4, Section 7.1.1
        assert params.fill_interval == 32
        assert params.consume_cycles == 2
        assert params.request_fifo == params.reorder_buffer == 8

    def test_machine_model_helper(self):
        params = PAPER_MACHINE.texcache_params(64, fragment_fifo=16)
        assert params == TexCacheParams.from_machine(PAPER_MACHINE, 64,
                                                     fragment_fifo=16)

    def test_fractional_cycles_rejected(self):
        machine = MachineModel(dram_bytes_per_cycle=3.0)
        with pytest.raises(ValueError, match="integral"):
            TexCacheParams.from_machine(machine, 64)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TexCacheParams(request_fifo=0)
        with pytest.raises(ValueError):
            TexCacheParams(fill_interval=0)
        with pytest.raises(ValueError):
            TexCacheParams(fragment_fifo=-1)


class TestSceneSlice:
    """Cycle-exactness on a real rendered trace slice."""

    @pytest.fixture(scope="class")
    def addresses(self):
        engine = Engine()
        spec = TraceSpec("town", scale=0.05, order=("vertical",))
        return engine.addresses(spec, ("blocked", 4))[:60000]

    def test_scene_stream_matches(self, addresses):
        config = CacheConfig(4096, 64, None)
        counts, services = fragment_fill_streams(addresses, config,
                                                 dram=PAPER_DRAM)
        assert len(services) == int(counts.sum())
        assert len(services) == len(miss_stream(
            addresses[:8 * len(counts)], config))
        params = PAPER_MACHINE.texcache_params(64)
        fast = simulate_texcache(counts, params, services=services)
        slow = simulate_texcache(counts, params, services=services,
                                 kernel="reference")
        assert_results_equal(fast, slow)

    def test_scene_sweep_matches(self, addresses):
        config = CacheConfig(2048, 64, None)
        counts, _ = fragment_fill_streams(addresses, config)
        params = PAPER_MACHINE.texcache_params(64, request_fifo=16,
                                               reorder_buffer=16)
        depths = (0, 2, 16, 64)
        latencies = (4, 50, 300)
        fast = sweep_texcache(counts, params, depths, latencies)
        slow = sweep_texcache(counts, params, depths, latencies,
                              kernel="reference")
        for cell in fast:
            assert_results_equal(fast[cell], slow[cell], cell)
        # Latency tolerance: with a deep FIFO the total barely moves
        # as the fill latency grows; with none it tracks latency.
        deep = [fast[(64, latency)].total_cycles for latency in latencies]
        none = [fast[(0, latency)].total_cycles for latency in latencies]
        assert deep[-1] < none[-1]
        assert deep[-1] - deep[0] < none[-1] - none[0]

    def test_scene_sweep_with_services(self, addresses):
        """The sweep over a 2-way cache's page-mode DRAM service times,
        with queues deep enough to isolate the fragment FIFO."""
        config = CacheConfig(2048, 64, 2)
        counts, services = fragment_fill_streams(addresses, config,
                                                 dram=PAPER_DRAM)
        params = PAPER_MACHINE.texcache_params(64, request_fifo=128,
                                               reorder_buffer=128)
        depths = (8, 64)
        latencies = (10, 120)
        fast = sweep_texcache(counts, params, depths, latencies,
                              services=services)
        slow = sweep_texcache(counts, params, depths, latencies,
                              services=services, kernel="reference")
        assert set(fast) == set(slow)
        for cell in fast:
            assert_results_equal(fast[cell], slow[cell], cell)


class TestPaperScenes(TestSceneSlice):
    """The scene-slice checks on each paper scene's whole stream at
    scale 0.05, in its paper order with 8x8 blocks."""

    @pytest.fixture(scope="class", params=tuple(ALL_SCENES))
    def addresses(self, request):
        spec = TraceSpec(request.param, scale=0.05, order="paper")
        return Engine().addresses(spec, ("blocked", 8))
