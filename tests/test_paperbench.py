"""Tests for the benchmark-harness infrastructure (benchmarks/paperbench)."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from paperbench import (  # noqa: E402
    SceneBank,
    kb,
    layout_from_spec,
    order_from_spec,
    scaled_cache,
)

from repro.engine import TraceSpec  # noqa: E402


class TestScaledCache:
    def test_identity_at_scale_one(self):
        assert scaled_cache(32 * 1024, 1.0) == 32 * 1024

    def test_quarter_scale(self):
        assert scaled_cache(32 * 1024, 0.25) == 8 * 1024
        assert scaled_cache(4 * 1024, 0.25) == 1024

    def test_floor(self):
        assert scaled_cache(1024, 0.1) == 512

    def test_power_of_two(self):
        for scale in (0.05, 0.25, 1.0):
            for paper in (1024, 4096, 32768, 131072):
                size = scaled_cache(paper, scale)
                assert size & (size - 1) == 0


class TestSpecs:
    def test_order_specs(self):
        assert order_from_spec(("horizontal",)).name == "horizontal"
        assert order_from_spec(("tiled", 16)).tile_w == 16
        tiled = order_from_spec(("tiled", 8, "col", "col"))
        assert tiled.within == "col"
        assert order_from_spec(("hilbert", 9)).order_bits == 9

    def test_layout_specs(self):
        assert layout_from_spec(("nonblocked",)).name == "nonblocked"
        assert layout_from_spec(("blocked", 4)).block_w == 4
        padded = layout_from_spec(("padded", 8, 2))
        assert padded.pad_blocks == 2
        six = layout_from_spec(("blocked6d", 8, 16384))
        assert six.superblock_nbytes == 16384
        assert layout_from_spec(("williams",)).accesses_per_texel == 3

    def test_kb(self):
        assert kb(8192) == "8KB"
        assert kb(512) == "512B"


class TestSceneBank:
    @pytest.fixture(scope="class")
    def bank(self):
        return SceneBank(scale=0.1)

    def test_scene_memoized(self, bank):
        assert bank.scene("goblet") is bank.scene("goblet")

    def test_render_memoized_per_order(self, bank):
        a = bank.render("goblet", ("horizontal",))
        b = bank.render("goblet", ("horizontal",))
        c = bank.render("goblet", ("vertical",))
        assert a is b
        assert a is not c

    def test_streams_cached(self, bank):
        # The studies map traces themselves; the engine's streams stay
        # memoized per (trace, layout).
        spec = TraceSpec(scene="goblet", scale=bank.scale,
                         order=("horizontal",))
        first = bank.engine.streams(spec, ("blocked", 4))
        second = bank.engine.streams(spec, ("blocked", 4))
        assert first is second

    def test_paper_order_spec(self, bank):
        assert bank.paper_order_spec("town") == ("vertical",)
        assert bank.paper_order_spec("goblet") == ("horizontal",)

    def test_addresses_nonempty(self, bank):
        addresses = bank.trace("goblet", ("horizontal",)).byte_addresses(
            bank.placements("goblet", ("nonblocked",)))
        spec = TraceSpec(scene="goblet", scale=bank.scale,
                         order=("horizontal",))
        streams = bank.engine.streams(spec, ("nonblocked",))
        assert len(addresses) == streams.stream(32).total_accesses > 0
