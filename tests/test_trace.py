"""Unit tests for texel traces (repro.pipeline.trace)."""

import numpy as np

from repro.pipeline.trace import COLUMNS, TraceBuilder
from repro.texture.filtering import generate_accesses
from repro.texture.image import TextureImage
from repro.texture.layout import BlockedLayout, NonblockedLayout, WilliamsLayout
from repro.texture.memory import place_textures
from repro.texture.mipmap import MipMap


def build_trace():
    builder = TraceBuilder()
    accesses = generate_accesses(np.array([0.5, 0.25]), np.array([0.5, 0.25]),
                                 np.array([1.5, 1.5]), 5, 16, 16)
    builder.append(0, accesses, n_fragments=2)
    accesses2 = generate_accesses(np.array([0.75]), np.array([0.75]),
                                  np.array([-0.5]), 4, 8, 8)
    builder.append(1, accesses2, n_fragments=1)
    return builder.build()


class TestTraceBuilder:
    def test_concatenation_order(self):
        trace = build_trace()
        assert trace.n_accesses == 16 + 4
        assert trace.texture_id[:16].tolist() == [0] * 16
        assert trace.texture_id[16:].tolist() == [1] * 4
        assert trace.n_fragments == 3

    def test_per_fragment_ids_and_positions(self):
        # One append of a multi-texture stream (per-fragment ids, as the
        # batched rasterizer hands them over) equals one append per
        # fragment with its scalar id.
        u = np.array([0.5, 0.25, 0.75])
        lod = np.array([1.5, -0.5, 0.5])
        xs, ys = np.array([3, 4, 5]), np.array([7, 8, 9])
        stream = TraceBuilder(record_positions=True)
        stream.append(np.array([2, 0, 1]),
                      generate_accesses(u, u, lod, 5, 16, 16), 3,
                      fragment_x=xs, fragment_y=ys)
        single = TraceBuilder(record_positions=True)
        for index, texture_id in enumerate((2, 0, 1)):
            window = slice(index, index + 1)
            single.append(texture_id, generate_accesses(
                u[window], u[window], lod[window], 5, 16, 16), 1,
                fragment_x=xs[window], fragment_y=ys[window])
        a, b = stream.build(), single.build()
        assert a.n_fragments == b.n_fragments == 3
        for name in COLUMNS:
            assert getattr(a, name).dtype == getattr(b, name).dtype, name
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_empty_build(self):
        trace = TraceBuilder().build()
        assert trace.n_accesses == 0
        assert trace.n_fragments == 0
        assert trace.x is None
        positioned = TraceBuilder(record_positions=True).build()
        assert {name: getattr(positioned, name).dtype for name in COLUMNS} \
            == {name: np.dtype(dtype) for name, dtype in COLUMNS.items()}

    def test_empty_batches_skipped(self):
        builder = TraceBuilder()
        empty = generate_accesses(np.array([]), np.array([]), np.array([]),
                                  5, 16, 16)
        builder.append(0, empty, n_fragments=0)
        assert builder.build().n_accesses == 0


class TestByteAddresses:
    def test_matches_direct_placement_lookup(self):
        trace = build_trace()
        mipmaps = [MipMap.build(TextureImage.solid(16, 16)),
                   MipMap.build(TextureImage.solid(8, 8))]
        placements = place_textures(mipmaps, BlockedLayout(4))
        addresses = trace.byte_addresses(placements)
        assert len(addresses) == trace.n_accesses
        for index in range(trace.n_accesses):
            expected = placements[trace.texture_id[index]].addresses(
                int(trace.level[index]),
                trace.tu[index:index + 1],
                trace.tv[index:index + 1],
            )[0]
            assert addresses[index] == expected

    def test_williams_triples_length(self):
        trace = build_trace()
        mipmaps = [MipMap.build(TextureImage.solid(16, 16)),
                   MipMap.build(TextureImage.solid(8, 8))]
        placements = place_textures(mipmaps, WilliamsLayout())
        addresses = trace.byte_addresses(placements)
        assert len(addresses) == 3 * trace.n_accesses

    def test_addresses_fall_inside_allocations(self):
        trace = build_trace()
        mipmaps = [MipMap.build(TextureImage.solid(16, 16)),
                   MipMap.build(TextureImage.solid(8, 8))]
        placements = place_textures(mipmaps, NonblockedLayout())
        addresses = trace.byte_addresses(placements)
        end = placements[-1].base + placements[-1].total_nbytes
        assert addresses.min() >= 0
        assert addresses.max() < end

    def test_empty_trace(self):
        trace = TraceBuilder().build()
        assert len(trace.byte_addresses([])) == 0

    def test_slice(self):
        trace = build_trace()
        part = trace.slice(0, 16)
        assert part.n_accesses == 16
        assert (part.texture_id == 0).all()
