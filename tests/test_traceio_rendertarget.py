"""Tests for trace persistence and render-to-texture."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheConfig, LRUCache
from repro.engine import ArtifactStore, TraceSpec
from repro.pipeline.renderer import RASTER_PATHS, Renderer
from repro.pipeline.trace import FragmentBlock
from repro.pipeline.traceio import FORMAT_VERSION, load_trace, save_trace
from repro.raster.framebuffer import Framebuffer
from repro.raster.order import make_order
from repro.texture.rendertarget import (
    flush_for_texture_update,
    framebuffer_to_texture,
)
from tests.test_renderer import tiny_scene


@pytest.fixture(scope="module")
def rendered():
    return Renderer(produce_image=False, record_positions=True).render(tiny_scene())


COLUMNS = ("texture_id", "level", "tu", "tv", "tu_raw", "tv_raw", "kind",
           "x", "y")

#: Every traversal order, sized for the 64x64 tiny scene.
ORDERS = {"horizontal": {}, "vertical": {}, "tiled": {"tile_w": 4},
          "hilbert": {"order_bits": 6}}


def assert_same_trace(got, want):
    assert got.n_fragments == want.n_fragments
    for column in COLUMNS:
        expected = getattr(want, column)
        value = getattr(got, column)
        if expected is None:
            assert value is None, column
        else:
            assert value.dtype == expected.dtype, column
            assert np.array_equal(value, expected), column


def rewrite_archive(path, edit):
    """Re-save the archive at ``path`` after ``edit(members)``."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    edit(members)
    np.savez(path, **members)


def wrong_version(members):
    members["meta"][0] = FORMAT_VERSION - 1


def broken_slice(trace):
    return trace.slice(2, 2 + 4 * 100)


def broken_tu_raw(trace):
    tu_raw = trace.tu_raw.copy()
    tu_raw[5] += 1
    return dataclasses.replace(trace, tu_raw=tu_raw)


class TestTraceIO:
    def test_roundtrip(self, rendered, tmp_path):
        path = os.path.join(tmp_path, "frame.trace.npz")
        save_trace(path, rendered.trace)
        loaded = load_trace(path)
        assert loaded.n_accesses == rendered.trace.n_accesses
        assert loaded.n_fragments == rendered.trace.n_fragments
        assert np.array_equal(loaded.tu, rendered.trace.tu)
        assert np.array_equal(loaded.kind, rendered.trace.kind)
        assert np.array_equal(loaded.x, rendered.trace.x)

    def test_roundtrip_without_positions(self, tmp_path):
        result = Renderer(produce_image=False).render(tiny_scene())
        path = os.path.join(tmp_path, "np.trace.npz")
        save_trace(path, result.trace)
        loaded = load_trace(path)
        assert not loaded.has_positions
        assert np.array_equal(loaded.tv, result.trace.tv)

    def test_addresses_identical_after_roundtrip(self, rendered, tmp_path):
        from repro.texture.layout import BlockedLayout
        from repro.texture.memory import place_textures
        scene = tiny_scene()
        placements = place_textures(scene.get_mipmaps(), BlockedLayout(4))
        path = os.path.join(tmp_path, "addr.trace.npz")
        save_trace(path, rendered.trace)
        loaded = load_trace(path)
        assert np.array_equal(loaded.byte_addresses(placements),
                              rendered.trace.byte_addresses(placements))

    def test_rejects_non_trace_npz(self, tmp_path):
        path = os.path.join(tmp_path, "junk.npz")
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError):
            load_trace(path)

    @given(order=st.sampled_from(sorted(ORDERS)),
           max_anisotropy=st.sampled_from((1, 2, 4)),
           use_mipmaps=st.booleans(),
           lod_bias=st.floats(-2.0, 2.0),
           record_positions=st.booleans(),
           raster=st.sampled_from(RASTER_PATHS),
           camera_z=st.sampled_from((1.0, 3.0, 8.0)))
    @settings(max_examples=25, deadline=None)
    def test_codec_round_trips_every_render(
            self, tmp_path_factory, order, max_anisotropy, use_mipmaps,
            lod_bias, record_positions, raster, camera_z):
        trace = Renderer(
            order=make_order(order, **ORDERS[order]), produce_image=False,
            record_positions=record_positions,
            max_anisotropy=max_anisotropy, lod_bias=lod_bias,
            use_mipmaps=use_mipmaps, raster=raster,
        ).render(tiny_scene(camera_z=camera_z)).trace
        path = tmp_path_factory.mktemp("codec") / "frame.trace.npz"
        save_trace(path, trace)
        assert_same_trace(load_trace(path), trace)

    @pytest.mark.parametrize("edit", [
        lambda members: members.pop("kind"),
        lambda members: members.pop("x"),
        wrong_version,
        lambda members: members.update(j0=members["j0"][:-1]),
        lambda members: members.update(tu=members["tu"].reshape(-1)),
        lambda members: members.update(meta=members["meta"][:2]),
    ], ids=["missing-column", "missing-x", "wrong-version",
            "unequal-length", "wrong-shape", "malformed-meta"])
    def test_rejects_malformed_file(self, rendered, tmp_path, edit):
        path = tmp_path / "frame.npz"
        save_trace(path, rendered.trace)
        rewrite_archive(path, edit)
        with pytest.raises(ValueError):
            load_trace(path)

    @pytest.mark.parametrize("breakage", [broken_slice, broken_tu_raw],
                             ids=["slice-mid-quad", "changed-tu_raw"])
    def test_refuses_traces_that_are_not_filter_quads(
            self, rendered, tmp_path, breakage):
        broken = breakage(rendered.trace)
        assert broken.n_accesses % 4 == 0
        with pytest.raises(ValueError):
            save_trace(tmp_path / "frame.npz", broken)
        store = ArtifactStore(tmp_path / "store")
        writer = store.open_render_writer(
            TraceSpec(scene="goblet", scale=0.05, order=("horizontal",)))
        block = FragmentBlock(**{column: getattr(broken, column)
                                 for column in COLUMNS},
                              n_fragments=broken.n_fragments)
        with pytest.raises(ValueError):
            writer.append(block)
        assert not any((tmp_path / "store").rglob("*.npz*"))
        assert writer.close({})["envelopes"] == []


class TestFramebufferToTexture:
    def make_framebuffer(self):
        framebuffer = Framebuffer(100, 80, clear_color=(10, 20, 30))
        framebuffer.pixels[:40, :, 0] = 200  # top half red-ish
        return framebuffer

    def test_default_size_pow2(self):
        texture = framebuffer_to_texture(self.make_framebuffer())
        assert texture.width == 64
        assert texture.height == 64

    def test_explicit_size(self):
        texture = framebuffer_to_texture(self.make_framebuffer(), size=32)
        assert texture.width == 32

    def test_content_resampled(self):
        texture = framebuffer_to_texture(self.make_framebuffer(), size=32)
        assert texture.texels[2, 16, 0] == 200
        assert texture.texels[30, 16, 0] == 10

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            framebuffer_to_texture(self.make_framebuffer(), size=48)

    def test_render_to_texture_pipeline(self):
        # Render pass 1, wrap it as a texture, texture pass 2 with it.
        from repro.geometry.mesh import make_quad
        from repro.geometry.transform import look_at, perspective
        from repro.scenes.base import SceneData
        from repro.texture.image import TextureSet
        first = Renderer(produce_image=True).render(tiny_scene())
        texture = framebuffer_to_texture(first.framebuffer)
        textures = TextureSet()
        textures.add(texture)
        mesh = make_quad(np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0],
                                   [-1, 1, 0]], dtype=float), texture_id=0)
        scene2 = SceneData(name="second", width=48, height=48, mesh=mesh,
                           textures=textures,
                           view=look_at((0, 0, 3), (0, 0, 0)),
                           projection=perspective(45.0, 1.0, 0.5, 10.0))
        second = Renderer(produce_image=True).render(scene2)
        assert second.n_fragments > 0
        # The checkerboard from pass 1 survives into pass 2's frame.
        center = second.framebuffer.pixels[12:36, 12:36]
        assert center.max() > 150
        assert center.min() < 100


class TestFlush:
    def test_flush_empties_cache(self):
        cache = LRUCache(CacheConfig(256, 32, 2))
        cache.access(1)
        cache.access(2)
        flush_for_texture_update([cache])
        assert cache.contents() == set()

    def test_post_flush_accesses_miss_but_not_cold(self):
        cache = LRUCache(CacheConfig(256, 32))
        cache.access(1)
        cache.flush()
        assert cache.access(1) is False
        assert cache.cold_misses == 1
        assert cache.misses == 2

    def test_flush_type_error(self):
        with pytest.raises(TypeError):
            flush_for_texture_update([object()])
