"""Golden-equivalence suite for the triangle-batched rasterizer.

``Renderer(raster="batched")`` must reproduce the per-triangle
reference path bit-for-bit -- every :class:`TexelTrace` column, the
per-triangle fragment counts and the framebuffer pixels -- on the
paper scenes and across traversal orders and filtering modes.  The
second half unit-tests the vectorized building blocks the batched path
leans on: the grouped traversal sort and its packed radix key,
optional-field reordering, and the flat-probe access generators.
"""

import numpy as np
import pytest

from repro.engine import order_from_spec, paper_order_spec
from repro.pipeline.renderer import RASTER_PATHS, Renderer
from repro.raster.order import (
    HilbertOrder,
    HorizontalOrder,
    TiledOrder,
    VerticalOrder,
    _composite_key,
)
from repro.raster.triangle import FragmentBatch
from repro.scenes import make_scene
from repro.texture.filtering import (
    _generate_accesses_aniso_looped,
    generate_accesses,
    generate_accesses_aniso,
)
from tests.test_renderer import tiny_scene, two_quad_scene

TRACE_FIELDS = ("texture_id", "level", "tu", "tv", "tu_raw", "tv_raw", "kind")
PAPER_SCENES = ("flight", "goblet", "guitar", "town")
SCALE = 0.05


def render_both(scene, order, produce_image=False, max_anisotropy=1,
                use_mipmaps=True):
    """The same render through both raster paths."""
    return [
        Renderer(order=order, produce_image=produce_image,
                 max_anisotropy=max_anisotropy, use_mipmaps=use_mipmaps,
                 raster=raster).render(scene)
        for raster in ("reference", "batched")
    ]


def assert_equivalent(reference, batched, image=False):
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(reference.trace, name),
                              getattr(batched.trace, name)), name
    assert reference.trace.n_fragments == batched.trace.n_fragments
    assert reference.n_fragments == batched.n_fragments
    assert np.array_equal(reference.per_triangle_fragments,
                          batched.per_triangle_fragments)
    if image:
        assert np.array_equal(reference.framebuffer.pixels,
                              batched.framebuffer.pixels)


class TestPaperScenes:
    """Bit-identical traces on the four benchmark scenes."""

    @pytest.fixture(scope="class", params=PAPER_SCENES)
    def named_scene(self, request):
        return request.param, make_scene(request.param).build(scale=SCALE)

    def test_paper_order_trace(self, named_scene):
        name, scene = named_scene
        order = order_from_spec(paper_order_spec(name))
        reference, batched = render_both(scene, order)
        assert_equivalent(reference, batched)
        assert batched.n_fragments > 0

    def test_framebuffer(self, named_scene):
        name, scene = named_scene
        order = order_from_spec(paper_order_spec(name))
        reference, batched = render_both(scene, order, produce_image=True)
        assert_equivalent(reference, batched, image=True)


class TestOrdersAndModes:
    """Equivalence across traversal orders and filtering modes."""

    @pytest.fixture(scope="class")
    def scene(self):
        return tiny_scene()

    @pytest.mark.parametrize("order", [
        HorizontalOrder(),
        VerticalOrder(),
        TiledOrder(8),
        TiledOrder(4, within="col", across="col"),
        HilbertOrder(7),
    ], ids=lambda order: order.name)
    def test_orders(self, scene, order):
        reference, batched = render_both(scene, order)
        assert_equivalent(reference, batched)

    def test_anisotropic(self, scene):
        reference, batched = render_both(scene, HorizontalOrder(),
                                         max_anisotropy=4)
        assert_equivalent(reference, batched)

    def test_no_mipmaps(self, scene):
        reference, batched = render_both(scene, HorizontalOrder(),
                                         use_mipmaps=False)
        assert_equivalent(reference, batched)

    def test_zbuffer_resolve(self):
        # Two overlapping quads: the depth test and winner selection
        # must agree, not just the access stream.
        reference, batched = render_both(two_quad_scene(), VerticalOrder(),
                                         produce_image=True)
        assert_equivalent(reference, batched, image=True)

    def test_phase_timers_populated(self, scene):
        result = Renderer(order=HorizontalOrder(), produce_image=False,
                          raster="batched").render(scene)
        assert set(result.phase_ms) == {"clip", "raster", "access_gen",
                                        "filter"}
        assert result.phase_ms["raster"] > 0.0

    def test_unknown_raster_rejected(self):
        with pytest.raises(ValueError, match="unknown raster path"):
            Renderer(raster="scanline")
        assert set(RASTER_PATHS) == {"batched", "reference"}

    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["sweep", "--axis", "assoc"],
    ], ids=lambda command: command[0])
    def test_cli_raster_flag_picks_the_path(self, tmp_path, monkeypatch,
                                            command):
        # Both LRU commands render a cold trace on the path --raster
        # names: only that path's rasterizer runs.
        from repro.cli import main
        from repro.pipeline import renderer

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        used = set()
        for raster, name in (("batched", "rasterize_triangles"),
                             ("reference", "rasterize_triangle")):
            rasterize = getattr(renderer, name)

            def recorded(*args, _raster=raster, _rasterize=rasterize,
                         **kwargs):
                used.add(_raster)
                return _rasterize(*args, **kwargs)
            monkeypatch.setattr(renderer, name, recorded)
        assert main([command[0], "goblet", "--scale", "0.05",
                     "--cache-size", "1024", "--line-size", "128",
                     *command[1:], "--raster", "reference"]) == 0
        assert used == {"reference"}


def per_group_argsort(order, x, y, group):
    """The scalar-API oracle: argsort each group, concatenate."""
    perm = []
    for g in np.unique(group):
        members = np.flatnonzero(group == g)
        perm.append(members[order.argsort(x[members], y[members])])
    return np.concatenate(perm)


class TestGroupedArgsort:
    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(7)
        n = 600
        return (rng.integers(0, 48, n), rng.integers(0, 48, n),
                rng.integers(0, 13, n))

    @pytest.mark.parametrize("order", [
        HorizontalOrder(),
        VerticalOrder(),
        TiledOrder(8),
        TiledOrder(4, within="col", across="col"),
        HilbertOrder(6),
    ], ids=lambda order: order.name)
    def test_matches_per_group(self, points, order):
        x, y, group = points
        got = order.grouped_argsort(x, y, group)
        assert np.array_equal(got, per_group_argsort(order, x, y, group))

    def test_rowmajor_fast_path(self):
        # Groups interleaved at random, but each group's members arrive
        # row-major -- the precondition the batched rasterizer
        # guarantees and the fast path relies on.
        rng = np.random.default_rng(11)
        per_group = []
        for g in range(5):
            pts = rng.integers(0, 24, (40, 2))
            pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
            per_group.append(pts)
        taken = [0] * 5
        rows = []
        for g in rng.permutation(np.repeat(np.arange(5), 40)):
            rows.append((g, *per_group[g][taken[g]]))
            taken[g] += 1
        group, x, y = map(np.array, zip(*rows))

        horizontal = HorizontalOrder()
        fast = horizontal.grouped_argsort(x, y, group, within_rowmajor=True)
        assert np.array_equal(fast, per_group_argsort(horizontal, x, y, group))
        # Non-row-major orders must ignore the hint and sort for real.
        vertical = VerticalOrder()
        keyed = vertical.grouped_argsort(x, y, group, within_rowmajor=True)
        assert np.array_equal(keyed, per_group_argsort(vertical, x, y, group))


class TestCompositeKey:
    def test_argsort_equals_lexsort(self):
        rng = np.random.default_rng(3)
        keys = tuple(rng.integers(-50, 2000, 800) for _ in range(3))
        packed = _composite_key(keys)
        assert packed is not None
        assert np.array_equal(np.argsort(packed, kind="stable"),
                              np.lexsort(keys))

    def test_small_range_packs_to_int32(self):
        keys = (np.arange(100), np.arange(100) % 7)
        assert _composite_key(keys).dtype == np.int32

    def test_wide_range_stays_int64(self):
        keys = (np.array([0, 1 << 20]), np.array([0, 1 << 20]))
        packed = _composite_key(keys)
        assert packed.dtype == np.int64
        assert np.array_equal(np.argsort(packed, kind="stable"),
                              np.lexsort(keys))

    def test_float_keys_fall_back(self):
        assert _composite_key((np.array([0.5, 1.5]),)) is None

    def test_overflow_falls_back(self):
        huge = np.array([0, 1 << 32])
        assert _composite_key((huge, huge)) is None

    def test_empty_keys_fall_back(self):
        assert _composite_key((np.array([], dtype=np.int64),)) is None


class TestFragmentBatchReordered:
    def test_optional_none_stays_none(self):
        n = 5
        batch = FragmentBatch(x=np.arange(n), y=np.arange(n),
                              z=np.arange(n, dtype=float),
                              u=np.arange(n, dtype=float),
                              v=np.arange(n, dtype=float),
                              lod=np.zeros(n))
        flipped = batch.reordered(np.arange(n)[::-1])
        assert flipped.color is None and flipped.dudx is None
        assert flipped.dvdx is None and flipped.dudy is None
        assert flipped.dvdy is None
        assert np.array_equal(flipped.x, np.arange(n)[::-1])

    def test_present_fields_permute(self):
        n = 4
        perm = np.array([2, 0, 3, 1])
        batch = FragmentBatch(x=np.arange(n), y=np.arange(n),
                              z=np.arange(n, dtype=float),
                              u=np.arange(n, dtype=float),
                              v=np.arange(n, dtype=float),
                              lod=np.zeros(n),
                              color=np.arange(n, dtype=float),
                              dudx=np.arange(n, dtype=float) + 10)
        flipped = batch.reordered(perm)
        assert np.array_equal(flipped.color, perm.astype(float))
        assert np.array_equal(flipped.dudx, perm.astype(float) + 10)
        assert flipped.dudy is None


def assert_accesses_equal(a, b):
    for name in ("level", "tu", "tv", "tu_raw", "tv_raw", "kind",
                 "fragment_index"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestAccessGenerators:
    def test_aniso_flat_matches_looped_oracle(self):
        rng = np.random.default_rng(5)
        n = 300
        u, v = rng.random(n), rng.random(n)
        dudx, dvdx = rng.normal(0, 6, n), rng.normal(0, 6, n)
        dudy, dvdy = rng.normal(0, 6, n), rng.normal(0, 6, n)
        flat = generate_accesses_aniso(u, v, dudx, dvdx, dudy, dvdy,
                                       7, 64, 64, max_aniso=4)
        looped = _generate_accesses_aniso_looped(u, v, dudx, dvdx, dudy, dvdy,
                                                 7, 64, 64, max_aniso=4)
        assert_accesses_equal(flat, looped)

    def test_scalar_and_array_geometry_agree(self):
        # The batched renderer streams all textures at once, passing the
        # pyramid geometry as per-fragment arrays; the result must match
        # the scalar (single-texture) call fragment for fragment.
        rng = np.random.default_rng(9)
        n = 400
        u, v = rng.random(n) * 3 - 1, rng.random(n) * 3 - 1
        lod = rng.uniform(-1, 6, n)
        scalar = generate_accesses(u, v, lod, 7, 64, 32)
        arrays = generate_accesses(
            u, v, lod, np.full(n, 7), np.full(n, 64), np.full(n, 32))
        assert_accesses_equal(scalar, arrays)
