"""The software graphics pipeline (paper Section 4.1).

Geometry, clipping, lighting of vertices, rasterization, shading,
texture mapping and z-buffering -- the paper's first simulation
component, "similar to the one described in [RealityEngine]" with
texture mapping "based on the OpenGL specification document".

Triangles are rasterized in the order they are specified in the input.
Fragment traversal within each triangle follows the configured
:class:`~repro.raster.order.TraversalOrder` (horizontal, vertical or
tiled); every texel fetched by the trilinear/bilinear filter is
recorded in a :class:`~repro.pipeline.trace.TexelTrace` for the cache
simulator.

One walk turns clipped triangles into texel accesses: rasterize a
contiguous range of them in submission order, sort each triangle's
fragments into traversal order, apply the LoD bias, count fragments
per triangle and generate the filter's accesses.  Each rasterization
path writes that walk once, as a generator of ``(fragments, texture
ids, accesses)`` pieces, and draws its image in its own step.
:meth:`Renderer.render` walks the whole clipped range (one triangle
batch on the batched path) and draws it; :meth:`Renderer.render_blocks`
sizes the batches from the chunk and hands the pieces to
:func:`~repro.pipeline.trace.cut_blocks`, the cutter that
:func:`~repro.pipeline.trace.iter_blocks` uses too.

Two rasterization paths exist, selected by ``Renderer(raster=...)``:

``"batched"`` (default)
    :mod:`repro.raster.batched` rasterizes a range of triangles over
    flat candidate arrays and generates its accesses in one call with
    per-fragment pyramid geometry; the image is one (pixel, z) resolve
    over the frame's fragments.  Traces, framebuffers and per-triangle
    fragment counts are **bit-identical** to the reference path --
    only the wall clock differs.
``"reference"``
    The per-triangle oracle:
    :func:`~repro.raster.triangle.rasterize_triangle`, the traversal
    order's per-triangle ``argsort``, access generation with one
    triangle's scalar pyramid geometry, and the sequential z-test of
    :meth:`~repro.raster.zbuffer.ZBuffer.test_and_write`.

Both paths accumulate per-phase wall-clock timers (clip / raster /
access-gen / filter) surfaced in :attr:`RenderResult.phase_ms` and via
``python -m repro render --profile``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..geometry.clip import clip_triangles_near
from ..geometry.lighting import DirectionalLight, light_mesh
from ..geometry.transform import ndc_to_screen
from ..raster.batched import rasterize_triangles
from ..raster.framebuffer import Framebuffer
from ..raster.order import HorizontalOrder, TraversalOrder
from ..raster.triangle import rasterize_triangle
from ..raster.zbuffer import ZBuffer
from ..texture.filtering import (
    TexelAccesses,
    filter_colors,
    generate_accesses,
    generate_accesses_aniso,
)
from .trace import TexelTrace, TraceBuilder, cut_blocks

#: Selectable rasterization paths.
RASTER_PATHS = ("batched", "reference")


def check_raster(raster: str) -> str:
    """Validate a rasterization-path name."""
    if raster not in RASTER_PATHS:
        raise ValueError(
            f"unknown raster path {raster!r}; expected one of {RASTER_PATHS}")
    return raster


class _PhaseTimers:
    """Accumulates wall-clock milliseconds per pipeline phase."""

    PHASES = ("clip", "raster", "access_gen", "filter")

    def __init__(self):
        self.ms = {phase: 0.0 for phase in self.PHASES}
        self._started = None

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self, phase: str) -> None:
        self.ms[phase] += 1000.0 * (time.perf_counter() - self._started)
        self._started = None


@dataclass
class RenderResult:
    """Everything produced by rendering one frame."""

    trace: TexelTrace
    framebuffer: Optional[Framebuffer]
    n_fragments: int
    n_triangles_submitted: int
    n_triangles_rasterized: int
    per_triangle_fragments: np.ndarray = field(default=None)
    #: Wall-clock milliseconds per pipeline phase (clip / raster /
    #: access_gen / filter); ``None`` on store-loaded results.
    phase_ms: Optional[dict] = None

    @property
    def n_accesses(self) -> int:
        return self.trace.n_accesses


@dataclass
class _Frame:
    """A frame's clipped, projected triangles in submission order:
    what either raster path's walk reads."""

    mipmaps: list
    texture_ids: np.ndarray      # (m,)
    screen: np.ndarray           # (m, 3, 2) pixel coordinates
    ndc_z: np.ndarray            # (m, 3)
    inv_w: np.ndarray            # (m, 3)
    uv: np.ndarray               # (m, 3, 2)
    colors: Optional[np.ndarray]  # (m, 3, 3) vertex colors, when drawn
    width: int
    height: int

    @property
    def n_triangles(self) -> int:
        return len(self.texture_ids)


class Renderer:
    """Renders a scene and records its texel access trace.

    Parameters
    ----------
    order:
        Fragment traversal order (default horizontal scan lines).
    produce_image:
        When False, skips filtering arithmetic and framebuffer writes;
        the access trace is identical, and tracing runs ~2x faster.
        Benchmark harnesses use this.
    lighting:
        Optional :class:`DirectionalLight` applied per vertex when a
        mesh has no baked colors.
    raster:
        ``"batched"`` (default) or ``"reference"``; both produce
        bit-identical output (see the module docstring).
    """

    def __init__(
        self,
        order: TraversalOrder = None,
        produce_image: bool = True,
        lighting: Optional[DirectionalLight] = None,
        record_positions: bool = False,
        max_anisotropy: int = 1,
        lod_bias: float = 0.0,
        use_mipmaps: bool = True,
        raster: str = "batched",
    ):
        if max_anisotropy < 1:
            raise ValueError("max_anisotropy must be >= 1")
        self.order = order if order is not None else HorizontalOrder()
        self.produce_image = produce_image
        self.lighting = lighting
        self.record_positions = record_positions
        #: >1 enables anisotropic filtering for the *access trace*
        #: (up to this many trilinear probes per fragment); the color
        #: path stays isotropic -- the study concerns addresses.
        self.max_anisotropy = max_anisotropy
        #: OpenGL-style level-of-detail bias: positive values select
        #: coarser mip levels (blurrier image, ~4x less texture
        #: footprint per +1), negative values sharper ones.
        self.lod_bias = lod_bias
        #: False models GL_LINEAR filtering without mip maps: every
        #: fragment bilinearly samples level 0 regardless of the
        #: level of detail.  Section 3.1.1 credits mip mapping with
        #: creating texture-space spatial locality; this switch is the
        #: ablation that proves it.
        self.use_mipmaps = use_mipmaps
        self.raster = check_raster(raster)

    def _prepare(self, scene, timers) -> _Frame:
        """The shared front half of a frame: lighting, clipping and
        projection, in submission order."""
        timers.start()
        mesh = scene.mesh
        mipmaps = scene.get_mipmaps()
        colors = mesh.colors
        if colors is None and self.lighting is not None:
            colors = light_mesh(mesh, self.lighting)

        mvp = scene.projection @ scene.view
        homogeneous = np.concatenate(
            [mesh.positions, np.ones((mesh.n_vertices, 1))], axis=1
        )
        clip_vertices = homogeneous @ mvp.T

        # Per-triangle vertex data in submission order.
        tri_clip = clip_vertices[mesh.triangles]  # (m, 3, 4)
        attr_list = [mesh.uvs]
        if colors is not None:
            attr_list.append(colors)
        vertex_attrs = np.concatenate(attr_list, axis=1)
        tri_attrs = vertex_attrs[mesh.triangles]  # (m, 3, k)

        clipped = clip_triangles_near(tri_clip, tri_attrs)

        # Project all clipped vertices at once.
        flat_clip = clipped.clip.reshape(-1, 4)
        screen, ndc_z, inv_w = ndc_to_screen(flat_clip, scene.width,
                                             scene.height)
        timers.stop("clip")
        return _Frame(
            mipmaps=mipmaps,
            texture_ids=mesh.texture_ids[clipped.triangle_index],
            screen=screen.reshape(-1, 3, 2), ndc_z=ndc_z.reshape(-1, 3),
            inv_w=inv_w.reshape(-1, 3), uv=clipped.attrs[:, :, :2],
            colors=clipped.attrs[:, :, 2:5]
            if colors is not None and self.produce_image else None,
            width=scene.width, height=scene.height)

    def _path(self):
        """``(piece generator, draw step)`` of this renderer's raster
        path."""
        if self.raster == "batched":
            return self._batched_pieces, self._draw_batched
        return self._reference_pieces, self._draw_reference

    def render(self, scene) -> RenderResult:
        """Render ``scene`` (a :class:`repro.scenes.base.SceneData`).

        The raster path walks the whole clipped triangle range -- the
        batched path as one piece, the reference path a triangle at a
        time.  The pieces' accesses make the trace, and the path's draw
        step resolves their fragments into the image.
        """
        timers = _PhaseTimers()
        frame = self._prepare(scene, timers)
        per_triangle = np.zeros(frame.n_triangles, dtype=np.int64)
        pieces, draw = self._path()
        builder = TraceBuilder(record_positions=self.record_positions)
        framebuffer = zbuffer = None
        if self.produce_image:
            framebuffer = Framebuffer(scene.width, scene.height)
            zbuffer = ZBuffer(scene.width, scene.height)
        for fragments, texture, accesses in pieces(
                frame, 0, frame.n_triangles, per_triangle, timers):
            timers.start()
            builder.append(texture, accesses, fragments.n_fragments,
                           fragment_x=fragments.x, fragment_y=fragments.y)
            timers.stop("access_gen")
            if framebuffer is not None:
                timers.start()
                draw(frame, fragments, texture, framebuffer, zbuffer)
                timers.stop("filter")
        return RenderResult(
            trace=builder.build(),
            framebuffer=framebuffer,
            n_fragments=builder.n_fragments,
            n_triangles_submitted=scene.mesh.n_triangles,
            n_triangles_rasterized=int((per_triangle > 0).sum()),
            per_triangle_fragments=per_triangle,
            phase_ms=timers.ms,
        )

    def render_blocks(self, scene, chunk_size: int, totals: dict = None,
                      triangle_slice: tuple = None):
        """Render ``scene`` as a stream of :class:`FragmentBlock`
        chunks of at most ``chunk_size`` accesses each, cut at
        fragment boundaries.

        Bit-identity: every traversal order sorts the frame's stream
        triangle-major (submission order is the most significant key),
        and per-triangle rasterization setup and access generation are
        elementwise, so walking contiguous triangle ranges and
        concatenating their ordered streams equals :meth:`render`'s
        one-piece walk exactly -- the blocks are that stream, cut by
        :func:`~repro.pipeline.trace.cut_blocks`.  The batched path
        sizes its triangle batches from the chunk, so peak memory is
        bounded by the chunk size (plus one triangle batch), never the
        frame.

        ``triangle_slice=(index, count)`` renders only the ``index``-th
        of ``count`` equal contiguous slices of the clipped triangle
        range (the deterministic partition the pipelined streaming
        pool fans out).  Slice bounds depend only on the clipped
        triangle count, so every worker derives the same partition
        independently, and concatenating the slices' block streams in
        slice order is bit-identical to the unsliced stream.

        Streaming skips the framebuffer (construct the renderer with
        ``produce_image=False``); pass ``totals`` (a dict) to receive
        the frame summary -- ``n_fragments``, ``n_triangles_submitted``,
        ``n_triangles_rasterized``, ``per_triangle_fragments`` -- once
        the generator is exhausted.  With a ``triangle_slice`` the
        fragment/rasterized counters cover only the slice (they sum to
        the frame totals across slices); ``n_triangles_submitted``
        stays frame-global.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.produce_image:
            raise RuntimeError(
                "streaming render does not produce an image; construct "
                "the Renderer with produce_image=False")
        timers = _PhaseTimers()
        frame = self._prepare(scene, timers)
        lo, hi = triangle_slice_bounds(frame.n_triangles, triangle_slice)
        per_triangle = np.zeros(frame.n_triangles, dtype=np.int64)
        pieces, _ = self._path()

        def traces():
            for fragments, texture, accesses in pieces(
                    frame, lo, hi, per_triangle, timers, chunk_size):
                builder = TraceBuilder(record_positions=self.record_positions)
                builder.append(texture, accesses, fragments.n_fragments,
                               fragment_x=fragments.x, fragment_y=fragments.y)
                starts = _fragment_start_indices(accesses.fragment_index)
                # Hold no fragments while the walk makes the next batch:
                # a batch's fragments can set a cold fold's peak.
                del fragments, texture, accesses
                yield builder.build(), starts

        yield from cut_blocks(traces(), chunk_size)
        if totals is not None:
            sliced = per_triangle[lo:hi]
            totals.update(
                n_fragments=int(sliced.sum()),
                n_triangles_submitted=scene.mesh.n_triangles,
                n_triangles_rasterized=int((sliced > 0).sum()),
                per_triangle_fragments=per_triangle,
            )

    # -- per-triangle reference path -------------------------------------

    def _reference_pieces(self, frame, lo, hi, per_triangle, timers,
                          chunk_size=None):
        """The reference walk of triangles ``[lo, hi)``: one piece
        ``(fragments, texture id, accesses)`` per triangle that covers
        a fragment (``chunk_size`` is not needed).  Records each
        triangle's fragment count in ``per_triangle``."""
        for index in range(lo, hi):
            timers.start()
            texture_id = int(frame.texture_ids[index])
            mipmap = frame.mipmaps[texture_id]
            batch = rasterize_triangle(
                frame.screen[index], frame.ndc_z[index], frame.inv_w[index],
                frame.uv[index], texture_size=mipmap.level_shape(0),
                width=frame.width, height=frame.height,
                colors=None if frame.colors is None else frame.colors[index],
            )
            if batch is None or batch.n_fragments == 0:
                timers.stop("raster")
                continue
            per_triangle[index] = batch.n_fragments
            batch = batch.reordered(self.order.argsort(batch.x, batch.y))
            if self.lod_bias:
                batch.lod = batch.lod + self.lod_bias
            timers.stop("raster")

            timers.start()
            accesses = self._triangle_accesses(batch, mipmap)
            timers.stop("access_gen")
            yield batch, texture_id, accesses

    def _triangle_accesses(self, batch, mipmap) -> TexelAccesses:
        """The access stream of one triangle's (reordered) fragments."""
        if not self.use_mipmaps:
            # GL_LINEAR: bilinear at level 0, whatever the lod.
            return generate_accesses(
                batch.u, batch.v, np.full(batch.n_fragments, -1.0),
                1, *mipmap.level_shape(0),
            )
        if self.max_anisotropy > 1:
            # LoD bias scales the footprint: 2**bias on derivatives.
            bias_factor = 2.0 ** self.lod_bias if self.lod_bias else 1.0
            return generate_accesses_aniso(
                batch.u, batch.v,
                batch.dudx * bias_factor, batch.dvdx * bias_factor,
                batch.dudy * bias_factor, batch.dvdy * bias_factor,
                mipmap.n_levels, *mipmap.level_shape(0),
                max_aniso=self.max_anisotropy,
            )
        return generate_accesses(
            batch.u, batch.v, batch.lod,
            mipmap.n_levels, *mipmap.level_shape(0),
        )

    def _draw_reference(self, frame, batch, texture_id, framebuffer,
                        zbuffer) -> None:
        """Shade one triangle's fragments and z-test them, in stream
        order, against what the triangles before it wrote."""
        rgb = filter_colors(frame.mipmaps[texture_id], batch.u, batch.v,
                            batch.lod)[:, :3]
        if batch.color is not None:
            rgb = rgb * batch.color
        passed = zbuffer.test_and_write(batch.x, batch.y, batch.z)
        framebuffer.write(batch.x[passed], batch.y[passed], rgb[passed])

    # -- batched path ----------------------------------------------------

    def _batched_pieces(self, frame, lo, hi, per_triangle, timers,
                        chunk_size=None):
        """The batched walk of triangles ``[lo, hi)``: one piece
        ``(fragments, per-fragment texture ids, accesses)`` per
        contiguous triangle batch, in submission order.  Records each
        triangle's fragment count in ``per_triangle``.

        Without a ``chunk_size`` the whole range is one batch.  With
        one, the first batch has ``min(256, max(16, chunk_size //
        1024))`` triangles (it too can set a fold's peak), and each
        later one is sized from the accesses per triangle seen so far
        to generate about ``chunk_size`` accesses.
        """
        level0 = np.array([mipmap.level_shape(0) for mipmap in frame.mipmaps],
                          dtype=np.int64).reshape(-1, 2)
        size = hi - lo if chunk_size is None else \
            min(256, max(16, chunk_size // 1024))
        seen_accesses = 0
        begin = lo
        while begin < hi:
            end = min(hi, begin + size)
            timers.start()
            ids = frame.texture_ids[begin:end]
            fragments = rasterize_triangles(
                frame.screen[begin:end], frame.ndc_z[begin:end],
                frame.inv_w[begin:end], frame.uv[begin:end],
                texel_w=level0[ids, 0], texel_h=level0[ids, 1],
                width=frame.width, height=frame.height,
                colors=None if frame.colors is None
                else frame.colors[begin:end],
                with_z=self.produce_image,
                with_derivatives=self.use_mipmaps and self.max_anisotropy > 1,
            )
            # Restore the reference stream order: triangles in submission
            # order, fragments in traversal order within each triangle.
            fragments = fragments.take(self.order.grouped_argsort(
                fragments.x, fragments.y, fragments.triangle,
                within_rowmajor=True))
            if self.lod_bias:
                fragments.lod = fragments.lod + self.lod_bias
            per_triangle[begin:end] = np.bincount(fragments.triangle,
                                                  minlength=end - begin)
            timers.stop("raster")

            timers.start()
            frag_texture = ids[fragments.triangle]
            # One access-generation call over the whole fragment stream:
            # the filtering kernels are elementwise, so per-fragment
            # pyramid geometry arrays (gathered through the texture id)
            # produce the same accesses as per-texture calls -- already
            # in fragment order, with no grouping or stitch sort.
            accesses = self._stream_accesses(fragments, frag_texture,
                                             frame.mipmaps, level0)
            timers.stop("access_gen")
            yield fragments, frag_texture, accesses
            if chunk_size is not None:
                seen_accesses += accesses.n_accesses
                per_triangle_accesses = max(1.0, seen_accesses / (end - lo))
                size = int(min(max(16, chunk_size / per_triangle_accesses),
                               1 << 16))
            begin = end

    def _stream_accesses(self, fragments, frag_texture, mipmaps,
                         level0) -> TexelAccesses:
        """Access stream of a whole (multi-texture) fragment stream,
        the array-geometry twin of :meth:`_triangle_accesses`."""
        width0 = level0[frag_texture, 0]
        height0 = level0[frag_texture, 1]
        if not self.use_mipmaps:
            return generate_accesses(
                fragments.u, fragments.v,
                np.full(fragments.n_fragments, -1.0), 1, width0, height0)
        n_levels = np.array([mipmap.n_levels for mipmap in mipmaps],
                            dtype=np.int64)[frag_texture]
        if self.max_anisotropy > 1:
            bias_factor = 2.0 ** self.lod_bias if self.lod_bias else 1.0
            return generate_accesses_aniso(
                fragments.u, fragments.v,
                fragments.dudx * bias_factor, fragments.dvdx * bias_factor,
                fragments.dudy * bias_factor, fragments.dvdy * bias_factor,
                n_levels, width0, height0,
                max_aniso=self.max_anisotropy,
            )
        return generate_accesses(fragments.u, fragments.v, fragments.lod,
                                 n_levels, width0, height0)

    def _draw_batched(self, frame, fragments, frag_texture, framebuffer,
                      zbuffer) -> None:
        """Filter colors per texture and resolve visibility in one pass.

        The reference path z-tests triangle by triangle with a strict
        ``z < depth`` comparison, so the surviving fragment per pixel is
        the minimum-z fragment, earliest in the stream among equal
        depths.  A stable lexsort over (pixel, z) picks exactly that
        winner, reproducing the final framebuffer and depth buffer.  It
        writes the winners without reading the buffers, so it is valid
        only over every fragment of the frame at once: that is why
        :meth:`render` walks the batched path as one piece.
        """
        n = fragments.n_fragments
        if n == 0:
            return
        rgb = np.empty((n, 3), dtype=np.float64)
        for texture_id in np.unique(frag_texture):
            where = np.flatnonzero(frag_texture == texture_id)
            rgba = filter_colors(frame.mipmaps[texture_id], fragments.u[where],
                                 fragments.v[where], fragments.lod[where])
            rgb[where] = rgba[:, :3]
        if fragments.color is not None:
            rgb = rgb * fragments.color
        pixel = fragments.y.astype(np.int64) * frame.width + fragments.x
        by_depth = np.lexsort((fragments.z, pixel))
        pixel_sorted = pixel[by_depth]
        first = np.concatenate([[True], pixel_sorted[1:] != pixel_sorted[:-1]])
        winners = by_depth[first]
        zbuffer.depth[fragments.y[winners], fragments.x[winners]] = \
            fragments.z[winners]
        framebuffer.write(fragments.x[winners], fragments.y[winners],
                          rgb[winners])


def triangle_slice_bounds(n_triangles: int, triangle_slice: tuple = None):
    """The ``[lo, hi)`` clipped-triangle bounds of one slice of an
    ``(index, count)`` equal partition -- the deterministic contract
    between the pipelined streaming pool's workers, who each derive
    their own bounds from nothing but the clipped triangle count."""
    if triangle_slice is None:
        return 0, n_triangles
    index, count = int(triangle_slice[0]), int(triangle_slice[1])
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"bad triangle slice {triangle_slice!r}")
    bounds = np.linspace(0, n_triangles, count + 1).astype(np.int64)
    return int(bounds[index]), int(bounds[index + 1])


def _fragment_start_indices(fragment_index: np.ndarray) -> np.ndarray:
    """Access indices where a new fragment begins, from the generator's
    per-access fragment map (exact under anisotropy, unlike the
    kind-column recovery in :func:`repro.pipeline.trace.count_fragments`)."""
    if len(fragment_index) == 0:
        return np.empty(0, dtype=np.int64)
    change = np.empty(len(fragment_index), dtype=bool)
    change[0] = True
    np.not_equal(fragment_index[1:], fragment_index[:-1], out=change[1:])
    return np.flatnonzero(change).astype(np.int64)


def render_trace(scene, order: TraversalOrder = None,
                 raster: str = "batched") -> RenderResult:
    """Convenience: render ``scene`` for tracing only (no image)."""
    return Renderer(order=order, produce_image=False,
                    raster=raster).render(scene)


def render_trace_blocks(scene, chunk_size: int, order: TraversalOrder = None,
                        raster: str = "batched", totals: dict = None,
                        triangle_slice: tuple = None, **renderer_kwargs):
    """Convenience: stream ``scene``'s trace as
    :class:`FragmentBlock` chunks (no image)."""
    renderer = Renderer(order=order, produce_image=False, raster=raster,
                        **renderer_kwargs)
    return renderer.render_blocks(scene, chunk_size, totals=totals,
                                  triangle_slice=triangle_slice)
