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

Two rasterization paths exist, selected by ``Renderer(raster=...)``:

``"batched"`` (default)
    :mod:`repro.raster.batched` evaluates bins of triangles over flat
    candidate arrays and generates texel accesses once per texture
    instead of once per triangle.  Traces, framebuffers and
    per-triangle fragment counts are **bit-identical** to the
    reference path -- only the wall clock differs.
``"reference"``
    The original per-triangle loop over
    :func:`~repro.raster.triangle.rasterize_triangle`, kept as the
    equivalence oracle.

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
from .trace import FragmentBlock, TexelTrace, TraceBuilder

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

    def _prepare(self, scene, timers) -> tuple:
        """The shared front half of a frame: lighting, clipping and
        projection, in submission order."""
        timers.start()
        width, height = scene.width, scene.height
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
        texture_ids = mesh.texture_ids[clipped.triangle_index]

        # Project all clipped vertices at once.
        flat_clip = clipped.clip.reshape(-1, 4)
        screen, ndc_z, inv_w = ndc_to_screen(flat_clip, width, height)
        screen = screen.reshape(-1, 3, 2)
        ndc_z = ndc_z.reshape(-1, 3)
        inv_w = inv_w.reshape(-1, 3)
        timers.stop("clip")
        return mipmaps, clipped, texture_ids, screen, ndc_z, inv_w, \
            colors is not None

    def render(self, scene) -> RenderResult:
        """Render ``scene`` (a :class:`repro.scenes.base.SceneData`)."""
        timers = _PhaseTimers()
        mipmaps, clipped, texture_ids, screen, ndc_z, inv_w, has_colors = \
            self._prepare(scene, timers)
        rasterize = (self._render_batched if self.raster == "batched"
                     else self._render_reference)
        return rasterize(scene, mipmaps, clipped, texture_ids,
                         screen, ndc_z, inv_w, has_colors,
                         scene.width, scene.height, timers)

    # -- per-triangle reference path -------------------------------------

    def _render_reference(self, scene, mipmaps, clipped, texture_ids,
                          screen, ndc_z, inv_w, has_colors,
                          width, height, timers) -> RenderResult:
        framebuffer = Framebuffer(width, height) if self.produce_image else None
        zbuffer = ZBuffer(width, height) if self.produce_image else None

        builder = TraceBuilder(record_positions=self.record_positions)
        rasterized = 0
        per_triangle_fragments = np.zeros(clipped.n_triangles, dtype=np.int64)

        for index in range(clipped.n_triangles):
            timers.start()
            texture_id = int(texture_ids[index])
            mipmap = mipmaps[texture_id]
            tri_colors = None
            uv = clipped.attrs[index, :, :2]
            if has_colors:
                tri_colors = clipped.attrs[index, :, 2:5]
            batch = rasterize_triangle(
                screen[index], ndc_z[index], inv_w[index], uv,
                texture_size=mipmap.level_shape(0),
                width=width, height=height, colors=tri_colors,
            )
            if batch is None or batch.n_fragments == 0:
                timers.stop("raster")
                continue
            rasterized += 1
            per_triangle_fragments[index] = batch.n_fragments
            batch = batch.reordered(self.order.argsort(batch.x, batch.y))
            if self.lod_bias:
                batch.lod = batch.lod + self.lod_bias
            timers.stop("raster")

            timers.start()
            accesses = self._triangle_accesses(batch, mipmap)
            if self.record_positions:
                builder.append(texture_id, accesses, batch.n_fragments,
                               fragment_x=batch.x, fragment_y=batch.y)
            else:
                builder.append(texture_id, accesses, batch.n_fragments)
            timers.stop("access_gen")

            if framebuffer is not None:
                timers.start()
                texel_rgba = filter_colors(mipmap, batch.u, batch.v, batch.lod)
                rgb = texel_rgba[:, :3]
                if batch.color is not None:
                    rgb = rgb * batch.color
                passed = zbuffer.test_and_write(batch.x, batch.y, batch.z)
                framebuffer.write(batch.x[passed], batch.y[passed], rgb[passed])
                timers.stop("filter")

        return RenderResult(
            trace=builder.build(),
            framebuffer=framebuffer,
            n_fragments=builder.n_fragments,
            n_triangles_submitted=scene.mesh.n_triangles,
            n_triangles_rasterized=rasterized,
            per_triangle_fragments=per_triangle_fragments,
            phase_ms=timers.ms,
        )

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

    # -- batched path ----------------------------------------------------

    def _render_batched(self, scene, mipmaps, clipped, texture_ids,
                        screen, ndc_z, inv_w, has_colors,
                        width, height, timers) -> RenderResult:
        timers.start()
        uv = clipped.attrs[:, :, :2]
        tri_colors = clipped.attrs[:, :, 2:5] if has_colors else None
        level0 = np.array([mipmap.level_shape(0) for mipmap in mipmaps],
                          dtype=np.int64).reshape(-1, 2)
        fragments = rasterize_triangles(
            screen, ndc_z, inv_w, uv,
            texel_w=level0[texture_ids, 0], texel_h=level0[texture_ids, 1],
            width=width, height=height,
            colors=tri_colors if self.produce_image else None,
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
        per_triangle_fragments = np.bincount(
            fragments.triangle, minlength=clipped.n_triangles)
        timers.stop("raster")

        timers.start()
        builder = TraceBuilder(record_positions=self.record_positions)
        frag_texture = texture_ids[fragments.triangle]
        # One access-generation call over the whole fragment stream:
        # the filtering kernels are elementwise, so per-fragment pyramid
        # geometry arrays (gathered through the texture id) produce the
        # same accesses as per-texture calls -- already in fragment
        # order, with no grouping or stitch sort.
        accesses = self._stream_accesses(fragments, frag_texture,
                                         mipmaps, level0)
        builder.append_stream(
            frag_texture.astype(np.int16)[accesses.fragment_index],
            accesses, n_fragments=fragments.n_fragments,
            fragment_x=fragments.x, fragment_y=fragments.y)
        timers.stop("access_gen")

        framebuffer = zbuffer = None
        if self.produce_image:
            timers.start()
            framebuffer = Framebuffer(width, height)
            zbuffer = ZBuffer(width, height)
            self._resolve_image(fragments, frag_texture, mipmaps,
                                framebuffer, zbuffer, width)
            timers.stop("filter")

        return RenderResult(
            trace=builder.build(),
            framebuffer=framebuffer,
            n_fragments=builder.n_fragments,
            n_triangles_submitted=scene.mesh.n_triangles,
            n_triangles_rasterized=int((per_triangle_fragments > 0).sum()),
            per_triangle_fragments=per_triangle_fragments,
            phase_ms=timers.ms,
        )

    def _stream_accesses(self, fragments, frag_texture, mipmaps,
                         level0) -> TexelAccesses:
        """Access stream of the whole (multi-texture) fragment stream,
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

    def _resolve_image(self, fragments, frag_texture, mipmaps,
                       framebuffer, zbuffer, width) -> None:
        """Filter colors per texture and resolve visibility in one pass.

        The reference path z-tests triangle by triangle with a strict
        ``z < depth`` comparison, so the surviving fragment per pixel is
        the minimum-z fragment, earliest in the stream among equal
        depths.  A stable lexsort over (pixel, z) picks exactly that
        winner, reproducing the final framebuffer and depth buffer.
        """
        n = fragments.n_fragments
        if n == 0:
            return
        rgb = np.empty((n, 3), dtype=np.float64)
        for texture_id in np.unique(frag_texture):
            where = np.flatnonzero(frag_texture == texture_id)
            rgba = filter_colors(mipmaps[texture_id], fragments.u[where],
                                 fragments.v[where], fragments.lod[where])
            rgb[where] = rgba[:, :3]
        if fragments.color is not None:
            rgb = rgb * fragments.color
        pixel = fragments.y.astype(np.int64) * width + fragments.x
        by_depth = np.lexsort((fragments.z, pixel))
        pixel_sorted = pixel[by_depth]
        first = np.concatenate([[True], pixel_sorted[1:] != pixel_sorted[:-1]])
        winners = by_depth[first]
        zbuffer.depth[fragments.y[winners], fragments.x[winners]] = \
            fragments.z[winners]
        framebuffer.write(fragments.x[winners], fragments.y[winners],
                          rgb[winners])

    # -- streaming (block) path ------------------------------------------

    def render_blocks(self, scene, chunk_size: int, totals: dict = None,
                      triangle_slice: tuple = None):
        """Render ``scene`` as a stream of :class:`FragmentBlock`
        chunks of at most ``chunk_size`` accesses each, cut at
        fragment boundaries.

        Bit-identity: every traversal order sorts the frame's stream
        triangle-major (submission order is the most significant key),
        and per-triangle rasterization setup and access generation are
        elementwise, so rasterizing contiguous triangle ranges and
        concatenating their ordered streams equals
        :meth:`render`'s trace exactly -- the blocks are that stream,
        partitioned.  Peak memory is bounded by the chunk size (plus
        one triangle batch), never the frame.

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
        mipmaps, clipped, texture_ids, screen, ndc_z, inv_w, _ = \
            self._prepare(scene, timers)
        lo, hi = triangle_slice_bounds(clipped.n_triangles, triangle_slice)
        per_triangle = np.zeros(clipped.n_triangles, dtype=np.int64)
        if self.raster == "batched":
            chunks = self._batched_chunk_traces(
                mipmaps, clipped, texture_ids, screen, ndc_z, inv_w,
                scene.width, scene.height, chunk_size, per_triangle,
                lo, hi)
        else:
            chunks = self._reference_chunk_traces(
                mipmaps, clipped, texture_ids, screen, ndc_z, inv_w,
                scene.width, scene.height, per_triangle, lo, hi)
        accumulator = _BlockAccumulator(chunk_size)
        for trace, starts in chunks:
            accumulator.add(trace, starts)
            yield from accumulator.drain()
        yield from accumulator.drain(final=True)
        if totals is not None:
            sliced = per_triangle[lo:hi]
            totals.update(
                n_fragments=int(sliced.sum()),
                n_triangles_submitted=scene.mesh.n_triangles,
                n_triangles_rasterized=int((sliced > 0).sum()),
                per_triangle_fragments=per_triangle,
            )

    def _batched_chunk_traces(self, mipmaps, clipped, texture_ids,
                              screen, ndc_z, inv_w, width, height,
                              chunk_size, per_triangle, lo=0, hi=None):
        """Yield ``(chunk trace, fragment start indices)`` for
        contiguous submission-order triangle ranges, sized adaptively
        so each range generates roughly ``chunk_size`` accesses.
        ``[lo, hi)`` restricts the walk to a contiguous clipped-triangle
        slice (the pipelined streaming partition)."""
        uv = clipped.attrs[:, :, :2]
        level0 = np.array([mipmap.level_shape(0) for mipmap in mipmaps],
                          dtype=np.int64).reshape(-1, 2)
        m = clipped.n_triangles if hi is None else hi
        begin = lo
        # The first batch too is sized by the chunk: it can set the peak.
        guess = min(256, max(16, chunk_size // 1024))
        seen_triangles = 0
        seen_accesses = 0
        while begin < m:
            end = min(m, begin + guess)
            ids = texture_ids[begin:end]
            fragments = rasterize_triangles(
                screen[begin:end], ndc_z[begin:end], inv_w[begin:end],
                uv[begin:end],
                texel_w=level0[ids, 0], texel_h=level0[ids, 1],
                width=width, height=height, colors=None, with_z=False,
                with_derivatives=self.use_mipmaps and self.max_anisotropy > 1,
            )
            fragments = fragments.take(self.order.grouped_argsort(
                fragments.x, fragments.y, fragments.triangle,
                within_rowmajor=True))
            if self.lod_bias:
                fragments.lod = fragments.lod + self.lod_bias
            per_triangle[begin:end] += np.bincount(
                fragments.triangle, minlength=end - begin)
            frag_texture = ids[fragments.triangle]
            accesses = self._stream_accesses(fragments, frag_texture,
                                             mipmaps, level0)
            builder = TraceBuilder(record_positions=self.record_positions)
            builder.append_stream(
                frag_texture.astype(np.int16)[accesses.fragment_index],
                accesses, n_fragments=fragments.n_fragments,
                fragment_x=fragments.x, fragment_y=fragments.y)
            trace = builder.build()
            yield trace, _fragment_start_indices(accesses.fragment_index)
            seen_triangles += end - begin
            seen_accesses += trace.n_accesses
            per_triangle_accesses = max(1.0, seen_accesses / seen_triangles)
            guess = int(min(max(16, chunk_size / per_triangle_accesses),
                            1 << 16))
            begin = end

    def _reference_chunk_traces(self, mipmaps, clipped, texture_ids,
                                screen, ndc_z, inv_w, width, height,
                                per_triangle, lo=0, hi=None):
        """Per-triangle oracle twin of :meth:`_batched_chunk_traces`."""
        hi = clipped.n_triangles if hi is None else hi
        for index in range(lo, hi):
            texture_id = int(texture_ids[index])
            mipmap = mipmaps[texture_id]
            uv = clipped.attrs[index, :, :2]
            batch = rasterize_triangle(
                screen[index], ndc_z[index], inv_w[index], uv,
                texture_size=mipmap.level_shape(0),
                width=width, height=height, colors=None,
            )
            if batch is None or batch.n_fragments == 0:
                continue
            per_triangle[index] = batch.n_fragments
            batch = batch.reordered(self.order.argsort(batch.x, batch.y))
            if self.lod_bias:
                batch.lod = batch.lod + self.lod_bias
            accesses = self._triangle_accesses(batch, mipmap)
            builder = TraceBuilder(record_positions=self.record_positions)
            if self.record_positions:
                builder.append(texture_id, accesses, batch.n_fragments,
                               fragment_x=batch.x, fragment_y=batch.y)
            else:
                builder.append(texture_id, accesses, batch.n_fragments)
            yield builder.build(), _fragment_start_indices(
                accesses.fragment_index)


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


class _BlockAccumulator:
    """Re-chunks triangle-sized trace pieces into fixed-size
    :class:`FragmentBlock` chunks, cutting only at fragment boundaries.

    Pieces always end on a fragment boundary (fragments never span
    triangles), so every pending fragment is complete and the pending
    buffer never holds more than one emitted block plus one piece.
    """

    def __init__(self, chunk_size: int):
        self.chunk_size = chunk_size
        self.pending = None          # TexelTrace-shaped buffer
        self.starts = np.empty(0, dtype=np.int64)
        self.index = 0

    def add(self, trace: TexelTrace, starts: np.ndarray) -> None:
        if trace.n_accesses == 0:
            return
        if self.pending is None:
            self.pending = trace
            self.starts = starts
            return
        offset = self.pending.n_accesses
        merged = {}
        for column in ("texture_id", "level", "tu", "tv",
                       "tu_raw", "tv_raw", "kind", "x", "y"):
            left = getattr(self.pending, column)
            if left is None:
                merged[column] = None
            else:
                merged[column] = np.concatenate(
                    [left, getattr(trace, column)])
        self.pending = TexelTrace(
            n_fragments=self.pending.n_fragments + trace.n_fragments,
            **merged)
        self.starts = np.concatenate([self.starts, starts + offset])

    def drain(self, final: bool = False):
        while self.pending is not None:
            n = self.pending.n_accesses
            if n == 0:
                self.pending = None
                break
            if n < self.chunk_size and not final:
                break
            if n <= self.chunk_size:  # pieces end on fragment boundaries
                cut = n
            else:
                # Largest fragment boundary at or below the chunk size;
                # a single oversized fragment advances to the next
                # boundary (or the end) so progress is guaranteed.
                position = int(np.searchsorted(
                    self.starts, self.chunk_size, side="right")) - 1
                cut = int(self.starts[position])
                if cut == 0:
                    cut = int(self.starts[position + 1]) \
                        if position + 1 < len(self.starts) else n
            n_fragments = int(np.searchsorted(self.starts, cut, side="left"))
            piece = self.pending
            yield FragmentBlock(
                texture_id=piece.texture_id[:cut],
                level=piece.level[:cut],
                tu=piece.tu[:cut], tv=piece.tv[:cut],
                tu_raw=piece.tu_raw[:cut], tv_raw=piece.tv_raw[:cut],
                kind=piece.kind[:cut], n_fragments=n_fragments,
                x=None if piece.x is None else piece.x[:cut],
                y=None if piece.y is None else piece.y[:cut],
                index=self.index)
            self.index += 1
            if cut == n:
                self.pending = None
                self.starts = np.empty(0, dtype=np.int64)
            else:
                self.pending = TexelTrace(
                    texture_id=piece.texture_id[cut:],
                    level=piece.level[cut:],
                    tu=piece.tu[cut:], tv=piece.tv[cut:],
                    tu_raw=piece.tu_raw[cut:], tv_raw=piece.tv_raw[cut:],
                    kind=piece.kind[cut:],
                    n_fragments=piece.n_fragments - n_fragments,
                    x=None if piece.x is None else piece.x[cut:],
                    y=None if piece.y is None else piece.y[cut:])
                self.starts = self.starts[n_fragments:] - cut


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
