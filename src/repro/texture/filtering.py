"""Texture filtering: trilinear / bilinear sample generation.

The paper's fragment generator performs OpenGL-style filtering
(Section 2): given per-fragment texture coordinates ``(u, v)`` and a
screen-pixel-to-texel ratio ``d`` (here expressed as ``lod = log2(d)``),

* ``lod > 0`` -- *trilinear* interpolation: the weighted average of the
  eight texels closest to ``(u, v, d)``, four from each of the two mip
  levels bracketing ``d``;
* ``lod <= 0`` (magnification) -- *bilinear* interpolation: four texels
  from level 0.

:func:`generate_accesses` produces the exact texel access stream
(the cache-simulator input); :func:`filter_colors` performs the actual
color arithmetic for image output.  Access order within a fragment is
the paper's: the four lower-level (more detailed) texels first, then
the four upper-level texels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Access-kind codes recorded per texel fetch, used by the Section 3.1.2
#: locality metrics (accesses per texel for lower / upper / bilinear).
KIND_BILINEAR = 0
KIND_LOWER = 1
KIND_UPPER = 2

KIND_NAMES = {KIND_BILINEAR: "bilinear", KIND_LOWER: "lower", KIND_UPPER: "upper"}


@dataclass
class TexelAccesses:
    """A flat, ordered stream of texel fetches for one batch of
    fragments.  All arrays share length ``n_accesses``.

    ``tu``/``tv`` are wrapped into the level's range (GL_REPEAT);
    ``tu_raw``/``tv_raw`` are pre-wrap coordinates, kept so the texture
    repetition factor (Section 3.1.2) can be measured.
    """

    level: np.ndarray
    tu: np.ndarray
    tv: np.ndarray
    tu_raw: np.ndarray
    tv_raw: np.ndarray
    kind: np.ndarray
    fragment_index: np.ndarray

    @property
    def n_accesses(self) -> int:
        return len(self.level)


def _level_dims(width0, height0, levels: np.ndarray) -> tuple:
    """Per-fragment level dimensions, clamped at 1.

    ``width0``/``height0`` may be scalars (one texture) or per-fragment
    arrays (a multi-texture fragment stream); the arithmetic is
    elementwise either way.
    """
    widths = np.maximum(width0 >> levels, 1)
    heights = np.maximum(height0 >> levels, 1)
    return widths, heights


def _wrap(raw, dims):
    """GL_REPEAT wrap: power-of-two dims allow a mask."""
    return raw & (dims - 1)


def generate_accesses(
    u: np.ndarray,
    v: np.ndarray,
    lod: np.ndarray,
    n_levels: int,
    width0: int,
    height0: int,
) -> TexelAccesses:
    """Generate the texel fetch stream for fragments in order.

    Parameters
    ----------
    u, v:
        Normalized texture coordinates (may exceed [0, 1): GL_REPEAT).
    lod:
        Per-fragment level of detail, ``log2`` of the screen-pixel to
        texel ratio.
    n_levels, width0, height0:
        Pyramid geometry of the texture being sampled: scalars for a
        single texture, or per-fragment arrays for a mixed-texture
        fragment stream (the batched renderer).  Every computation is
        elementwise, so the two spellings produce bit-identical
        accesses fragment by fragment.

    Returns
    -------
    TexelAccesses
        Eight accesses per trilinear fragment (lower level first), four
        per magnified (bilinear) fragment, concatenated in fragment
        order.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    lod = np.asarray(lod, dtype=np.float64)
    n = len(u)
    max_level = n_levels - 1

    trilinear = lod > 0.0
    lower = np.clip(np.floor(lod), 0, max_level).astype(np.int64)
    lower = np.where(trilinear, lower, 0)
    upper = np.minimum(lower + 1, max_level)

    lo_w, lo_h = _level_dims(width0, height0, lower)
    hi_w, hi_h = _level_dims(width0, height0, upper)

    if trilinear.all():
        # Every fragment emits all eight accesses: assemble (n, 8)
        # tables -- lower-level quad then upper-level quad -- by direct
        # column writes in the *output* dtypes, so the flatten is a
        # zero-copy reshape.  Keeping the tables at output width
        # (int32/int16/uint8 rather than int64) halves the pages the
        # kernel touches; the int64 -> int32 assignment casts truncate
        # exactly like the reference's later ``astype`` did.
        tu_raw = np.empty((n, 8), dtype=np.int32)
        tv_raw = np.empty((n, 8), dtype=np.int32)
        tu_wrapped = np.empty((n, 8), dtype=np.int32)
        tv_wrapped = np.empty((n, 8), dtype=np.int32)
        level8 = np.empty((n, 8), dtype=np.int16)
        for base, widths, heights, levels in ((0, lo_w, lo_h, lower),
                                              (4, hi_w, hi_h, upper)):
            i0 = np.floor(u * widths - 0.5).astype(np.int64)
            j0 = np.floor(v * heights - 0.5).astype(np.int64)
            i1 = i0 + 1
            j1 = j0 + 1
            quad = slice(base, base + 4)
            tu_raw[:, base] = i0
            tu_raw[:, base + 1] = i1
            tu_raw[:, base + 2] = i0
            tu_raw[:, base + 3] = i1
            tv_raw[:, base] = j0
            tv_raw[:, base + 1] = j0
            tv_raw[:, base + 2] = j1
            tv_raw[:, base + 3] = j1
            # Power-of-two wrap commutes with the int32 truncation:
            # the mask is < 2**31, so (x & mask) keeps only low bits
            # either way.
            tu_wrapped[:, quad] = (tu_raw[:, quad]
                                   & (widths - 1).astype(np.int32)[:, None])
            tv_wrapped[:, quad] = (tv_raw[:, quad]
                                   & (heights - 1).astype(np.int32)[:, None])
            level8[:, quad] = levels[:, None]
        kind8 = np.empty((n, 8), dtype=np.uint8)
        kind8[:, :4] = KIND_LOWER
        kind8[:, 4:] = KIND_UPPER
        return TexelAccesses(
            level=level8.reshape(-1),
            tu=tu_wrapped.reshape(-1),
            tv=tv_wrapped.reshape(-1),
            tu_raw=tu_raw.reshape(-1),
            tv_raw=tv_raw.reshape(-1),
            kind=kind8.reshape(-1),
            fragment_index=np.repeat(np.arange(n, dtype=np.int64), 8),
        )

    # Mixed trilinear/bilinear: magnified fragments emit only the lower
    # quad.  Rather than assembling dense (n, 8) tables and gathering
    # the sparse subset, treat the output as a sequence of emitted
    # *quads* -- each fragment contributes its lower quad and, when
    # trilinear, its upper quad, so every column is a per-quad value
    # (from interleaved (lower, upper) per-fragment pair tables)
    # expanded four ways, plus fixed 4-periodic slot bits advancing
    # i and j.  All per-access arithmetic runs at the output width
    # (int32): the int64 -> int32 assignment into the pair tables
    # truncates exactly like the reference's ``astype``,
    # two's-complement ``+ 1`` commutes with that truncation, and the
    # power-of-two wrap mask (< 2**31) keeps only low bits either way.
    i0_lo = np.floor(u * lo_w - 0.5).astype(np.int64)
    j0_lo = np.floor(v * lo_h - 0.5).astype(np.int64)
    i0_hi = np.floor(u * hi_w - 0.5).astype(np.int64)
    j0_hi = np.floor(v * hi_h - 0.5).astype(np.int64)

    def pairs(lo_values, hi_values, dtype=np.int32):
        table = np.empty((n, 2), dtype=dtype)
        table[:, 0] = lo_values
        table[:, 1] = hi_values
        return table.ravel()

    # Emission always covers whole quads, so every per-access column is
    # a per-quad value expanded four ways (plus the fixed 4-periodic
    # slot bits for i/j).  Selecting emitted quads first keeps the
    # gathers at quad granularity -- a quarter of the access count.
    # ``qidx`` stays at the platform intp width: it indexes six
    # gathers, and numpy re-casts narrower fancy indices on every one.
    qemit = np.empty((n, 2), dtype=bool)
    qemit[:, 0] = True
    qemit[:, 1] = trilinear
    qidx = np.flatnonzero(qemit.ravel())

    def quad(values):
        # Expand a per-quad column to its four accesses.
        return np.repeat(values, 4)

    # Broadcast the slot bits against per-quad (nq, 1) columns: each
    # output is one fused pass over an (nq, 4) block whose C-order
    # ravel is already the flat access stream (a free view), instead
    # of separate repeat + tile + op passes over the full stream.
    bits_i = np.array([0, 1, 0, 1], dtype=np.int32)
    bits_j = np.array([0, 0, 1, 1], dtype=np.int32)
    tu_raw = pairs(i0_lo, i0_hi)[qidx][:, None] + bits_i
    tv_raw = pairs(j0_lo, j0_hi)[qidx][:, None] + bits_j
    return TexelAccesses(
        level=quad(pairs(lower, upper, dtype=np.int16)[qidx]),
        tu=(tu_raw & pairs(lo_w - 1, hi_w - 1)[qidx][:, None]).reshape(-1),
        tv=(tv_raw & pairs(lo_h - 1, hi_h - 1)[qidx][:, None]).reshape(-1),
        tu_raw=tu_raw.reshape(-1),
        tv_raw=tv_raw.reshape(-1),
        kind=quad(pairs(np.where(trilinear, KIND_LOWER, KIND_BILINEAR),
                        KIND_UPPER, dtype=np.uint8)[qidx]),
        fragment_index=quad(qidx >> 1),
    )


def generate_accesses_aniso(
    u: np.ndarray,
    v: np.ndarray,
    dudx: np.ndarray,
    dvdx: np.ndarray,
    dudy: np.ndarray,
    dvdy: np.ndarray,
    n_levels: int,
    width0: int,
    height0: int,
    max_aniso: int = 4,
) -> TexelAccesses:
    """Anisotropic filtering access generation (GPU-style extension).

    The paper's trilinear filter assumes a roughly square pixel
    footprint in texture space; at grazing angles (the Flight terrain)
    the footprint is a long ellipse and trilinear either blurs (lod
    from the major axis) or aliases.  Anisotropic filtering takes up to
    ``max_aniso`` trilinear probes spaced along the major axis, each at
    the *minor*-axis level of detail -- multiplying texture traffic by
    the probe count, which is exactly the cache-pressure question this
    library exists to answer.

    Derivatives are in texel units (as produced by the rasterizer).
    Returns the concatenated probe accesses in fragment order;
    ``fragment_index`` maps each access back to its source fragment.
    Like :func:`generate_accesses`, the pyramid geometry arguments may
    be scalars or per-fragment arrays.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    probes, lod, step_u, step_v = _aniso_setup(
        dudx, dvdx, dudy, dvdy, width0, height0, max_aniso)

    # One flat probe index: probe j of fragment i sits at position
    # starts[i] + j, so the output is already in (fragment, probe)
    # order -- no per-count loop, no stitch sort.
    n = len(u)
    owner = np.repeat(np.arange(n, dtype=np.int64), probes)
    starts = np.cumsum(probes) - probes
    j = np.arange(len(owner), dtype=np.int64) - starts[owner]
    count = probes[owner]
    offsets = (j + 0.5) / count - 0.5
    accesses = generate_accesses(
        u[owner] + offsets * step_u[owner],
        v[owner] + offsets * step_v[owner],
        lod[owner],
        _per_probe(n_levels, owner),
        _per_probe(width0, owner),
        _per_probe(height0, owner),
    )
    accesses.fragment_index = owner[accesses.fragment_index]
    return accesses


def _aniso_setup(dudx, dvdx, dudy, dvdy, width0, height0, max_aniso):
    """Probe count, probe lod and major-axis step per fragment."""
    rho_x = np.hypot(np.asarray(dudx, float), np.asarray(dvdx, float))
    rho_y = np.hypot(np.asarray(dudy, float), np.asarray(dvdy, float))
    rho_max = np.maximum(np.maximum(rho_x, rho_y), 1e-12)
    rho_min = np.maximum(np.minimum(rho_x, rho_y), 1e-12)
    probes = np.clip(np.ceil(rho_max / rho_min), 1, max_aniso).astype(np.int64)
    lod = np.log2(np.maximum(rho_max / probes, 1e-12))

    # Major-axis step vector in normalized uv units.
    x_major = rho_x >= rho_y
    step_u = np.where(x_major, np.asarray(dudx, float), np.asarray(dudy, float)) / width0
    step_v = np.where(x_major, np.asarray(dvdx, float), np.asarray(dvdy, float)) / height0
    return probes, lod, step_u, step_v


def _per_probe(value, owner):
    """Broadcast a scalar through, gather an array by probe owner."""
    array = np.asarray(value)
    return array if array.ndim == 0 else array[owner]


def _generate_accesses_aniso_looped(
    u, v, dudx, dvdx, dudy, dvdy, n_levels, width0, height0, max_aniso=4
) -> TexelAccesses:
    """The original per-(probe count, offset) loop over masked subsets,
    kept (scalar geometry only) as the equivalence oracle for the flat
    probe index in :func:`generate_accesses_aniso`."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    probes, lod, step_u, step_v = _aniso_setup(
        dudx, dvdx, dudy, dvdy, width0, height0, max_aniso)

    pieces = []
    for count in np.unique(probes):
        mask = probes == count
        offsets = (np.arange(count) + 0.5) / count - 0.5
        for offset in offsets:
            accesses = generate_accesses(
                u[mask] + offset * step_u[mask],
                v[mask] + offset * step_v[mask],
                lod[mask], n_levels, width0, height0,
            )
            owners = np.nonzero(mask)[0]
            pieces.append((owners[accesses.fragment_index], accesses))

    if not pieces:
        return generate_accesses(u, v, lod, n_levels, width0, height0)

    # Stitch the probe pieces back into fragment order.
    owner = np.concatenate([owners for owners, _ in pieces])
    order = np.argsort(owner, kind="stable")
    def gather(field):
        return np.concatenate([getattr(acc, field) for _, acc in pieces])[order]
    return TexelAccesses(
        level=gather("level"),
        tu=gather("tu"),
        tv=gather("tv"),
        tu_raw=gather("tu_raw"),
        tv_raw=gather("tv_raw"),
        kind=gather("kind"),
        fragment_index=owner[order],
    )


def _bilinear_colors(mipmap, levels, u, v):
    """Per-fragment bilinear color at per-fragment ``levels``."""
    n = len(u)
    colors = np.zeros((n, 4), dtype=np.float64)
    widths, heights = _level_dims(mipmap.level_shape(0)[0], mipmap.level_shape(0)[1], levels)
    x = u * widths - 0.5
    y = v * heights - 0.5
    i0 = np.floor(x).astype(np.int64)
    j0 = np.floor(y).astype(np.int64)
    fx = x - i0
    fy = y - j0
    weights = [
        (1 - fx) * (1 - fy),
        fx * (1 - fy),
        (1 - fx) * fy,
        fx * fy,
    ]
    corners = [(i0, j0), (i0 + 1, j0), (i0, j0 + 1), (i0 + 1, j0 + 1)]
    for level in np.unique(levels):
        mask = levels == level
        for (ci, cj), weight in zip(corners, weights):
            tu = _wrap(ci[mask], widths[mask])
            tv = _wrap(cj[mask], heights[mask])
            colors[mask] += weight[mask, None] * mipmap.sample(int(level), tu, tv)
    return colors


def filter_colors(mipmap, u, v, lod) -> np.ndarray:
    """Trilinear/bilinear filtered RGBA colors, shape ``(n, 4)`` float
    in [0, 255].  Matches the access pattern of
    :func:`generate_accesses`."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    lod = np.asarray(lod, dtype=np.float64)
    max_level = mipmap.max_level

    trilinear = lod > 0.0
    lower = np.clip(np.floor(lod), 0, max_level).astype(np.int64)
    lower = np.where(trilinear, lower, 0)
    upper = np.minimum(lower + 1, max_level)
    frac = np.where(trilinear, np.clip(lod - lower, 0.0, 1.0), 0.0)

    lower_color = _bilinear_colors(mipmap, lower, u, v)
    upper_color = _bilinear_colors(mipmap, upper, u, v)
    return lower_color * (1 - frac[:, None]) + upper_color * frac[:, None]
