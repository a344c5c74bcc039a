"""Trace locality metrics (paper Sections 3.1.2 and 5.2.3).

The paper quantifies three forms of locality before studying caches:

* **accesses per texel** for trilinear lower level, trilinear upper
  level and bilinear filtering (measured 4, 14 and 18 respectively) --
  overlap between the filter footprints of neighboring fragments;
* **texture repetition** (Town 2.9x, Guitar 1.7x, Goblet 1.1x,
  Flight 1.0x) -- temporal locality from textures repeated across
  surfaces, measured here by comparing pre-wrap and post-wrap distinct
  texel counts;
* **same-texture runlengths** (hundreds of thousands of consecutive
  accesses) -- evidence the working set holds one texture at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pipeline.trace import KIND_BILINEAR, KIND_LOWER, KIND_UPPER, TexelTrace


def _distinct(keys: np.ndarray) -> int:
    return len(np.unique(keys)) if len(keys) else 0


def _texel_keys(texture_id, level, tu, tv) -> np.ndarray:
    """Pack (texture, level, tv, tu) into sortable int64 keys.

    Raw coordinates can be negative (pre-wrap floor at u < 0.5 texel),
    so coordinates are offset into a non-negative range first.
    """
    tu = tu.astype(np.int64) + (1 << 19)
    tv = tv.astype(np.int64) + (1 << 19)
    return (
        ((texture_id.astype(np.int64) * 64 + level) << 42)
        | (tv << 21)
        | tu
    )


@dataclass
class AccessesPerTexel:
    """Average accesses per distinct texel, by access kind."""

    lower: float
    upper: float
    bilinear: float


def accesses_per_texel(trace: TexelTrace, window: int = 8192) -> AccessesPerTexel:
    """Section 3.1.2's overlap metric.

    The paper measures "the average number of accesses per texel made
    by a *spatially contiguous group of fragments*": reuse between
    neighboring filter footprints, not reuse from a texture recurring
    elsewhere in the scene.  Spatially contiguous fragments are
    temporally contiguous in the access stream, so we evaluate the
    accesses/distinct-texels ratio inside windows of ``window``
    consecutive accesses (~1K fragments) and average them weighted by
    access count.  ``window=None`` computes the global ratio instead
    (which folds texture repetition in).

    The paper expects ~4 for the trilinear lower level, ~16 for the
    upper level, and scene-dependent values (~18) for bilinear
    magnification.
    """
    results = {}
    for kind, name in ((KIND_LOWER, "lower"), (KIND_UPPER, "upper"),
                       (KIND_BILINEAR, "bilinear")):
        mask = trace.kind == kind
        total = int(mask.sum())
        if total == 0:
            results[name] = 0.0
            continue
        keys = _texel_keys(
            trace.texture_id[mask], trace.level[mask],
            trace.tu[mask], trace.tv[mask],
        )
        if window is None:
            results[name] = total / _distinct(keys)
            continue
        distinct_total = 0
        for start in range(0, total, window):
            distinct_total += _distinct(keys[start:start + window])
        results[name] = total / distinct_total
    return AccessesPerTexel(**results)


def repetition_factor(trace: TexelTrace) -> float:
    """Section 3.1.2's texture repetition metric.

    The ratio of distinct *pre-wrap* texel coordinates to distinct
    *post-wrap* coordinates: a texture repeated three times across a
    surface touches three times as many raw coordinates as wrapped
    ones.  1.0 means no repetition.
    """
    if trace.n_accesses == 0:
        return 1.0
    wrapped = _distinct(_texel_keys(trace.texture_id, trace.level, trace.tu, trace.tv))
    raw = _distinct(_texel_keys(trace.texture_id, trace.level, trace.tu_raw, trace.tv_raw))
    return raw / wrapped if wrapped else 1.0


def texture_runlengths(trace: TexelTrace) -> np.ndarray:
    """Lengths of maximal runs of consecutive same-texture accesses."""
    if trace.n_accesses == 0:
        return np.empty(0, dtype=np.int64)
    ids = trace.texture_id
    boundaries = np.nonzero(ids[1:] != ids[:-1])[0] + 1
    edges = np.concatenate([[0], boundaries, [len(ids)]])
    return np.diff(edges)


def mean_texture_runlength(trace: TexelTrace) -> float:
    """Average same-texture runlength (paper Section 5.2.3: 223 K-562 K
    for the multi-texture scenes at full scale)."""
    runs = texture_runlengths(trace)
    return float(runs.mean()) if len(runs) else 0.0


def level_histogram(trace: TexelTrace) -> np.ndarray:
    """Access counts per mip level (shows level-of-detail spread)."""
    if trace.n_accesses == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(trace.level.astype(np.int64))
