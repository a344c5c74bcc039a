"""Shared infrastructure for the paper-reproduction benchmarks.

Every file in this directory regenerates one of the paper's tables or
figures.  Rendering a scene is expensive, so all pipeline stages are
obtained through :mod:`repro.engine`: the process builds each scene
and placement once, a session-wide :class:`Engine` memoizes renders
in memory, and the content-addressed
:class:`~repro.engine.ArtifactStore` (default
``benchmarks/.cache/``, relocatable via ``REPRO_CACHE_DIR``) persists
rendered traces, byte-address streams and stack-distance profiles on
disk -- so a warm pytest-benchmark session performs **zero** renders
and reproduces bit-identical numbers.

The LRU tables and figures (Figures 5.2-6.4, Table 7.1 and the order,
Williams, mip-map and anisotropy ablations) declare their grids as
:class:`~repro.engine.ExperimentSpec` objects -- each bench's
``grids(scale)``, which its ``measure`` runs and
``tests/golden/figures.json`` pins -- and read every number from the
rows of :meth:`Engine.run <repro.engine.Engine.run>`, the path the
golden pins and ``benchmarks/e2e`` check.  A warm run of the
figure and table benches reads stored profiles only: it builds no
scene and loads no address stream.  :func:`cell_stats` and
:func:`fa_curve` look rows up across a bench's specs.  The per-access
studies (hierarchy, victim, replacement, prefetch, DRAM, ...) take
traces and placements from :class:`SceneBank` and map each trace
through the placements themselves, so they store no address stream.

Scale: ``REPRO_SCALE`` (default 0.25) scales the scenes as described in
DESIGN.md; cache sizes quoted from the paper are scaled linearly with
the same factor (working sets scale with the scan-line texel span), so
"32 KB" at scale 0.25 is benchmarked as 8 KB.  Every harness prints the
paper's published numbers next to the measured ones and writes the
table to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core import CacheStats, MissRateCurve
from repro.engine import (
    ArtifactStore,
    Engine,
    TraceSpec,
    layout_from_spec,
    order_from_spec,
    paper_order_spec,
    scene_data,
    scene_placements,
)

#: Reproduction scale (1.0 = the paper's resolutions).
SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def scaled_cache(paper_bytes: int, scale: float = SCALE) -> int:
    """Scale a paper cache size to ``scale``, rounding to a power of two.

    Working sets scale roughly linearly with the reproduction scale
    (scan-line texel span x line size), so cache capacities quoted from
    the paper are scaled by the same factor.
    """
    target = max(paper_bytes * scale, 512)
    exponent = int(round(np.log2(target)))
    return 1 << exponent


def kb(nbytes: int) -> str:
    """Format a byte count the way the paper labels cache sizes."""
    if nbytes >= 1024:
        return f"{nbytes // 1024}KB"
    return f"{nbytes}B"


class SceneBank:
    """Session-wide access to scenes, traces and placements.

    A thin adapter over :mod:`repro.engine` kept for the harnesses'
    vocabulary: methods take (scene name, order spec, layout spec)
    tuples plus optional renderer keyword arguments
    (``time``, ``max_anisotropy``, ``lod_bias``, ``use_mipmaps``,
    ``record_positions``), and every artifact round-trips through the
    shared on-disk store.
    """

    def __init__(self, scale: float = SCALE, store: ArtifactStore = None):
        self.scale = scale
        self.engine = Engine(store=store)

    def _spec(self, name: str, order_spec: tuple, **options) -> TraceSpec:
        return TraceSpec(scene=name, scale=self.scale, order=order_spec,
                         **options)

    def scene(self, name: str):
        return scene_data(name, self.scale)

    def paper_order_spec(self, name: str) -> tuple:
        """The rasterization direction the paper reports for a scene."""
        return paper_order_spec(name)

    def render(self, name: str, order_spec: tuple, **options):
        """RenderResult for (scene, order [, renderer options]), cached."""
        return self.engine.render(self._spec(name, order_spec, **options))

    def trace(self, name: str, order_spec: tuple, **options):
        return self.render(name, order_spec, **options).trace

    def placements(self, name: str, layout_spec: tuple):
        return scene_placements(name, self.scale, layout_spec)


def _select(results, **criteria) -> list:
    """The rows of every :class:`~repro.engine.ExperimentResult` in
    ``results`` that match ``criteria`` (as in
    :meth:`~repro.engine.ExperimentResult.select`)."""
    return [row for result in results for row in result.select(**criteria)]


def cell_stats(results, **criteria) -> CacheStats:
    """The stats of the one grid cell matching ``criteria`` (a cache
    size listed twice yields equal rows)."""
    rows = _select(results, **criteria)
    if not rows or any(row != rows[0] for row in rows):
        raise LookupError(f"{len(rows)} different rows match {criteria}")
    return rows[0].stats


def fa_curve(results, **criteria) -> MissRateCurve:
    """The fully-associative :class:`MissRateCurve` of the rows
    matching ``criteria``: one trace, layout and line size, by cache
    size."""
    rows = sorted(_select(results, assoc=None, **criteria),
                  key=lambda row: row.config.size)
    if len({(row.scene, row.order, row.layout, row.config.line_size)
            for row in rows}) != 1:
        raise LookupError(f"{criteria} do not select one curve")
    first = rows[0].stats
    total = first.accesses
    misses = np.array([row.stats.misses for row in rows], dtype=np.int64)
    return MissRateCurve(
        line_size=first.config.line_size,
        sizes=np.array([row.config.size for row in rows], dtype=np.int64),
        miss_rates=misses / total if total else np.zeros(len(rows)),
        cold_miss_rate=first.cold_misses / total if total else 0.0,
        total_accesses=total,
        miss_counts=misses,
        cold_misses=first.cold_misses,
    )


def emit(experiment: str, text: str) -> None:
    """Print a harness's output and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n=== {experiment} (scale={SCALE}) ===\n"
    print(banner + text)
    path = RESULTS_DIR / f"{experiment}.txt"
    path.write_text(banner + text + "\n")


__all__ = [
    "SCALE",
    "RESULTS_DIR",
    "SceneBank",
    "cell_stats",
    "emit",
    "fa_curve",
    "kb",
    "layout_from_spec",
    "order_from_spec",
    "scaled_cache",
]
