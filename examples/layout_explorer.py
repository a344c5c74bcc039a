#!/usr/bin/env python
"""Compare texture memory representations on one scene.

Renders the Town benchmark with the paper's worst-case vertical
rasterization and pits all five memory representations (Williams,
nonblocked, blocked, padded, 6D-blocked) against each other across
cache sizes -- the Section 5 study in one script.

The curves are one :meth:`Engine.run <repro.engine.Engine.run>` grid,
so the render, every byte-address stream and every profile land in the
content-addressed artifact store (``benchmarks/.cache/`` or
``$REPRO_CACHE_DIR``): a second run of this script performs zero
renders.

Run:  python examples/layout_explorer.py [scene] [scale]
"""

import sys

from repro.analysis import format_table
from repro.engine import Engine, ExperimentSpec, TraceSpec, scene_data

LAYOUTS = [
    ("williams",),
    ("nonblocked",),
    ("blocked", 4),
    ("padded", 4, 4),
    ("blocked6d", 4, 8192),
]


def main() -> None:
    scene_name = sys.argv[1] if len(sys.argv) > 1 else "town"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25

    engine = Engine()
    spec = TraceSpec(scene=scene_name, scale=scale, order=("vertical",))
    scene = scene_data(scene_name, scale)
    result = engine.render(spec)
    print(f"{scene_name} at {scene.width}x{scene.height}, vertical "
          f"rasterization: {result.n_accesses:,} texel fetches")

    line_size = 64
    cache_sizes = [1024, 2048, 4096, 8192, 16384, 32768]
    grid = engine.run(ExperimentSpec(
        scenes=(scene_name,), orders=(spec.order,), layouts=tuple(LAYOUTS),
        cache_sizes=tuple(cache_sizes), line_sizes=(line_size,),
        scale=scale))
    rows = [[layout_spec[0]] + [f"{100 * row.stats.miss_rate:.2f}%"
                                for row in grid.select(layout=layout_spec)]
            for layout_spec in LAYOUTS]

    headers = ["layout"] + [f"{s // 1024}KB" for s in cache_sizes]
    print(format_table(headers, rows,
                       title=f"\nMiss rates, fully associative, {line_size}B lines"))
    print("\nNote: Williams' representation needs three accesses per "
          "texel, so equal miss rates still mean 3x the traffic.")


if __name__ == "__main__":
    main()
