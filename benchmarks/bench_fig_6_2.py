"""Figure 6.2: effect of tiled rasterization on the working set.

Guitar scene, blocked 8x8 texture representation, 128-byte lines,
fully associative caches, sweeping screen tile sizes from tiny to huge
(the nontiled scan-line order is the limit in both directions).

Paper finding: medium tiles cut capacity misses at cache sizes that
previously did not fit the working set; tiny tiles converge to the
nontiled access pattern and huge tiles make the working set exceed the
cache again.  Goblet (small triangles) is shown as the
tile-insensitive contrast.
"""

from paperbench import emit, fa_curve, kb, scaled_cache

from repro.analysis import format_table, miss_rate_chart
from repro.engine import ExperimentSpec

PAPER_SIZES_KB = (2, 4, 8, 16, 32)
LINE = 128
LAYOUT = ("blocked", 8)
TILES = (None, 2, 4, 8, 16, 32, 64, 128)  # None = nontiled horizontal
SCENES = ("guitar", "goblet")


def order_spec(tile):
    return ("horizontal",) if tile is None else ("tiled", tile)


def cache_sizes(scale):
    return sorted({scaled_cache(1024 * k, scale) for k in PAPER_SIZES_KB})


def grids(scale):
    return [ExperimentSpec(
        scenes=SCENES, orders=tuple(order_spec(tile) for tile in TILES),
        layouts=(LAYOUT,), cache_sizes=cache_sizes(scale), line_sizes=(LINE,),
        scale=scale)]


def measure(bank):
    return [bank.engine.run(grid) for grid in grids(bank.scale)]


def test_fig_6_2(benchmark, bank):
    results = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    sizes = cache_sizes(bank.scale)
    curves = {(scene, tile): fa_curve(results, scene=scene,
                                      order=order_spec(tile))
              for scene in SCENES for tile in TILES}

    sections = []
    for scene in SCENES:
        rows = []
        for tile in TILES:
            name = "nontiled" if tile is None else f"{tile}x{tile}"
            rows.append([name] + [
                f"{100 * r:.2f}%" for r in curves[(scene, tile)].miss_rates])
        sections.append(format_table(
            ["tile"] + [kb(s) for s in sizes], rows,
            title=f"{scene}, blocked 8x8, {LINE}B lines, fully associative:",
        ))
    text = "\n\n".join(sections)
    text += "\n\n" + miss_rate_chart(
        {("nontiled" if t is None else f"{t}x{t}"): curves[("guitar", t)]
         for t in (None, 8, 128)},
        title="Figure 6.2 shape (guitar): nontiled vs medium vs huge tiles")
    text += ("\n\nPaper: medium tiles shrink the Guitar working set; very "
             "small and very large tiles converge to nontiled; Goblet "
             "(small triangles) is unaffected by tile size.")
    emit("fig_6_2", text)

    # Guitar: some medium tile clearly beats nontiled at a
    # sub-working-set cache size; huge tiles drift back up.
    for size_index in (1,):
        nontiled = curves[("guitar", None)].miss_rates[size_index]
        best_medium = min(curves[("guitar", t)].miss_rates[size_index]
                          for t in (4, 8, 16))
        huge = curves[("guitar", 128)].miss_rates[size_index]
        assert best_medium < 0.75 * nontiled
        assert huge > best_medium
    # Goblet: spread across tile sizes stays small.
    for size_index in range(len(sizes)):
        values = [curves[("goblet", t)].miss_rates[size_index] for t in TILES]
        assert max(values) < 1.4 * min(values) + 1e-9
