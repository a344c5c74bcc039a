"""Figure 6.4: tiled rasterization, padding and 6D blocking versus
conflict misses.

(a) Town, rasterized column-major within and between 8x8 tiles, and
(b) Flight with 8x8 tiles -- comparing the plain blocked representation
against padded (4 pad blocks per block row) and 6D-blocked (superblock
= cache size) layouts, plus the nontiled baseline.  8x8 texel blocks,
128-byte lines, two-way set-associative caches, conflict misses
decomposed with the 3C model.

Paper findings: tiling alone shrinks Town's conflict rate; Flight's
large textures need padding or 6D blocking on top of tiling because a
row of blocks spans a multiple of the cache size.
"""

from paperbench import cell_stats, emit, kb, scaled_cache

from repro.analysis import format_table
from repro.core import classify_counts
from repro.engine import ExperimentSpec, paper_order_spec

PAPER_SIZES_KB = (4, 8, 16, 32)
LINE = 128

#: Tiled orders; the nontiled baseline is each scene's paper order
#: (Town vertical, Flight horizontal).
SCENES = {
    "town": ("tiled", 8, "col", "col"),
    "flight": ("tiled", 8),
}


def layout_specs(cache_bytes):
    return [
        ("blocked", ("blocked", 8)),
        ("padded", ("padded", 8, 4)),
        ("6d", ("blocked6d", 8, cache_bytes)),
    ]


def cache_sizes(scale):
    return [scaled_cache(1024 * k, scale) for k in PAPER_SIZES_KB]


def grids(scale):
    # Every 2-way cell comes with the fully-associative cell of the
    # same size, the 3C split's reference.
    def grid(scenes, order, layouts, sizes):
        return ExperimentSpec(
            scenes=scenes, orders=(order,), layouts=tuple(layouts),
            cache_sizes=tuple(sizes), line_sizes=(LINE,), assocs=(2, None),
            scale=scale)

    sizes = cache_sizes(scale)
    specs = [grid(tuple(SCENES), "paper", [("blocked", 8)], sizes)]
    # The 6D superblock is the cache size: one tiled grid per size.
    for scene, tiled_order in SCENES.items():
        for size in sizes:
            specs.append(grid((scene,), tiled_order,
                              [layout for _, layout in layout_specs(size)],
                              [size]))
    return specs


def measure(bank):
    return [bank.engine.run(grid) for grid in grids(bank.scale)]


def three_c(results, **criteria):
    """The 3C split of the 2-way cell matching ``criteria``."""
    two_way = cell_stats(results, assoc=2, **criteria)
    full = cell_stats(results, assoc=None, **criteria)
    return classify_counts(two_way.config, two_way.accesses, two_way.misses,
                           two_way.cold_misses, full.misses)


def test_fig_6_4(benchmark, bank):
    runs = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    sizes = cache_sizes(bank.scale)
    results = {}
    for scene, tiled_order in SCENES.items():
        for size in sizes:
            for label, layout in layout_specs(size):
                results[(scene, size, label)] = three_c(
                    runs, scene=scene, order=tiled_order, layout=layout,
                    cache_size=size)
            results[(scene, size, "nontiled blocked")] = three_c(
                runs, scene=scene, order=paper_order_spec(scene),
                layout=("blocked", 8), cache_size=size)

    sections = []
    variants = ["nontiled blocked", "blocked", "padded", "6d"]
    for scene in SCENES:
        rows = []
        for size in sizes:
            for variant in variants:
                stats = results[(scene, size, variant)]
                rows.append([
                    kb(size), variant, f"{100 * stats.miss_rate:.3f}%",
                    f"{100 * stats.conflict_misses / stats.accesses:.3f}%",
                ])
        sections.append(format_table(
            ["cache", "variant", "miss rate", "conflict rate"], rows,
            title=f"{scene}, 8x8 blocks, {LINE}B lines, 2-way:",
        ))
    text = "\n\n".join(sections)
    text += ("\n\nPaper: tiling reduces same-array block conflicts (Town); "
             "for Flight's large textures, padding or 6D blocking is also "
             "needed.")
    emit("fig_6_4", text)

    def conflict_rate(scene, size, variant):
        stats = results[(scene, size, variant)]
        return stats.conflict_misses / stats.accesses

    # Tiling reduces Town's conflicts vs nontiled-vertical at some size.
    town_gains = [conflict_rate("town", size, "nontiled blocked")
                  - conflict_rate("town", size, "blocked")
                  for size in sizes]
    assert max(town_gains) > 0
    # Padding and 6D blocking help Flight beyond tiling alone.
    flight_blocked = sum(conflict_rate("flight", s, "blocked") for s in sizes)
    flight_padded = sum(conflict_rate("flight", s, "padded") for s in sizes)
    flight_6d = sum(conflict_rate("flight", s, "6d") for s in sizes)
    assert flight_padded < flight_blocked
    assert flight_6d < flight_blocked
