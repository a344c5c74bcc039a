"""Ablation: Williams' original Mip Map arrangement (Section 5.1).

The paper dismisses Williams' representation qualitatively: separated
color components conflict in the cache (power-of-two strides), spatial
locality across components is wasted, and each texel needs three
accesses.  This harness quantifies those claims against the base
nonblocked representation on the Town scene.
"""

from paperbench import cell_stats, emit, fa_curve, kb, scaled_cache

from repro.analysis import format_table
from repro.engine import ExperimentSpec

PAPER_SIZES_KB = (2, 8, 32)
LINE = 32
ORDER = ("vertical",)
SCENE = "town"
LAYOUTS = {"nonblocked": ("nonblocked",), "williams": ("williams",)}


def cache_sizes(scale):
    return [scaled_cache(1024 * k, scale) for k in PAPER_SIZES_KB]


def grids(scale):
    return [ExperimentSpec(
        scenes=(SCENE,), orders=(ORDER,), layouts=tuple(LAYOUTS.values()),
        cache_sizes=cache_sizes(scale), line_sizes=(LINE,), assocs=(None, 1),
        scale=scale)]


def measure(bank):
    return [bank.engine.run(grid) for grid in grids(bank.scale)]


def test_ablation_williams(benchmark, bank):
    results = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    sizes = cache_sizes(bank.scale)
    out = {}
    for label, layout in LAYOUTS.items():
        curve = fa_curve(results, layout=layout)
        out[label] = {
            "fa": curve.miss_rates,
            "direct": [cell_stats(results, layout=layout, cache_size=size,
                                  assoc=1).miss_rate
                       for size in sizes],
            "accesses": curve.total_accesses,
        }

    rows = []
    for label, data in out.items():
        for index, size in enumerate(sizes):
            # Traffic per *texel filtered* = miss rate x accesses/texel
            # x line size; Williams makes three accesses per texel.
            per_texel = 3 if label == "williams" else 1
            traffic = data["direct"][index] * per_texel * LINE
            rows.append([
                label, kb(size),
                f"{100 * data['fa'][index]:.3f}%",
                f"{100 * data['direct'][index]:.3f}%",
                f"{traffic:.2f} B/texel",
            ])
    text = format_table(
        ["layout", "cache", "fully assoc miss", "direct-mapped miss",
         "direct traffic/texel"],
        rows,
        title=f"{SCENE} (vertical), {LINE}B lines:",
    )
    text += ("\n\nWilliams makes 3 accesses/texel at power-of-two component "
             "strides: even where miss rates look comparable, per-texel "
             "traffic is ~3x, and direct-mapped conflicts are worse.")
    emit("ablation_williams", text)

    nb = out["nonblocked"]
    wl = out["williams"]
    # Three accesses per texel.
    assert wl["accesses"] == 3 * nb["accesses"]
    # Direct-mapped traffic per filtered texel is strictly worse for
    # Williams at every size.
    for index in range(len(sizes)):
        assert wl["direct"][index] * 3 * LINE > nb["direct"][index] * LINE
