"""Ablation: is mip mapping what makes texture caching work?

Section 3.1.1: "The representation of textures as Mip Maps contributes
to spatial locality in texture accesses...  movements of one pixel in
screen space roughly correspond to movements of one texel in texture
space...  The spatial locality in Mip Map accesses is thus present
irrespective of the scene."

The ablation: filter with GL_LINEAR (bilinear from level 0, no
pyramid).  Minified surfaces then stride across level 0 -- one pixel
step skips many texels -- destroying the spatial locality the cache
depends on, even though each fragment makes *fewer* fetches (4 vs 8).
"""

from paperbench import emit, fa_curve, kb, scaled_cache

from repro.analysis import format_table
from repro.engine import ExperimentSpec, paper_order_spec

PAPER_SIZES_KB = (1, 4, 16, 64)
LINE = 64
LAYOUT = ("blocked", 4)
SCENES = ("town", "flight")  # in their paper orders: vertical, horizontal
FILTERS = {"mipmapped trilinear": True, "GL_LINEAR level 0": False}


def cache_sizes(scale):
    return sorted({scaled_cache(1024 * k, scale) for k in PAPER_SIZES_KB})


def grids(scale):
    """One grid per filter, in :data:`FILTERS` order."""
    return [ExperimentSpec(
        scenes=SCENES, orders=("paper",), layouts=(LAYOUT,),
        cache_sizes=cache_sizes(scale), line_sizes=(LINE,),
        use_mipmaps=mipmaps, scale=scale)
        for mipmaps in FILTERS.values()]


def measure(bank):
    # Fetches per fragment come from the renders, miss rates from one
    # grid per filter.
    renders = {(scene, label): bank.render(scene, paper_order_spec(scene),
                                           use_mipmaps=mipmaps)
               for scene in SCENES for label, mipmaps in FILTERS.items()}
    results = dict(zip(FILTERS, (bank.engine.run(grid)
                                 for grid in grids(bank.scale))))
    return renders, results


def test_ablation_mipmap(benchmark, bank):
    renders, results = benchmark.pedantic(measure, args=(bank,), rounds=1,
                                          iterations=1)
    out = {(scene, label): (renders[(scene, label)],
                            fa_curve([results[label]], scene=scene))
           for scene in SCENES for label in FILTERS}

    rows = []
    for (scene, label), (result, curve) in out.items():
        rows.append(
            [scene, label, f"{result.n_accesses / result.n_fragments:.1f}"]
            + [f"{100 * r:.2f}%" for r in curve.miss_rates]
        )
    text = format_table(
        ["scene", "filtering", "fetch/frag"]
        + [kb(s) for s in cache_sizes(bank.scale)],
        rows,
        title=f"Fully associative, {LINE}B lines, blocked 4x4:",
    )
    text += ("\n\nWithout the pyramid each fragment fetches half as many "
             "texels yet misses far more often: minified surfaces stride "
             "across level 0 and every fetch is a fresh line.  Mip "
             "mapping is a prerequisite for texture caching, exactly as "
             "Section 3.1.1 argues.")
    emit("ablation_mipmap", text)

    for scene in SCENES:
        mip = out[(scene, "mipmapped trilinear")][1]
        linear = out[(scene, "GL_LINEAR level 0")][1]
        # Per-access miss rates are worse without the pyramid at every
        # size, and multiples worse once the cache holds the mipmapped
        # working set.  (Flight's strong minification shows 5-6x;
        # Town's near facades are magnified anyway, so its gap is
        # smaller at tiny caches.)
        for index in range(len(cache_sizes(bank.scale))):
            assert linear.miss_rates[index] > mip.miss_rates[index], (scene, index)
        assert linear.miss_rates[-1] > 1.8 * mip.miss_rates[-1], scene
        # Per-fragment traffic is also worse: 4 fetches at the higher
        # miss rate beat 8 at the lower one.
        mip_result = out[(scene, "mipmapped trilinear")][0]
        lin_result = out[(scene, "GL_LINEAR level 0")][0]
        mip_traffic = mip.miss_rates[-1] * mip_result.n_accesses
        lin_traffic = linear.miss_rates[-1] * lin_result.n_accesses
        assert lin_traffic > mip_traffic
    assert out[("flight", "GL_LINEAR level 0")][1].miss_rates[-1] > \
        4.0 * out[("flight", "mipmapped trilinear")][1].miss_rates[-1]