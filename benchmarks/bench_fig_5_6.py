"""Figure 5.6: the blocked representation below the working-set size.

Guitar scene, fully associative caches across sizes, comparing
line/block combinations including the nonblocked baseline.

Paper finding: blocking coupled with larger lines and blocks cuts
capacity misses for caches *smaller than the working set*; increasing
the line size without blocking makes miss rates worse.
"""

from paperbench import emit, fa_curve, kb, scaled_cache

from repro.analysis import format_table
from repro.engine import ExperimentSpec

PAPER_SIZES_KB = (2, 4, 8, 16, 32, 64)

#: (label, line size, layout spec) series, mirroring the figure's lines.
SERIES = [
    ("32B nonblocked", 32, ("nonblocked",)),
    ("128B nonblocked", 128, ("nonblocked",)),
    ("32B 2x2", 32, ("blocked", 2)),
    ("64B 4x4", 64, ("blocked", 4)),
    ("128B 4x4", 128, ("blocked", 4)),
    ("128B 8x8", 128, ("blocked", 8)),
]

ORDER = ("horizontal",)


def cache_sizes(scale):
    return sorted({scaled_cache(1024 * k, scale) for k in PAPER_SIZES_KB})


def grids(scale):
    lines = {}
    for _, line, layout in SERIES:
        lines.setdefault(layout, []).append(line)
    return [ExperimentSpec(
        scenes=("guitar",), orders=(ORDER,), layouts=(layout,),
        cache_sizes=cache_sizes(scale), line_sizes=tuple(sizes), scale=scale)
        for layout, sizes in lines.items()]


def measure(bank):
    return [bank.engine.run(grid) for grid in grids(bank.scale)]


def test_fig_5_6(benchmark, bank):
    results = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    curves = {label: fa_curve(results, layout=layout, line_size=line)
              for label, line, layout in SERIES}

    rows = [
        [label] + [f"{100 * r:.2f}%" for r in curves[label].miss_rates]
        for label, _, _ in SERIES
    ]
    text = format_table(
        ["line/block"] + [kb(s) for s in cache_sizes(bank.scale)], rows,
        title="Guitar, fully associative caches:",
    )
    text += ("\n\nPaper: below the working set, blocking + larger lines "
             "reduce capacity misses; larger lines *without* blocking "
             "make things worse.")
    emit("fig_5_6", text)

    index = 0
    # Larger lines without blocking hurt at small cache sizes...
    assert curves["128B nonblocked"].miss_rates[index] > \
        curves["32B nonblocked"].miss_rates[index]
    # ...while the same line size *with* a matched block helps a lot.
    assert curves["128B 8x8"].miss_rates[index] < \
        0.7 * curves["128B nonblocked"].miss_rates[index]
    # At the largest size all series approach their cold floors and the
    # 128B series beat the 32B ones.
    assert curves["128B 8x8"].miss_rates[-1] < curves["32B 2x2"].miss_rates[-1]
