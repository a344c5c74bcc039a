"""Figure 5.4: interaction between block size and cache line size.

Town (vertical) and Guitar (horizontal), fully associative cache of the
paper's 32 KB (scaled), sweeping line sizes against block sizes.

Paper finding: the lowest miss rate occurs when the block's memory
footprint most closely matches the cache line size (square cache lines
exploit spatial locality best); badly mismatched blocks inflate the
working set and cause capacity misses.
"""

from paperbench import cell_stats, emit, kb, scaled_cache

from repro.analysis import format_table
from repro.engine import ExperimentSpec, paper_order_spec
from repro.texture.image import TEXEL_NBYTES

PAPER_CACHE = 32 * 1024
LINE_SIZES = (32, 64, 128, 256)
BLOCKS = (1, 2, 4, 8, 16)  # 1 = nonblocked

SCENES = ("town", "guitar")  # in their paper orders: vertical, horizontal


def layout_spec(block):
    return ("nonblocked",) if block == 1 else ("blocked", block)


def grids(scale):
    return [ExperimentSpec(
        scenes=SCENES, orders=("paper",),
        layouts=tuple(layout_spec(block) for block in BLOCKS),
        cache_sizes=(scaled_cache(PAPER_CACHE, scale),),
        line_sizes=LINE_SIZES, scale=scale)]


def measure(bank):
    return [bank.engine.run(grid) for grid in grids(bank.scale)]


def test_fig_5_4(benchmark, bank):
    results = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    rates = {(name, block, line): cell_stats(
        results, scene=name, layout=layout_spec(block),
        line_size=line).miss_rate
        for name in SCENES for block in BLOCKS for line in LINE_SIZES}

    sections = []
    for name in SCENES:
        rows = []
        for block in BLOCKS:
            label = "nonblocked" if block == 1 else f"{block}x{block}"
            block_bytes = block * block * TEXEL_NBYTES
            rows.append(
                [label, kb(block_bytes)]
                + [f"{100 * rates[(name, block, line)]:.3f}%" for line in LINE_SIZES]
            )
        sections.append(format_table(
            ["block", "block bytes"] + [f"{line}B line" for line in LINE_SIZES],
            rows,
            title=(f"{name} ({paper_order_spec(name)[0]}), fully associative "
                   f"{kb(scaled_cache(PAPER_CACHE, bank.scale))} cache:"),
        ))
    text = "\n\n".join(sections)
    text += ("\n\nPaper: the best block size matches the cache line size "
             "(e.g. 4x4 = 64 B blocks for 64 B lines).")
    emit("fig_5_4", text)

    # Shape guard: for each line size, the matched block beats a badly
    # mismatched one on the orientation-sensitive Town scene.
    matched = {32: 2, 64: 4, 128: 4, 256: 8}  # closest square block <= line
    for line, block in matched.items():
        mismatched = 16 if block <= 4 else 1
        assert rates[("town", block, line)] <= \
            rates[("town", mismatched, line)] * 1.05, (line, block)
