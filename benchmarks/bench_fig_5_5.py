"""Figure 5.5: effect of matched line/block size on miss rate.

All four scenes, fully associative cache of the paper's 32 KB (scaled),
with the block size chosen to match each line size.  At this cache size
the remaining misses are mostly cold misses, so this shows how much
spatial locality larger lines harvest.

Paper values at full scale: 32 B lines -> Flight 2.8%, Goblet 1.5%,
Guitar 1.2%, Town 0.8%; 128 B lines -> 0.87%, 0.41%, 0.36%, 0.21%.
"""

from paperbench import cell_stats, emit, kb, scaled_cache

from repro.analysis import format_table
from repro.engine import ExperimentSpec
from repro.scenes import ALL_SCENES

PAPER_CACHE = 32 * 1024
#: line size -> matching square block (closest block footprint <= line).
MATCHED = {16: 2, 32: 2, 64: 4, 128: 4, 256: 8}

PAPER_32B = {"flight": 2.8, "goblet": 1.5, "guitar": 1.2, "town": 0.8}
PAPER_128B = {"flight": 0.87, "goblet": 0.41, "guitar": 0.36, "town": 0.21}


def grids(scale):
    return [ExperimentSpec(
        scenes=tuple(ALL_SCENES), orders=("paper",),
        layouts=(("blocked", block),),
        cache_sizes=(scaled_cache(PAPER_CACHE, scale),),
        line_sizes=tuple(line for line, matched in MATCHED.items()
                         if matched == block),
        scale=scale)
        for block in sorted(set(MATCHED.values()))]


def measure(bank):
    return [bank.engine.run(grid) for grid in grids(bank.scale)]


def test_fig_5_5(benchmark, bank):
    results = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    rates = {(name, line): cell_stats(results, scene=name,
                                      line_size=line).miss_rate
             for name in ALL_SCENES for line in MATCHED}

    rows = []
    for name in ALL_SCENES:
        row = [name]
        for line in MATCHED:
            cell = f"{100 * rates[(name, line)]:.2f}%"
            if line == 32:
                cell += f" ({PAPER_32B[name]}%)"
            if line == 128:
                cell += f" ({PAPER_128B[name]}%)"
            row.append(cell)
        rows.append(row)
    text = format_table(
        ["scene"] + [f"{line}B/{MATCHED[line]}x{MATCHED[line]}" for line in MATCHED],
        rows,
        title=(f"Fully associative {kb(scaled_cache(PAPER_CACHE, bank.scale))}"
               " cache, matched line/block "
               "(paper values at 32B and 128B in parentheses):"),
    )
    emit("fig_5_5", text)

    # Shape guards: significant monotone-ish reduction with line size,
    # and the paper's scene ordering at 32 B (Flight worst: fragmented
    # accesses across mip levels; Town best: gradual LoD + repetition).
    for name in ALL_SCENES:
        assert rates[(name, 128)] < 0.6 * rates[(name, 32)], name
    # Town (gradual LoD on flat surfaces + repeated textures) has the
    # lowest cold-dominated miss rate, as in the paper; Flight's
    # fragmented mip accesses keep it near the top.
    assert rates[("town", 32)] == min(rates[(n, 32)] for n in ALL_SCENES)
    others = sorted(rates[(n, 32)] for n in ALL_SCENES)
    assert rates[("flight", 32)] >= others[-2]
