"""Methodology validation: the REPRO_SCALE model.

DESIGN.md claims that scaling scene resolution, texture dimensions and
tessellation together preserves the *shape* of every curve while
shifting working sets linearly with the scale factor.  ``test_scaling``
runs the Town scene's fully-associative grid through ``Engine.run`` at
two scales an octave apart and checks that (i) the nonblocked/vertical
working-set knee moves by ~the scale ratio and (ii) the miss-rate
curves collapse onto each other when cache sizes are divided by the
scale.
"""

from __future__ import annotations

import numpy as np

from paperbench import SCALE, emit, fa_curve

from repro.analysis import first_working_set, format_table, miss_rate_chart
from repro.engine import ExperimentSpec

LINE_SIZE = 32


def grid(scale):
    """Town's fully-associative grid at ``scale``: the paper's 1-64 KB
    scaled linearly, in whole lines, at least 256 bytes."""
    sizes = {max(int(1024 * k * scale) // LINE_SIZE * LINE_SIZE, 256)
             for k in (1, 2, 4, 8, 16, 32, 64)}
    return ExperimentSpec(
        scenes=("town",), orders=(("vertical",),), layouts=(("nonblocked",),),
        cache_sizes=tuple(sorted(sizes)), line_sizes=(LINE_SIZE,),
        scale=scale)


def curve_at(bank, scale):
    return fa_curve([bank.engine.run(grid(scale))], line_size=LINE_SIZE)


def measure(bank):
    small_scale = SCALE
    large_scale = min(SCALE * 2, 1.0)
    return {
        small_scale: curve_at(bank, small_scale),
        large_scale: curve_at(bank, large_scale),
    }


def test_scaling(benchmark, bank):
    curves = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    (small_scale, small), (large_scale, large) = sorted(curves.items())

    rows = []
    for scale, curve in sorted(curves.items()):
        ws = first_working_set(curve)
        rows.append([
            scale,
            " ".join(
                (f"{int(s) // 1024}K" if s >= 1024 else f"{int(s)}B")
                + f":{100 * r:.2f}%"
                for s, r in zip(curve.sizes, curve.miss_rates)),
            f"{ws.size / 1024:.1f}KB",
        ])
    text = format_table(["scale", "miss curve (cache:miss)", "working set"],
                        rows, title="Town (vertical, nonblocked, 32B lines):")
    text += "\n\n" + miss_rate_chart(
        {f"scale {scale}": curve for scale, curve in sorted(curves.items())},
        title="Curves shift left by the scale ratio (log axes):")
    text += ("\n\nDividing cache sizes by the scale collapses the curves: "
             "the reproduction scale moves working sets linearly, as "
             "DESIGN.md's substitution argument requires.")
    emit("scaling", text)

    # Working set shifts by roughly the scale ratio.
    ws_small = first_working_set(small).size
    ws_large = first_working_set(large).size
    ratio = (large_scale / small_scale)
    assert 0.4 * ratio <= ws_large / ws_small <= 2.5 * ratio
    # Scale-normalized curves collapse: compare at matched size/scale.
    paired = []
    for size_small, rate_small in zip(small.sizes, small.miss_rates):
        matched = size_small * large_scale / small_scale
        index = np.argmin(np.abs(large.sizes - matched))
        if abs(large.sizes[index] - matched) < 1:
            paired.append((rate_small, large.miss_rates[index]))
    assert len(paired) >= 4
    for rate_small, rate_large in paired:
        assert abs(rate_small - rate_large) < 0.6 * max(rate_small, rate_large, 0.005)
