"""Cycle-level prefetching texture cache: blocked-scan kernel versus
the per-event sequential walk, plus Igehy et al.'s latency-tolerance
curve.

Each paper scene's per-fragment fill counts and page-mode DRAM service
times (:func:`~repro.core.texcache.fragment_fill_streams`) run through
the three-queue timing model (:func:`~repro.core.texcache.sweep_texcache`)
over a fragment-FIFO depth x fill latency grid.  The whole grid is
first computed with ``kernel="reference"`` (one sequential walk per
cell) and with the vectorized lag-blocked scan (one pass per depth
batch, the latency axis as scan rows), asserted cycle-exactly equal on
every metric of every cell, and then timed.

The grid reproduces the Igehy et al. 1998 result that extends the
source paper's Section 7.1.1 premise: once the fragment FIFO is deep
enough to cover the fill latency, the achieved fragment rate stays
flat as the latency grows -- the cache's bandwidth reduction is usable
because prefetching really does hide the latency.  The request FIFO
and reorder buffer are kept generous so the sweep isolates the
fragment-FIFO axis.

Results land in ``BENCH_prefetch_timing.json`` at the repository root
with schema ``{bench, config, curve, ms_before, ms_after, speedup}``;
``curve`` holds the per-scene latency-tolerance rows.  Run directly
(``python benchmarks/bench_prefetch_timing.py``) or through the
benchmark suite.  The equivalence itself is tier-1's:
``tests/test_texcache.py`` sweeps each paper scene's DRAM service
times through both kernels.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from paperbench import SceneBank, paper_order_spec, scaled_cache  # noqa: E402

from repro.core import CacheConfig  # noqa: E402
from repro.core.dram import PAPER_DRAM  # noqa: E402
from repro.core.machine import PAPER_MACHINE  # noqa: E402
from repro.core.texcache import fragment_fill_streams, sweep_texcache  # noqa: E402

SCENES = ("flight", "goblet", "guitar", "town")
LAYOUT = ("blocked", 8)
SAMPLE = 400000  # texel accesses per scene (= SAMPLE / 8 fragments)
#: Generous bounded queues so the sweep isolates the fragment-FIFO
#: axis (and fill-cap block splits stay rare in the scan kernel).
QUEUE_DEPTH = 128
DEPTHS = (32, 64, 128, 256, 512, 1024)

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_prefetch_timing.json"

METRICS = ("total_cycles", "ideal_cycles", "stall_cycles",
           "fragment_fifo_wait", "request_fifo_wait", "reorder_buffer_wait")


def _cache_config():
    return CacheConfig(scaled_cache(32 * 1024), 64, 2)


def _latencies():
    return sorted({int(round(latency))
                   for latency in np.geomspace(4, 1024, 24)})


def _params(line_size):
    return PAPER_MACHINE.texcache_params(
        line_size, request_fifo=QUEUE_DEPTH, reorder_buffer=QUEUE_DEPTH)


def _assert_grids_equal(fast, slow, scene):
    assert set(fast) == set(slow), scene
    for cell, fast_result in fast.items():
        slow_result = slow[cell]
        for metric in METRICS:
            if getattr(fast_result, metric) != getattr(slow_result, metric):
                raise AssertionError(
                    f"{scene}/{cell}: vectorized {metric} "
                    f"{getattr(fast_result, metric)} != reference "
                    f"{getattr(slow_result, metric)}")


def _timed(run):
    start = time.perf_counter()
    result = run()
    return 1000 * (time.perf_counter() - start), result


def measure(bank) -> dict:
    config = _cache_config()
    params = _params(config.line_size)
    latencies = _latencies()
    per_scene = {}
    curve = {}
    totals = {"before": 0.0, "after": 0.0}
    for scene in SCENES:
        trace = bank.trace(scene, paper_order_spec(scene))
        addresses = trace.byte_addresses(bank.placements(scene, LAYOUT))
        counts, services = fragment_fill_streams(
            addresses[:SAMPLE], config, dram=PAPER_DRAM)
        ms_before, slow = _timed(lambda: sweep_texcache(
            counts, params, DEPTHS, latencies, services=services,
            kernel="reference"))
        ms_after = None
        for _ in range(3):
            elapsed, fast = _timed(lambda: sweep_texcache(
                counts, params, DEPTHS, latencies, services=services))
            ms_after = elapsed if ms_after is None else min(ms_after, elapsed)
        _assert_grids_equal(fast, slow, scene)
        per_scene[scene] = {
            "fragments": int(len(counts)),
            "fills": int(counts.sum()),
            "ms_before": round(ms_before, 3),
            "ms_after": round(ms_after, 3),
            "speedup": round(ms_before / max(ms_after, 1e-9), 2),
        }
        totals["before"] += ms_before
        totals["after"] += ms_after
        curve[scene] = [
            {"fragment_fifo": depth, "fill_latency": latency,
             "total_cycles": cell.total_cycles,
             "stall_cycles": cell.stall_cycles,
             "fragments_per_second": round(cell.fragments_per_second),
             "efficiency": round(cell.efficiency, 4)}
            for (depth, latency), cell in fast.items()]
    return {
        "bench": "prefetch_timing",
        "config": {
            "scale": bank.scale,
            "scenes": list(SCENES),
            "layout": list(LAYOUT),
            "cache": config.label(),
            "sample_accesses": SAMPLE,
            "depths": list(DEPTHS),
            "latencies": list(latencies),
            "request_fifo": QUEUE_DEPTH,
            "reorder_buffer": QUEUE_DEPTH,
            "per_scene": per_scene,
        },
        "curve": curve,
        "ms_before": round(totals["before"], 3),
        "ms_after": round(totals["after"], 3),
        "speedup": round(totals["before"] / max(totals["after"], 1e-9), 2),
    }


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    bank = SceneBank()
    report = measure(bank)
    per_scene = report["config"]["per_scene"]
    detail = ", ".join(f"{scene} {entry['speedup']:.1f}x"
                       for scene, entry in per_scene.items())
    cells = len(report["config"]["depths"]) * len(report["config"]["latencies"])
    print(f"{report['bench']}: {len(SCENES)} scenes x {cells} grid cells, "
          f"reference {report['ms_before']:.1f} ms -> vectorized "
          f"{report['ms_after']:.1f} ms "
          f"({report['speedup']:.1f}x combined; {detail})")
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


def test_prefetch_timing(benchmark, bank):
    """Benchmark-suite entry: full measurement plus the JSON artifact."""
    report = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    assert report["speedup"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
