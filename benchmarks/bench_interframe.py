"""Section 3.1.2's inter-frame claim, measured.

"We generally do not expect our caches to exploit temporal locality
between consecutive frames because the cache sizes that we consider
are much smaller than the amount of texture data that is typically
used by a single frame.  Between memory and disk, however, this kind
of temporal locality is of interest."

This harness renders two consecutive frames of the animated Goblet and
Town scenes (1/30 s apart) and simulates frame 2 against a cache still
warm from frame 1.  For working-set-sized caches the warm start saves
almost nothing -- confirming the paper's single-frame methodology --
while a cache big enough to hold the frame's full texture footprint
turns most of frame 2 into hits (the memory-vs-disk regime).
"""

from paperbench import emit, kb, scaled_cache

from repro.analysis import format_table
from repro.core import CacheConfig, LineStream
from repro.core.kernels import sequence_stats
from repro.engine import scene_placements

SCENES = ("goblet", "town")
LINE = 64
LAYOUT = ("blocked", 4)
FRAME_DT = 1.0 / 30.0


def measure(bank):
    results = {}
    for name in SCENES:
        order = bank.paper_order_spec(name)
        # Each frame's collapsed line stream: its trace mapped through
        # that frame's placements, as the victim and replacement
        # studies map theirs.
        streams = []
        for t in (0.0, FRAME_DT):
            addresses = bank.trace(name, order, time=t).byte_addresses(
                scene_placements(name, bank.scale, LAYOUT, t))
            streams.append(LineStream.from_addresses(addresses, LINE))
        segments = [(stream.run_lines, stream.duplicate_hits)
                    for stream in streams]
        texture_bytes = sum(p.total_nbytes
                            for p in bank.placements(name, LAYOUT))
        for size in (scaled_cache(32 * 1024), 1 << (texture_bytes - 1).bit_length()):
            config = CacheConfig(size, LINE, None)
            warm = sequence_stats(segments, config)
            cold = sequence_stats(segments[1:], config)
            results[(name, size)] = (warm[1], cold[0])
    return results


def test_interframe(benchmark, bank):
    results = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)

    rows = []
    for (name, size), (warm, cold) in results.items():
        saving = 1.0 - warm.misses / max(cold.misses, 1)
        rows.append([
            name, kb(size),
            f"{100 * cold.miss_rate:.3f}%",
            f"{100 * warm.miss_rate:.3f}%",
            f"{100 * saving:.1f}%",
        ])
    text = format_table(
        ["scene", "cache", "frame2 cold-start miss", "frame2 warm-start miss",
         "misses saved by warm start"],
        rows,
        title=(f"Two consecutive frames ({FRAME_DT * 1000:.0f} ms apart), "
               f"fully associative, {LINE}B lines:"),
    )
    text += ("\n\nWorking-set-sized caches gain almost nothing from the "
             "previous frame (the paper's premise); only a cache holding "
             "the frame's whole texture footprint exploits inter-frame "
             "reuse.")
    emit("interframe", text)

    for (name, size), (warm, cold) in results.items():
        small = size <= scaled_cache(32 * 1024)
        saving = 1.0 - warm.misses / max(cold.misses, 1)
        if small:
            assert saving < 0.25, (name, size)
        else:
            assert saving > 0.5, (name, size)
