"""Ablation: cache replacement policy.

The paper assumes LRU throughout (Section 5.2.2).  This harness checks
how much that choice matters for texture streams by pitting LRU against
FIFO and random replacement on two contrasting scenes at two-way and
fully-associative organizations.
"""

from paperbench import emit, kb, scaled_cache

from repro.analysis import format_table
from repro.core import CacheConfig, LineStream, simulate

CACHE_SIZES = [scaled_cache(1024 * k) for k in (4, 16)]
LINE = 64
LAYOUT = ("blocked", 4)
POLICIES = ("lru", "fifo", "random")

SCENES = {"town": ("vertical",), "goblet": ("horizontal",)}


def measure(bank):
    rates = {}
    for scene, order in SCENES.items():
        addresses = bank.trace(scene, order).byte_addresses(
            bank.placements(scene, LAYOUT))
        stream = LineStream.from_addresses(addresses, LINE)
        for size in CACHE_SIZES:
            for assoc in (2, None):
                config = CacheConfig(size, LINE, assoc)
                for policy in POLICIES:
                    stats = simulate(stream, config, policy=policy, seed=1)
                    rates[(scene, size, assoc, policy)] = stats.miss_rate
    return rates


def test_ablation_replacement(benchmark, bank):
    rates = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)

    rows = []
    for scene in SCENES:
        for size in CACHE_SIZES:
            for assoc in (2, None):
                label = "full" if assoc is None else f"{assoc}-way"
                rows.append([scene, kb(size), label] + [
                    f"{100 * rates[(scene, size, assoc, policy)]:.3f}%"
                    for policy in POLICIES
                ])
    text = format_table(
        ["scene", "cache", "assoc", "lru", "fifo", "random"], rows,
        title=f"Replacement-policy ablation, blocked 4x4, {LINE}B lines:",
    )
    text += ("\n\nTexture streams are so sequential that FIFO tracks LRU "
             "closely; random costs a little more.  The paper's LRU "
             "assumption is safe but not critical.")
    emit("ablation_replacement", text)

    for key_scene in SCENES:
        for size in CACHE_SIZES:
            for assoc in (2, None):
                lru = rates[(key_scene, size, assoc, "lru")]
                fifo = rates[(key_scene, size, assoc, "fifo")]
                random_ = rates[(key_scene, size, assoc, "random")]
                # All policies agree within a factor; LRU is never far
                # behind the best.
                best = min(lru, fifo, random_)
                assert lru <= best * 1.35 + 1e-9
