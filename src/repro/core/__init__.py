"""The paper's contribution: the texture cache architecture --
simulator, stack-distance analysis, miss classification, machine model
and bandwidth accounting."""

from .cache import (
    CacheConfig,
    CacheStats,
    LineStream,
    LRUCache,
    collapse_consecutive,
    collapse_segments,
    simulate,
    simulate_sequence,
    to_lines,
)
from .kernels import (
    KERNELS,
    SetDistanceProfile,
    check_kernel,
    line_miss_mask,
    miss_mask,
    miss_stream,
)
from .stackdist import (
    COLD,
    DistanceProfile,
    MissRateCurve,
    miss_rate_curve,
    stack_distances,
)
from .classify import classify_counts, classify_misses
from .machine import PAPER_MACHINE, MachineModel
from .bandwidth import (
    GBYTE,
    MBYTE,
    cached_bandwidth,
    mbytes_per_second,
    reduction_factor,
    uncached_bandwidth,
)
from .banking import (
    BankingStats,
    N_BANKS,
    analyze_banking,
    linear_bank,
    morton_bank,
    quad_is_conflict_free,
)
from .prefetch import (
    PrefetchPipeline,
    PrefetchResult,
    fragment_miss_counts,
    sweep_fifo_depths,
)
from .parallel import (
    ParallelStats,
    ScanlineInterleave,
    StripSplit,
    TileInterleave,
    WorkDistribution,
    simulate_parallel,
    split_trace,
)
from .dram import (
    DramModel,
    DramTiming,
    PAPER_DRAM,
    line_fill_cycles,
    uncached_stream_cycles,
)
from .texcache import (
    TexCacheParams,
    TexCacheResult,
    fill_service_cycles,
    fragment_fill_streams,
    simulate_texcache,
    sweep_texcache,
)
from .hierarchy import HierarchyStats, hierarchy_bandwidths, simulate_hierarchy
from .victim import VictimStats, simulate_victim
from .sweep import (
    PAPER_ASSOCIATIVITIES,
    PAPER_CACHE_SIZES,
    PAPER_LINE_SIZES,
    TraceStreams,
)

__all__ = [
    "CacheConfig",
    "CacheStats",
    "LineStream",
    "LRUCache",
    "collapse_consecutive",
    "collapse_segments",
    "simulate",
    "simulate_sequence",
    "to_lines",
    "KERNELS",
    "SetDistanceProfile",
    "check_kernel",
    "line_miss_mask",
    "miss_mask",
    "miss_stream",
    "COLD",
    "DistanceProfile",
    "MissRateCurve",
    "miss_rate_curve",
    "stack_distances",
    "classify_counts",
    "classify_misses",
    "MachineModel",
    "PAPER_MACHINE",
    "MBYTE",
    "GBYTE",
    "cached_bandwidth",
    "mbytes_per_second",
    "reduction_factor",
    "uncached_bandwidth",
    "TraceStreams",
    "PAPER_CACHE_SIZES",
    "PAPER_LINE_SIZES",
    "PAPER_ASSOCIATIVITIES",
    "BankingStats",
    "N_BANKS",
    "analyze_banking",
    "morton_bank",
    "linear_bank",
    "quad_is_conflict_free",
    "PrefetchPipeline",
    "PrefetchResult",
    "fragment_miss_counts",
    "sweep_fifo_depths",
    "ParallelStats",
    "WorkDistribution",
    "TileInterleave",
    "ScanlineInterleave",
    "StripSplit",
    "simulate_parallel",
    "split_trace",
    "VictimStats",
    "simulate_victim",
    "DramModel",
    "DramTiming",
    "PAPER_DRAM",
    "line_fill_cycles",
    "uncached_stream_cycles",
    "TexCacheParams",
    "TexCacheResult",
    "fill_service_cycles",
    "fragment_fill_streams",
    "simulate_texcache",
    "sweep_texcache",
    "HierarchyStats",
    "simulate_hierarchy",
    "hierarchy_bandwidths",
]
