"""repro: a reproduction of Hakura & Gupta, "The Design and Analysis
of a Cache Architecture for Texture Mapping" (ISCA 1997).

The package implements the paper's complete experimental apparatus:

* :mod:`repro.core` -- the texture cache simulator, stack-distance
  analysis, miss classification, machine model and bandwidth
  accounting (the paper's contribution);
* :mod:`repro.texture` -- texture images, mip maps, the five memory
  representations, allocation, and trilinear/bilinear filtering;
* :mod:`repro.geometry`, :mod:`repro.raster`, :mod:`repro.pipeline` --
  the software graphics pipeline that generates texel access traces;
* :mod:`repro.scenes` -- procedural stand-ins for the paper's four
  benchmark scenes (Flight, Town, Guitar, Goblet);
* :mod:`repro.analysis` -- locality metrics, working-set detection and
  report formatting.

Quickstart::

    from repro import (
        GobletScene, Renderer, TiledOrder, PaddedBlockedLayout,
        place_textures, CacheConfig, simulate,
    )

    scene = GobletScene().build(scale=0.25)
    result = Renderer(order=TiledOrder(8), produce_image=False).render(scene)
    placements = place_textures(scene.get_mipmaps(), PaddedBlockedLayout(8))
    addresses = result.trace.byte_addresses(placements)
    stats = simulate(addresses, CacheConfig(size=32 * 1024, line_size=128, assoc=2))
    print(stats.miss_rate)
"""

from .core import (
    CacheConfig,
    CacheStats,
    DistanceProfile,
    LineStream,
    LRUCache,
    MachineModel,
    MissRateCurve,
    PAPER_ASSOCIATIVITIES,
    PAPER_CACHE_SIZES,
    PAPER_LINE_SIZES,
    PAPER_MACHINE,
    TraceStreams,
    cached_bandwidth,
    classify_misses,
    mbytes_per_second,
    miss_rate_curve,
    reduction_factor,
    simulate,
    uncached_bandwidth,
)
from .texture import (
    Blocked6DLayout,
    BlockedLayout,
    MipMap,
    NonblockedLayout,
    PaddedBlockedLayout,
    TextureImage,
    TextureMemory,
    TextureSet,
    WilliamsLayout,
    build_mipmaps,
    make_layout,
    place_textures,
)
from .geometry import Mesh, make_grid, make_quad
from .raster import (
    Framebuffer,
    HilbertOrder,
    HorizontalOrder,
    TiledOrder,
    VerticalOrder,
    ZBuffer,
    make_order,
)
from .pipeline import Renderer, RenderResult, TexelTrace, fragment_cost, render_trace
from .scenes import (
    ALL_SCENES,
    FlightScene,
    GobletScene,
    GuitarScene,
    SceneData,
    TownScene,
    characterize,
    make_scene,
)
from .analysis import (
    accesses_per_texel,
    first_working_set,
    format_table,
    mean_texture_runlength,
    repetition_factor,
)
from .engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    TraceSpec,
    run_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "CacheConfig", "CacheStats", "LineStream", "LRUCache", "DistanceProfile",
    "MissRateCurve", "MachineModel", "PAPER_MACHINE", "TraceStreams",
    "PAPER_CACHE_SIZES", "PAPER_LINE_SIZES", "PAPER_ASSOCIATIVITIES",
    "simulate", "classify_misses", "miss_rate_curve",
    "cached_bandwidth", "uncached_bandwidth", "reduction_factor", "mbytes_per_second",
    # texture
    "TextureImage", "TextureSet", "MipMap", "build_mipmaps",
    "NonblockedLayout", "BlockedLayout", "PaddedBlockedLayout",
    "Blocked6DLayout", "WilliamsLayout", "make_layout",
    "TextureMemory", "place_textures",
    # geometry / raster / pipeline
    "Mesh", "make_quad", "make_grid",
    "HorizontalOrder", "VerticalOrder", "TiledOrder", "HilbertOrder", "make_order",
    "ZBuffer", "Framebuffer",
    "Renderer", "RenderResult", "TexelTrace", "render_trace", "fragment_cost",
    # scenes
    "ALL_SCENES", "make_scene", "SceneData",
    "FlightScene", "TownScene", "GuitarScene", "GobletScene", "characterize",
    # analysis
    "accesses_per_texel", "repetition_factor", "mean_texture_runlength",
    "first_working_set", "format_table",
    # engine
    "ArtifactStore", "Engine", "ExperimentSpec", "TraceSpec", "run_experiment",
]
