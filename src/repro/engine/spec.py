"""Declarative experiment specifications.

The paper's studies are all grids: scenes x rasterization orders x
memory representations x cache configurations.  Before this layer every
consumer (the benchmark harnesses, the CLI, the examples) walked its
own ad-hoc loops and re-rendered shared stages.  An
:class:`ExperimentSpec` names the grid once; the engine runner then
plans the unique renders, address streams and distance profiles the
grid needs and reuses each of them across every cell.

Specs are hashable value objects built from plain tuples so they can
key both the in-memory memos and the on-disk artifact store:

* an *order spec* is a tuple such as ``("horizontal",)``,
  ``("tiled", 8)``, ``("tiled", 8, "col", "col")`` or
  ``("hilbert", 11)``;
* a *layout spec* is a tuple such as ``("nonblocked",)``,
  ``("blocked", 8)``, ``("padded", 8, 4)``,
  ``("blocked6d", 8, 32768)`` or ``("williams",)``.

Beside the layout builder sits the process's one memo of built scenes
and placed textures (:func:`scene_data`, :func:`scene_placements`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..core.cache import CacheConfig
from ..core.sweep import PAPER_CACHE_SIZES
from ..pipeline.renderer import check_raster
from ..raster.order import TraversalOrder, make_order
from ..scenes import ALL_SCENES
from ..texture.layout import TextureLayout, make_layout
from ..texture.memory import place_textures


def order_from_spec(spec) -> TraversalOrder:
    """Build a :class:`TraversalOrder` from a hashable spec tuple."""
    name = spec[0]
    if name == "tiled":
        kwargs = {"tile_w": spec[1]}
        if len(spec) > 2:
            kwargs["within"] = spec[2]
            kwargs["across"] = spec[3]
        return make_order("tiled", **kwargs)
    if name == "hilbert":
        return make_order("hilbert", order_bits=spec[1])
    return make_order(name)


def layout_from_spec(spec) -> TextureLayout:
    """Build a :class:`TextureLayout` from a hashable spec tuple."""
    name = spec[0]
    if name == "blocked":
        return make_layout("blocked", block_w=spec[1])
    if name == "padded":
        return make_layout("padded", block_w=spec[1], pad_blocks=spec[2])
    if name == "blocked6d":
        return make_layout("blocked6d", block_w=spec[1], superblock_nbytes=spec[2])
    return make_layout(name)


#: The process's one memo of built scenes and of their textures placed
#: under each layout, shared by every path that needs them: the in-RAM
#: render and address mapping, every streamed fold job (in the parent
#: or a pool worker), the spot audit, the CLI and the benches.  So a
#: process builds each scene at most once.  Scenes are cheap to build
#: and never persisted; a grid's few scenes stay resident.
_SCENE_MEMO: dict = {}
_PLACEMENT_MEMO: dict = {}


def scene_data(name: str, scale: float, time: float = 0.0):
    """The built :class:`~repro.scenes.base.SceneData` of ``name`` at
    ``scale`` and animation ``time``, memoized in the process."""
    key = (name, scale, time)
    if key not in _SCENE_MEMO:
        _SCENE_MEMO[key] = ALL_SCENES[name]().build(scale=scale, time=time)
    return _SCENE_MEMO[key]


def scene_placements(name: str, scale: float, layout_spec,
                     time: float = 0.0) -> list:
    """The textures of :func:`scene_data` placed under ``layout_spec``,
    memoized in the process."""
    key = (name, scale, time, tuple(layout_spec))
    if key not in _PLACEMENT_MEMO:
        _PLACEMENT_MEMO[key] = place_textures(
            scene_data(name, scale, time).get_mipmaps(),
            layout_from_spec(layout_spec))
    return _PLACEMENT_MEMO[key]


def paper_order_spec(scene: str) -> tuple:
    """The rasterization direction the paper reports for ``scene``."""
    return (ALL_SCENES[scene].paper_rasterization,)


def resolve_order_spec(scene: str, order) -> tuple:
    """Normalize an order spec; ``"paper"`` resolves per scene."""
    if order is None or order == "paper" or order == ("paper",):
        return paper_order_spec(scene)
    return tuple(order)


@dataclass(frozen=True)
class TraceSpec:
    """Everything that determines one rendered texel trace.

    Two specs that compare equal produce bit-identical traces, so the
    spec (plus the pipeline version stamp) is the artifact-store
    fingerprint for the render stage.  ``raster`` selects the batched
    or reference rasterization *implementation* -- both produce
    bit-identical traces, so it is excluded from the fingerprint and
    warm artifacts stay valid whichever path rendered them.
    """

    scene: str
    scale: float
    order: tuple
    time: float = 0.0
    max_anisotropy: int = 1
    lod_bias: float = 0.0
    use_mipmaps: bool = True
    record_positions: bool = False
    raster: str = "batched"

    #: Fields that never influence the rendered output.
    _IMPLEMENTATION_FIELDS = ("raster",)

    def __post_init__(self):
        if self.scene not in ALL_SCENES:
            raise ValueError(f"unknown scene {self.scene!r}")
        check_raster(self.raster)
        object.__setattr__(self, "order",
                           resolve_order_spec(self.scene, self.order))

    def payload(self) -> dict:
        """JSON-serializable fingerprint payload."""
        record = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in self._IMPLEMENTATION_FIELDS}
        record["order"] = list(self.order)
        return record


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep grid: scenes x orders x layouts x cache configurations.

    ``orders`` may contain the string ``"paper"`` (or the tuple
    ``("paper",)``), which resolves per scene to the direction the
    paper reports.  ``assocs`` entries follow
    :class:`~repro.core.cache.CacheConfig`: an integer number of ways,
    or ``None`` for fully associative (swept with one stack-distance
    pass per line size instead of one simulation per cache size).
    """

    scenes: tuple
    layouts: tuple
    orders: tuple = ("paper",)
    cache_sizes: tuple = PAPER_CACHE_SIZES
    line_sizes: tuple = (64,)
    assocs: tuple = (None,)
    scale: float = 0.25
    time: float = 0.0
    max_anisotropy: int = 1
    lod_bias: float = 0.0
    use_mipmaps: bool = True
    raster: str = "batched"

    def __post_init__(self):
        for attribute in ("scenes", "layouts", "orders", "cache_sizes",
                          "line_sizes", "assocs"):
            value = getattr(self, attribute)
            coerced = tuple(value) if not isinstance(value, tuple) else value
            if not coerced:
                raise ValueError(f"{attribute} must be non-empty")
            object.__setattr__(self, attribute, coerced)
        for scene in self.scenes:
            if scene not in ALL_SCENES:
                raise ValueError(f"unknown scene {scene!r}")
        for layout in self.layouts:
            layout_from_spec(layout)  # validates eagerly
        # So does every cache cell: a bad one fails before any render.
        for size in self.cache_sizes:
            for line_size in self.line_sizes:
                for assoc in self.assocs:
                    CacheConfig(int(size), int(line_size), assoc)
        check_raster(self.raster)

    def trace_spec(self, scene: str, order) -> TraceSpec:
        return TraceSpec(
            scene=scene, scale=self.scale,
            order=resolve_order_spec(scene, order), time=self.time,
            max_anisotropy=self.max_anisotropy, lod_bias=self.lod_bias,
            use_mipmaps=self.use_mipmaps, raster=self.raster,
        )

    def trace_specs(self) -> list:
        """The deduplicated renders the grid needs (one per
        scene/order; ``"paper"`` aliases collapse onto their
        resolution)."""
        unique = []
        for scene in self.scenes:
            for order in self.orders:
                spec = self.trace_spec(scene, order)
                if spec not in unique:
                    unique.append(spec)
        return unique
