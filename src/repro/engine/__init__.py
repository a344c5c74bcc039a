"""The shared experiment engine (render -> trace -> simulate, once).

``repro.engine`` is the single entry point every consumer uses to
obtain pipeline intermediates:

* :class:`ArtifactStore` -- content-addressed on-disk cache of rendered
  traces, per-layout byte-address streams and stack-distance profiles
  (default ``benchmarks/.cache/``, overridable via ``REPRO_CACHE_DIR``);
* :class:`TraceSpec` / :class:`ExperimentSpec` -- declarative
  descriptions of one render or a whole sweep grid;
* :class:`Engine` / :func:`run_experiment` -- the runner that
  deduplicates shared stages, in RAM or as a streaming fold over
  bounded blocks, optionally pipelined across a supervised worker pool
  (``stream_workers``).

Quickstart::

    from repro.engine import Engine, ExperimentSpec, TraceSpec

    engine = Engine()                     # benchmarks/.cache store
    spec = TraceSpec("town", scale=0.25, order=("vertical",))
    streams = engine.streams(spec, ("blocked", 8))   # cached end to end
    result = engine.run(ExperimentSpec(scenes=("town",),
                                       layouts=(("blocked", 8),)))
"""

from .artifacts import (
    DEFAULT_CHUNK_SIZE,
    ArtifactStore,
    CorruptArtifact,
    PIPELINE_VERSION,
    ProfileKeys,
    StoreError,
    StoreUnavailable,
    addresses_payload,
    default_cache_dir,
    fingerprint,
    profile_payload,
    set_profile_payload,
)
from .tiers import (
    DigestCache,
    MemoryTier,
    clear_process_caches,
    digest_cache,
    memory_tier,
)
from .spec import (
    ExperimentSpec,
    TraceSpec,
    layout_from_spec,
    order_from_spec,
    paper_order_spec,
    resolve_order_spec,
    scene_data,
    scene_placements,
)
from .runner import (
    Engine,
    ExperimentResult,
    ExperimentRow,
    StoredTraceStreams,
    render_calls,
    reset_render_calls,
    run_experiment,
)
from .streaming import (
    StreamAuditReport,
    StreamedProfiles,
    StreamingAuditError,
)
from .pipelined import (
    PipelineError,
    StreamReport,
    shutdown_stream_pool,
)

__all__ = [
    "ArtifactStore",
    "CorruptArtifact",
    "PIPELINE_VERSION",
    "ProfileKeys",
    "StoreError",
    "StoreUnavailable",
    "addresses_payload",
    "default_cache_dir",
    "fingerprint",
    "profile_payload",
    "set_profile_payload",
    "DigestCache",
    "MemoryTier",
    "clear_process_caches",
    "digest_cache",
    "memory_tier",
    "ExperimentSpec",
    "TraceSpec",
    "layout_from_spec",
    "order_from_spec",
    "paper_order_spec",
    "resolve_order_spec",
    "scene_data",
    "scene_placements",
    "Engine",
    "ExperimentResult",
    "ExperimentRow",
    "StoredTraceStreams",
    "render_calls",
    "reset_render_calls",
    "run_experiment",
    "DEFAULT_CHUNK_SIZE",
    "StreamAuditReport",
    "StreamedProfiles",
    "StreamingAuditError",
    "PipelineError",
    "StreamReport",
    "shutdown_stream_pool",
]
