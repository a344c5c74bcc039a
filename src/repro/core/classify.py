"""Miss classification: cold / capacity / conflict (the 3C model).

The paper reasons separately about cold misses (Section 5.2.2),
capacity misses (working sets, Sections 5.2.3, 5.3.2, 6.1) and conflict
misses (Sections 5.3.3, 6.2).  We use the standard decomposition:

* **cold** -- first access to a line; unavoidable.
* **capacity** -- non-cold misses that a fully-associative LRU cache of
  the same total size would also incur (stack distance exceeds the line
  count).
* **conflict** -- the remainder: misses of the set-associative cache
  that full associativity would have avoided.

On the default vectorized kernel both numbers come from distance
profiles -- the fully-associative count from a
:class:`~repro.core.stackdist.DistanceProfile`, the set-associative
count from a :class:`~repro.core.kernels.SetDistanceProfile` -- so no
per-access Python loop runs anywhere on the LRU path.  The split itself
is :func:`classify_counts`, a function of those counts alone, so a
caller that already holds them applies the same rule without a stream,
as ``repro simulate`` does with the rows of an ``Engine.run`` grid.
"""

from __future__ import annotations

from . import kernels
from .cache import CacheConfig, CacheStats, LineStream, _simulate_runs
from .stackdist import DistanceProfile


def classify_misses(trace, config: CacheConfig,
                    kernel: str = "vectorized") -> CacheStats:
    """Simulate ``config`` and decompose its misses into the 3C model.

    ``trace`` is a byte-address array or a :class:`LineStream` matching
    the config's line size.  A grid of configurations over one trace
    runs through :meth:`Engine.run <repro.engine.Engine.run>` instead,
    which shares each profile across every cell that reads it.
    """
    kernels.check_kernel(kernel)
    if isinstance(trace, LineStream):
        if trace.line_size != config.line_size:
            raise ValueError("LineStream line size mismatch")
        stream = trace
    else:
        stream = LineStream.from_addresses(trace, config.line_size)

    profile = DistanceProfile.from_stream(stream, kernel=kernel)
    fully_associative_misses = profile.misses_at(config.n_lines)

    if kernel == "vectorized":
        if config.n_sets == 1:
            # The set-associative cache IS the fully-associative one.
            misses, cold = fully_associative_misses, profile.cold
        else:
            misses, cold = kernels.SetDistanceProfile.from_stream(
                stream, config.n_sets).stats_pair(config)
    else:
        misses, cold = _simulate_runs(stream.run_lines, config)
    return classify_counts(config, stream.total_accesses, misses, cold,
                           fully_associative_misses)


def classify_counts(config: CacheConfig, accesses: int, misses: int,
                    cold: int, fully_associative_misses: int) -> CacheStats:
    """The 3C split of ``config``'s miss counts over one stream, given
    the miss count of the fully-associative LRU cache of the same size
    and line size over the same stream."""
    capacity = fully_associative_misses - cold
    conflict = misses - fully_associative_misses
    if conflict < 0:
        # LRU set-associative caches can (rarely) beat fully-associative
        # LRU on pathological streams; fold the difference into capacity
        # so the three categories still sum to the miss count.
        capacity += conflict
        conflict = 0
    return CacheStats(
        config=config,
        accesses=accesses,
        misses=misses,
        cold_misses=cold,
        capacity_misses=capacity,
        conflict_misses=conflict,
    )
