"""Program side of the end-to-end benchmark.

``run.py`` starts one fresh interpreter per operation::

    python child.py '<job as JSON>'

with ``PYTHONPATH`` pointing at the package sources and
``REPRO_CACHE_DIR`` at the job's store.  The process imports the
package, builds an :class:`~repro.engine.Engine` (set-up ends here),
runs the job and prints one JSON line.  Modes:

* ``setup`` -- set-up only;
* ``cold``  -- one grid into an empty store, then re-serves of the same
  grid from a fresh engine with the process tiers hot, for ``hot_s``
  seconds and at least ``hot_min`` times;
* ``serve`` -- ``iterations`` x (one grid with the process caches
  cleared, then one with T0 hot) from a store a ``cold`` job filled;
* ``digest`` -- one grid, its row digests only (for pinning and the
  self-test).

With ``trace_dir`` set, the layer probes (:mod:`probes`) record the
timed grids and the pool workers they fork.

Each served grid's time comes with the scale factor of the reference
loop timed right after it (:mod:`reference`): ``hot_ms`` and
``hot_scale`` are parallel lists, and so are a ``serve`` job's
``grid_ms`` and ``grid_scale``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

from reference import interp_scale

# Canonical row columns, in digest order.
ROW_COLUMNS = ("scene", "order", "layout", "size", "line", "assoc",
               "accesses", "misses", "cold", "capacity", "conflict")


def grid_spec(job: dict):
    from repro.engine import ExperimentSpec
    return ExperimentSpec(
        scenes=tuple(job["scenes"]), layouts=(tuple(job["layout"]),),
        line_sizes=tuple(job["line_sizes"]),
        assocs=tuple(None if assoc == "full" else int(assoc)
                     for assoc in job["assocs"]),
        scale=float(job["scale"]), time=float(job["time"]))


def canonical_rows(rows) -> list:
    """One list per cell, sorted, with the 3C split derived from the
    grid: capacity = fully-associative misses - cold, conflict = misses
    - fully-associative misses of the same size and line."""
    fully = {(row.scene, row.config.line_size, row.config.size):
             row.stats.misses for row in rows if row.config.assoc is None}
    table = []
    for row in rows:
        stats, config = row.stats, row.config
        full = fully.get((row.scene, config.line_size, config.size))
        table.append([
            row.scene, "-".join(map(str, row.order)),
            "-".join(map(str, row.layout)), config.size, config.line_size,
            "full" if config.assoc is None else config.assoc,
            stats.accesses, stats.misses, stats.cold_misses,
            None if full is None else full - stats.cold_misses,
            None if full is None else stats.misses - full])
    return sorted(table, key=lambda cell: [str(value) for value in cell])


def digest(table: list) -> str:
    return hashlib.sha256(json.dumps(table).encode()).hexdigest()


def fully_associative(table: list) -> list:
    return [cell for cell in table if cell[5] == "full"]


def grid_accesses(table: list) -> int:
    """Texel accesses of the grid's traces (one per scene)."""
    per_scene = {}
    for cell in table:
        per_scene[cell[0]] = max(per_scene.get(cell[0], 0), cell[6])
    return sum(per_scene.values())


def peak_rss_mb() -> float:
    """Peak RSS of this process since it started (``VmHWM``).
    ``ru_maxrss`` would also count the driver's peak RSS before it
    spawned this process: Linux carries it across ``execve``."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def worker_rss_mb() -> float:
    """Peak RSS of the largest pool worker this process waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def timed_grid(store_root, spec, run_kwargs) -> tuple:
    """``(ms, canonical rows)`` of one grid on a fresh engine."""
    from repro.engine import ArtifactStore, Engine
    start = time.perf_counter()
    result = Engine(store=ArtifactStore(store_root)).run(spec, **run_kwargs)
    elapsed = 1000.0 * (time.perf_counter() - start)
    return elapsed, canonical_rows(result.rows)


def tier_stats() -> dict:
    from repro.engine import tiers
    memory = tiers.memory_tier().stats()
    digests = tiers.digest_cache().stats()
    return {"t0_hit_rate": memory["hit_rate"], "t0_bytes": memory["bytes"],
            "t0_evictions": memory["evictions"],
            "digest_hit_rate": digests["hit_rate"]}


def run_cold(job, engine, recorder) -> dict:
    from repro.engine import shutdown_stream_pool
    spec = grid_spec(job)
    start = time.perf_counter()
    result = engine.run(spec, **job["run"])
    shutdown_stream_pool()
    wall_ms = 1000.0 * (time.perf_counter() - start)
    if recorder is not None:
        recorder.enabled = False  # hot re-serves are not this op
    table = canonical_rows(result.rows)
    report = engine.last_stream_report
    out = {"grid_ms": [wall_ms], "wall_ms": wall_ms, "digest": digest(table),
           "fa_digest": digest(fully_associative(table)),
           "accesses": grid_accesses(table),
           "peak_rss_mb": peak_rss_mb(),
           "worker_rss_mb": worker_rss_mb(),
           "tiers": tier_stats(),
           "stream": {key: getattr(report, key, 0) for key in
                      ("respawns", "retried_ranges", "residual_ranges",
                       "fallbacks")}}
    hot, scales, mismatches = [], [], 0
    deadline = time.perf_counter() + float(job["hot_s"])
    while len(hot) < int(job["hot_min"]) or time.perf_counter() < deadline:
        ms, served = timed_grid(engine.store.root, spec, job["run"])
        hot.append(ms)
        scales.append(interp_scale())
        mismatches += served != table
    out.update(hot_ms=hot, hot_scale=scales, mismatches=mismatches)
    return out


def run_serve(job, engine, recorder) -> dict:
    from repro.engine import tiers
    spec = grid_spec(job)
    first, hot, scales, mismatches, table = [], [], [], 0, None
    for _ in range(int(job["iterations"])):
        tiers.clear_process_caches()
        for samples in (first, hot):
            ms, served = timed_grid(engine.store.root, spec, {})
            samples.append(ms)
            mismatches += digest(served) != job["digest"]
            table = served
        scales.append(interp_scale())
    return {"grid_ms": first, "hot_ms": hot, "grid_scale": scales,
            "hot_scale": scales, "mismatches": mismatches,
            "wall_ms": sum(first) + sum(hot),
            "digest": digest(table), "accesses": grid_accesses(table),
            "peak_rss_mb": peak_rss_mb(),
            "worker_rss_mb": worker_rss_mb(),
            "tiers": tier_stats()}


def run_digest(job, engine, recorder) -> dict:
    from repro.engine import shutdown_stream_pool
    result = engine.run(grid_spec(job), **job["run"])
    shutdown_stream_pool()
    table = canonical_rows(result.rows)
    return {"digest": digest(table),
            "fa_digest": digest(fully_associative(table))}


MODES = {"setup": None, "cold": run_cold, "serve": run_serve,
         "digest": run_digest}


def main(argv) -> int:
    job = json.loads(argv[1])
    from repro.engine import ArtifactStore, Engine
    engine = Engine(store=ArtifactStore(job["store"]))
    out = {"setup_s": time.time() - float(job["spawned_at"]),
           "pid": os.getpid()}
    recorder = None
    if job.get("trace_dir"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import probes
        recorder = probes.install(job["trace_dir"])
    if MODES[job["mode"]] is not None:
        out.update(MODES[job["mode"]](job, engine, recorder))
    if recorder is not None:
        recorder.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
