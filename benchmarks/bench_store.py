"""Warm-grid serving latency: tiered store versus per-load re-verify.

Times ``Engine.run`` over a warm artifact store (every trace, address
stream and profile already on disk) two ways per scene:

* ``ms_before`` -- the seed's serving discipline, emulated by env
  knobs: in-memory tier off (``REPRO_STORE_MEMORY_BYTES=0``) and full
  SHA-256 re-verification on every load (``REPRO_STORE_VERIFY=always``);
  a fresh :class:`~repro.engine.Engine` per run, so every artifact is
  re-read and re-hashed from disk each time.
* ``ms_after`` -- the tiered defaults: the process-wide T0 LRU serves
  deserialized artifacts, the verify-once digest cache turns
  re-verification into a ``stat``, and monolithic ``.npy`` payloads
  arrive as read-only memory maps.

Before anything is timed the grid's result rows (miss-rate curves and
3C classifications) are verified **bit-identical** across every tier
configuration: seed emulation, tiered defaults, T0 off, and profiles
recomputed from memory-mapped address streams.
Results land in ``BENCH_store.json`` at the repository root with schema ``{bench,
config, ms_before, ms_after, speedup}`` matching the other BENCH
artifacts.

Run directly (``python benchmarks/bench_store.py``) or through the
benchmark suite; ``--smoke`` just checks cross-tier equivalence at the
current ``REPRO_SCALE`` and skips the JSON (CI runs it at tiny scale).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from paperbench import SCALE  # noqa: E402

from repro.engine import (  # noqa: E402
    ArtifactStore,
    Engine,
    ExperimentSpec,
)
from repro.engine import tiers  # noqa: E402

SCENES = ("flight", "goblet", "guitar", "town")
LAYOUTS = (("blocked", 8),)
LINE_SIZES = (32, 64, 128)
ASSOCS = (None, 4)

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_store.json"

#: Env knobs the bench flips; everything else is left alone.
_TIER_KEYS = ("REPRO_STORE_MEMORY_BYTES", "REPRO_STORE_VERIFY")

#: The seed's discipline: no memory tier, hash every load.
SEED_ENV = {"REPRO_STORE_MEMORY_BYTES": "0",
            "REPRO_STORE_VERIFY": "always"}


def grid_spec(scene: str) -> ExperimentSpec:
    return ExperimentSpec(scenes=(scene,), layouts=LAYOUTS,
                          line_sizes=LINE_SIZES, assocs=ASSOCS,
                          scale=SCALE)


@contextmanager
def tier_env(**overrides):
    """Run with exactly the given tier knobs set (all others unset),
    starting and ending with empty process caches."""
    saved = {key: os.environ.get(key) for key in _TIER_KEYS}
    for key in _TIER_KEYS:
        os.environ.pop(key, None)
    for key, value in overrides.items():
        os.environ[key] = value
    tiers.clear_process_caches()
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tiers.clear_process_caches()


def run_grid(root, scene: str):
    """One full grid over ``root`` on a fresh Engine (no in-instance
    memo reuse: everything is served by the store tiers)."""
    return Engine(store=ArtifactStore(root)).run(grid_spec(scene))


def rows_key(result) -> tuple:
    """The grid's outcome as a comparable value: every curve point and
    3C split of every cell, order-independent."""
    def cell(row):
        stats = row.stats
        return (row.scene, tuple(row.order), tuple(row.layout),
                row.config.size, row.config.line_size,
                -1 if row.config.assoc is None else row.config.assoc,
                stats.accesses, stats.misses, stats.cold_misses,
                -1 if stats.capacity_misses is None
                else stats.capacity_misses,
                -1 if stats.conflict_misses is None
                else stats.conflict_misses)
    return tuple(sorted(cell(row) for row in result.rows))


def _copy_store(source: Path, target: Path, drop=()) -> Path:
    shutil.copytree(source, target)
    for kind in drop:
        shutil.rmtree(target / kind, ignore_errors=True)
    return target


def verify_equivalence(scene: str, work: Path) -> int:
    """Assert the grid is bit-identical under every tier
    configuration.  Returns the number of configurations checked."""
    full = work / f"{scene}-full"
    with tier_env():
        run_grid(full, scene)  # warm the store

    with tier_env(**SEED_ENV):
        baseline = rows_key(run_grid(full, scene))

    trials = {
        "tiered defaults": (full, {}),
        "T0 off": (full, {"REPRO_STORE_MEMORY_BYTES": "0"}),
        # Profiles dropped: recomputed from the mmap'd addresses.
        "profiles recomputed": (_copy_store(
            full, work / f"{scene}-recomputed",
            drop=("profiles", "set_profiles")), {}),
    }
    for label, (root, env) in trials.items():
        with tier_env(**env):
            if rows_key(run_grid(root, scene)) != baseline:
                raise AssertionError(f"{scene}: rows diverge ({label})")
    return len(trials) + 1


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return 1000 * (time.perf_counter() - start)


def measure(work: Path, repeats: int = 3) -> dict:
    per_scene = {}
    totals = {"before": 0.0, "after": 0.0}
    scenes_over_3x = 0
    for scene in SCENES:
        configs = verify_equivalence(scene, work)
        root = work / f"{scene}-full"

        with tier_env(**SEED_ENV):
            ms_before = min(_timed(lambda: run_grid(root, scene))
                            for _ in range(repeats))
        with tier_env():
            run_grid(root, scene)  # fill T0 once, untimed
            ms_after = min(_timed(lambda: run_grid(root, scene))
                           for _ in range(repeats))
            memory = tiers.memory_tier().stats()
            digests = tiers.digest_cache().stats()

        speedup = ms_before / max(ms_after, 1e-9)
        scenes_over_3x += speedup >= 3.0
        n_cells = grid_spec(scene).n_cells
        per_scene[scene] = {
            "n_cells": n_cells,
            "equivalence_configs": configs,
            "ms_seed": round(ms_before, 3),
            "ms_tiered": round(ms_after, 3),
            "speedup": round(speedup, 2),
            "t0_hit_rate": round(memory["hit_rate"], 4),
            "digest_hit_rate": round(digests["hit_rate"], 4),
        }
        totals["before"] += ms_before
        totals["after"] += ms_after
    return {
        "bench": "store_tiers",
        "config": {
            "scale": SCALE,
            "scenes": list(SCENES),
            "layouts": [list(layout) for layout in LAYOUTS],
            "line_sizes": list(LINE_SIZES),
            "assocs": [a if a is not None else "full" for a in ASSOCS],
            "repeats": repeats,
            "estimator": "min of consecutive warm grid runs per mode",
            "seed_mode": dict(SEED_ENV),
            "equivalence": "bit-identical rows (curves + 3C) across "
                           "seed, tiered, T0 off, profiles recomputed",
            "scenes_at_3x_or_better": int(scenes_over_3x),
            "per_scene": per_scene,
        },
        "ms_before": round(totals["before"], 3),
        "ms_after": round(totals["after"], 3),
        "speedup": round(totals["before"] / max(totals["after"], 1e-9), 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="cross-tier equivalence check only, no "
                             "BENCH_store.json")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed warm grid runs per scene per mode")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        if args.smoke:
            for scene in SCENES:
                configs = verify_equivalence(scene, work)
                print(f"{scene}: identical rows across {configs} tier "
                      "configurations")
            print(f"smoke OK: bit-identical grids on {len(SCENES)} "
                  f"scenes at scale {SCALE}")
            return 0

        report = measure(work, repeats=args.repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for scene, row in report["config"]["per_scene"].items():
        print(f"{scene:8s} seed {row['ms_seed']:8.1f} ms   "
              f"tiered {row['ms_tiered']:8.1f} ms   "
              f"{row['speedup']:6.2f}x   "
              f"(T0 hit rate {row['t0_hit_rate']:.0%}, "
              f"{row['n_cells']} cells)")
    print(f"total: {report['ms_before']:.1f} ms -> "
          f"{report['ms_after']:.1f} ms ({report['speedup']:.2f}x; "
          f"{report['config']['scenes_at_3x_or_better']}/{len(SCENES)} "
          "scenes at >= 3x)")
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


def test_store_tiers(bank):
    """Benchmark-suite entry: full measurement plus the JSON artifact."""
    work = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        report = measure(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    assert report["speedup"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
