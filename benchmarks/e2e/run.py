#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the paper-grid engine.

The paper's results are trace-driven simulations of four scenes over
size x line x associativity grids; this benchmark measures the host
cost of producing those grids, cold and warm, and which layer spent
it.  One client (this script) drives the engine in a closed loop, one
grid at a time, each operation in a fresh interpreter (``child.py``)
with at most two pool workers.  Workloads (see README.md for why each
exists):

* ``cold_serial``    -- 216-cell grid into an empty store, serial
  streamed fold (256K-access chunks);
* ``cold_pipelined`` -- the same grid through the two-worker pipelined
  fold;
* ``cold_inram_fa``  -- the 108 fully-associative cells on the default
  in-RAM path;
* ``warm_grid``      -- the 216-cell grid served from the store a
  ``cold_serial`` operation filled: per iteration one grid with the
  process caches cleared, then one with T0 hot.

Every grid's rows are checked against the digests pinned in
``expected.json``.  Modes::

    run.py                                   # all workloads, interleaved
                                             # rounds, then a traced pass
    run.py --workload W --seed N --seconds S --trace 0|1
                                             # one timed (0) or traced (1)
                                             # run; JSON result last line
    run.py --pin [--seed N]                  # (re)write expected.json
    run.py --collect 10 --out runs.json      # 10 seeds x every workload
    run.py --compare parent.json change.json # verdicts under the bounds

The package is imported from ``src/`` next to this directory; nothing
else is needed on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
from probes import PROBES, chrome_trace, read_spans  # noqa: E402
from reference import array_ref_ms, array_scale  # noqa: E402

#: Paper (Table 4.1) scene order.
SCENES = ("flight", "town", "guitar", "goblet")
LAYOUT = ("blocked", 8)
LINE_SIZES = (32, 64, 128)
SCALE = 0.25
CHUNK = 1 << 18
#: Seed N renders animation time 0.25 * (N mod FRAMES) seconds; every
#: frame's rows are pinned.  Later frames move the town and guitar
#: cameras far enough to change the access count by more than the
#: noise the bounds allow.
FRAMES = 10
FRAME_STEP_S = 0.25
#: Seconds of T0-hot re-serves timed after each cold grid, and their
#: least number.  A few milliseconds each, they would otherwise be
#: sampled in short bursts that one spell of host contention can cover.
HOT_S = 1.0
HOT_MIN = 30
#: Warm iterations per serving process.
ITERATIONS = 100
#: Set-up-only processes per run, on top of every operation's own.
SETUP_PROBES = 3
#: Operations per run however short ``--seconds`` is.
MIN_OPS = 3
#: A child that takes longer is killed and its operation failed.
CHILD_TIMEOUT_S = 150

#: Workload -> grid associativities and ``Engine.run`` keywords.
#: ``warm_grid`` serves the grid a ``cold_serial`` operation stored.
WORKLOADS = {
    "cold_serial": {"assocs": ("full", 4), "run": {"chunk_size": CHUNK}},
    "cold_pipelined": {"assocs": ("full", 4),
                       "run": {"chunk_size": CHUNK, "stream_workers": 2}},
    "cold_inram_fa": {"assocs": ("full",), "run": {}},
    "warm_grid": {"assocs": ("full", 4), "run": {}},
}

#: Probes each workload must fire (calls > 0) in its traced pass; a
#: renamed or moved binding then fails the self-test instead of
#: reading zero.
FOLD = ("kernels.to_lines", "kernels.collapse", "kernels.prev",
        "kernels.set_histogram", "kernels.dominance",
        "kernels.partial_from_runs", "kernels.partial_merge",
        "kernels.partial_finalize", "kernels.fold_block",
        "scenes.build", "scenes.mipmaps", "pipeline.render_blocks",
        "texture.address_map", "texture.place", "artifacts.part_append",
        "artifacts.part_publish", "artifacts.save", "artifacts.load",
        "runner.run", "runner.stats_for", "runner.curve")
EXPECTED_PROBES = {
    "cold_serial": FOLD,
    "cold_pipelined": FOLD + ("pipelined.fold",),
    "cold_inram_fa": ("kernels.to_lines", "kernels.collapse",
                      "kernels.prev", "kernels.set_histogram",
                      "kernels.dominance", "scenes.build",
                      "scenes.mipmaps", "pipeline.render",
                      "texture.address_map", "texture.place",
                      "sweep.profile", "artifacts.save", "artifacts.load",
                      "runner.run", "runner.curve"),
    "warm_grid": FOLD,
}

LAYERS = ("scenes", "pipeline", "texture", "sweep", "artifacts",
          "pipelined", "runner")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad pin file)."""


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(quantiles(values, n=4))


def dir_mb(path: Path) -> float:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file()) / 2 ** 20


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("share", "hit_rate", "hit_ratio", "util",
                      "overhead")):
        return "%"
    if name.endswith("bytes"):
        return "B"
    return "count"


class Settings:
    """What one invocation runs: grid size, repeats, pin file."""

    def __init__(self, args):
        self.scale = args.scale
        self.scenes = tuple(args.scenes.split(","))
        self.iterations = args.iterations
        self.expected = Path(args.expected)
        self.seed = 0 if args.seed is None else args.seed
        self.frame = self.seed % FRAMES

    def grid(self, workload: str, frame: int) -> dict:
        return {"scenes": list(self.scenes), "layout": list(LAYOUT),
                "line_sizes": list(LINE_SIZES), "scale": self.scale,
                "time": FRAME_STEP_S * frame,
                "assocs": list(WORKLOADS[workload]["assocs"])}

    def pin_key(self) -> dict:
        return {"scale": self.scale, "scenes": list(self.scenes),
                "layout": list(LAYOUT), "line_sizes": list(LINE_SIZES)}


class Bench:
    """Runs operations in child processes and keeps the run's tally:
    attempted and failed grids, set-up samples, errors."""

    def __init__(self, settings: Settings, work: Path, pins: dict = None):
        self.settings = settings
        self.work = work
        self.frame = settings.frame
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setups = []
        self._count = 0

    def _fresh(self, prefix: str) -> Path:
        self._count += 1
        path = self.work / f"{prefix}{self._count}"
        path.mkdir(parents=True)
        return path

    def spawn(self, job: dict):
        """Run one child; its JSON output, or ``None`` on failure."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = job["store"]
        job = dict(job, spawned_at=time.time())
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(job)], env=env,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{job['mode']}: timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{job['mode']}: exit {proc.returncode}: "
                               f"{tail[0]}")
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(out["setup_s"])
        return out

    def setup_probe(self) -> None:
        self.spawn({"mode": "setup", "store": str(self._fresh("setup"))})

    def pinned(self, kind: str):
        frame = (self.pins or {}).get("frames", {}).get(str(self.frame))
        return None if frame is None else frame.get(kind)

    def _check(self, label: str, got: str, kind: str) -> bool:
        want = self.pinned(kind)
        if want is None:
            self.errors.append(f"{label}: no pinned {kind} digest for "
                               f"frame {self.frame}")
            return False
        if got != want:
            self.errors.append(f"{label}: rows digest {got[:12]} != "
                               f"pinned {want[:12]}")
            return False
        return True

    def cold_op(self, workload: str, traced: bool = False,
                keep: bool = False, hot: bool = True):
        """One cold grid (plus its hot re-serves, unless ``hot`` is
        false) in a fresh process and a fresh store; ``None`` if it
        failed."""
        store = self._fresh("store")
        trace_dir = self._fresh("trace") if traced else None
        job = {"mode": "cold", "store": str(store),
               "hot_s": HOT_S if hot else 0, "hot_min": HOT_MIN if hot else 0,
               "run": WORKLOADS[workload]["run"],
               "trace_dir": str(trace_dir) if traced else None,
               **self.settings.grid(workload, self.frame)}
        self.attempted += 1
        before = array_ref_ms()
        out = self.spawn(job)
        after = array_ref_ms()
        if out is None:
            self.failed += 1
            return None
        out["grid_scale"] = [array_scale(before, after)]
        self.attempted += len(out["hot_ms"])
        kind = "fa" if workload == "cold_inram_fa" else "grid"
        if not self._check(workload, out["digest"], kind):
            self.failed += 1 + len(out["hot_ms"])
            return None
        self.failed += out["mismatches"]
        if out["mismatches"]:
            self.errors.append(f"{workload}: {out['mismatches']} hot "
                               "re-serves disagree with the cold rows")
        out["store_mb"] = dir_mb(store)
        out["store"] = str(store)
        if traced:
            out["spans"] = read_spans(trace_dir)
        if not keep:
            shutil.rmtree(store, ignore_errors=True)
        return out

    def serve_op(self, fill: dict, traced: bool = False):
        """One warm serving process over the store ``fill`` left."""
        iterations = self.settings.iterations
        trace_dir = self._fresh("trace") if traced else None
        job = {"mode": "serve", "store": fill["store"],
               "digest": fill["digest"], "iterations": iterations,
               "trace_dir": str(trace_dir) if traced else None,
               **self.settings.grid("warm_grid", self.frame)}
        self.attempted += 2 * iterations
        out = self.spawn(job)
        if out is None:
            self.failed += 2 * iterations
            return None
        self.failed += out["mismatches"]
        if out["mismatches"]:
            self.errors.append(f"warm_grid: {out['mismatches']} served "
                               "grids disagree with the pinned rows")
        out["store_mb"] = fill["store_mb"]
        if traced:
            out["spans"] = read_spans(trace_dir)
        return out

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- metrics -----------------------------------------------------------------

def scaled(ops: list, name: str) -> list:
    """Every ``<name>_ms`` sample of ``ops`` times the scale of the
    reference loop paired with it: its time on the uncontended host
    (see reference.py)."""
    return [ms * scale for op in ops
            for ms, scale in zip(op[f"{name}_ms"], op[f"{name}_scale"])]


def e2e_metrics(ops: list, setups: list) -> dict:
    """End-to-end metrics of one run from its successful operations."""
    grid = scaled(ops, "grid")
    grid_ms = median(grid)
    metrics = {
        "grid_ms": grid_ms,
        "hot_grid_ms": median(scaled(ops, "hot")),
        # accesses / (ms / 1e3) / 1e6 = million accesses per second
        "accesses_per_s": median([op["accesses"] for op in ops])
        / grid_ms / 1e3,
        "peak_rss_mb": median([op["peak_rss_mb"] for op in ops]),
        "store_mb": median([op["store_mb"] for op in ops]),
        "setup_s": median(setups),
        "grid_wall_ms": median([ms for op in ops for ms in op["grid_ms"]]),
        "hot_grid_wall_ms": median([ms for op in ops
                                    for ms in op["hot_ms"]]),
    }
    if len(grid) >= 100:  # ten samples beyond the 90th percentile
        metrics["grid_ms_p90"] = quantiles(grid, n=10)[-1]
    workers = median([op["worker_rss_mb"] for op in ops])
    if workers:
        metrics["worker_rss_mb"] = workers
    return metrics


def layer_metrics(parts: list) -> dict:
    """Per-layer metrics of one traced operation.  ``parts`` are the
    traced child outputs that make it up (a warm operation is its store
    fill plus one serving process); span times are summed over every
    process, pool workers included."""
    spans = [span for part in parts for span in part["spans"]]
    main = {part["pid"] for part in parts}
    agg = {}
    for span in spans:
        entry = agg.setdefault(span["name"],
                               {"calls": 0, "dur": 0, "self": 0})
        entry["calls"] += 1
        entry["dur"] += span["dur"]
        entry["self"] += span["self"]
        for key, value in span.get("x", {}).items():
            entry[key] = entry.get(key, 0) + value

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    ns = 1e-9
    metrics = {}
    for name in sorted({name for name, _ in PROBES}):
        metrics[f"{name}.self_s"] = get(name, "self") * ns
        metrics[f"{name}.calls"] = get(name, "calls")
    # Busy time: every span's self time except the pipelined parent's,
    # which is mostly waiting on its workers.
    busy_self = sum(entry["self"] for name, entry in agg.items()
                    if name != "pipelined.fold")
    fold = sum(entry["self"] for name, entry in agg.items()
               if name.startswith("kernels."))
    metrics["kernels.fold.self_s"] = fold * ns
    metrics["kernels.fold.share"] = (100.0 * fold / busy_self if busy_self
                                     else 0.0)
    metrics["kernels.dominance.elements"] = get("kernels.dominance",
                                                "elements")
    blocks = get("kernels.fold_block", "calls")
    metrics["kernels.passes_per_block"] = (
        get("kernels.partial_from_runs", "calls") / blocks if blocks else 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = ns * sum(
            entry["self"] for name, entry in agg.items()
            if name.startswith(layer + "."))
    # The renderer's fourth phase, filter, only runs with a framebuffer,
    # which the engine never passes.
    for phase in ("clip", "raster", "access_gen"):
        metrics[f"pipeline.render.{phase}_s"] = get("pipeline.render",
                                                    phase + "_s")
    metrics["pipeline.render_blocks.blocks"] = get("pipeline.render_blocks",
                                                   "blocks")
    metrics["pipeline.fragments"] = (get("pipeline.render", "fragments")
                                     + get("pipeline.render_blocks",
                                           "fragments"))
    metrics["texture.address_map.texels"] = get("texture.address_map",
                                                "texels")
    loads = get("artifacts.load", "calls")
    metrics["artifacts.load.hit_ratio"] = (
        100.0 * get("artifacts.load", "hit") / loads if loads else 0.0)
    tiers = parts[-1]["tiers"]
    metrics["tiers.t0.hit_rate"] = 100.0 * tiers["t0_hit_rate"]
    metrics["tiers.t0.bytes"] = tiers["t0_bytes"]
    metrics["tiers.t0.evictions"] = tiers["t0_evictions"]
    metrics["tiers.digest.hit_rate"] = 100.0 * tiers["digest_hit_rate"]
    fold_wall = get("pipelined.fold", "dur") * ns
    worker_pids = {span["pid"] for span in spans} - main
    busy = ns * sum(span["self"] for span in spans
                    if span["pid"] in worker_pids)
    metrics["pipelined.fold.wall_s"] = fold_wall
    metrics["pipelined.parent_wait_s"] = get("pipelined.fold", "self") * ns
    metrics["pipelined.worker_busy_s"] = busy
    metrics["pipelined.worker_util"] = (
        100.0 * busy / (len(worker_pids) * fold_wall)
        if worker_pids and fold_wall else 0.0)
    metrics["pipelined.worker_rss_mb"] = max(part["worker_rss_mb"]
                                             for part in parts)
    for key in ("respawns", "retried_ranges", "residual_ranges",
                "fallbacks"):
        metrics[f"pipelined.{key}"] = sum(part.get("stream", {}).get(key, 0)
                                          for part in parts)
    wall = sum(part["wall_ms"] for part in parts) / 1e3
    attributed = ns * sum(span["self"] for span in spans
                          if span["pid"] in main
                          and span["name"] != "runner.run")
    metrics["trace.wall_s"] = wall
    metrics["runner.unattributed_s"] = wall - attributed
    return metrics


def summarize_layers(traced, untraced, fill=None) -> dict:
    """Median per-layer metrics over the traced operations (each with
    the store ``fill`` it was served from, if any), plus the tracing
    overhead against the untraced ones."""
    per_op = [layer_metrics([fill, op] if fill else [op]) for op in traced]
    metrics = {name: median([values[name] for values in per_op])
               for name in per_op[0]}
    traced_ms = median(scaled(traced, "grid"))
    plain_ms = median(scaled(untraced, "grid"))
    metrics["trace.overhead"] = 100.0 * (traced_ms / plain_ms - 1.0)
    return metrics


# -- modes -------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def load_pins(settings: Settings) -> dict:
    if not settings.expected.is_file():
        raise BenchError(f"no pinned rows at {settings.expected}; "
                         "run with --pin first")
    pins = json.loads(settings.expected.read_text())
    if pins.get("settings") != settings.pin_key():
        raise BenchError(f"{settings.expected} pins {pins.get('settings')},"
                         f" not {settings.pin_key()}")
    return pins


def run_single(settings: Settings, workload: str, seconds: float,
               trace: bool, chrome: str = None) -> int:
    """One run of ``BENCHMARK.json``'s command: set up, then
    operations until ``seconds`` are used (at least :data:`MIN_OPS`),
    then one JSON result line."""
    spec = load_spec()
    bench = Bench(settings, WORK / str(os.getpid()), load_pins(settings))
    try:
        for _ in range(SETUP_PROBES):
            bench.setup_probe()
        fill = None
        if workload == "warm_grid":
            fill = bench.cold_op("cold_serial", traced=trace, keep=True,
                                 hot=False)
        traced, untraced = [], []
        start = time.monotonic()
        index = 0
        while fill is not None or workload != "warm_grid":
            with_trace = trace and index % 2 == 1
            began = time.monotonic()
            op = (bench.serve_op(fill, traced=with_trace)
                  if workload == "warm_grid"
                  else bench.cold_op(workload, traced=with_trace))
            if op is not None:
                (traced if with_trace else untraced).append(op)
            index += 1
            now = time.monotonic()
            if index >= MIN_OPS and now + (now - began) > start + seconds:
                break
        metrics = {}
        if untraced and (traced or not trace):
            if trace:
                values = summarize_layers(traced, untraced, fill)
                wanted = spec["per_layer"]
            else:
                values = e2e_metrics(untraced, bench.setups)
                wanted = spec["end_to_end"]
            metrics = {item["name"]: {"value": values[item["name"]],
                                      "unit": item["unit"]}
                       for item in wanted}
        if chrome and traced:
            groups = ([(f"{workload} fill", fill["spans"])] if fill else [])
            groups += [(f"{workload} op {n}", op["spans"])
                       for n, op in enumerate(traced)]
            Path(chrome).write_text(json.dumps(chrome_trace(groups)))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for error in bench.errors:
        print(f"error: {error}", file=sys.stderr)
    correct = bench.failed == 0 and not bench.errors and bool(metrics)
    print(json.dumps({"correct": correct,
                      "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_rounds(settings: Settings, repeats: int, out: str = None,
               chrome: str = None) -> int:
    """Every workload in interleaved rounds (serial, pipelined, in-RAM,
    warm), then one traced operation per workload."""
    spec = load_spec()
    bench = Bench(settings, WORK / str(os.getpid()), load_pins(settings))
    runs = {workload: [] for workload in WORKLOADS}
    samples = {workload: [] for workload in WORKLOADS}
    layers = {}
    groups = []
    try:
        for _ in range(repeats):
            fill = None
            for workload in WORKLOADS:
                if workload == "warm_grid":
                    op = bench.serve_op(fill) if fill else None
                else:
                    op = bench.cold_op(workload,
                                       keep=workload == "cold_serial")
                    fill = op if workload == "cold_serial" else fill
                if op is not None:
                    samples[workload].append(op)
                    runs[workload].append({"seed": settings.seed,
                                           "metrics": e2e_metrics(
                                               [op], [op["setup_s"]])})
            if fill:
                shutil.rmtree(fill["store"], ignore_errors=True)
        for workload in WORKLOADS:
            if not samples[workload]:
                continue
            fill = None
            if workload == "warm_grid":
                fill = bench.cold_op("cold_serial", traced=True, keep=True,
                                     hot=False)
                op = bench.serve_op(fill, traced=True) if fill else None
            else:
                op = bench.cold_op(workload, traced=True)
            if op is None:
                continue
            layers[workload] = summarize_layers([op], samples[workload],
                                                fill)
            layers[workload]["probe_calls"] = {
                name: layers[workload][f"{name}.calls"]
                for name in EXPECTED_PROBES[workload]}
            if fill:
                groups.append((f"{workload} fill", fill["spans"]))
            groups.append((f"{workload} op", op["spans"]))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    print_rounds(spec, samples, bench)
    print_layers(spec, layers)
    for error in bench.errors:
        print(f"error: {error}", file=sys.stderr)
    if chrome:
        Path(chrome).write_text(json.dumps(chrome_trace(groups)))
    if out:
        Path(out).write_text(json.dumps({"sets": [{
            "label": "rounds", "settings": settings.pin_key(),
            "runs": runs}], "layers": layers,
            "fail_rate": bench.fail_rate}, indent=1) + "\n")
    return 0 if bench.failed == 0 and not bench.errors else 1


#: Warm-grid metric -> the per-grid samples it is the median of.
SERVED = {"grid_ms": "grid", "hot_grid_ms": "hot"}


def print_rounds(spec, samples, bench) -> None:
    print(f"{'workload':16s} {'metric':16s} {'median':>12s} {'min':>12s} "
          f"{'max':>12s} {'n':>5s}  unit")
    extra = [{"name": "grid_ms_p90", "unit": "ms"},
             {"name": "worker_rss_mb", "unit": "MB"},
             {"name": "grid_wall_ms", "unit": "ms"},
             {"name": "hot_grid_wall_ms", "unit": "ms"}]
    for workload, ops in samples.items():
        if not ops:
            print(f"{workload:16s} (every operation failed)")
            continue
        pooled = e2e_metrics(ops, [op["setup_s"] for op in ops])
        per_op = [e2e_metrics([op], [op["setup_s"]]) for op in ops]
        for item in spec["end_to_end"] + extra:
            name = item["name"]
            if name not in pooled:
                continue
            if workload == "warm_grid" and name in SERVED:
                # Every served grid is a sample: pooled, not per process.
                values = scaled(ops, SERVED[name])
            elif name == "grid_ms_p90":
                values = [pooled[name]]
            else:
                values = [metrics[name] for metrics in per_op
                          if name in metrics]
            n = sum(len(op["grid_ms"]) for op in ops) \
                if name == "grid_ms_p90" else len(values)
            print(f"{workload:16s} {name:16s} {median(values):12.4f} "
                  f"{min(values):12.4f} {max(values):12.4f} {n:5d}  "
                  f"{item['unit']}")
    print(f"{'all':16s} {'fail_rate':16s} {bench.fail_rate:12.4f} "
          f"{'':12s} {'':12s} {bench.attempted:5d}  failed/attempted")


def print_layers(spec, layers) -> None:
    if not layers:
        return
    names = sorted({name for values in layers.values() for name in values
                    if name != "probe_calls"})
    workloads = list(layers)
    units = {item["name"]: item["unit"] for item in spec["per_layer"]}
    print()
    print(f"{'per-layer metric (traced pass)':34s} "
          + " ".join(f"{workload:>15s}" for workload in workloads)
          + "  unit")
    for name in names:
        print(f"{name:34s} " + " ".join(
            f"{layers[workload].get(name, 0):15.6g}"
            for workload in workloads)
            + f"  {units.get(name) or unit_of(name)}")


def run_pin(settings: Settings, seed) -> int:
    """Pin each frame's rows after checking that the in-RAM, streamed
    and pipelined paths agree and that the fully-associative grid is
    the matching subset of the full one."""
    pins = {"settings": settings.pin_key(), "frames": {}}
    if settings.expected.is_file():
        existing = json.loads(settings.expected.read_text())
        if existing.get("settings") == pins["settings"]:
            pins = existing
    frames = range(FRAMES) if seed is None else [seed % FRAMES]
    bench = Bench(settings, WORK / str(os.getpid()))
    try:
        for frame in frames:
            digests = {}
            for label, workload, run in (
                    ("in-RAM", "cold_serial", {}),
                    ("streamed", "cold_serial", {"chunk_size": CHUNK}),
                    ("pipelined", "cold_pipelined",
                     WORKLOADS["cold_pipelined"]["run"]),
                    ("fully-associative", "cold_inram_fa", {})):
                out = bench.spawn({"mode": "digest", "run": run,
                                   "store": str(bench._fresh("pin")),
                                   **settings.grid(workload, frame)})
                if out is None:
                    raise BenchError(f"frame {frame}: {label} grid failed: "
                                     f"{bench.errors[-1]}")
                digests[label] = out
            full = {digests[label]["digest"]
                    for label in ("in-RAM", "streamed", "pipelined")}
            if len(full) != 1:
                raise BenchError(f"frame {frame}: the in-RAM, streamed and "
                                 "pipelined rows differ; not pinning")
            fa = digests["fully-associative"]["digest"]
            if fa != digests["in-RAM"]["fa_digest"]:
                raise BenchError(f"frame {frame}: the fully-associative "
                                 "grid is not the subset of the full grid")
            pins["frames"][str(frame)] = {"grid": full.pop(), "fa": fa}
            print(f"frame {frame}: pinned ({FRAME_STEP_S * frame:g} s)")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    pins["frames"] = dict(sorted(pins["frames"].items(),
                                 key=lambda item: int(item[0])))
    settings.expected.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {settings.expected}")
    return 0


def run_collect(args, settings: Settings, count: int, out: str,
                label: str) -> int:
    """``count`` runs of every workload (seeds 0..count-1, interleaved
    across workloads) through the single-run command; writes one set
    and prints each metric's spread against its bound."""
    spec = load_spec()
    passthrough = ["--scale", str(args.scale), "--scenes", args.scenes,
                   "--iterations", str(args.iterations),
                   "--expected", str(args.expected)]
    runs = {workload: [] for workload in WORKLOADS}
    for seed in range(count):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0",
                 *passthrough], capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(proc.stderr)
                raise BenchError(f"{workload} seed {seed} failed")
            runs[workload].append({"seed": seed, "metrics": {
                name: value["value"]
                for name, value in result["metrics"].items()}})
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{name}={value['value']:.4g}"
                for name, value in result["metrics"].items()), flush=True)
    Path(out).write_text(json.dumps({"sets": [{
        "label": label, "settings": {**settings.pin_key(),
                                     "run_seconds": spec["run_seconds"]},
        "runs": runs}]}, indent=1) + "\n")
    print(f"wrote {out}")
    print_spreads(spec, runs)
    return 0


def print_spreads(spec, runs) -> None:
    """Quartile distance over median of each metric, as a share of its
    bound (the acceptance rule wants < 1, and aims for < 1/3)."""
    for workload, entries in runs.items():
        for item in spec["end_to_end"]:
            values = [entry["metrics"][item["name"]] for entry in entries]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2
            print(f"{workload:16s} {item['name']:16s} median {q2:12.4f} "
                  f"spread {spread:7.2%} = {spread / item['bound']:5.2f} "
                  "x bound")


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """Improved, regressed, unchanged or unresolved, by the
    choosing-metrics rules.  ``parent`` and ``change`` are paired by
    seed.  A gain needs at least 9/10 of the pairs won (ties count for
    neither) and a median shift beyond the parent's quartile distance; a
    regression is a median worse by more than ``bound``; a spread wider
    than ``bound`` leaves the rest unresolved, unless every change run
    reads better than every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    q1, middle, q3 = quartiles(parent)
    wins = sum(sign * (new - old) < 0 for old, new in zip(parent, change))
    shift = sign * (middle - median(change))  # > 0: the change is better
    if wins >= 0.9 * min(len(parent), len(change)) and shift > q3 - q1:
        return "improved"
    if -shift > bound * abs(middle):
        return "regressed"
    spread = max((high - low) / abs(mid) for low, mid, high
                 in (quartiles(parent), quartiles(change)))
    worst_change = max(sign * value for value in change)
    best_parent = min(sign * value for value in parent)
    if spread > bound and worst_change >= best_parent:
        return "unresolved"
    return "unchanged"


def run_compare(paths) -> int:
    spec = load_spec()
    sets = [entry for path in paths
            for entry in json.loads(Path(path).read_text())["sets"]]
    if len(sets) < 2:
        raise BenchError("--compare needs two sets (two files, or one "
                         "file holding two)")
    parent, change = sets[0], sets[-1]
    print(f"parent: {parent.get('label')}   change: {change.get('label')}")
    print(f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':>36s}"
          f" {'change median [q1, q3]':>36s}  verdict")
    regressed = False
    for workload in parent["runs"]:
        old_runs = sorted(parent["runs"][workload], key=lambda r: r["seed"])
        new_runs = sorted(change["runs"].get(workload, []),
                          key=lambda r: r["seed"])
        for item in spec["end_to_end"]:
            name = item["name"]
            old = [run["metrics"][name] for run in old_runs
                   if name in run["metrics"]]
            new = [run["metrics"][name] for run in new_runs
                   if name in run["metrics"]]
            if not old or not new:
                continue
            call = verdict(old, new, item["better"], item["bound"])
            regressed |= call == "regressed"
            cells = []
            for values in (old, new):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:12.4f} [{q1:10.4f}, {q3:10.4f}]")
            print(f"{workload:16s} {name:16s} {cells[0]:>36s} "
                  f"{cells[1]:>36s}  {call}")
    return 1 if regressed else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one timed run of this workload (the "
                             "BENCHMARK.json command); default: every "
                             "workload in rounds")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed: animation time 0.25*(seed mod "
                             f"{FRAMES}) s (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of traced "
                             "operations instead of end-to-end ones")
    parser.add_argument("--chrome-trace", metavar="FILE",
                        help="write the traced operations as Chrome "
                             "trace-event JSON")
    parser.add_argument("--repeats", type=int, default=3,
                        help="rounds when running every workload")
    parser.add_argument("--out", help="write the rounds (or --collect "
                                      "runs) as a results file")
    parser.add_argument("--pin", action="store_true",
                        help="check and pin the rows of every frame (or "
                             "of --seed's frame)")
    parser.add_argument("--collect", type=int, metavar="N",
                        help="N single runs per workload, seeds 0..N-1")
    parser.add_argument("--label", default="collect",
                        help="label of the --collect set")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="compare the first set in FILEs (parent) "
                             "with the last (change)")
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--scenes", default=",".join(SCENES))
    parser.add_argument("--iterations", type=int, default=ITERATIONS,
                        help="warm iterations per serving process")
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="pinned rows file")
    args = parser.parse_args(argv)
    if args.collect and not args.out:
        parser.error("--collect needs --out")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    # Exit through Python on SIGTERM, so the running child is killed
    # and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    settings = Settings(args)
    try:
        if args.compare:
            return run_compare(args.compare)
        if args.pin:
            return run_pin(settings, args.seed)
        if args.collect:
            return run_collect(args, settings, args.collect, args.out,
                               args.label)
        if args.workload:
            return run_single(settings, args.workload, args.seconds,
                              bool(args.trace), args.chrome_trace)
        return run_rounds(settings, args.repeats, args.out,
                          args.chrome_trace)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
