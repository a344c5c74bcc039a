"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``render``
    Render a benchmark scene to a PNG/PPM and print trace statistics.
``simulate``
    Render (or reuse) a scene and simulate one cache configuration;
    prints miss breakdown and memory bandwidth.
``sweep``
    Print a miss-rate curve along one axis (cache size, line size,
    associativity, or screen tile size).
``cache``
    Inspect (``stats``), integrity-scan (``verify``), self-heal
    (``repair``) or empty (``clear``) the shared on-disk artifact
    store.
``scenes``
    List the benchmark scenes and their headline characteristics.
``costs``
    Print the Table 2.1 fragment-generator cost model for a layout.

Every trace-consuming command goes through :mod:`repro.engine`, so
renders, byte-address streams and distance profiles are reused from
the content-addressed store (``benchmarks/.cache/`` by default,
``REPRO_CACHE_DIR`` to relocate) across invocations and with the
benchmark harnesses.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import format_table
from .core import (
    CacheConfig,
    KERNELS,
    PAPER_CACHE_SIZES,
    PAPER_LINE_SIZES,
    cached_bandwidth,
    classify_counts,
    mbytes_per_second,
    uncached_bandwidth,
)
from .engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    TraceSpec,
    layout_from_spec,
    order_from_spec,
    scene_data,
    scene_placements,
)
from .pipeline import fragment_cost
from .pipeline.costs import PHASE_TABLE
from .pipeline.renderer import RASTER_PATHS
from .scenes import ALL_SCENES, make_scene


def _add_scene_arguments(parser):
    parser.add_argument("scene", choices=sorted(ALL_SCENES),
                        help="benchmark scene")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="reproduction scale (1.0 = paper resolution)")
    parser.add_argument("--time", type=float, default=0.0,
                        help="animation time in seconds")
    parser.add_argument("--order", default="paper",
                        choices=["paper", "horizontal", "vertical", "tiled", "hilbert"],
                        help="rasterization order (paper = the direction the "
                             "paper reports for this scene)")
    parser.add_argument("--tile", type=int, default=8,
                        help="tile size for --order tiled")
    parser.add_argument("--aniso", type=int, default=1,
                        help="max anisotropy (1 = trilinear)")
    parser.add_argument("--lod-bias", type=float, default=0.0,
                        help="level-of-detail bias (+1 = coarser mips)")
    parser.add_argument("--no-mipmaps", action="store_true",
                        help="GL_LINEAR ablation: bilinear from level 0")
    parser.add_argument("--raster", default="batched",
                        choices=list(RASTER_PATHS),
                        help="rasterization path: the triangle-batched "
                             "vectorized kernel or the per-triangle "
                             "reference (both produce bit-identical traces)")


def _add_layout_arguments(parser):
    parser.add_argument("--layout", default="padded",
                        choices=["nonblocked", "blocked", "padded", "blocked6d",
                                 "williams"],
                        help="texture memory representation")
    parser.add_argument("--block", type=int, default=4,
                        help="block dimension in texels for blocked layouts")
    parser.add_argument("--pad", type=int, default=4,
                        help="pad blocks per row for the padded layout")


def _add_kernel_argument(parser):
    parser.add_argument("--kernel", default="vectorized",
                        choices=sorted(KERNELS),
                        help="LRU simulation path: batched stack-distance "
                             "kernels or the sequential reference simulator")


def _int_at_least(least: int):
    """An argparse ``type``: an integer no smaller than ``least``, so an
    out-of-range value is a usage error (exit 2), not a traceback or a
    silent in-RAM run."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least} (got {value})")
        return value
    return parse


def _add_streaming_arguments(parser):
    parser.add_argument("--chunk-size", type=_int_at_least(1), default=None,
                        metavar="ACCESSES",
                        help="stream the pipeline in blocks of at most this "
                             "many texel accesses: bit-identical results, "
                             "and the fold holds one block plus its "
                             "per-pair states, not the whole trace (a cold "
                             "render also holds one triangle batch)")
    parser.add_argument("--stream-workers", type=_int_at_least(0), default=0,
                        help="pipeline the streaming fold: partition cold "
                             "renders across this many worker processes, "
                             "one pool for the whole grid, each folding "
                             "the blocks it renders (implies streaming; "
                             ">= 2 to engage, falls back to the serial "
                             "streamed path on any pipeline failure)")
    parser.add_argument("--audit-parts", type=_int_at_least(0), default=0,
                        metavar="N",
                        help="spot-audit N sampled parts of every streamed "
                             "trace against a sequential reference oracle "
                             "(requires streaming)")


def _order_spec(args, scene_name: str) -> tuple:
    """The traversal-order spec tuple selected by the CLI flags."""
    if args.order == "paper":
        return (ALL_SCENES[scene_name].paper_rasterization,)
    if args.order == "tiled":
        return ("tiled", args.tile)
    if args.order == "hilbert":
        width, height = make_scene(scene_name).frame_size(args.scale)
        return ("hilbert", int(np.ceil(np.log2(max(width, height)))))
    return (args.order,)


def _layout_spec(args, cache_size: int = 32 * 1024) -> tuple:
    if args.layout == "blocked":
        return ("blocked", args.block)
    if args.layout == "padded":
        return ("padded", args.block, args.pad)
    if args.layout == "blocked6d":
        return ("blocked6d", args.block, cache_size)
    return (args.layout,)


def _trace_spec(args, record_positions: bool = False) -> TraceSpec:
    return TraceSpec(
        scene=args.scene, scale=args.scale, order=_order_spec(args, args.scene),
        time=args.time, max_anisotropy=args.aniso, lod_bias=args.lod_bias,
        use_mipmaps=not args.no_mipmaps, record_positions=record_positions,
        raster=args.raster,
    )


def _print_recovery(stream_report, store=None) -> None:
    """Surface degraded-run evidence (pipelined recoveries, store
    demotions/quarantines) in command summaries instead of leaving
    them as RuntimeWarnings scrolled off the screen."""
    if stream_report is not None and not stream_report.clean:
        print(f"note: {stream_report.summary()}")
        for event in stream_report.events[:8]:
            print(f"  recovery: {event}")
        hidden = len(stream_report.events) - 8
        if hidden > 0:
            print(f"  ... and {hidden} more recovery event(s)")
    events = getattr(store, "recovery_events", None) or ()
    if events:
        print(f"note: the artifact store degraded during this run "
              f"({len(events)} event(s)):")
        for event in events[:8]:
            print(f"  store: {event}")


def _print_audit(report) -> None:
    """One line per passed streamed spot audit (a failed one raises)."""
    print(f"audit: {len(report.parts)}/{report.n_parts} parts vs "
          f"the sequential oracle, {len(report.pairs)} pair(s), "
          f"{report.accesses:,} accesses checked -- OK")


def _render(args) -> int:
    engine = Engine()
    spec = _trace_spec(args)
    result = engine.render(spec, produce_image=args.out is not None,
                           fresh=args.profile)
    if args.out:
        if args.out.endswith(".ppm"):
            result.framebuffer.to_ppm(args.out)
        else:
            result.framebuffer.to_png(args.out)
        print(f"wrote {args.out}")
    if args.save_trace:
        result.trace.save(args.save_trace)
        print(f"wrote {args.save_trace}")
    scene = scene_data(args.scene, args.scale, args.time)
    print(f"{scene.name}: {scene.width}x{scene.height}, "
          f"{result.n_triangles_rasterized}/{result.n_triangles_submitted} "
          f"triangles rasterized, {result.n_fragments:,} fragments, "
          f"{result.trace.n_accesses:,} texel fetches "
          f"({order_from_spec(spec.order).name} order)")
    if args.profile and result.phase_ms is not None:
        total = sum(result.phase_ms.values())
        print(f"phase timings ({spec.raster} raster):")
        for phase, ms in result.phase_ms.items():
            print(f"  {phase:11s} {ms:8.1f} ms")
        print(f"  {'total':11s} {total:8.1f} ms")
    _print_recovery(None, engine.store)
    return 0


def _run_grid(engine, args, layout_spec, **cells):
    """Run the one-scene grid of ``cells`` (``cache_sizes``,
    ``line_sizes``, ``assocs``) that ``simulate`` and ``sweep`` print,
    under the scene, order, filtering, raster and layout flags, with
    the kernel and streaming flags as :meth:`Engine.run` keywords.
    Returns ``None`` after printing the usage error of a flag
    combination the engine refuses."""
    streaming = args.chunk_size is not None or args.stream_workers > 0
    if streaming and args.kernel != "vectorized":
        print("error: --chunk-size/--stream-workers require "
              "--kernel vectorized", file=sys.stderr)
        return None
    if args.audit_parts and not streaming:
        print("error: --audit-parts requires streaming "
              "(--chunk-size/--stream-workers)", file=sys.stderr)
        return None
    grid = ExperimentSpec(
        scenes=(args.scene,), orders=(_order_spec(args, args.scene),),
        layouts=(layout_spec,), scale=args.scale, time=args.time,
        max_anisotropy=args.aniso, lod_bias=args.lod_bias,
        use_mipmaps=not args.no_mipmaps, raster=args.raster, **cells)
    return engine.run(grid, kernel=args.kernel, chunk_size=args.chunk_size,
                      stream_workers=args.stream_workers,
                      audit_parts=args.audit_parts)


def _simulate(args) -> int:
    engine = Engine()
    layout_spec = _layout_spec(args, cache_size=args.cache_size)
    config = CacheConfig(args.cache_size, args.line_size,
                         None if args.assoc == 0 else args.assoc)
    # The fully-associative cell of the same size, then the requested
    # one: the 3C split compares their misses.
    result = _run_grid(engine, args, layout_spec,
                       cache_sizes=(config.size,),
                       line_sizes=(config.line_size,),
                       assocs=(None,) if config.assoc is None
                       else (None, config.assoc))
    if result is None:
        return 2
    full, cell = result.rows[0].stats, result.rows[-1].stats
    stats = classify_counts(config, cell.accesses, cell.misses,
                            cell.cold_misses, full.misses)
    for report in result.audit_reports:
        _print_audit(report)
    bandwidth = cached_bandwidth(stats.miss_rate, args.line_size)
    print(f"{args.scene} / {layout_from_spec(layout_spec).name} / "
          f"{order_from_spec(result.rows[0].order).name} / "
          f"{config.label()}")
    print(f"  accesses        {stats.accesses:,}")
    print(f"  miss rate       {100 * stats.miss_rate:.3f}%")
    print(f"  cold misses     {stats.cold_misses:,}")
    print(f"  capacity misses {stats.capacity_misses:,}")
    print(f"  conflict misses {stats.conflict_misses:,}")
    print(f"  bandwidth       {mbytes_per_second(bandwidth):.0f} MB/s at 50M "
          f"fragments/s ({uncached_bandwidth() / max(bandwidth, 1e-9):.1f}x "
          "less than uncached)")
    _print_recovery(result.stream_report, engine.store)
    return 0


def _sweep(args) -> int:
    engine = Engine()
    layout_spec = _layout_spec(args)
    layout_name = layout_from_spec(layout_spec).name
    if args.axis == "cache":
        cells = dict(cache_sizes=PAPER_CACHE_SIZES,
                     line_sizes=(args.line_size,))
    elif args.axis == "line":
        cells = dict(cache_sizes=(args.cache_size,),
                     line_sizes=PAPER_LINE_SIZES)
    else:
        cells = dict(cache_sizes=(args.cache_size,),
                     line_sizes=(args.line_size,), assocs=(1, 2, 4, 8, None))
    result = _run_grid(engine, args, layout_spec, **cells)
    if result is None:
        return 2

    if args.axis == "cache":
        rows = [[f"{row.config.size // 1024}KB",
                 f"{100 * row.stats.miss_rate:.3f}%"] for row in result.rows]
        print(format_table(["cache size", "miss rate"], rows,
                           title=f"{args.scene}, {layout_name}, fully associative, "
                                 f"{args.line_size}B lines"))
    elif args.axis == "line":
        rows = [[f"{row.config.line_size}B",
                 f"{100 * row.stats.miss_rate:.3f}%"] for row in result.rows]
        print(format_table(["line size", "miss rate"], rows,
                           title=f"{args.scene}, {layout_name}, "
                                 f"{args.cache_size // 1024}KB fully associative"))
    else:  # assoc
        rows = [["full" if row.config.assoc is None else f"{row.config.assoc}-way",
                 f"{100 * row.stats.miss_rate:.3f}%"] for row in result.rows]
        print(format_table(["associativity", "miss rate"], rows,
                           title=f"{args.scene}, {layout_name}, "
                                 f"{args.cache_size // 1024}KB, "
                                 f"{args.line_size}B lines"))
    for report in result.audit_reports:
        _print_audit(report)
    _print_recovery(result.stream_report, engine.store)
    return 0


def _parallel(args) -> int:
    from .core.parallel import (
        ScanlineInterleave, StripSplit, TileInterleave, simulate_parallel,
    )
    engine = Engine()
    spec = _trace_spec(args, record_positions=True)
    trace = engine.trace(spec)
    layout_spec = _layout_spec(args, cache_size=args.cache_size)
    placements = scene_placements(args.scene, args.scale, layout_spec,
                                  time=args.time)
    height = scene_data(args.scene, args.scale, args.time).height
    config = CacheConfig(args.cache_size, args.line_size, 2)
    rows = []
    for distribution in (ScanlineInterleave(args.generators),
                         TileInterleave(args.generators, tile=8),
                         TileInterleave(args.generators, tile=32),
                         StripSplit(args.generators, height=height)):
        stats = simulate_parallel(trace, placements, distribution, config,
                                  kernel=args.kernel)
        rows.append([
            distribution.name,
            f"{100 * stats.aggregate_miss_rate:.3f}%",
            f"{stats.redundancy:.2f}x",
            f"{stats.load_imbalance:.2f}x",
            f"{stats.shared_memory_bandwidth() / 2**20:.0f} MB/s",
        ])
    print(format_table(
        ["distribution", "miss rate", "redundancy", "imbalance", "shared BW"],
        rows,
        title=(f"{args.scene}: {args.generators} generators, private "
               f"{config.label()} caches"),
    ))
    _print_recovery(None, engine.store)
    return 0


def _hierarchy(args) -> int:
    from .core.hierarchy import hierarchy_bandwidths, simulate_hierarchy
    from .core.machine import PAPER_MACHINE
    engine = Engine()
    spec = _trace_spec(args)
    layout_spec = _layout_spec(args, cache_size=args.l2_size)
    addresses = engine.addresses(spec, layout_spec)
    configs = [CacheConfig(args.l1_size, 32, 2),
               CacheConfig(args.l2_size, args.line_size, 2)]
    stats = simulate_hierarchy(addresses, configs, kernel=args.kernel)
    bandwidths = hierarchy_bandwidths(stats, PAPER_MACHINE)
    print(f"{args.scene} / {layout_from_spec(layout_spec).name} / "
          f"L1 {configs[0].label()} + L2 {configs[1].label()}")
    for level, (level_stats, bandwidth) in enumerate(zip(stats.levels, bandwidths)):
        boundary = "DRAM" if level == len(bandwidths) - 1 else f"L{level + 2}"
        print(f"  L{level + 1}: local miss {100 * level_stats.miss_rate:.3f}%  "
              f"-> {boundary} traffic {bandwidth / 2**20:.0f} MB/s")
    print(f"  memory miss rate {100 * stats.memory_miss_rate:.3f}% of all accesses")
    _print_recovery(None, engine.store)
    return 0


def _csv_ints(text):
    return [int(field) for field in text.split(",") if field]


def _timing(args) -> int:
    from .core.dram import PAPER_DRAM
    from .core.machine import PAPER_MACHINE
    from .core.texcache import (
        fragment_fill_streams,
        simulate_texcache,
        sweep_texcache,
    )

    engine = Engine()
    spec = _trace_spec(args)
    layout_spec = _layout_spec(args, cache_size=args.cache_size)
    config = CacheConfig(args.cache_size, args.line_size,
                         None if args.assoc == 0 else args.assoc)
    addresses = engine.addresses(spec, layout_spec)
    dram = PAPER_DRAM if args.dram_services else None
    counts, services = fragment_fill_streams(addresses, config, dram=dram,
                                             kernel=args.kernel)
    params = PAPER_MACHINE.texcache_params(
        args.line_size, fragment_fifo=args.fragment_fifo,
        request_fifo=args.request_fifo, reorder_buffer=args.reorder_buffer)
    service_note = "page-mode DRAM" if dram is not None else \
        f"uniform {params.fill_interval}-cycle"
    print(f"{args.scene} / {layout_from_spec(layout_spec).name} / "
          f"{config.label()}: {len(counts):,} fragments, "
          f"{int(counts.sum()):,} line fills ({service_note} services)")
    if args.depths or args.latencies:
        depths = _csv_ints(args.depths) if args.depths \
            else [params.fragment_fifo]
        latencies = _csv_ints(args.latencies) if args.latencies \
            else [params.fill_latency]
        results = sweep_texcache(counts, params, depths, latencies,
                                 services=services, kernel=args.kernel)
        rows = [[depth, latency,
                 f"{cell.total_cycles:,}",
                 f"{cell.stall_cycles:,}",
                 f"{cell.fragments_per_second / 1e6:.1f}M",
                 f"{100 * cell.efficiency:.1f}%"]
                for (depth, latency), cell in results.items()]
        print(format_table(
            ["frag FIFO", "latency", "total cycles", "stall cycles",
             "frag/s", "efficiency"], rows,
            title="Latency tolerance (Igehy et al. 1998 three-queue "
                  "model):"))
    else:
        result = simulate_texcache(counts, params, services=services,
                                   kernel=args.kernel)
        print(f"  fragment FIFO   {params.fragment_fifo} entries "
              f"(avg occupancy {result.avg_fragment_fifo:.1f})")
        print(f"  request FIFO    {params.request_fifo} entries "
              f"(avg occupancy {result.avg_request_fifo:.1f})")
        print(f"  reorder buffer  {params.reorder_buffer} slots "
              f"(avg occupancy {result.avg_reorder_buffer:.1f})")
        print(f"  fill latency    {params.fill_latency} cycles")
        print(f"  total cycles    {result.total_cycles:,} "
              f"(ideal {result.ideal_cycles:,}, "
              f"stall {result.stall_cycles:,})")
        print(f"  fragment rate   {result.fragments_per_second / 1e6:.1f}M/s "
              f"({100 * result.efficiency:.1f}% of the stall-free "
              "pipeline)")
    _print_recovery(None, engine.store)
    return 0


def _cache(args) -> int:
    store = ArtifactStore(args.dir) if args.dir else ArtifactStore()
    if args.action == "stats":
        report = store.stats()
        rows = [[kind, entry["files"], f"{entry['bytes'] / 2**20:.2f} MB",
                 entry["parts"], f"{entry['part_bytes'] / 2**20:.2f} MB",
                 entry["tmp"]]
                for kind, entry in report["kinds"].items()]
        rows.append(["total", report["total_files"] - report["part_files"],
                     f"{(report['total_bytes'] - report['part_bytes']) / 2**20:.2f} MB",
                     report["part_files"],
                     f"{report['part_bytes'] / 2**20:.2f} MB",
                     report["tmp_files"]])
        print(format_table(
            ["artifact kind", "files", "size", "parts", "part size", "tmp"],
            rows, title=f"artifact store at {report['root']}"))
        if report["tmp_files"]:
            print(f"note: {report['tmp_files']} orphaned temp file(s) from "
                  "interrupted writers; `repro cache repair` purges them")
        if report["quarantined"]:
            print(f"note: {report['quarantined']} file(s) in quarantine/ "
                  "(see the *.reason.json records alongside them)")
        memory = report["memory"]
        print(f"memory tier (T0): {memory['entries']} entries, "
              f"{memory['bytes'] / 2**20:.2f} MB of "
              f"{memory['max_bytes'] / 2**20:.0f} MB, "
              f"hit rate {memory['hit_rate']:.0%} "
              f"({memory['hits']} hits / {memory['misses']} misses)")
        digests = report["digest_cache"]
        print(f"digest cache: {digests['entries']} entries, "
              f"hit rate {digests['hit_rate']:.0%} (verify-once loads)")
    elif args.action == "verify":
        report = store.verify()
        rows = [[kind, entry["ok"], len(entry["bad"]), entry["pending"],
                 len(entry["tmp"]), len(entry["orphaned_parts"]),
                 len(entry["resumable"])]
                for kind, entry in report["kinds"].items()]
        print(format_table(["artifact kind", "ok", "bad", "pending", "tmp",
                            "orphaned parts", "resumable"], rows,
                           title=f"integrity scan of {report['root']}"))
        for kind, entry in report["kinds"].items():
            for problem in entry["bad"]:
                print(f"  BAD {kind}/{problem['file']}: {problem['reason']}")
        if report["tmp"]:
            print(f"note: {report['tmp']} temp file(s); "
                  "`repro cache repair` purges stale ones")
        if report["orphaned_parts"]:
            print(f"note: {report['orphaned_parts']} stale orphaned "
                  "trace part(s) no sidecar lists; `repro cache repair` "
                  "purges them")
        if report["resumable"]:
            print(f"note: {report['resumable']} resumable part(s) from an "
                  "interrupted cold fold; the next cold fold of their "
                  "trace resumes from exactly these")
        if report["bad"]:
            print(f"{report['bad']} corrupt artifact(s); "
                  "run `repro cache repair` to quarantine them")
            return 1
        print(f"store verified clean ({report['ok']} artifacts)")
    elif args.action == "repair":
        report = store.repair()
        print(f"quarantined {len(report['quarantined'])} artifact(s), "
              f"purged {len(report['purged_tmp'])} stale temp file(s), "
              f"{len(report['purged_parts'])} orphaned part file(s) and "
              f"{len(report['purged_resume'])} stale resume record(s) "
              f"from {report['root']}")
        if report["kept_resumable"]:
            print(f"kept {report['kept_resumable']} resumable part(s) for "
                  "the next cold fold to resume from")
        for name in report["quarantined"]:
            print(f"  quarantined {name}")
    else:  # clear
        report = store.clear()
        print(f"cleared {report['total_files']} artifacts "
              f"({report['total_bytes'] / 2**20:.2f} MB) "
              f"from {report['root']}")
    return 0


def _scenes(args) -> int:
    rows = []
    for name, cls in ALL_SCENES.items():
        rows.append([
            name,
            f"{cls.paper_width}x{cls.paper_height}",
            cls.paper_rasterization,
            cls.__doc__.strip().splitlines()[0],
        ])
    print(format_table(["scene", "paper resolution", "paper order", "description"],
                       rows, title="Benchmark scenes (paper Table 4.1):"))
    return 0


def _costs(args) -> int:
    rows = [
        [name, ops.adds, ops.shifts, ops.multiplies, ops.divides,
         ops.memory_accesses or "-"]
        for name, ops in PHASE_TABLE.items()
    ]
    print(format_table(
        ["phase", "add/sub", "shift", "mult", "div", "mem accesses"],
        rows, title="Table 2.1: fragment generator costs"))
    layout = layout_from_spec(_layout_spec(args))
    total = fragment_cost(layout)
    print(f"\nper-fragment total with {layout.name} addressing: "
          f"{total.adds} adds, {total.shifts} shifts, {total.multiplies} mults, "
          f"{total.memory_accesses} texel fetches")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Texture cache architecture reproduction "
                    "(Hakura & Gupta, ISCA 1997)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    render = subparsers.add_parser("render", help="render a scene to an image")
    _add_scene_arguments(render)
    render.add_argument("--out", default=None, help="output .png or .ppm path")
    render.add_argument("--save-trace", default=None,
                        help="also save the texel trace (.trace.npz)")
    render.add_argument("--profile", action="store_true",
                        help="force a fresh render and print per-phase "
                             "wall-clock timings (clip/raster/access-gen/"
                             "filter)")
    render.set_defaults(func=_render)

    sim = subparsers.add_parser("simulate", help="simulate one cache config")
    _add_scene_arguments(sim)
    _add_layout_arguments(sim)
    sim.add_argument("--cache-size", type=int, default=32 * 1024)
    sim.add_argument("--line-size", type=int, default=64)
    sim.add_argument("--assoc", type=int, default=2,
                     help="ways per set; 0 = fully associative")
    _add_kernel_argument(sim)
    _add_streaming_arguments(sim)
    sim.set_defaults(func=_simulate)

    sweep = subparsers.add_parser("sweep", help="sweep one cache axis")
    _add_scene_arguments(sweep)
    _add_layout_arguments(sweep)
    sweep.add_argument("--axis", choices=["cache", "line", "assoc"],
                       default="cache")
    sweep.add_argument("--cache-size", type=int, default=32 * 1024)
    sweep.add_argument("--line-size", type=int, default=64)
    _add_kernel_argument(sweep)
    _add_streaming_arguments(sweep)
    sweep.set_defaults(func=_sweep)

    parallel = subparsers.add_parser(
        "parallel", help="multi-generator caching study (Section 8)")
    _add_scene_arguments(parallel)
    _add_layout_arguments(parallel)
    parallel.add_argument("--generators", type=int, default=4)
    parallel.add_argument("--cache-size", type=int, default=8 * 1024)
    parallel.add_argument("--line-size", type=int, default=64)
    _add_kernel_argument(parallel)
    parallel.set_defaults(func=_parallel)

    hierarchy = subparsers.add_parser(
        "hierarchy", help="two-level cache hierarchy study")
    _add_scene_arguments(hierarchy)
    _add_layout_arguments(hierarchy)
    hierarchy.add_argument("--l1-size", type=int, default=4 * 1024)
    hierarchy.add_argument("--l2-size", type=int, default=32 * 1024)
    hierarchy.add_argument("--line-size", type=int, default=128)
    _add_kernel_argument(hierarchy)
    hierarchy.set_defaults(func=_hierarchy)

    timing = subparsers.add_parser(
        "timing", help="cycle-level prefetching texture cache timing "
                       "(Igehy et al. 1998 three-queue model)")
    _add_scene_arguments(timing)
    _add_layout_arguments(timing)
    timing.add_argument("--cache-size", type=int, default=32 * 1024)
    timing.add_argument("--line-size", type=int, default=64)
    timing.add_argument("--assoc", type=int, default=2,
                        help="ways per set; 0 = fully associative")
    timing.add_argument("--fragment-fifo", type=int, default=32,
                        help="fragment FIFO depth (0 = no prefetching)")
    timing.add_argument("--request-fifo", type=int, default=None,
                        help="pending line-fill bound (default: one "
                             "fragment's worst case)")
    timing.add_argument("--reorder-buffer", type=int, default=None,
                        help="reorder-buffer line slots (default: one "
                             "fragment's worst case)")
    timing.add_argument("--depths", default=None, metavar="D1,D2,...",
                        help="sweep these fragment-FIFO depths")
    timing.add_argument("--latencies", default=None, metavar="L1,L2,...",
                        help="sweep these fill latencies (cycles)")
    timing.add_argument("--dram-services", action="store_true",
                        help="per-fill page-mode DRAM service times "
                             "instead of the uniform fill interval")
    _add_kernel_argument(timing)
    timing.set_defaults(func=_timing)

    cache = subparsers.add_parser(
        "cache", help="inspect, verify, repair or clear the shared "
                      "artifact store")
    cache.add_argument("action",
                       choices=["stats", "verify", "repair", "clear"],
                       help="stats = per-kind counts/sizes; verify = "
                            "integrity-scan every artifact's checksum "
                            "envelope (exit 1 on corruption); repair = "
                            "quarantine corrupt artifacts and purge stale "
                            "temp litter; clear = delete all")
    cache.add_argument("--dir", default=None,
                       help="store directory (default: REPRO_CACHE_DIR or "
                            "benchmarks/.cache)")
    cache.set_defaults(func=_cache)

    scenes = subparsers.add_parser("scenes", help="list benchmark scenes")
    scenes.set_defaults(func=_scenes)

    costs = subparsers.add_parser("costs", help="print the Table 2.1 cost model")
    _add_layout_arguments(costs)
    costs.set_defaults(func=_costs)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
