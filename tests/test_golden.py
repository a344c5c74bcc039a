"""Golden pins: the one equivalence gate that holds across commits.

The other equivalence tests compare execution paths with each other
inside one commit, so a change that moves every path together (a
renderer, layout or scene tweak) passes all of them.  This module
compares against checked-in results instead.  Four pins:

``tests/golden/results.json`` holds the exact integer rows of a small
grid over the four paper scenes -- accesses, misses and the
cold/capacity/conflict split of every cell -- plus the SHA-256 of each
scene's byte-address stream.  It is checked on every surviving
execution path:

* in-RAM vectorized (the default), whose stored traces also read back
  part by part with the pinned address digests;
* the sequential oracles, ``kernel="reference"`` with
  ``raster="reference"``;
* the serial streamed fold (``chunk_size=4096``);
* the pipelined fold (``stream_workers=2``);
* in-RAM, serial and ``stream_workers=2`` folds over the traces the
  in-RAM path stored, with the stored profiles dropped, rendering
  nothing;
* a pipelined fold resumed after an injected parent crash
  (``kill-run:after=2,mode=raise``), and a serial streamed fold of one
  scene resumed after ``kill-run:after=1,mode=raise``;
* a warm re-serve from a filled store, first with the process tiers
  emptied (every artifact read and verified from disk), then from a
  filled in-process memory tier, each recording no recovery event.

``tests/golden/renders.json`` pins the renderer itself: for each paper
scene at scale 0.05 in its paper order, on both raster paths and in
five renderer modes, the SHA-256 of a trace-only render (every trace
column, positions included, the per-triangle fragment counts and the
counters), of a render with its image (the same plus the framebuffer
pixels) and of the ``render_blocks`` stream at 1000-access chunks
(every block's columns, ``n_fragments`` and ``index``, then the
totals).

``tests/golden/figures.json`` pins every grid that the twelve LRU
figure and table benches (Figures 5.2-6.4, Table 7.1 and the order,
Williams, mip-map and anisotropy ablations) run, as their
``grids(scale)`` return them, plus Figure 5.7's associativity sweep
over all four paper scenes.  For each grid it holds the spec and the
SHA-256 of its canonical rows at scale 0.05 (hashed as
``benchmarks/e2e/expected.json`` hashes rows); for Figure 5.7 and
Table 7.1 it also holds the exact rows at scale 0.25.  The specs are
compared first, then the default path's rows, then the 0.25 rows on
the serial streamed and the pipelined fold, then every 0.05 grid under
``kernel="reference"``.

``tests/golden/studies.json`` pins the twelve per-access studies (the
compression, replacement and victim ablations, banking, DRAM,
hierarchy, interframe, locality stats, parallel, prefetch, prefetch
timing and Table 4.1): for each bench, the configuration it runs (its
module's upper-case constants) and the SHA-256 of the integer counters
of its ``measure()`` at scale 0.05 -- accesses, misses, victim hits,
cycles, stall cycles, bytes, bank conflicts.  Rates and averages are
left out (they derive from counters, or are geometry), and so are
timings; the replacement ablation reports rates only, so its pin holds
the miss counts behind them.  No float is pinned as printed digits:
the configurations write theirs as ``float.hex()``.

Every pin records the ``PIPELINE_VERSION`` it was generated at.  An
intentional change to results bumps it and regenerates the pins from
the default path::

    PYTHONPATH=src python -m tests.test_golden
"""

import dataclasses
import hashlib
import importlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.cache import CacheConfig, LineStream
from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    render_calls,
    tiers,
)
from repro.engine import (
    artifacts,
    order_from_spec,
    paper_order_spec,
    scene_placements,
)
from repro.engine import faults as chaos
from repro.pipeline.renderer import RASTER_PATHS, Renderer
from repro.scenes import make_scene

from tests import fault_injection as injection

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

GOLDEN = Path(__file__).resolve().parent / "golden"
PIN_PATH = GOLDEN / "results.json"
FIGURES_PATH = GOLDEN / "figures.json"
RENDERS_PATH = GOLDEN / "renders.json"
STUDIES_PATH = GOLDEN / "studies.json"

GRID = {"scenes": ["flight", "goblet", "guitar", "town"],
        "layout": ["blocked", 8], "scale": 0.05,
        "cache_sizes": [1024, 4096, 16384], "line_sizes": [32, 64],
        "assocs": ["full", 1, 2]}

COLUMNS = ["scene", "size", "line", "assoc", "accesses", "misses", "cold",
           "capacity", "conflict"]

#: The LRU figure and table benches, each with a ``grids(scale)``.
FIGURE_BENCHES = ("fig_5_2", "fig_5_4", "fig_5_5", "fig_5_6", "fig_5_7",
                  "fig_6_2", "fig_6_4", "table_7_1", "ablation_order",
                  "ablation_williams", "ablation_mipmap", "aniso")
#: Every grid is pinned by digest at this scale...
FIGURE_SCALE = 0.05
#: ...and these benches' grids by their exact rows at this one too.
EXACT_SCALE = 0.25
EXACT_BENCHES = ("fig_5_7", "table_7_1")

FIGURE_COLUMNS = ["scene", "order", "layout", "size", "line", "assoc",
                  "accesses", "misses", "cold"]

#: The render pin renders each paper scene at this scale...
RENDER_SCALE = 0.05
#: ...on both raster paths, in each of these renderer modes...
RENDER_MODES = {"default": {}, "lod_bias": {"lod_bias": 1.0},
                "no_mipmaps": {"use_mipmaps": False},
                "aniso4": {"max_anisotropy": 4},
                "positions": {"record_positions": True}}
#: ...as a trace, as a trace with its image, and as blocks of
#: :data:`RENDER_CHUNK` accesses.
RENDER_OUTPUTS = ("trace", "image", "blocks")
RENDER_CHUNK = 1000
#: What a render pin cell hashes: these columns of every trace or
#: block, then these counters of the frame.
RENDER_COLUMNS = ("texture_id", "level", "tu", "tv", "tu_raw", "tv_raw",
                  "kind", "x", "y", "n_fragments", "index")
RENDER_TOTALS = ("n_fragments", "n_triangles_submitted",
                 "n_triangles_rasterized", "per_triangle_fragments")

#: The per-access study benches, each with a ``measure(bank)``...
STUDY_BENCHES = ("ablation_compression", "ablation_replacement",
                 "ablation_victim", "banking", "dram", "hierarchy",
                 "interframe", "locality_stats", "parallel", "prefetch",
                 "prefetch_timing", "table_4_1")
#: ...measured at this scale.
STUDY_SCALE = 0.05
#: Wall-clock entries of a study's output, left out of its pin.
STUDY_TIMINGS = frozenset({"ms_before", "ms_after", "speedup"})


def experiment(scenes=tuple(GRID["scenes"]), **overrides) -> ExperimentSpec:
    return ExperimentSpec(
        scenes=tuple(scenes), layouts=(tuple(GRID["layout"]),),
        cache_sizes=tuple(GRID["cache_sizes"]),
        line_sizes=tuple(GRID["line_sizes"]),
        assocs=tuple(None if assoc == "full" else assoc
                     for assoc in GRID["assocs"]),
        scale=GRID["scale"], **overrides)


def canonical_rows(rows) -> list:
    """One integer row per cell, in a fixed order.  The 3C split comes
    from the grid itself: capacity = fully-associative misses - cold,
    conflict = misses - fully-associative misses of the same size and
    line."""
    fully = {(row.scene, row.config.line_size, row.config.size):
             row.stats.misses for row in rows if row.config.assoc is None}
    table = []
    for row in rows:
        stats, config = row.stats, row.config
        full = fully[(row.scene, config.line_size, config.size)]
        table.append([
            row.scene, int(config.size), int(config.line_size),
            "full" if config.assoc is None else int(config.assoc),
            int(stats.accesses), int(stats.misses), int(stats.cold_misses),
            int(full - stats.cold_misses), int(stats.misses - full)])
    return sorted(table, key=lambda cell: (
        cell[0], cell[2], cell[1], 0 if cell[3] == "full" else cell[3]))


def stream_digest(chunks) -> str:
    """SHA-256 of a byte-address stream given as consecutive arrays."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(np.ascontiguousarray(chunk, dtype="<i8").tobytes())
    return digest.hexdigest()


def in_ram_digests(engine) -> dict:
    layout = tuple(GRID["layout"])
    return {spec.scene: stream_digest([engine.addresses(spec, layout)])
            for spec in experiment().trace_specs()}


def chunked_digests(store) -> dict:
    """Address digests of the chunked traces a streamed run left in
    ``store``, folded part by part."""
    layout = tuple(GRID["layout"])
    digests = {}
    for spec in experiment().trace_specs():
        reader = store.open_render_blocks(spec)
        assert reader is not None, f"no chunked trace for {spec.scene}"
        placements = scene_placements(spec.scene, spec.scale, layout)
        digests[spec.scene] = stream_digest(
            block.byte_addresses(placements) for block in reader)
    return digests


# -- the figure pin ------------------------------------------------------


def figure_grids(scale) -> dict:
    """``{name: [ExperimentSpec, ...]}`` of every pinned grid family at
    ``scale``: each bench's ``grids(scale)``, plus Figure 5.7's sweep
    over all four paper scenes (the figure itself shows only goblet
    and town)."""
    grids = {name: importlib.import_module(f"bench_{name}").grids(scale)
             for name in FIGURE_BENCHES}
    grids["fig_5_7_four_scenes"] = [dataclasses.replace(
        grids["fig_5_7"][0], scenes=tuple(GRID["scenes"]))]
    return grids


def pinned_grids() -> list:
    """``(name, grid index, spec)`` of every grid the figure pin holds:
    all of them at :data:`FIGURE_SCALE`, then the exact benches' at
    :data:`EXACT_SCALE`."""
    pinned = []
    for scale, names in ((FIGURE_SCALE, None), (EXACT_SCALE, EXACT_BENCHES)):
        for name, specs in figure_grids(scale).items():
            if names is None or name in names:
                pinned.extend((name, index, spec)
                              for index, spec in enumerate(specs))
    return pinned


def spec_record(spec: ExperimentSpec) -> dict:
    """The spec's fields as they read back from the pin's JSON."""
    return json.loads(json.dumps(dataclasses.asdict(spec)))


def figure_rows(rows) -> list:
    """One list per cell in :data:`FIGURE_COLUMNS` order, sorted as
    ``benchmarks/e2e`` sorts its canonical rows."""
    table = []
    for row in rows:
        stats, config = row.stats, row.config
        table.append([
            row.scene, "-".join(map(str, row.order)),
            "-".join(map(str, row.layout)), int(config.size),
            int(config.line_size),
            "full" if config.assoc is None else int(config.assoc),
            int(stats.accesses), int(stats.misses), int(stats.cold_misses)])
    return sorted(table, key=lambda cell: [str(value) for value in cell])


def rows_digest(table: list) -> str:
    return hashlib.sha256(json.dumps(table).encode()).hexdigest()


def run_pinned(engine, pinned, **options) -> tuple:
    """``(row digests, exact rows)`` of the ``pinned`` grids run on
    ``engine``: a digest per grid, and the rows of each grid at
    :data:`EXACT_SCALE` prefixed with its name and index."""
    digests, exact_rows = [], []
    for name, index, spec in pinned:
        table = figure_rows(engine.run(spec, **options).rows)
        digests.append(rows_digest(table))
        if spec.scale == EXACT_SCALE:
            exact_rows.extend([name, index] + cell for cell in table)
    return digests, exact_rows


def moved(pinned, digests, pin) -> list:
    """``(name, index, scale)`` of each grid in ``pinned`` whose digest
    differs from the pin's entry at the same position."""
    return [(name, index, spec.scale) for (name, index, spec), digest, entry
            in zip(pinned, digests, pin["grids"])
            if digest != entry["sha256"]]


# -- the render pin ------------------------------------------------------


def render_cells() -> list:
    """``(scene, raster, mode, output)`` of every render pin cell."""
    return [(scene, raster, mode, output) for scene in GRID["scenes"]
            for raster in RASTER_PATHS for mode in RENDER_MODES
            for output in RENDER_OUTPUTS]


def feed(digest, value) -> None:
    """Hash an array with its dtype and shape, or an integer."""
    if value is None:
        digest.update(b"none;")
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape};".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        digest.update(f"{int(value)};".encode())


def render_digest(scene, raster, mode, output) -> str:
    """SHA-256 of one render pin cell of ``scene`` (built)."""
    renderer = Renderer(
        order=order_from_spec(paper_order_spec(scene.name)), raster=raster,
        produce_image=output == "image", **RENDER_MODES[mode])
    digest = hashlib.sha256()
    if output == "blocks":
        totals = {}
        traces = list(renderer.render_blocks(scene, RENDER_CHUNK,
                                             totals=totals))
    else:
        result = renderer.render(scene)
        traces = [result.trace]
        totals = {name: getattr(result, name) for name in RENDER_TOTALS}
        if result.framebuffer is not None:
            feed(digest, result.framebuffer.pixels)
    for trace in traces:
        for name in RENDER_COLUMNS:
            feed(digest, getattr(trace, name, None))
    for name in RENDER_TOTALS:
        feed(digest, totals[name])
    return digest.hexdigest()


def render_digests() -> list:
    """The digest of every cell of :func:`render_cells`, in order."""
    scenes = {name: make_scene(name).build(scale=RENDER_SCALE)
              for name in GRID["scenes"]}
    return [render_digest(scenes[name], raster, mode, output)
            for name, raster, mode, output in render_cells()]


# -- the study pin -------------------------------------------------------


def plain(value):
    """``value`` as JSON data: a class by its name, a dataclass by its
    fields, a float as exact ``float.hex()`` text.  Raises
    ``TypeError`` on anything else."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, type):
        return value.__name__
    if dataclasses.is_dataclass(value):
        return plain(dataclasses.asdict(value))
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    raise TypeError(type(value).__name__)


def study_config(name: str) -> dict:
    """What a study runs: every upper-case constant of its bench module
    that is plain data (:func:`plain`)."""
    module = importlib.import_module(f"bench_{name}")
    config = {}
    for key, value in sorted(vars(module).items()):
        if key.isupper():
            try:
                config[key] = plain(value)
            except TypeError:
                pass  # a path or a function: not what the study runs
    return config


def counters(value):
    """The integer counters of a study's output, in its order: ints and
    integral floats (cycle counts), with the dict keys, strings and
    cache configurations that say what each one counts.  Other floats
    are ``None``, and timing entries are dropped."""
    if isinstance(value, CacheConfig):
        return [value.size, value.line_size, value.assoc]
    if dataclasses.is_dataclass(value):
        return counters({field.name: getattr(value, field.name)
                         for field in dataclasses.fields(value)})
    if isinstance(value, dict):
        return [[counters(key), counters(item)]
                for key, item in value.items() if key not in STUDY_TIMINGS]
    if isinstance(value, (list, tuple, np.ndarray)):
        return [counters(item) for item in value]
    if isinstance(value, (bool, int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return int(value) if float(value).is_integer() else None
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no counters in a {type(value).__name__}")


def replacement_misses(bank, rates: dict) -> dict:
    """The replacement ablation reports miss rates only: the miss
    counts behind them, each rate times its stream's accesses (exact:
    the rate is one correctly rounded division)."""
    bench = importlib.import_module("bench_ablation_replacement")
    accesses = {}
    for scene, order in bench.SCENES.items():
        addresses = bank.trace(scene, order).byte_addresses(
            bank.placements(scene, bench.LAYOUT))
        accesses[scene] = LineStream.from_addresses(
            addresses, bench.LINE).total_accesses
    return {key: round(rate * accesses[key[0]])
            for key, rate in rates.items()}


def study_counters(bank) -> list:
    """The integer counters of every study's ``measure(bank)``, in
    :data:`STUDY_BENCHES` order."""
    measured = []
    for name in STUDY_BENCHES:
        output = importlib.import_module(f"bench_{name}").measure(bank)
        if name == "ablation_replacement":
            output = replacement_misses(bank, output)
        measured.append(counters(output))
    return measured


def integers(value) -> int:
    """How many integer counters ``value`` (from :func:`counters`)
    holds, keys included."""
    if isinstance(value, list):
        return sum(integers(item) for item in value)
    return int(isinstance(value, int))


def study_bank(root):
    from paperbench import SceneBank
    return SceneBank(scale=STUDY_SCALE, store=ArtifactStore(root))


def check_version(pin: dict) -> None:
    assert pin.get("pipeline_version") == artifacts.PIPELINE_VERSION, \
        "PIPELINE_VERSION changed: regenerate the pins"


# -- generating and reading the pins -------------------------------------


def generate() -> dict:
    """The results pin, computed on the in-RAM vectorized path."""
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        engine = Engine(store=ArtifactStore(root))
        rows = canonical_rows(engine.run(experiment()).rows)
        return {"pipeline_version": artifacts.PIPELINE_VERSION,
                "grid": GRID, "columns": COLUMNS,
                "address_sha256": in_ram_digests(engine), "rows": rows}


def generate_figures() -> dict:
    """The figure pin, computed on the default path."""
    import tempfile
    pinned = pinned_grids()
    with tempfile.TemporaryDirectory() as root:
        digests, exact_rows = run_pinned(Engine(store=ArtifactStore(root)),
                                         pinned)
    return {"pipeline_version": artifacts.PIPELINE_VERSION,
            "columns": ["bench", "grid"] + FIGURE_COLUMNS,
            "grids": [{"bench": name, "grid": index,
                       "spec": spec_record(spec), "sha256": digest}
                      for (name, index, spec), digest in zip(pinned, digests)],
            "rows": exact_rows}


def generate_renders() -> dict:
    """The render pin."""
    return {"pipeline_version": artifacts.PIPELINE_VERSION,
            "scale": RENDER_SCALE, "chunk_size": RENDER_CHUNK,
            "modes": RENDER_MODES,
            "cells": [{"scene": scene, "raster": raster, "mode": mode,
                       "output": output, "sha256": digest}
                      for (scene, raster, mode, output), digest
                      in zip(render_cells(), render_digests())]}


def generate_studies() -> dict:
    """The study pin."""
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        measured = study_counters(study_bank(root))
    return {"pipeline_version": artifacts.PIPELINE_VERSION,
            "scale": STUDY_SCALE.hex(),
            "studies": [{"bench": name, "config": study_config(name),
                         "integers": integers(counted),
                         "sha256": rows_digest(counted)}
                        for name, counted in zip(STUDY_BENCHES, measured)]}


#: Pin entries written one item per line.
LISTED = ("grids", "rows", "cells", "studies")


def render_pin(pin: dict) -> str:
    """The pin as JSON text with one grid or row per line, so a change
    to any of them shows up as a one-line diff."""
    head = json.dumps({key: value for key, value in pin.items()
                       if key not in LISTED}, indent=1)
    lists = [f' "{key}": [\n' + ",\n".join(
        f"  {json.dumps(item)}" for item in pin[key]) + "\n ]"
        for key in LISTED if key in pin]
    return head[:-2] + ",\n" + ",\n".join(lists) + "\n}\n"


@pytest.fixture(scope="module")
def pin():
    data = json.loads(PIN_PATH.read_text())
    check_version(data)
    assert data["grid"] == GRID and data["columns"] == COLUMNS, \
        "the pinned grid differs from this module's; regenerate the pin"
    return data


@pytest.fixture(scope="module")
def figures_pin():
    data = json.loads(FIGURES_PATH.read_text())
    check_version(data)
    pinned = [(entry["bench"], entry["grid"], entry["spec"])
              for entry in data["grids"]]
    assert pinned == [(name, index, spec_record(spec))
                      for name, index, spec in pinned_grids()], \
        "grid changed: regenerate the pin"
    return data


@pytest.fixture(scope="module")
def renders_pin():
    data = json.loads(RENDERS_PATH.read_text())
    check_version(data)
    assert (data["scale"], data["chunk_size"], data["modes"]) == \
        (RENDER_SCALE, RENDER_CHUNK, RENDER_MODES), \
        "render modes changed: regenerate the pin"
    assert [(cell["scene"], cell["raster"], cell["mode"], cell["output"])
            for cell in data["cells"]] == render_cells(), \
        "render cells changed: regenerate the pin"
    return data


@pytest.fixture(scope="module")
def studies_pin():
    data = json.loads(STUDIES_PATH.read_text())
    check_version(data)
    assert data["scale"] == STUDY_SCALE.hex(), \
        "study scale changed: regenerate the pin"
    assert [(entry["bench"], entry["config"]) for entry in data["studies"]] \
        == [(name, study_config(name)) for name in STUDY_BENCHES], \
        "a study's configuration changed: regenerate the pin"
    return data


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory, pin):
    """A store filled by the in-RAM path, checked against the pin."""
    root = tmp_path_factory.mktemp("golden-ram")
    engine = Engine(store=ArtifactStore(root))
    assert canonical_rows(engine.run(experiment()).rows) == pin["rows"]
    assert in_ram_digests(engine) == pin["address_sha256"]
    return root


def test_pins_carry_the_pipeline_version(pin, figures_pin, renders_pin,
                                        studies_pin, monkeypatch):
    monkeypatch.setattr(artifacts, "PIPELINE_VERSION",
                        artifacts.PIPELINE_VERSION + 1)
    for data in (pin, figures_pin, renders_pin, studies_pin):
        with pytest.raises(AssertionError, match="PIPELINE_VERSION changed"):
            check_version(data)


class TestGoldenPin:
    def test_in_ram_vectorized(self, filled_store):
        pass  # the fixture compares the rows and address digests

    def test_in_ram_traces_read_back_as_parts(self, filled_store, pin):
        assert chunked_digests(ArtifactStore(filled_store)) == \
            pin["address_sha256"]

    @pytest.mark.parametrize("chunk_size, stream_workers", [
        pytest.param(None, 0, id="in-ram"),
        pytest.param(4096, 0, id="0"),
        pytest.param(4096, 2, id="2"),
    ])
    def test_folds_over_in_ram_traces(self, filled_store, tmp_path, pin,
                                      chunk_size, stream_workers):
        root = tmp_path / "store"
        shutil.copytree(filled_store, root)
        for kind in ("profiles", "set_profiles"):
            shutil.rmtree(root / kind)
        before = render_calls()
        result = Engine(store=ArtifactStore(root)).run(
            experiment(), chunk_size=chunk_size,
            stream_workers=stream_workers)
        assert canonical_rows(result.rows) == pin["rows"]
        assert render_calls() == before

    def test_reference_oracles(self, tmp_path, pin):
        result = Engine(store=ArtifactStore(tmp_path)).run(
            experiment(raster="reference"), kernel="reference")
        assert canonical_rows(result.rows) == pin["rows"]
        # The oracle simulates every cell; a vectorized profile in the
        # store would mean it ran the kernels it is meant to check.
        for kind in ("profiles", "set_profiles"):
            assert not list((tmp_path / kind).glob("*")), kind

    def test_serial_streamed(self, tmp_path, pin):
        store = ArtifactStore(tmp_path)
        result = Engine(store=store).run(experiment(), chunk_size=4096)
        assert canonical_rows(result.rows) == pin["rows"]
        assert chunked_digests(store) == pin["address_sha256"]

    def test_pipelined(self, tmp_path, pin):
        store = ArtifactStore(tmp_path)
        result = Engine(store=store).run(experiment(), chunk_size=4096,
                                         stream_workers=2)
        assert canonical_rows(result.rows) == pin["rows"]
        assert result.stream_report is not None
        assert result.stream_report.fallbacks == 0
        assert chunked_digests(store) == pin["address_sha256"]

    def test_pipelined_resumed_after_crash(self, tmp_path, pin):
        with injection.fault_plan("kill-run:after=2,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                Engine(store=ArtifactStore(tmp_path)).run(
                    experiment(), chunk_size=4096, stream_workers=2)
        store = ArtifactStore(tmp_path)
        result = Engine(store=store).run(experiment(), chunk_size=4096,
                                         stream_workers=2)
        assert result.stream_report.resumed_ranges >= 1
        assert canonical_rows(result.rows) == pin["rows"]
        assert chunked_digests(store) == pin["address_sha256"]

    def test_serial_streamed_resumed_after_crash(self, tmp_path, pin):
        scene = GRID["scenes"][1]
        with injection.fault_plan("kill-run:after=1,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                Engine(store=ArtifactStore(tmp_path)).run(
                    experiment([scene]), chunk_size=4096)
        before = render_calls()
        result = Engine(store=ArtifactStore(tmp_path)).run(
            experiment([scene]), chunk_size=4096)
        assert result.stream_report.resumed_ranges == 1
        assert render_calls() == before
        assert canonical_rows(result.rows) == [
            row for row in pin["rows"] if row[0] == scene]

    @pytest.mark.parametrize("serves", [
        pytest.param(1, id="defaults"),
        pytest.param(2, id="t0-hot"),
    ])
    def test_warm_reserve(self, filled_store, pin, serves, scene_builds):
        # The first serve reads every artifact from disk through the
        # verified read; a second one is served from the memory tier.
        tiers.clear_process_caches()
        for _ in range(serves):
            before = render_calls()
            store = ArtifactStore(filled_store)
            engine = Engine(store=store)
            assert canonical_rows(engine.run(experiment()).rows) == \
                pin["rows"]
            assert render_calls() == before
            assert scene_builds == []  # served from the store
            assert store.recovery_events == []  # nothing quarantined


class TestFigurePin:
    def test_grids_are_the_pinned_ones(self, figures_pin):
        pass  # the fixture compares the version and every grid's spec

    def test_default_path(self, figures_pin, tmp_path):
        pinned = pinned_grids()
        digests, exact_rows = run_pinned(
            Engine(store=ArtifactStore(tmp_path)), pinned)
        changed = moved(pinned, digests, figures_pin)
        assert not changed, f"grids moved: {changed}"
        assert exact_rows == figures_pin["rows"]

    @pytest.mark.parametrize("stream_workers", [
        pytest.param(0, id="serial"),
        pytest.param(2, id="pipelined"),
    ])
    def test_exact_rows_streamed(self, figures_pin, tmp_path,
                                 stream_workers):
        # The exact EXACT_SCALE rows on the serial streamed and the
        # pipelined fold, cut into 65536-access blocks.
        pinned = [entry for entry in pinned_grids()
                  if entry[2].scale == EXACT_SCALE]
        _, exact_rows = run_pinned(
            Engine(store=ArtifactStore(tmp_path)), pinned,
            chunk_size=65536, stream_workers=stream_workers)
        assert exact_rows == figures_pin["rows"]

    def test_reference_kernel(self, figures_pin, tmp_path):
        # Every grid at FIGURE_SCALE; they come first in the pin.
        pinned = [entry for entry in pinned_grids()
                  if entry[2].scale == FIGURE_SCALE]
        digests, _ = run_pinned(Engine(store=ArtifactStore(tmp_path)),
                                pinned, kernel="reference")
        changed = moved(pinned, digests, figures_pin)
        assert not changed, f"grids moved under kernel='reference': {changed}"
        # The oracle simulates every cell and reads no profile.
        for kind in ("profiles", "set_profiles"):
            assert not list((tmp_path / kind).glob("*")), kind


class TestRenderPin:
    def test_renders_match_the_pin(self, renders_pin):
        # Traces, framebuffers, fragment counts and block cuts of both
        # raster paths against the checked-in digests.
        changed = [cell for cell, digest, entry in zip(
            render_cells(), render_digests(), renders_pin["cells"])
                   if digest != entry["sha256"]]
        assert not changed, f"renders moved: {changed}"


class TestStudyPin:
    def test_configs_are_the_pinned_ones(self, studies_pin):
        pass  # the fixture compares the version, scale and configs

    def test_studies_match_the_pin(self, studies_pin, tmp_path):
        # Each study's integer counters, renders included, against the
        # checked-in digests.  Every study maps its traces through the
        # placements itself, so none stores an address stream.
        measured = study_counters(study_bank(tmp_path))
        assert not list(tmp_path.glob("addresses/*"))
        changed = [entry["bench"] for counted, entry
                   in zip(measured, studies_pin["studies"])
                   if rows_digest(counted) != entry["sha256"]]
        assert not changed, f"studies moved: {changed}"
        assert [integers(counted) for counted in measured] == \
            [entry["integers"] for entry in studies_pin["studies"]]


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for path, pin_data in ((PIN_PATH, generate()),
                           (FIGURES_PATH, generate_figures()),
                           (RENDERS_PATH, generate_renders()),
                           (STUDIES_PATH, generate_studies())):
        path.write_text(render_pin(pin_data))
        print(f"wrote {path}")
