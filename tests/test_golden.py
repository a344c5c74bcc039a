"""Golden pin: every surviving execution path against checked-in rows.

The other equivalence tests compare execution paths with each other
inside one commit, so a change that moves every path together (a
renderer, layout or scene tweak) passes all of them.  This module
compares each path with ``tests/golden/results.json`` instead: the
exact integer rows of a small grid over the four paper scenes --
accesses, misses and the cold/capacity/conflict split of every cell --
plus the SHA-256 of each scene's byte-address stream.  The paths:

* in-RAM vectorized (the default);
* the sequential oracles, ``kernel="reference"`` with
  ``raster="reference"``;
* the serial streamed fold (``chunk_size=4096``);
* the pipelined fold (``stream_workers=2``);
* a pipelined fold resumed after an injected parent crash
  (``kill-run:after=2,mode=raise``);
* a warm re-serve from a filled store with the in-process memory tier
  off (``REPRO_STORE_MEMORY_BYTES=0``).

An intentional semantic change bumps ``PIPELINE_VERSION`` and
regenerates the pin from the in-RAM path::

    PYTHONPATH=src python -m tests.test_golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    render_calls,
    shutdown_stream_pool,
    tiers,
)
from repro.engine import faults as chaos

from tests import fault_injection as injection

PIN_PATH = Path(__file__).resolve().parent / "golden" / "results.json"

GRID = {"scenes": ["flight", "goblet", "guitar", "town"],
        "layout": ["blocked", 8], "scale": 0.05,
        "cache_sizes": [1024, 4096, 16384], "line_sizes": [32, 64],
        "assocs": ["full", 1, 2]}

COLUMNS = ["scene", "size", "line", "assoc", "accesses", "misses", "cold",
           "capacity", "conflict"]


def experiment(**overrides) -> ExperimentSpec:
    return ExperimentSpec(
        scenes=tuple(GRID["scenes"]), layouts=(tuple(GRID["layout"]),),
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
    engine = Engine(store=store)
    layout = tuple(GRID["layout"])
    digests = {}
    for spec in experiment().trace_specs():
        reader = store.open_render_blocks(spec)
        assert reader is not None, f"no chunked trace for {spec.scene}"
        placements = engine.placements(spec.scene, spec.scale, layout)
        digests[spec.scene] = stream_digest(
            block.byte_addresses(placements) for block in reader)
    return digests


def generate() -> dict:
    """The pin, computed on the in-RAM vectorized path."""
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        engine = Engine(store=ArtifactStore(root))
        rows = canonical_rows(engine.run(experiment()).rows)
        return {"grid": GRID, "columns": COLUMNS,
                "address_sha256": in_ram_digests(engine), "rows": rows}


def render_pin(pin: dict) -> str:
    """The pin as JSON text with one grid row per line, so a change to
    any cell shows up as a one-line diff."""
    head = json.dumps({key: value for key, value in pin.items()
                       if key != "rows"}, indent=1)
    rows = ",\n".join(f"  {json.dumps(row)}" for row in pin["rows"])
    return f'{head[:-2]},\n "rows": [\n{rows}\n ]\n}}\n'


def load_pin() -> dict:
    return json.loads(PIN_PATH.read_text())


@pytest.fixture(scope="module")
def pin():
    data = load_pin()
    assert data["grid"] == GRID and data["columns"] == COLUMNS, \
        "the pinned grid differs from this module's; regenerate the pin"
    return data


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory, pin):
    """A store filled by the in-RAM path, checked against the pin."""
    root = tmp_path_factory.mktemp("golden-ram")
    engine = Engine(store=ArtifactStore(root))
    assert canonical_rows(engine.run(experiment()).rows) == pin["rows"]
    assert in_ram_digests(engine) == pin["address_sha256"]
    return root


@pytest.fixture()
def no_pool():
    shutdown_stream_pool()
    yield
    shutdown_stream_pool()


class TestGoldenPin:
    def test_in_ram_vectorized(self, filled_store):
        pass  # the fixture compares the rows and address digests

    def test_reference_oracles(self, tmp_path, pin):
        result = Engine(store=ArtifactStore(tmp_path)).run(
            experiment(raster="reference"), kernel="reference")
        assert canonical_rows(result.rows) == pin["rows"]

    def test_serial_streamed(self, tmp_path, pin):
        store = ArtifactStore(tmp_path)
        result = Engine(store=store).run(experiment(), chunk_size=4096)
        assert canonical_rows(result.rows) == pin["rows"]
        assert chunked_digests(store) == pin["address_sha256"]

    def test_pipelined(self, tmp_path, pin, no_pool):
        store = ArtifactStore(tmp_path)
        result = Engine(store=store).run(experiment(), chunk_size=4096,
                                         stream_workers=2)
        assert canonical_rows(result.rows) == pin["rows"]
        assert result.stream_report is not None
        assert result.stream_report.fallbacks == 0
        assert chunked_digests(store) == pin["address_sha256"]

    def test_pipelined_resumed_after_crash(self, tmp_path, pin, no_pool):
        with injection.fault_plan("kill-run:after=2,mode=raise"):
            with pytest.raises(chaos.InjectedCrash):
                Engine(store=ArtifactStore(tmp_path)).run(
                    experiment(), chunk_size=4096, stream_workers=2)
        shutdown_stream_pool()
        store = ArtifactStore(tmp_path)
        result = Engine(store=store).run(experiment(), chunk_size=4096,
                                         stream_workers=2)
        assert result.stream_report.resumed_ranges >= 1
        assert canonical_rows(result.rows) == pin["rows"]
        assert chunked_digests(store) == pin["address_sha256"]

    def test_warm_reserve_without_memory_tier(self, filled_store, pin,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MEMORY_BYTES", "0")
        tiers.clear_process_caches()
        assert not tiers.memory_tier().enabled
        before = render_calls()
        engine = Engine(store=ArtifactStore(filled_store))
        assert canonical_rows(engine.run(experiment()).rows) == pin["rows"]
        assert render_calls() == before
        assert not engine._scenes  # served from disk, no scene built
        monkeypatch.delenv("REPRO_STORE_MEMORY_BYTES")
        tiers.memory_tier()  # restore the default budget


if __name__ == "__main__":
    PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
    PIN_PATH.write_text(render_pin(generate()))
    print(f"wrote {PIN_PATH}")
