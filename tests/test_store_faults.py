"""Fault-injection tests for the hardened artifact store and engine.

Covers the failure model end to end: checksummed envelopes catching
every corruption class on all four artifact kinds, quarantine + repair
self-healing, kill-resilience of interrupted writers, degraded
(read-only / full-disk) store modes, single-flight locking across
racing processes, and resumable parts of interrupted pipelined runs.
"""

import errno
import json
import multiprocessing
import os
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.kernels import SetDistanceProfile
from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    TraceSpec,
    addresses_payload,
    fingerprint,
    profile_payload,
    render_calls,
    reset_render_calls,
    run_experiment,
    set_profile_payload,
    tiers,
)
from repro.engine import artifacts as artifacts_module
from repro.engine.artifacts import PROFILE_SUFFIX

from tests import fault_injection as faults

SPEC = TraceSpec(scene="goblet", scale=0.1, order=("horizontal",))
LAYOUT = ("blocked", 4)
ADDR_PAYLOAD = addresses_payload(SPEC, LAYOUT)


def warm_store(root):
    """A store populated with all four artifact kinds for SPEC/LAYOUT."""
    store = ArtifactStore(root)
    engine = Engine(store=store)
    streams = engine.streams(SPEC, LAYOUT)
    streams.profile(32)
    streams.set_profile(32, 8)
    return store, engine


def assert_traces_equal(a, b):
    for name in ("texture_id", "level", "tu", "tv", "tu_raw", "tv_raw",
                 "kind"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.n_fragments == b.n_fragments


def trace_sidecar(store) -> Path:
    """The sidecar listing SPEC's trace parts."""
    return store._path("traces", fingerprint(SPEC.payload()), ".json")


def quarantine_reasons(store, kind):
    """Concatenated reason records for one kind's quarantine."""
    directory = Path(store.root) / "quarantine" / kind
    if not directory.is_dir():
        return ""
    return "\n".join(f.read_text()
                     for f in directory.glob("*.reason.json"))


class TestEnvelope:
    def test_every_kind_gets_a_checksummed_sidecar(self, tmp_path):
        store, _ = warm_store(tmp_path)
        for kind in artifacts_module.KINDS:
            payloads = faults.payload_files(store, kind)
            assert payloads, f"no {kind} artifact written"
            if kind == "traces":
                # A trace's envelopes sit in its sidecar's part list.
                sidecar = json.loads(trace_sidecar(store).read_text())
                assert "key" in sidecar
                assert [entry["name"] for entry in sidecar["parts"]] == \
                    [part.name for part in payloads]
                for entry, part in zip(sidecar["parts"], payloads):
                    assert entry["nbytes"] == part.stat().st_size
                    assert entry["digest"] == \
                        faults.file_digest(part)
                continue
            for payload in payloads:
                sidecar = json.loads(
                    payload.with_suffix(".json").read_text())
                envelope = sidecar["envelope"]
                assert envelope["kind"] == kind
                assert envelope["nbytes"] == payload.stat().st_size
                assert envelope["digest"] == \
                    faults.file_digest(payload)
                assert "key" in sidecar

    def test_verify_reports_clean_store(self, tmp_path):
        store, _ = warm_store(tmp_path)
        report = store.verify()
        assert report["clean"]
        assert report["bad"] == 0 and report["tmp"] == 0
        assert report["ok"] == sum(
            len(faults.payload_files(store, kind))
            for kind in artifacts_module.KINDS)


class TestCorruptionRecovery:
    """All four kinds: damage loads as a quarantining miss and the
    recomputation is bit-identical."""

    def test_truncated_trace_archive(self, tmp_path):
        store, engine = warm_store(tmp_path)
        reference = engine.render(SPEC)
        [victim] = faults.payload_files(store, "traces")  # the one part
        faults.truncate(victim)

        assert ArtifactStore(tmp_path).load_render(SPEC) is None
        assert f"part {victim.name}: size mismatch" in \
            quarantine_reasons(store, "traces")
        assert not victim.exists()  # moved into quarantine
        assert not trace_sidecar(store).exists()  # with its sidecar

        before = render_calls()
        recomputed = Engine(store=ArtifactStore(tmp_path)).render(SPEC)
        assert render_calls() == before + 1
        assert_traces_equal(recomputed.trace, reference.trace)
        assert ArtifactStore(tmp_path).verify()["clean"]

    def test_zero_byte_address_stream(self, tmp_path):
        store, engine = warm_store(tmp_path)
        reference = engine.addresses(SPEC, LAYOUT)
        [victim] = faults.payload_files(store, "addresses")
        faults.zero(victim)

        fresh = ArtifactStore(tmp_path)
        assert fresh.load_addresses(ADDR_PAYLOAD) is None
        assert "size mismatch" in quarantine_reasons(store, "addresses")

        recomputed = Engine(store=ArtifactStore(tmp_path)).addresses(
            SPEC, LAYOUT)
        np.testing.assert_array_equal(recomputed, reference)

    def test_bit_flipped_profile(self, tmp_path):
        store, engine = warm_store(tmp_path)
        reference = engine.streams(SPEC, LAYOUT).profile(32)
        [victim] = faults.payload_files(store, "profiles")
        faults.flip_bit(victim)

        payload = profile_payload(ADDR_PAYLOAD, 32)
        assert ArtifactStore(tmp_path).load_profile(payload) is None
        assert "digest mismatch" in quarantine_reasons(store, "profiles")

        recomputed = Engine(store=ArtifactStore(tmp_path)).streams(
            SPEC, LAYOUT).profile(32)
        np.testing.assert_array_equal(recomputed.counts, reference.counts)
        assert recomputed.cold == reference.cold
        assert recomputed.duplicate_hits == reference.duplicate_hits

    def test_wrong_schema_archive_with_valid_digest(self, tmp_path):
        # A checksummed but foreign archive: the digest passes, the
        # schema layer underneath must still catch it.
        store, engine = warm_store(tmp_path)
        reference = engine.streams(SPEC, LAYOUT).set_profile(32, 8)
        [victim] = faults.payload_files(store, "set_profiles")
        digest = victim.name.split(".")[0]
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, unrelated=np.arange(3))
        victim.write_bytes(foreign.read_bytes())
        faults.restamp(store, "set_profiles", digest, PROFILE_SUFFIX)

        payload = set_profile_payload(ADDR_PAYLOAD, 32, 8)
        assert ArtifactStore(tmp_path).load_set_profile(payload) is None
        assert "undecodable" in quarantine_reasons(store, "set_profiles")

        recomputed = Engine(store=ArtifactStore(tmp_path)).streams(
            SPEC, LAYOUT).set_profile(32, 8)
        np.testing.assert_array_equal(recomputed.counts, reference.counts)
        assert recomputed.cold == reference.cold


GRID = dict(scenes=("goblet",), layouts=(("blocked", 8),),
            cache_sizes=(1024, 2048), scale=0.05)
TWO_LAYOUTS = dict(GRID, layouts=(("blocked", 8), ("blocked", 4)))
FRAME_0 = TraceSpec(scene="goblet", scale=0.05, order="paper")
FRAME_HALF = TraceSpec(scene="goblet", scale=0.05, order="paper", time=0.5)
BLOCKED_8 = addresses_payload(FRAME_0, ("blocked", 8))
BLOCKED_4 = addresses_payload(FRAME_0, ("blocked", 4))


def grid_rows(store, experiment):
    """``(label, misses, cold)`` of every cell of a fresh engine's run."""
    result = Engine(store=store).run(experiment)
    return [(row.config.label(), row.stats.misses, row.stats.cold_misses)
            for row in result.rows]


def profile_keys(store, kind) -> dict:
    """``{(line_size, n_sets): (digest, key payload)}`` of one profile
    kind's artifacts, read from their sidecars."""
    keys = {}
    for sidecar in (Path(store.root) / kind).glob("*.json"):
        key = json.loads(sidecar.read_text())["key"]
        keys[key["line_size"], key.get("n_sets", 1)] = (sidecar.stem, key)
    return keys


def load_stored(store, key):
    """The stored profile of a profile key payload, of either kind."""
    return (store.load_set_profile if "n_sets" in key
            else store.load_profile)(key)


class TestProfilePayload:
    """Foreign and malformed payloads: a checksummed artifact of any
    kind copied under another key, or a profile or address stream whose
    body does not decode, is quarantined and recomputed."""

    @pytest.mark.parametrize("kind, experiments, source, target, dropped", [
        pytest.param("profiles", [ExperimentSpec(line_sizes=(32, 64), **GRID)],
                     profile_payload(BLOCKED_8, 64),
                     profile_payload(BLOCKED_8, 32), (), id="line-64-over-32"),
        pytest.param("set_profiles",
                     [ExperimentSpec(line_sizes=(32,), assocs=(4,), **GRID)],
                     set_profile_payload(BLOCKED_8, 32, 8),
                     set_profile_payload(BLOCKED_8, 32, 16), (),
                     id="8-sets-over-16"),
        pytest.param("profiles",
                     [ExperimentSpec(line_sizes=(32,), **TWO_LAYOUTS)],
                     profile_payload(BLOCKED_8, 32),
                     profile_payload(BLOCKED_4, 32), (),
                     id="layout-8-over-4"),
        pytest.param("set_profiles",
                     [ExperimentSpec(line_sizes=(32,), assocs=(4,),
                                     **TWO_LAYOUTS)],
                     set_profile_payload(BLOCKED_8, 32, 8),
                     set_profile_payload(BLOCKED_4, 32, 8), (),
                     id="sets-of-layout-8-over-4"),
        pytest.param("addresses",
                     [ExperimentSpec(line_sizes=(32,), **TWO_LAYOUTS)],
                     BLOCKED_8, BLOCKED_4, ("profiles",),
                     id="addresses-of-layout-8-over-4"),
        pytest.param("traces",
                     [ExperimentSpec(line_sizes=(32,), **GRID),
                      ExperimentSpec(line_sizes=(32,), time=0.5, **GRID)],
                     FRAME_0.payload(), FRAME_HALF.payload(),
                     ("addresses", "profiles"),
                     id="frame-0-over-0.5"),
    ])
    def test_profile_under_another_pairs_key(self, tmp_path, kind,
                                             experiments, source, target,
                                             dropped):
        # Copying payload and sidecar keeps the envelope valid; only the
        # key the sidecar records tells the two artifacts apart.  The
        # dropped kinds make the run read this one.
        reference = [grid_rows(ArtifactStore(tmp_path), experiment)
                     for experiment in experiments]
        for name in dropped:
            shutil.rmtree(tmp_path / name)
        source_digest, target_digest = fingerprint(source), fingerprint(target)
        directory = tmp_path / kind
        for path in directory.glob(source_digest + ".*"):
            shutil.copyfile(path, directory / path.name.replace(
                source_digest, target_digest))
        tiers.clear_process_caches()

        store = ArtifactStore(tmp_path)
        assert [grid_rows(store, experiment)
                for experiment in experiments] == reference
        [event] = store.recovery_events
        assert f"{kind}/{target_digest[:12]}" in event
        assert "sidecar records another key" in event
        sidecar = directory / (target_digest + ".json")
        assert json.loads(sidecar.read_text())["key"] == target  # recomputed
        assert ArtifactStore(tmp_path).verify()["clean"]

    @pytest.mark.parametrize("kind, pair", [("profiles", (32, 1)),
                                            ("set_profiles", (32, 8))])
    @pytest.mark.parametrize("damage", [
        pytest.param(lambda words: words.tobytes() + b"\0\0\0",
                     id="size-not-words"),
        pytest.param(lambda words: np.concatenate(
            (words[:4], words[4:5] + 1, words[5:])).tobytes(),
            id="declared-n-disagrees"),
        pytest.param(lambda words: np.concatenate(
            (words[:5], [-1], words[6:])).astype("<i8").tobytes(),
            id="negative-count"),
        pytest.param(lambda words: np.concatenate(
            ([2 * words[0]], words[1:])).astype("<i8").tobytes(),
            id="another-pairs-geometry"),
    ])
    def test_restamped_malformed_payload(self, tmp_path, kind, pair, damage):
        store, engine = warm_store(tmp_path)
        reference = engine.streams(SPEC, LAYOUT).set_profile(*pair)
        digest, key = profile_keys(store, kind)[pair]
        victim = store._path(kind, digest, PROFILE_SUFFIX)
        victim.write_bytes(damage(np.fromfile(victim, dtype="<i8")))
        faults.restamp(store, kind, digest, PROFILE_SUFFIX)

        assert load_stored(ArtifactStore(tmp_path), key) is None
        assert "undecodable" in quarantine_reasons(store, kind)
        recomputed = Engine(store=ArtifactStore(tmp_path)).streams(
            SPEC, LAYOUT).set_profile(*pair)
        np.testing.assert_array_equal(recomputed.counts, reference.counts)
        assert (recomputed.cold, recomputed.duplicate_hits) == \
            (reference.cold, reference.duplicate_hits)

    @pytest.mark.parametrize("write", [
        pytest.param(lambda handle, addresses: np.savez(
            handle, addresses=addresses), id="npz-archive"),
        pytest.param(lambda handle, addresses: np.save(
            handle, addresses[:, None]), id="two-dimensional"),
        pytest.param(lambda handle, addresses: np.save(
            handle, addresses.astype(np.float64)), id="float"),
    ])
    def test_restamped_malformed_address_stream(self, tmp_path, write):
        store, engine = warm_store(tmp_path)
        reference = np.array(engine.addresses(SPEC, LAYOUT))
        [victim] = faults.payload_files(store, "addresses")
        foreign = tmp_path / "foreign"
        with open(foreign, "wb") as handle:
            write(handle, reference)
        victim.write_bytes(foreign.read_bytes())
        faults.restamp(store, "addresses", victim.stem, ".npy")

        assert ArtifactStore(tmp_path).load_addresses(ADDR_PAYLOAD) is None
        assert "undecodable address stream" in \
            quarantine_reasons(store, "addresses")
        recomputed = Engine(store=ArtifactStore(tmp_path)).addresses(
            SPEC, LAYOUT)
        np.testing.assert_array_equal(recomputed, reference)

    @pytest.mark.parametrize("n_sets", [1, 8])
    @pytest.mark.parametrize("counts", [[0], [7], [2**40 - 1, 2**40,
                                                   2**40 + 1]])
    def test_edge_histograms_round_trip(self, tmp_path, n_sets, counts):
        profile = SetDistanceProfile(
            line_size=64, n_sets=n_sets, counts=np.array(counts, np.int64),
            cold=2**40 + 3, duplicate_hits=2**40 + 5)
        store = ArtifactStore(tmp_path)
        if n_sets == 1:
            payload = profile_payload(ADDR_PAYLOAD, 64)
            store.save_profile(payload, profile)
        else:
            payload = set_profile_payload(ADDR_PAYLOAD, 64, n_sets)
            store.save_set_profile(payload, profile)
        tiers.clear_process_caches()  # decode from disk, not T0

        loaded = load_stored(ArtifactStore(tmp_path), payload)
        assert (loaded.line_size, loaded.n_sets, loaded.cold,
                loaded.duplicate_hits) == (64, n_sets, 2**40 + 3, 2**40 + 5)
        assert loaded.counts.dtype == np.int64
        assert loaded.counts.flags.writeable
        np.testing.assert_array_equal(loaded.counts, counts)

    def test_older_npz_profiles_are_left_alone(self, tmp_path):
        # A store an older build filled holds .npz archives under keys
        # without the encoding stamp: they keep verifying, and no load
        # ever opens one.
        experiment = ExperimentSpec(line_sizes=(32,), assocs=(None, 4),
                                    **GRID)
        reference = grid_rows(ArtifactStore(tmp_path), experiment)
        planted = 0
        for kind in ("profiles", "set_profiles"):
            for (line_size, n_sets), (_, key) in \
                    profile_keys(ArtifactStore(tmp_path), kind).items():
                profile = load_stored(ArtifactStore(tmp_path), key)
                older = {name: value for name, value in key.items()
                         if name != "encoding"}
                geometry = [line_size, n_sets] if "n_sets" in older else []
                digest = fingerprint(older)
                path = tmp_path / kind / (digest + ".npz")
                np.savez(path, counts=profile.counts, meta=np.array(
                    [*geometry, profile.cold, profile.duplicate_hits]))
                path.with_suffix(".json").write_text(json.dumps({
                    "key": older, "envelope": {
                        "kind": kind, "nbytes": path.stat().st_size,
                        "digest": faults.file_digest(path)}}))
                planted += 1
        assert planted == 3  # (32, 1), (32, 8) and (32, 16)
        tiers.clear_process_caches()

        store = ArtifactStore(tmp_path)
        assert grid_rows(store, experiment) == reference
        assert store.recovery_events == []
        assert not (tmp_path / "quarantine").exists()
        report = store.verify()
        assert report["clean"]
        assert report["kinds"]["profiles"]["ok"] == 2
        assert report["kinds"]["set_profiles"]["ok"] == 4


class TestLegacyAndForeignSidecars:
    def test_legacy_sidecar_without_counters_is_a_miss(self, tmp_path):
        # A traces sidecar without a part list (or render counters)
        # is legacy: a quarantining miss, never a KeyError.
        store, engine = warm_store(tmp_path)
        trace_sidecar(store).write_text(json.dumps({"key": SPEC.payload()}))

        fresh = ArtifactStore(tmp_path)
        assert fresh.load_render(SPEC) is None  # no KeyError
        assert "legacy trace" in quarantine_reasons(store, "traces")

    def test_enveloped_sidecar_missing_counters_is_a_miss(self, tmp_path):
        # Every part verifies, but the counters are gone: undecodable.
        store, engine = warm_store(tmp_path)
        sidecar = trace_sidecar(store)
        meta = json.loads(sidecar.read_text())
        del meta["n_triangles_submitted"], meta["n_triangles_rasterized"]
        sidecar.write_text(json.dumps(meta))

        assert ArtifactStore(tmp_path).load_render(SPEC) is None
        assert "undecodable" in quarantine_reasons(store, "traces")

    def test_single_archive_trace_is_legacy(self, tmp_path):
        # The older trace format -- one traces/<digest>.npz with an
        # enveloped sidecar -- verifies as legacy: verify() reports it,
        # repair() quarantines it, and a load quarantines it and
        # renders again.
        from repro.pipeline import traceio

        reference = Engine(store=ArtifactStore(tmp_path / "ref")).render(SPEC)

        def legacy_store(root):
            store = ArtifactStore(root)
            digest = fingerprint(SPEC.payload())
            payload = store._path("traces", digest, ".npz")
            payload.parent.mkdir(parents=True)
            traceio.save_trace(str(payload), reference.trace)
            payload.with_suffix(".json").write_text(json.dumps({
                "key": SPEC.payload(),
                "envelope": {"kind": "traces",
                             "digest": faults.file_digest(payload),
                             "nbytes": payload.stat().st_size},
                "n_triangles_submitted": reference.n_triangles_submitted,
                "n_triangles_rasterized": reference.n_triangles_rasterized}))
            return store

        store = legacy_store(tmp_path / "repair")
        scan = store.verify()
        [problem] = scan["kinds"]["traces"]["bad"]
        assert "legacy trace" in problem["reason"]
        assert store.repair()["quarantined"] == [f"traces/{problem['file']}"]
        assert store.verify()["clean"]
        assert not list((store.root / "traces").glob("*"))

        store = legacy_store(tmp_path / "load")
        before = render_calls()
        recomputed = Engine(store=store).render(SPEC)
        assert render_calls() == before + 1
        assert "legacy trace" in quarantine_reasons(store, "traces")
        assert_traces_equal(recomputed.trace, reference.trace)
        assert store.open_render_blocks(SPEC) is not None
        assert store.verify()["clean"]

    def test_stale_orphaned_sidecar_quarantined(self, tmp_path):
        store, _ = warm_store(tmp_path)
        [victim] = faults.payload_files(store, "addresses")
        sidecar = victim.with_suffix(".json")
        victim.unlink()
        faults.backdate(sidecar, 2 * artifacts_module.TORN_GRACE_S)

        assert ArtifactStore(tmp_path).load_addresses(ADDR_PAYLOAD) is None
        assert "payload missing" in quarantine_reasons(store, "addresses")
        assert not sidecar.exists()

    def test_stale_payload_without_sidecar_quarantined(self, tmp_path):
        # A payload whose sidecar never landed is a writer mid-publish
        # while fresh, and damage once stale.
        store, _ = warm_store(tmp_path)
        [victim] = faults.payload_files(store, "addresses")
        victim.with_suffix(".json").unlink()

        assert ArtifactStore(tmp_path).load_addresses(ADDR_PAYLOAD) is None
        assert victim.exists()
        assert store.verify()["pending"] == 1
        faults.backdate(victim, 2 * artifacts_module.TORN_GRACE_S)
        repaired = ArtifactStore(tmp_path).repair()
        assert repaired["quarantined"] == [f"addresses/{victim.name}"]
        assert "missing sidecar" in quarantine_reasons(store, "addresses")

    def test_fresh_torn_state_is_left_alone(self, tmp_path):
        # Within the grace window parts without their sidecar are a
        # concurrent writer mid-publish: miss, but no quarantine.  Once
        # stale they are orphaned parts, which repair() purges.
        store, _ = warm_store(tmp_path)
        parts = faults.payload_files(store, "traces")
        trace_sidecar(store).unlink()

        assert ArtifactStore(tmp_path).load_render(SPEC) is None
        assert all(part.exists() for part in parts)
        assert quarantine_reasons(store, "traces") == ""
        scan = store.verify()
        assert scan["clean"] and scan["pending"] == len(parts)
        assert store.repair()["purged_parts"] == []

        for part in parts:
            faults.backdate(part, 2 * artifacts_module.TORN_GRACE_S)
        scan = store.verify()
        assert scan["clean"] and scan["orphaned_parts"] == len(parts)
        assert sorted(store.repair()["purged_parts"]) == sorted(
            f"traces/{part.name}" for part in parts)
        assert not any(part.exists() for part in parts)


class TestStatsRobustness:
    def test_stats_skips_files_vanishing_mid_scan(self, tmp_path,
                                                  monkeypatch):
        # TOCTOU regression: a file deleted between glob and stat (a
        # concurrent clear()) used to raise FileNotFoundError.
        store, _ = warm_store(tmp_path)
        full = store.stats()
        [victim] = faults.payload_files(store, "profiles")
        calls = {"n": 0}
        real_stat = Path.stat

        def racing_stat(self, *args, **kwargs):
            if self.name == victim.name:
                calls["n"] += 1
                if calls["n"] > 1:  # survive is_file(), vanish at stat()
                    raise FileNotFoundError(errno.ENOENT, "vanished",
                                            str(self))
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        report = store.stats()
        assert report["kinds"]["profiles"]["files"] == \
            full["kinds"]["profiles"]["files"] - 1
        assert report["total_files"] == full["total_files"] - 1

    def test_stats_and_clear_handle_tmp_litter(self, tmp_path):
        store, _ = warm_store(tmp_path)
        baseline = store.stats()
        faults.litter_tmp(Path(tmp_path) / "traces")
        faults.litter_tmp(Path(tmp_path) / "addresses", suffix=".npy")

        report = store.stats()
        assert report["tmp_files"] == 2
        assert report["kinds"]["traces"]["tmp"] == 1
        # Litter is not counted (or sized) as artifacts.
        assert report["total_files"] == baseline["total_files"]
        assert report["total_bytes"] == baseline["total_bytes"]

        store.clear()
        after = store.stats()
        assert after["total_files"] == 0 and after["tmp_files"] == 0

    def test_empty_root_everywhere(self, tmp_path):
        store = ArtifactStore(tmp_path / "never-created")
        assert store.stats()["total_files"] == 0
        assert store.verify()["clean"]
        report = store.repair()
        assert report["quarantined"] == [] and report["purged_tmp"] == []


class TestKillResilience:
    def test_writer_killed_before_publish(self, tmp_path):
        reference = Engine(store=ArtifactStore(tmp_path / "ref")).render(SPEC)

        root = tmp_path / "store"
        with faults.killed_writer():
            with pytest.raises(faults.SimulatedKill):
                Engine(store=ArtifactStore(root)).render(SPEC)

        # The kill left temp litter and published nothing.
        litter = list((root / "traces").glob("*"))
        assert litter and all(".tmp" in f.name for f in litter)

        # The store stays loadable: a clean miss, no crash.
        store = ArtifactStore(root)
        assert store.load_render(SPEC) is None
        scan = store.verify()
        assert scan["bad"] == 0 and scan["tmp"] == len(litter)

        # repair purges the litter once it is stale; verify comes back
        # clean and the next engine recomputes the cell bit-identically.
        for f in litter:
            faults.backdate(f, 2 * artifacts_module.TORN_GRACE_S)
        repaired = store.repair()
        assert len(repaired["purged_tmp"]) == len(litter)
        clean = store.verify()
        assert clean["clean"] and clean["tmp"] == 0

        recomputed = Engine(store=ArtifactStore(root)).render(SPEC)
        assert_traces_equal(recomputed.trace, reference.trace)
        assert ArtifactStore(root).verify()["ok"] >= 1

    def test_writer_killed_between_payload_and_sidecar(self, tmp_path):
        reference = Engine(store=ArtifactStore(tmp_path / "ref")).render(SPEC)

        root = tmp_path / "store"
        with faults.killed_writer(at_replace=1):
            with pytest.raises(faults.SimulatedKill):
                Engine(store=ArtifactStore(root)).render(SPEC)

        published = faults.payload_files(ArtifactStore(root), "traces")
        assert len(published) == 1  # the part landed, the sidecar did not

        # Fresh torn state: read as a miss, and the recompute republishes
        # both files over it.
        store = ArtifactStore(root)
        assert store.load_render(SPEC) is None
        recomputed = Engine(store=ArtifactStore(root)).render(SPEC)
        assert_traces_equal(recomputed.trace, reference.trace)
        final = ArtifactStore(root).verify()
        assert final["clean"] and final["ok"] >= 1

        # Aged instead, the unlisted part is litter: repair purges it.
        [part] = faults.payload_files(store, "traces")
        trace_sidecar(store).unlink()
        faults.backdate(part, 2 * artifacts_module.TORN_GRACE_S)
        repaired = ArtifactStore(root).repair()
        assert repaired["quarantined"] == []
        assert repaired["purged_parts"] == [f"traces/{part.name}"]

    def test_writer_unwound_as_its_temp_file_appears(self, tmp_path):
        # A pool worker turns SIGTERM into SystemExit at whatever line
        # it is running.  Raised at the first line the writer runs once
        # its temporary file exists, the unwind must still discard it.
        target = tmp_path / "traces" / "artifact.json"
        code = artifacts_module._publish_file.__code__
        fired = []

        def on_line(frame, event, arg):
            if event == "line" and not fired and \
                    list(target.parent.glob("*.tmp*")):
                fired.append(frame.f_lineno)
                raise SystemExit(143)
            return on_line

        def on_call(frame, event, arg):
            return on_line if frame.f_code is code else None

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            with pytest.raises(SystemExit):
                artifacts_module._publish_file(target, [b"{}"])
        finally:
            sys.settrace(previous)
        assert fired
        assert list(target.parent.iterdir()) == []


class TestDegradedModes:
    def test_full_disk_demotes_to_memory_with_one_warning(self, tmp_path):
        store = ArtifactStore(tmp_path)
        engine = Engine(store=store)
        with faults.disk_full():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = engine.render(SPEC)
                again = engine.render(SPEC)
        assert again is result  # in-memory memo still serves
        demotions = [w for w in caught
                     if "without persistence" in str(w.message)]
        assert len(demotions) == 1
        assert not store.available
        assert store.stats()["total_files"] == 0  # nothing half-written

    def test_numpy_save_failure_demotes(self, tmp_path):
        # Payloads are encoded in memory, so the disk fails on the
        # store's own write of the first file, part-way through it.
        store = ArtifactStore(tmp_path)
        engine = Engine(store=store)
        with faults.failing_write(errno.EROFS):
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                result = engine.render(SPEC)
        assert result.trace.n_accesses > 0
        assert not store.available
        assert store.stats()["tmp_files"] == 0  # temp cleaned up

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root bypasses permission checks")
    def test_read_only_directory_demotes(self, tmp_path):
        read_only = tmp_path / "ro"
        read_only.mkdir()
        os.chmod(read_only, 0o555)
        try:
            engine = Engine(store=ArtifactStore(read_only))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = engine.render(SPEC)
            assert result.trace.n_accesses > 0
            assert not engine.store.available
            assert any("without persistence" in str(w.message)
                       for w in caught)
        finally:
            os.chmod(read_only, 0o755)

    def test_warm_store_keeps_serving_when_disk_breaks(self, tmp_path):
        # A read-only store full of warm artifacts still serves them:
        # only writes degrade, reads keep working.
        warm_store(tmp_path)
        before = render_calls()
        with faults.disk_full():
            engine = Engine(store=ArtifactStore(tmp_path))
            engine.streams(SPEC, LAYOUT).profile(32)
        assert render_calls() == before
        assert engine.store.available  # no save was ever needed

    def test_streamed_fold_on_unwritable_store_publishes_nothing(
            self, tmp_path):
        # The streamed fold and collapsed_runs still compute on a store
        # that cannot persist anything, and publish nothing.
        from repro.core.cache import collapse_consecutive, to_lines
        from repro.engine import StreamedProfiles

        healthy = Engine(store=ArtifactStore(tmp_path / "ok"))
        want = healthy.streams(SPEC, LAYOUT).set_profile(32, 8)
        want_runs, want_duplicates = collapse_consecutive(
            to_lines(healthy.addresses(SPEC, LAYOUT), 32))
        store = ArtifactStore(tmp_path / "broken")
        with faults.disk_full():
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                streamed = StreamedProfiles(store, SPEC, LAYOUT,
                                            chunk_size=4096)
                got = streamed.set_profile(32, 8)
                runs, duplicates = streamed.collapsed_runs(32)
        assert not store.available
        np.testing.assert_array_equal(got.counts, want.counts)
        assert got.cold == want.cold
        np.testing.assert_array_equal(runs, want_runs)
        assert duplicates == want_duplicates
        assert store.stats()["total_files"] == 0

    def test_experiment_completes_on_unwritable_store(self, tmp_path):
        experiment = ExperimentSpec(
            scenes=("goblet",), orders=(("horizontal",),),
            layouts=(LAYOUT,), cache_sizes=(1024, 4096), line_sizes=(32,),
            scale=0.1)
        with faults.disk_full():
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                degraded = run_experiment(
                    experiment, store=ArtifactStore(tmp_path / "broken"))
        healthy = run_experiment(experiment,
                                 store=ArtifactStore(tmp_path / "ok"))
        assert [r.stats.miss_rate for r in degraded.rows] == \
            [r.stats.miss_rate for r in healthy.rows]


class TestSingleFlight:
    def test_lock_is_exclusive_with_takeover_timeout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with store.single_flight("traces", "deadbeef") as first:
            assert first
            with store.single_flight("traces", "deadbeef",
                                     timeout=0.2) as second:
                assert not second  # takeover: proceed without the lock
        with store.single_flight("traces", "deadbeef") as again:
            assert again  # released on exit

    def test_two_racing_engines_render_once(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("requires the fork start method")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        queue = context.Queue()
        root = str(tmp_path)

        def race():
            reset_render_calls()
            barrier.wait()
            engine = Engine(store=ArtifactStore(root))
            result = engine.render(SPEC)
            queue.put((render_calls(), result.trace.n_accesses))

        processes = [context.Process(target=race) for _ in range(2)]
        for process in processes:
            process.start()
        counts = [queue.get(timeout=120) for _ in processes]
        for process in processes:
            process.join(timeout=30)
        renders = sorted(count for count, _ in counts)
        assert renders == [0, 1]  # exactly one render per fingerprint
        assert counts[0][1] == counts[1][1] > 0
        # And the store holds the one published, verified artifact.
        assert ArtifactStore(root).verify()["ok"] == 1


class TestCacheCLIVerifyRepair:
    def test_verify_repair_cycle(self, tmp_path, capsys):
        from repro.cli import main

        store, _ = warm_store(tmp_path)
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        assert "verified clean" in capsys.readouterr().out

        [victim] = faults.payload_files(store, "traces")
        faults.truncate(victim)
        faults.litter_tmp(Path(tmp_path) / "profiles",
                          age_s=2 * artifacts_module.TORN_GRACE_S)

        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "BAD" in out and "mismatch" in out

        assert main(["cache", "repair", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 artifact(s)" in out
        assert "purged 1 stale temp file(s)" in out

        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "quarantine" in capsys.readouterr().out


class TestResumableParts:
    """verify/repair on a store holding an interrupted pipelined run:
    recorded strided parts are *resumable* -- pending inside the grace
    window, kept (never quarantined or purged) beyond it -- while
    unrecorded strided parts age into ordinary orphan litter."""

    def interrupted_run(self, root):
        """The wreckage of a pipelined cold render killed mid-run:
        range 0 completed (strided parts + completion record carrying
        the fold's geometry), the next range's part landed without a
        record (its worker died before finishing), the sidecar never
        published."""
        from repro.engine.pipelined import PART_STRIDE
        from repro.pipeline.trace import iter_blocks

        trace = Engine(store=ArtifactStore(root / "scratch")).render(
            SPEC).trace
        blocks = list(iter_blocks(trace, max(1, trace.n_accesses // 4)))
        assert len(blocks) >= 3
        store = ArtifactStore(root / "store")
        writer = store.open_render_writer(SPEC, part_base=0)
        writer.append(blocks[0])
        writer.append(blocks[1])
        envelopes, complete, _ = writer.finish_parts()
        assert complete and len(envelopes) == 2
        store.save_range_record(SPEC, 0, {
            "range": 0, "n_ranges": 2, "chunk_size": 4096,
            "part_stride": PART_STRIDE, "envelopes": envelopes,
            "complete": True, "totals": {}, "n_blocks": len(envelopes)})
        unrecorded = store.open_render_writer(SPEC, part_base=PART_STRIDE)
        unrecorded.append(blocks[2])
        orphan_envelopes, _, _ = unrecorded.finish_parts()
        recorded = [entry["name"] for entry in envelopes]
        return store, recorded, [entry["name"]
                                 for entry in orphan_envelopes]

    def test_fresh_parts_report_pending_not_damage(self, tmp_path):
        store, recorded, orphaned = self.interrupted_run(tmp_path)
        scan = store.verify()
        traces = scan["kinds"]["traces"]
        assert scan["bad"] == 0
        assert traces["pending"] == len(recorded) + len(orphaned)
        assert traces["resumable"] == [] and traces["orphaned_parts"] == []
        # repair within the grace window touches nothing.
        repaired = store.repair()
        assert repaired["quarantined"] == []
        assert repaired["purged_parts"] == []
        for name in recorded + orphaned:
            assert (Path(store.root) / "traces" / name).exists()

    def test_stale_recorded_parts_resumable_not_quarantined(self, tmp_path):
        store, recorded, orphaned = self.interrupted_run(tmp_path)
        for name in recorded + orphaned:
            faults.backdate(Path(store.root) / "traces" / name,
                            2 * artifacts_module.TORN_GRACE_S)
        scan = store.verify()
        traces = scan["kinds"]["traces"]
        assert scan["bad"] == 0 and scan["clean"]
        assert sorted(traces["resumable"]) == sorted(recorded)
        assert traces["orphaned_parts"] == orphaned
        assert store.stats()["resumable_parts"] == len(recorded)

        repaired = store.repair()
        assert repaired["quarantined"] == []
        assert repaired["kept_resumable"] == len(recorded)
        assert repaired["purged_resume"] == []
        assert sorted(repaired["purged_parts"]) == sorted(
            f"traces/{name}" for name in orphaned)
        for name in recorded:  # parts and their record both survive
            assert (Path(store.root) / "traces" / name).exists()
        assert store.load_range_records(SPEC)

    def test_corrupt_recorded_part_is_not_resumable(self, tmp_path):
        store, recorded, orphaned = self.interrupted_run(tmp_path)
        for name in recorded + orphaned:
            faults.backdate(Path(store.root) / "traces" / name,
                            2 * artifacts_module.TORN_GRACE_S)
        corrupt = Path(store.root) / "traces" / recorded[0]
        faults.flip_bit(corrupt)  # rewriting refreshes mtime...
        faults.backdate(corrupt, 2 * artifacts_module.TORN_GRACE_S)
        [record] = (Path(store.root) / "traces").glob("*.done.json")
        faults.backdate(record, 2 * artifacts_module.TORN_GRACE_S)
        scan = store.verify()
        traces = scan["kinds"]["traces"]
        # The record's envelope check fails, so the whole range falls
        # back to orphan litter instead of resuming corrupt data, and
        # the record, covering nothing, is stale litter too.
        assert traces["resumable"] == []
        assert sorted(traces["orphaned_parts"]) == sorted(
            recorded + orphaned)
        assert traces["stale_resume"] == [record.name]
        repaired = store.repair()
        assert repaired["purged_resume"] == [f"traces/{record.name}"]
        assert store.load_range_records(SPEC) == {}
        assert not list((Path(store.root) / "traces").glob("*"))
        assert store.verify()["clean"]

    def test_records_disagreeing_on_geometry_are_discarded(self, tmp_path):
        # Each record carries the fold's geometry; one that disagrees
        # with the records before it cannot be resumed under theirs,
        # so it goes, with its parts, like an invalid record.
        from repro.engine import pipelined, tiers

        store, recorded, [stray] = self.interrupted_run(tmp_path)
        part = Path(store.root) / "traces" / stray
        store.save_range_record(SPEC, 1, {
            "range": 1, "n_ranges": 4, "chunk_size": 4096,
            "part_stride": pipelined.PART_STRIDE,
            "envelopes": [{"name": stray, "nbytes": part.stat().st_size,
                           "digest": faults.file_digest(part)}],
            "complete": True, "totals": {}, "n_blocks": 1})
        geometry, resumed = pipelined._load_resume(store, SPEC)
        assert geometry == (2, 4096) and sorted(resumed) == [0]
        assert sorted(store.load_range_records(SPEC)) == [0]
        assert not part.exists()
        for name in recorded:
            assert (Path(store.root) / "traces" / name).exists()

    def test_stale_plan_only_state_is_purged(self, tmp_path):
        # A fold of an older version crashed before its first range
        # completed: only its range plan is left.  It covers no part,
        # so once stale it is litter for repair(); while fresh, a live
        # fold may still be writing records beside it.
        from repro.engine import fingerprint

        store = ArtifactStore(tmp_path)
        plan = (Path(store.root) / "traces" /
                (fingerprint(SPEC.payload()) + ".plan.json"))
        plan.parent.mkdir(parents=True)
        plan.write_text(json.dumps({"n_ranges": 4, "chunk_size": 4096,
                                    "part_stride": 100_000}))
        assert store.verify()["kinds"]["traces"]["stale_resume"] == []
        assert store.repair()["purged_resume"] == []
        faults.backdate(plan, 3600)
        scan = store.verify()
        assert scan["clean"] and scan["bad"] == 0
        assert scan["kinds"]["traces"]["stale_resume"] == [plan.name]
        assert store.repair()["purged_resume"] == [f"traces/{plan.name}"]
        assert not plan.exists()

    def test_resume_metadata_purged_once_artifact_published(self, tmp_path):
        from repro.engine import fingerprint
        from repro.pipeline.trace import iter_blocks

        trace = Engine(store=ArtifactStore(tmp_path / "scratch")).render(
            SPEC).trace
        store = ArtifactStore(tmp_path / "store")
        writer = store.open_render_writer(SPEC)
        for block in iter_blocks(trace, max(1, trace.n_accesses // 3)):
            writer.append(block)
        assert writer.finish({"n_triangles_submitted": 1,
                              "n_triangles_rasterized": 1})
        # A leftover record from the run that published; its part
        # verifies (the sidecar lists it), but nothing is left to
        # resume.
        envelope = json.loads(
            store._path("traces", fingerprint(SPEC.payload()),
                        ".json").read_text())["parts"][0]
        store.save_range_record(SPEC, 0, {
            "range": 0, "n_ranges": 1, "chunk_size": 4096,
            "part_stride": 100_000, "envelopes": [envelope],
            "complete": True, "totals": {}, "n_blocks": 1})
        [record] = (Path(store.root) / "traces").glob("*.done.json")
        faults.backdate(record, 2 * artifacts_module.TORN_GRACE_S)
        scan = store.verify()
        assert scan["kinds"]["traces"]["stale_resume"] == [record.name]
        repaired = store.repair()
        assert repaired["purged_resume"] == [f"traces/{record.name}"]
        assert store.load_range_records(SPEC) == {}
        assert store.verify()["clean"]

    def test_cache_cli_surfaces_resumable_parts(self, tmp_path, capsys):
        from repro.cli import main

        store, recorded, orphaned = self.interrupted_run(tmp_path)
        for name in recorded + orphaned:
            faults.backdate(Path(store.root) / "traces" / name,
                            2 * artifacts_module.TORN_GRACE_S)
        root = str(store.root)
        assert main(["cache", "verify", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "resumable" in out
        assert main(["cache", "repair", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert f"kept {len(recorded)} resumable part(s)" in out
        assert main(["cache", "stats", "--dir", root]) == 0
        assert "resumable" in capsys.readouterr().out


class TestChunkedTraces:
    """Part damage in a streamed trace is caught by the sidecar's
    envelopes, and the recompute is bit-identical."""

    def test_corrupt_part_quarantines_the_trace(self, tmp_path):
        from repro.engine import StreamedProfiles

        root = tmp_path / "store"
        store = ArtifactStore(root)
        StreamedProfiles(store, SPEC, LAYOUT, chunk_size=4096).prefetch(
            [(32, 1)])
        reader = store.open_render_blocks(SPEC)
        assert reader is not None and len(reader) > 1
        faults.flip_bit(Path(store.root) / "traces" /
                        reader.parts[1]["name"])
        assert store.open_render_blocks(SPEC) is None
        assert "digest mismatch" in quarantine_reasons(store, "traces")

        reference = Engine(store=ArtifactStore(tmp_path / "ref")).render(SPEC)
        recomputed = Engine(store=ArtifactStore(root)).render(SPEC)
        assert_traces_equal(recomputed.trace, reference.trace)
        assert ArtifactStore(root).verify()["clean"]

    @pytest.mark.parametrize("writer", ["save_render", "streamed"])
    def test_part_replaced_before_its_sidecar_is_not_blessed(
            self, tmp_path, monkeypatch, writer):
        # Two writers of one trace (the second took over a hung lock)
        # use the same part names but cut the parts differently.  Part 0
        # replaced by the other writer's, right after this writer
        # published it: the sidecar records the bytes this writer
        # wrote, so the replacement fails its envelope.
        from repro.engine import StreamedProfiles
        from repro.pipeline import traceio
        from repro.pipeline.trace import iter_blocks

        reference = Engine(store=ArtifactStore(tmp_path / "ref")).render(SPEC)
        other = tmp_path / "other.npz"
        traceio.save_trace(other, next(iter_blocks(reference.trace, 4096)))
        root = tmp_path / "store"
        part = root / "traces" / artifacts_module.part_name(
            fingerprint(SPEC.payload()), 0)
        replace = artifacts_module._replace

        def replace_then_overwrite(source, destination):
            replace(source, destination)
            if str(destination) == str(part):
                monkeypatch.setattr(artifacts_module, "_replace", replace)
                temp = part.with_name("other.tmp.npz")
                shutil.copyfile(other, temp)
                os.replace(temp, part)
        monkeypatch.setattr(artifacts_module, "_replace",
                            replace_then_overwrite)
        store = ArtifactStore(root)
        if writer == "save_render":
            Engine(store=store).render(SPEC)
        else:
            StreamedProfiles(store, SPEC, LAYOUT, chunk_size=8192).prefetch(
                [(32, 1)])
        assert part.read_bytes() == other.read_bytes()

        [problem] = ArtifactStore(root).verify()["kinds"]["traces"]["bad"]
        assert problem["reason"].startswith(f"part {part.name}: ")
        before = render_calls()
        recomputed = Engine(store=ArtifactStore(root)).render(SPEC)
        assert render_calls() == before + 1
        assert f"part {part.name}: " in quarantine_reasons(store, "traces")
        assert_traces_equal(recomputed.trace, reference.trace)
        assert ArtifactStore(root).verify()["clean"]

    def test_fresh_render_keeps_a_stored_trace(self, tmp_path):
        # A render that always runs (an image was asked for) finds the
        # streamed trace stored and leaves its parts and sidecar alone:
        # rewriting them, cut another way, would change what a reader
        # that already verified them reads.
        from repro.engine import StreamedProfiles

        store = ArtifactStore(tmp_path)
        StreamedProfiles(store, SPEC, LAYOUT, chunk_size=4096).prefetch(
            [(32, 1)])
        traces = Path(store.root) / "traces"
        before = {path.name: path.stat().st_mtime_ns
                  for path in traces.iterdir()}
        assert len(before) > 2  # several parts and the sidecar
        result = Engine(store=store).render(SPEC, produce_image=True)
        assert result.framebuffer is not None
        assert {path.name: path.stat().st_mtime_ns
                for path in traces.iterdir()} == before
