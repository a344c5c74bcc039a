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
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    TraceSpec,
    addresses_payload,
    profile_payload,
    render_calls,
    reset_render_calls,
    run_experiment,
    set_profile_payload,
)
from repro.engine import artifacts as artifacts_module

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
            for payload in payloads:
                sidecar = json.loads(
                    payload.with_suffix(".json").read_text())
                envelope = sidecar["envelope"]
                assert envelope["kind"] == kind
                assert envelope["nbytes"] == payload.stat().st_size
                assert envelope["digest"] == \
                    artifacts_module._file_digest(payload)
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
        [victim] = faults.payload_files(store, "traces")
        faults.truncate(victim)

        assert ArtifactStore(tmp_path).load_render(SPEC) is None
        assert "mismatch" in quarantine_reasons(store, "traces")
        assert not victim.exists()  # moved into quarantine

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
        np.savez(victim, unrelated=np.arange(3))
        faults.restamp(store, "set_profiles", digest, ".npz")

        payload = set_profile_payload(ADDR_PAYLOAD, 32, 8)
        assert ArtifactStore(tmp_path).load_set_profile(payload) is None
        assert "undecodable" in quarantine_reasons(store, "set_profiles")

        recomputed = Engine(store=ArtifactStore(tmp_path)).streams(
            SPEC, LAYOUT).set_profile(32, 8)
        np.testing.assert_array_equal(recomputed.counts, reference.counts)
        assert recomputed.cold == reference.cold


class TestLegacyAndForeignSidecars:
    def test_legacy_sidecar_without_counters_is_a_miss(self, tmp_path):
        # Regression: a legacy/foreign traces sidecar missing the
        # render counters used to crash load_render with KeyError.
        store, engine = warm_store(tmp_path)
        [victim] = faults.payload_files(store, "traces")
        sidecar = victim.with_suffix(".json")
        sidecar.write_text(json.dumps({"key": SPEC.payload()}))

        fresh = ArtifactStore(tmp_path)
        assert fresh.load_render(SPEC) is None  # no KeyError
        assert "legacy sidecar" in quarantine_reasons(store, "traces")

    def test_enveloped_sidecar_missing_counters_is_a_miss(self, tmp_path):
        store, engine = warm_store(tmp_path)
        [victim] = faults.payload_files(store, "traces")
        digest = victim.name.split(".")[0]
        sidecar = victim.with_suffix(".json")
        sidecar.write_text(json.dumps({"key": SPEC.payload()}))
        faults.restamp(store, "traces", digest, ".npz")

        assert ArtifactStore(tmp_path).load_render(SPEC) is None
        assert "undecodable" in quarantine_reasons(store, "traces")

    def test_stale_orphaned_sidecar_quarantined(self, tmp_path):
        store, _ = warm_store(tmp_path)
        [victim] = faults.payload_files(store, "addresses")
        sidecar = victim.with_suffix(".json")
        victim.unlink()
        faults.backdate(sidecar, 2 * artifacts_module.TORN_GRACE_S)

        assert ArtifactStore(tmp_path).load_addresses(ADDR_PAYLOAD) is None
        assert "payload missing" in quarantine_reasons(store, "addresses")
        assert not sidecar.exists()

    def test_fresh_torn_state_is_left_alone(self, tmp_path):
        # Within the grace window a payload-without-sidecar is a
        # concurrent writer mid-publish: miss, but no quarantine.
        store, _ = warm_store(tmp_path)
        [victim] = faults.payload_files(store, "traces")
        victim.with_suffix(".json").unlink()

        assert ArtifactStore(tmp_path).load_render(SPEC) is None
        assert victim.exists()
        assert quarantine_reasons(store, "traces") == ""
        scan = store.verify()
        assert scan["clean"] and scan["pending"] == 1


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
        assert len(published) == 1  # payload landed, sidecar did not

        # Fresh torn state: read as a miss, and the recompute republishes
        # both files over it.
        store = ArtifactStore(root)
        assert store.load_render(SPEC) is None
        recomputed = Engine(store=ArtifactStore(root)).render(SPEC)
        assert_traces_equal(recomputed.trace, reference.trace)
        final = ArtifactStore(root).verify()
        assert final["clean"] and final["ok"] >= 1

        # Aged instead, the same state is damage: repair quarantines it.
        [payload] = faults.payload_files(store, "traces")
        payload.with_suffix(".json").unlink()
        faults.backdate(payload, 2 * artifacts_module.TORN_GRACE_S)
        repaired = ArtifactStore(root).repair()
        assert any("traces/" in name for name in repaired["quarantined"])
        assert "missing sidecar" in quarantine_reasons(store, "traces")


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
        store = ArtifactStore(tmp_path)
        engine = Engine(store=store)
        with faults.failing_numpy_save(errno.EROFS):
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
        range 0 completed (strided parts + completion record), the next
        range's part landed without a record (its worker died before
        finishing), the plan is on disk, the sidecar never published."""
        from repro.engine.pipelined import PART_STRIDE
        from repro.pipeline.trace import iter_blocks

        trace = Engine(store=ArtifactStore(root / "scratch")).render(
            SPEC).trace
        blocks = list(iter_blocks(trace, max(1, trace.n_accesses // 4)))
        assert len(blocks) >= 3
        store = ArtifactStore(root / "store")
        store.save_stream_plan(SPEC, {"n_ranges": 2, "chunk_size": 4096,
                                      "part_stride": PART_STRIDE,
                                      "created_at": 0.0})
        writer = store.open_render_writer(SPEC, part_base=0)
        writer.append(blocks[0])
        writer.append(blocks[1])
        envelopes, complete, _ = writer.finish_parts()
        assert complete and len(envelopes) == 2
        store.save_range_record(SPEC, 0, {
            "range": 0, "envelopes": envelopes, "complete": True,
            "totals": {}, "n_blocks": len(envelopes)})
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
        assert store.load_stream_plan(SPEC) is not None

    def test_corrupt_recorded_part_is_not_resumable(self, tmp_path):
        store, recorded, orphaned = self.interrupted_run(tmp_path)
        for name in recorded + orphaned:
            faults.backdate(Path(store.root) / "traces" / name,
                            2 * artifacts_module.TORN_GRACE_S)
        corrupt = Path(store.root) / "traces" / recorded[0]
        faults.flip_bit(corrupt)  # rewriting refreshes mtime...
        faults.backdate(corrupt, 2 * artifacts_module.TORN_GRACE_S)
        scan = store.verify()
        traces = scan["kinds"]["traces"]
        # The record's envelope check fails, so the whole range falls
        # back to orphan litter instead of resuming corrupt data.
        assert traces["resumable"] == []
        assert sorted(traces["orphaned_parts"]) == sorted(
            recorded + orphaned)

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
        # Leftover resume metadata from the run that published.
        store.save_stream_plan(SPEC, {"n_ranges": 1, "chunk_size": 4096,
                                      "part_stride": 100_000,
                                      "created_at": 0.0})
        store.save_range_record(SPEC, 0, {"range": 0, "envelopes": [],
                                          "complete": True, "totals": {},
                                          "n_blocks": 0})
        digest = fingerprint(SPEC.payload())
        for path in (Path(store.root) / "traces").glob(
                digest + ".*.json"):
            if ".plan." in path.name or ".done." in path.name:
                faults.backdate(path, 2 * artifacts_module.TORN_GRACE_S)
        scan = store.verify()
        assert len(scan["kinds"]["traces"]["stale_resume"]) == 2
        repaired = store.repair()
        assert len(repaired["purged_resume"]) == 2
        assert store.load_stream_plan(SPEC) is None
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
    """The chunked representation streaming writes: part damage is
    caught by the sidecar's envelopes, and a re-chunked monolithic
    trace leaves its old payload behind only as litter."""

    def test_corrupt_part_quarantines_the_trace(self, tmp_path):
        from repro.engine import StreamedProfiles

        store = ArtifactStore(tmp_path)
        StreamedProfiles(store, SPEC, LAYOUT, chunk_size=4096).prefetch(
            [(32, 1)])
        reader = store.open_render_blocks(SPEC)
        assert reader is not None and len(reader) > 1
        faults.flip_bit(Path(store.root) / "traces" /
                        reader.parts[1]["name"])
        assert store.open_render_blocks(SPEC) is None
        assert "digest mismatch" in quarantine_reasons(store, "traces")

    def test_rechunked_monolithic_payload_is_purged_once_stale(
            self, tmp_path):
        from repro.engine import StreamedProfiles, fingerprint

        store = ArtifactStore(tmp_path)
        Engine(store=store).render(SPEC)
        # audit() needs parts, so it re-chunks the monolithic trace
        # under the same digest.
        StreamedProfiles(store, SPEC, LAYOUT, chunk_size=4096).audit(
            [(32, 1)], parts=1)
        traces = Path(store.root) / "traces"
        payload = traces / (fingerprint(SPEC.payload()) + ".npz")
        sidecar = payload.with_suffix(".json")
        assert "parts" in json.loads(sidecar.read_text())
        # Kept while a reader that verified the old envelope may still
        # be loading it ...
        scan = store.verify()
        assert scan["clean"] and scan["orphaned_parts"] == 0
        assert scan["pending"] == 1
        assert store.repair()["purged_parts"] == []
        assert payload.exists()
        # ... and litter once the re-chunk is older than the grace
        # window.
        for path in (payload, sidecar):
            faults.backdate(path, 2 * artifacts_module.TORN_GRACE_S)
        scan = store.verify()
        assert scan["clean"]
        assert scan["kinds"]["traces"]["orphaned_parts"] == [payload.name]
        assert store.repair()["purged_parts"] == [f"traces/{payload.name}"]
        assert not payload.exists()
        assert store.verify()["orphaned_parts"] == 0
        assert store.open_render_blocks(SPEC) is not None
