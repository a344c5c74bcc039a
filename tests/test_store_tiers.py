"""Tests for the tiered read-through store.

Covers T0 (the byte-bounded in-process LRU and the verify-once digest
cache): LRU eviction under byte pressure, stat revalidation so on-disk
tampering is never masked by a process-level hit, hash-at-most-once
loads, the one pass a first-touch load makes over its two files, the
one write a save makes of each, read-only served values, and the fixed
cost of a T0-hot grid (one key encoding per trace and layout, two
``stat`` calls per profile load, one configuration per distinct cell
and one reduction per cell).
"""

import builtins
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheConfig
from repro.core.stackdist import DistanceProfile
from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    ProfileKeys,
    TraceSpec,
    addresses_payload,
    artifacts,
    fingerprint,
    profile_payload,
    set_profile_payload,
    tiers,
)
from repro.scenes import ALL_SCENES
from repro.engine.artifacts import PROFILE_SUFFIX
from tests import fault_injection as faults

SPEC = TraceSpec(scene="goblet", scale=0.1, order=("horizontal",))
LAYOUT = ("blocked", 4)
ADDR_PAYLOAD = addresses_payload(SPEC, LAYOUT)
KEYS = ProfileKeys(ADDR_PAYLOAD)
PROFILE_32 = profile_payload(ADDR_PAYLOAD, 32)


@pytest.fixture(autouse=True)
def _fresh_process_caches():
    """Each test starts with empty process tiers (counters persist;
    tests assert on deltas, never absolutes)."""
    tiers.clear_process_caches()
    yield
    tiers.clear_process_caches()


def warm_store(root):
    store = ArtifactStore(root)
    engine = Engine(store=store)
    streams = engine.streams(SPEC, LAYOUT)
    streams.profile(32)
    streams.profile(64)
    streams.set_profile(32, 8)
    return store, engine


def quarantine_reasons(store, kind):
    directory = store.root / "quarantine" / kind
    if not directory.is_dir():
        return ""
    return "\n".join(f.read_text()
                     for f in directory.glob("*.reason.json"))


class TestMemoryTier:
    def _anchor(self, tmp_path, name):
        """The anchors of a value that stands for one new file."""
        path = tmp_path / name
        path.write_bytes(b"x")
        return [(path, tiers.stat_identity(os.stat(path)))]

    def test_lru_eviction_under_byte_pressure(self, tmp_path):
        tier = tiers.MemoryTier(max_bytes=100)
        for index in range(3):
            tier.put(("k", index), self._anchor(tmp_path, f"a{index}"),
                     f"value-{index}", 40)
        # 3 x 40 bytes > 100: the least-recently-used entry is gone.
        assert tier.get(("k", 0)) is tiers.MISS
        assert tier.get(("k", 1)) == "value-1"
        assert tier.get(("k", 2)) == "value-2"
        stats = tier.stats()
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["evictions"] == 1

    def test_get_refreshes_lru_order(self, tmp_path):
        tier = tiers.MemoryTier(max_bytes=100)
        tier.put(("k", 0), self._anchor(tmp_path, "a0"), "value-0", 40)
        tier.put(("k", 1), self._anchor(tmp_path, "a1"), "value-1", 40)
        assert tier.get(("k", 0)) == "value-0"  # 0 is now most recent
        tier.put(("k", 2), self._anchor(tmp_path, "a2"), "value-2", 40)
        assert tier.get(("k", 1)) is tiers.MISS
        assert tier.get(("k", 0)) == "value-0"

    def test_oversized_value_is_not_cached(self, tmp_path):
        tier = tiers.MemoryTier(max_bytes=100)
        tier.put(("k", "big"), self._anchor(tmp_path, "big"), "v", 101)
        assert tier.get(("k", "big")) is tiers.MISS
        assert tier.stats()["entries"] == 0

    def test_stat_revalidation_drops_rewritten_anchor(self, tmp_path):
        tier = tiers.MemoryTier(max_bytes=100)
        tier.put(("k",), self._anchor(tmp_path, "a"), "cached", 10)
        assert tier.get(("k",)) == "cached"
        (tmp_path / "a").write_bytes(b"different length")  # size change
        assert tier.get(("k",)) is tiers.MISS
        assert tier.stats()["entries"] == 0


class TestT0Integration:
    def test_warm_load_serves_the_cached_object(self, tmp_path):
        warm_store(tmp_path)
        first = ArtifactStore(tmp_path).load_profile(KEYS, 32)
        second = ArtifactStore(tmp_path).load_profile(KEYS, 32)
        # T0 is process-wide: distinct store instances over the same
        # root share one deserialized artifact, no disk read.
        assert first is second

    def test_byte_budget_bounds_resident_set(self, tmp_path, monkeypatch):
        store, _ = warm_store(tmp_path)
        reference = ArtifactStore(tmp_path).load_profile(KEYS, 32)
        budget = reference.counts.nbytes + 64  # exactly one profile
        monkeypatch.setattr(tiers, "_MEMORY", tiers.MemoryTier(budget))

        fresh = ArtifactStore(tmp_path)
        fresh.load_profile(KEYS, 32)
        fresh.load_profile(KEYS, 64)
        stats = tiers.memory_tier().stats()
        assert stats["max_bytes"] == budget
        assert stats["bytes"] <= budget
        assert stats["entries"] <= 1

    def test_tampering_not_masked_by_warm_t0(self, tmp_path):
        """The dangerous case: the SAME store instance that populated
        T0 must still see on-disk bit rot."""
        store, engine = warm_store(tmp_path)
        reference = ArtifactStore(tmp_path).load_profile(KEYS, 32)
        digest = fingerprint(PROFILE_32)
        victim = store.root / "profiles" / (digest + PROFILE_SUFFIX)
        faults.flip_bit(victim)

        assert store.load_profile(KEYS, 32) is None
        assert "mismatch" in quarantine_reasons(store, "profiles")
        recomputed = engine.streams(SPEC, LAYOUT).profile(32)
        np.testing.assert_array_equal(recomputed.counts, reference.counts)

    def test_restamped_truncation_not_masked(self, tmp_path):
        """truncate + restamp defeats the digest check on purpose; the
        decode layer must still quarantine, not serve a stale T0 hit."""
        store, _ = warm_store(tmp_path)
        digest = fingerprint(PROFILE_32)
        victim = store.root / "profiles" / (digest + PROFILE_SUFFIX)
        faults.truncate(victim)
        faults.restamp(store, "profiles", digest, PROFILE_SUFFIX)

        assert ArtifactStore(tmp_path).load_profile(KEYS, 32) is None
        assert "undecodable" in quarantine_reasons(store, "profiles")

    def test_fill_anchors_the_files_that_were_read(self, tmp_path,
                                                   monkeypatch):
        """A payload truncated and restamped between a first-touch
        load's read and its T0 fill: the fill keeps the identities the
        read took, so the next load goes to disk and quarantines the
        payload instead of serving the value T0 would have pinned."""
        store, _ = warm_store(tmp_path)
        tiers.clear_process_caches()
        digest = fingerprint(PROFILE_32)
        victim = store.root / "profiles" / (digest + PROFILE_SUFFIX)
        decode = artifacts._decode_profile

        def decode_then_tamper(*args):
            monkeypatch.setattr(artifacts, "_decode_profile", decode)
            value = decode(*args)
            faults.truncate(victim)
            faults.restamp(store, "profiles", digest, PROFILE_SUFFIX)
            return value
        monkeypatch.setattr(artifacts, "_decode_profile", decode_then_tamper)

        assert ArtifactStore(tmp_path).load_profile(KEYS, 32) is not None
        assert ArtifactStore(tmp_path).load_profile(KEYS, 32) is None
        assert "undecodable" in quarantine_reasons(store, "profiles")

    def test_write_through_anchors_the_files_written(self, tmp_path,
                                                     monkeypatch):
        """A payload flipped in place (same size, later mtime) right
        after its sidecar publishes: the write-through keeps the
        identities the writes took, so the next load goes to disk and
        quarantines the payload instead of serving the value T0 would
        have pinned."""
        store, _ = warm_store(tmp_path)
        profile = store.load_profile(KEYS, 32)
        victim = store.root / "profiles" / (fingerprint(PROFILE_32)
                                            + PROFILE_SUFFIX)
        replace = artifacts._replace

        def replace_then_flip(source, destination):
            replace(source, destination)
            if str(destination) == str(victim.with_suffix(".json")):
                status = os.stat(victim)
                data = bytearray(victim.read_bytes())
                data[len(data) // 2] ^= 0x10
                with open(victim, "r+b") as handle:
                    handle.write(data)
                os.utime(victim, ns=(status.st_atime_ns,
                                     status.st_mtime_ns + 10**9))
        monkeypatch.setattr(artifacts, "_replace", replace_then_flip)
        store.save_profile(KEYS, 32, profile)
        monkeypatch.undo()

        assert store.load_profile(KEYS, 32) is None
        assert "digest mismatch" in quarantine_reasons(store, "profiles")


class TestOneRead:
    """A first-touch load opens its sidecar and its payload once each
    and makes no ``stat`` call: the two descriptors' ``fstat``
    identities serve the size check, the digest-cache lookup and the T0
    anchors."""

    @pytest.mark.parametrize("kind, suffix, key, load", [
        pytest.param("set_profiles", PROFILE_SUFFIX,
                     set_profile_payload(ADDR_PAYLOAD, 32, 8),
                     lambda store: store.load_set_profile(KEYS, 32, 8),
                     id="set-profile"),
        pytest.param("addresses", ".npy", ADDR_PAYLOAD,
                     lambda store: store.load_addresses(ADDR_PAYLOAD),
                     id="addresses"),
    ])
    def test_first_touch_load_opens_each_file_once(
            self, tmp_path, monkeypatch, kind, suffix, key, load):
        warm_store(tmp_path)
        tiers.clear_process_caches()
        store = ArtifactStore(tmp_path)
        opened, stats = [], []
        real_open, real_stat = builtins.open, os.stat

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        def counting_stat(path, *args, **kwargs):
            stats.append(str(path))
            return real_stat(path, *args, **kwargs)
        # pathlib opens through io.open, the same function as open().
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(os, "stat", counting_stat)
        value = load(store)
        monkeypatch.undo()

        assert value is not None
        base = tmp_path / kind / fingerprint(key)
        assert sorted(opened) == sorted(
            [str(base) + suffix, str(base) + ".json"])
        assert stats == []


class TestOneWrite:
    """A save hashes the bytes it writes: it creates each of its two
    files once, opens nothing for reading and makes no ``stat`` call."""

    def test_save_creates_each_file_once(self, tmp_path, monkeypatch):
        warm_store(tmp_path)
        store = ArtifactStore(tmp_path)
        profile = store.load_set_profile(KEYS, 32, 8)
        opened, created, stats = [], [], []
        real_open, real_os_open, real_stat = builtins.open, os.open, os.stat

        def counting_open(file, mode="r", *args, **kwargs):
            opened.append((str(file), mode))
            return real_open(file, mode, *args, **kwargs)

        def counting_os_open(path, flags, *args, **kwargs):
            created.append((str(path), flags & (os.O_CREAT | os.O_EXCL)))
            return real_os_open(path, flags, *args, **kwargs)

        def counting_stat(path, *args, **kwargs):
            stats.append(str(path))
            return real_stat(path, *args, **kwargs)
        # pathlib opens through io.open, the same function as open().
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        monkeypatch.setattr(os, "stat", counting_stat)
        store.save_set_profile(KEYS, 32, 8, profile)
        monkeypatch.undo()

        # One temporary sibling per file, created and written once.
        directory = str(tmp_path / "set_profiles")
        assert [(os.path.dirname(name), os.path.splitext(name)[1], flags)
                for name, flags in created] == [
            (directory, suffix, os.O_CREAT | os.O_EXCL)
            for suffix in (PROFILE_SUFFIX, ".json")]
        assert opened == [(name, "xb") for name, _ in created]
        assert stats == []
        tiers.clear_process_caches()
        reloaded = ArtifactStore(tmp_path).load_set_profile(KEYS, 32, 8)
        np.testing.assert_array_equal(reloaded.counts, profile.counts)


class TestDigestCache:
    def test_verified_loads_hash_at_most_once(self, tmp_path):
        warm_store(tmp_path)
        tiers.clear_process_caches()

        cache = tiers.digest_cache()
        before = cache.stats()
        assert ArtifactStore(tmp_path).load_profile(KEYS, 32) is not None
        after_first = cache.stats()
        hashed = after_first["misses"] - before["misses"]
        assert hashed >= 1  # payload actually hashed once

        for _ in range(3):
            # Empty T0 alone, so every load verifies its envelope.
            tiers.memory_tier().invalidate(None)
            assert ArtifactStore(tmp_path).load_profile(KEYS, 32) \
                is not None
        after = cache.stats()
        assert after["misses"] == after_first["misses"]  # never re-hashed
        assert after["hits"] > after_first["hits"]

    def test_publish_seeds_the_cache(self, tmp_path):
        warm_store(tmp_path)  # publish records digests as a side effect
        tiers.memory_tier().invalidate(None)  # the load verifies on disk
        cache = tiers.digest_cache()
        before = cache.stats()
        assert ArtifactStore(tmp_path).load_profile(KEYS, 32) is not None
        after = cache.stats()
        # The very first verified load hashes nothing.
        assert after["misses"] == before["misses"]

    def test_store_rooted_at_the_working_directory(self, tmp_path,
                                                   monkeypatch):
        # A store rooted at "." spells each path one way, so verify()
        # finds the digest that the save recorded instead of hashing
        # the payload again under a second key.
        warm_store(tmp_path / "filled")
        profile = ArtifactStore(tmp_path / "filled").load_set_profile(
            KEYS, 32, 8)
        (tmp_path / "store").mkdir()
        monkeypatch.chdir(tmp_path / "store")
        tiers.clear_process_caches()
        cache = tiers.digest_cache()
        store = ArtifactStore(".")
        store.save_set_profile(KEYS, 32, 8, profile)
        before = cache.stats()
        assert store.verify()["clean"]
        after = cache.stats()
        assert (after["hits"] - before["hits"],
                after["misses"] - before["misses"],
                after["entries"]) == (1, 0, 2)

    def test_rewrite_mid_hash_is_hashed_again(self, tmp_path, monkeypatch):
        """A trace part flipped in place (same size) while it is being
        hashed: the cache must not record the rewritten file's identity
        with the digest of the bytes read before the flip, so the next
        scan hashes it again and finds the damage."""
        store, _ = warm_store(tmp_path)
        [part] = faults.payload_files(store, "traces")
        tiers.clear_process_caches()
        original = part.read_bytes()
        real_hashlib = artifacts.hashlib

        class HashThenFlip:
            """``hashlib`` as the store sees it: hashing the part's
            bytes flips one of them in the file right after."""

            @staticmethod
            def sha256(data=b""):
                hashed = real_hashlib.sha256(data)
                if bytes(data) == original:
                    monkeypatch.setattr(artifacts, "hashlib", real_hashlib)
                    status = os.stat(part)
                    flipped = bytearray(original)
                    flipped[len(flipped) // 2] ^= 0x10
                    with open(part, "r+b") as handle:
                        handle.write(flipped)
                    # A later mtime whatever the file system's clock tick.
                    os.utime(part, ns=(status.st_atime_ns,
                                       status.st_mtime_ns + 10**9))
                return hashed
        monkeypatch.setattr(artifacts, "hashlib", HashThenFlip)

        assert store.verify()["clean"]  # hashed the bytes before the flip
        report = store.verify()
        [problem] = report["kinds"]["traces"]["bad"]
        assert f"part {part.name}: content digest mismatch" in \
            problem["reason"]


class TestReadOnlyT0:
    """T0 hands one profile to every engine in the process, so nothing
    it serves can be written: a profile's counts changed by one engine
    would change every other engine's cells."""

    GRID = ExperimentSpec(scenes=("goblet",), layouts=(("blocked", 8),),
                          line_sizes=(64,), cache_sizes=(1024, 4096),
                          assocs=(None, 4), scale=0.05)
    FRAME = TraceSpec(scene="goblet", scale=0.05, order="paper")

    @pytest.mark.parametrize("decoded", [False, True],
                             ids=["written-through", "decoded"])
    def test_served_values_are_read_only(self, tmp_path, decoded):
        def cells():
            result = Engine(store=ArtifactStore(tmp_path)).run(self.GRID)
            return [(row.config, row.stats.misses) for row in result.rows]
        reference = cells()  # cold: every value is written through
        if decoded:
            tiers.clear_process_caches()
        streams = Engine(store=ArtifactStore(tmp_path)).streams(
            self.FRAME, ("blocked", 8))
        served = [streams.profile(64).counts,
                  streams.set_profile(64, 4).counts]
        for array in served:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[-1] += 1000
        assert cells() == reference


class TestT0HoldsProfiles:
    """Only the profile loads and saves consult and fill T0: nothing in
    a process reads a trace or an address stream back, so T0 holds
    neither."""

    def test_no_trace_or_address_stream_enters_t0(self, tmp_path):
        frame = TestReadOnlyT0.FRAME
        Engine(store=ArtifactStore(tmp_path)).run(TestReadOnlyT0.GRID)
        store = ArtifactStore(tmp_path)
        assert store.load_render(frame) is not None
        assert store.load_addresses(
            addresses_payload(frame, ("blocked", 8))) is not None
        kinds = {key[1] for key in tiers.memory_tier()._entries}
        assert kinds == {"profiles", "set_profiles"}


HOT_GRID = ExperimentSpec(scenes=("goblet",),
                          layouts=(("blocked", 8), ("blocked", 4)),
                          line_sizes=(32, 64), cache_sizes=(1024, 2048, 4096),
                          assocs=(None, 2, 4), scale=0.1)


class TestHotServe:
    """A T0-hot ``Engine.run`` serves each cell for a fixed amount of
    Python: each (trace, layout) encodes its key once, each profile
    load is one T0 lookup with two ``stat`` calls and no open, and
    each distinct cache configuration is built once."""

    @pytest.fixture
    def hot(self, tmp_path, monkeypatch):
        """Count what one T0-hot run of :data:`HOT_GRID` does."""
        Engine(store=ArtifactStore(tmp_path)).run(HOT_GRID)
        Engine(store=ArtifactStore(tmp_path)).run(HOT_GRID)
        counts = {"encodings": 0, "stats": 0, "opens": 0, "loads": 0,
                  "configs": []}
        real_dumps, real_stat = json.dumps, os.stat
        real_open, real_os_open = builtins.open, os.open
        real_init = CacheConfig.__init__
        real_loads = {name: getattr(ArtifactStore, name)
                      for name in ("load_profile", "load_set_profile")}

        def counting(key, call):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return call(*args, **kwargs)
            return wrapper

        def building(config, size, line_size, assoc=None):
            counts["configs"].append((size, line_size, assoc))
            real_init(config, size, line_size, assoc)
        monkeypatch.setattr(json, "dumps", counting("encodings", real_dumps))
        monkeypatch.setattr(os, "stat", counting("stats", real_stat))
        # pathlib opens through io.open, the same function as open().
        monkeypatch.setattr(builtins, "open", counting("opens", real_open))
        monkeypatch.setattr(io, "open", counting("opens", real_open))
        monkeypatch.setattr(os, "open", counting("opens", real_os_open))
        monkeypatch.setattr(CacheConfig, "__init__", building)
        for name, load in real_loads.items():
            monkeypatch.setattr(ArtifactStore, name, counting("loads", load))
        result = Engine(store=ArtifactStore(tmp_path)).run(HOT_GRID)
        monkeypatch.undo()
        assert len(result.rows) == 2 * 2 * 3 * 3
        return counts

    def test_one_key_encoding_per_trace_and_layout(self, hot):
        assert 1 <= hot["encodings"] <= len(HOT_GRID.layouts)

    def test_two_stats_and_no_open_per_profile_load(self, hot):
        # Ten pairs a layout: (32|64, 1) and the 2- and 4-way set counts.
        assert hot["loads"] == 2 * 10
        assert hot["stats"] == 2 * hot["loads"]
        assert hot["opens"] == 0

    def test_each_distinct_config_built_once(self, hot):
        built = hot["configs"]
        assert len(built) == len(set(built)) == 2 * 3 * 3


_LAYOUTS = [("blocked", 4), ("blocked", 8), ("nonblocked",),
            ("padded", 4, 1), ("blocked6d", 4, 4096), ("williams",)]
_ORDERS = ["paper", ("horizontal",), ("vertical",), ("tiled", 8),
           ("hilbert", 3)]


@st.composite
def trace_specs(draw):
    return TraceSpec(
        scene=draw(st.sampled_from(sorted(ALL_SCENES))),
        scale=draw(st.floats(0.01, 1.0)),
        time=draw(st.floats(0.0, 10.0)),
        order=draw(st.sampled_from(_ORDERS)),
        max_anisotropy=draw(st.sampled_from([1, 2, 4, 8, 16])),
        lod_bias=draw(st.floats(-2.0, 2.0)),
        use_mipmaps=draw(st.booleans()),
        record_positions=draw(st.booleans()))


class TestProfileKeys:
    @settings(max_examples=150, deadline=None)
    @given(spec=trace_specs(), layout=st.sampled_from(_LAYOUTS),
           line_size=st.sampled_from([4, 16, 32, 64, 128, 256, 1024]),
           n_sets=st.one_of(st.just(1), st.integers(2, 1 << 16)))
    def test_derived_digest_is_the_fingerprint(self, spec, layout,
                                               line_size, n_sets):
        address_payload = addresses_payload(spec, layout)
        key = ProfileKeys(address_payload).key(line_size, n_sets)
        if n_sets == 1:
            kind = "profiles"
            payload = profile_payload(address_payload, line_size)
        else:
            kind = "set_profiles"
            payload = set_profile_payload(address_payload, line_size, n_sets)
        assert (key.kind, key.line_size, key.n_sets, key.payload) == \
            (kind, line_size, n_sets, payload)
        assert key.digest == fingerprint(payload)


def two_sum_misses(profile, capacity_lines):
    """Misses at ``capacity_lines`` by the two reductions ``misses_at``
    made before a profile counted its total once."""
    upto = min(capacity_lines + 1, len(profile.counts))
    return (int(profile.counts.sum()) - int(profile.counts[:upto].sum())
            + profile.cold)


class TestOneReduction:
    @pytest.mark.parametrize("counts", [[0, 5, 3, 0, 2, 9], [7]],
                             ids=["histogram", "one-bin"])
    def test_misses_at_matches_two_sums(self, counts):
        profile = DistanceProfile(counts=np.array(counts, np.int64),
                                  cold=4, duplicate_hits=6)
        end = len(counts)
        # 1, inside, at the last bin, at and past the histogram's end.
        for capacity in (1, end // 2 or 1, end - 1 or 1, end, end + 7):
            assert profile.misses_at(capacity) == \
                two_sum_misses(profile, capacity)
        assert profile.total_accesses == sum(counts) + 4 + 6
