"""Tests for the tiered read-through store.

Covers T0 (the byte-bounded in-process LRU and the verify-once digest
cache): LRU eviction under byte pressure, stat revalidation so on-disk
tampering is never masked by a process-level hit, hash-at-most-once
loads, the one pass a first-touch load makes over its two files, and
the one write a save makes of each.
"""

import builtins
import io
import os

import numpy as np
import pytest

from repro.engine import (
    ArtifactStore,
    Engine,
    TraceSpec,
    addresses_payload,
    artifacts,
    fingerprint,
    profile_payload,
    set_profile_payload,
    tiers,
)
from repro.engine.artifacts import PROFILE_SUFFIX
from tests import fault_injection as faults

SPEC = TraceSpec(scene="goblet", scale=0.1, order=("horizontal",))
LAYOUT = ("blocked", 4)
ADDR_PAYLOAD = addresses_payload(SPEC, LAYOUT)
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
        first = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        second = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        # T0 is process-wide: distinct store instances over the same
        # root share one deserialized artifact, no disk read.
        assert first is second

    def test_byte_budget_bounds_resident_set(self, tmp_path, monkeypatch):
        store, _ = warm_store(tmp_path)
        reference = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        budget = reference.counts.nbytes + 64  # exactly one profile
        monkeypatch.setattr(tiers, "_MEMORY", tiers.MemoryTier(budget))

        fresh = ArtifactStore(tmp_path)
        fresh.load_profile(PROFILE_32)
        fresh.load_profile(profile_payload(ADDR_PAYLOAD, 64))
        stats = tiers.memory_tier().stats()
        assert stats["max_bytes"] == budget
        assert stats["bytes"] <= budget
        assert stats["entries"] <= 1

    def test_tampering_not_masked_by_warm_t0(self, tmp_path):
        """The dangerous case: the SAME store instance that populated
        T0 must still see on-disk bit rot."""
        store, engine = warm_store(tmp_path)
        reference = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        digest = fingerprint(PROFILE_32)
        victim = store.root / "profiles" / (digest + PROFILE_SUFFIX)
        faults.flip_bit(victim)

        assert store.load_profile(PROFILE_32) is None
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

        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is None
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

        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is not None
        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is None
        assert "undecodable" in quarantine_reasons(store, "profiles")

    def test_write_through_anchors_the_files_written(self, tmp_path,
                                                     monkeypatch):
        """A payload flipped in place (same size, later mtime) right
        after its sidecar publishes: the write-through keeps the
        identities the writes took, so the next load goes to disk and
        quarantines the payload instead of serving the value T0 would
        have pinned."""
        store, _ = warm_store(tmp_path)
        profile = store.load_profile(PROFILE_32)
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
        store.save_profile(PROFILE_32, profile)
        monkeypatch.undo()

        assert store.load_profile(PROFILE_32) is None
        assert "digest mismatch" in quarantine_reasons(store, "profiles")


class TestOneRead:
    """A first-touch load opens its sidecar and its payload once each
    and makes no ``stat`` call: the two descriptors' ``fstat``
    identities serve the size check, the digest-cache lookup and the T0
    anchors."""

    @pytest.mark.parametrize("kind, suffix, key, load", [
        pytest.param("set_profiles", PROFILE_SUFFIX,
                     set_profile_payload(ADDR_PAYLOAD, 32, 8),
                     ArtifactStore.load_set_profile, id="set-profile"),
        pytest.param("addresses", ".npy", ADDR_PAYLOAD,
                     ArtifactStore.load_addresses, id="addresses"),
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
        value = load(store, key)
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
        key = set_profile_payload(ADDR_PAYLOAD, 32, 8)
        profile = store.load_set_profile(key)
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
        store.save_set_profile(key, profile)
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
        reloaded = ArtifactStore(tmp_path).load_set_profile(key)
        np.testing.assert_array_equal(reloaded.counts, profile.counts)


class TestDigestCache:
    def test_verified_loads_hash_at_most_once(self, tmp_path):
        warm_store(tmp_path)
        tiers.clear_process_caches()

        cache = tiers.digest_cache()
        before = cache.stats()
        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is not None
        after_first = cache.stats()
        hashed = after_first["misses"] - before["misses"]
        assert hashed >= 1  # payload actually hashed once

        for _ in range(3):
            # Empty T0 alone, so every load verifies its envelope.
            tiers.memory_tier().invalidate(None)
            assert ArtifactStore(tmp_path).load_profile(PROFILE_32) \
                is not None
        after = cache.stats()
        assert after["misses"] == after_first["misses"]  # never re-hashed
        assert after["hits"] > after_first["hits"]

    def test_publish_seeds_the_cache(self, tmp_path):
        warm_store(tmp_path)  # publish records digests as a side effect
        tiers.memory_tier().invalidate(None)  # the load verifies on disk
        cache = tiers.digest_cache()
        before = cache.stats()
        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is not None
        after = cache.stats()
        # The very first verified load hashes nothing.
        assert after["misses"] == before["misses"]

    def test_store_rooted_at_the_working_directory(self, tmp_path,
                                                   monkeypatch):
        # A store rooted at "." spells each path one way, so verify()
        # finds the digest that the save recorded instead of hashing
        # the payload again under a second key.
        warm_store(tmp_path / "filled")
        key = set_profile_payload(ADDR_PAYLOAD, 32, 8)
        profile = ArtifactStore(tmp_path / "filled").load_set_profile(key)
        (tmp_path / "store").mkdir()
        monkeypatch.chdir(tmp_path / "store")
        tiers.clear_process_caches()
        cache = tiers.digest_cache()
        store = ArtifactStore(".")
        store.save_set_profile(key, profile)
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
