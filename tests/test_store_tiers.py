"""Tests for the tiered read-through store.

Covers T0 (the byte-bounded in-process LRU and the verify-once digest
cache): LRU eviction under byte pressure, stat revalidation so on-disk
tampering is never masked by a process-level hit, hash-at-most-once
loads, and disabling the tier with ``REPRO_STORE_MEMORY_BYTES=0``.
"""

import numpy as np
import pytest

from repro.engine import (
    ArtifactStore,
    Engine,
    TraceSpec,
    addresses_payload,
    fingerprint,
    profile_payload,
    tiers,
)
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
        path = tmp_path / name
        path.write_bytes(b"x")
        return path

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
        anchor = self._anchor(tmp_path, "a")
        tier.put(("k",), anchor, "cached", 10)
        assert tier.get(("k",)) == "cached"
        anchor.write_bytes(b"different length")  # size change
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

    def test_disabled_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MEMORY_BYTES", "0")
        warm_store(tmp_path)
        assert not tiers.memory_tier().enabled
        first = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        second = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        assert first is not second
        np.testing.assert_array_equal(first.counts, second.counts)

    def test_byte_budget_bounds_resident_set(self, tmp_path, monkeypatch):
        store, _ = warm_store(tmp_path)
        reference = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        budget = reference.counts.nbytes + 64  # exactly one profile
        monkeypatch.setenv("REPRO_STORE_MEMORY_BYTES", str(budget))
        tiers.clear_process_caches()

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
        victim = store.root / "profiles" / (digest + ".npz")
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
        victim = store.root / "profiles" / (digest + ".npz")
        faults.truncate(victim)
        faults.restamp(store, "profiles", digest, ".npz")

        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is None
        assert "undecodable" in quarantine_reasons(store, "profiles")


class TestDigestCache:
    def test_verified_loads_hash_at_most_once(self, tmp_path, monkeypatch):
        # Disable T0 so every load goes through envelope verification.
        monkeypatch.setenv("REPRO_STORE_MEMORY_BYTES", "0")
        warm_store(tmp_path)
        tiers.clear_process_caches()

        cache = tiers.digest_cache()
        before = cache.stats()
        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is not None
        after_first = cache.stats()
        hashed = after_first["misses"] - before["misses"]
        assert hashed >= 1  # payload actually hashed once

        for _ in range(3):
            assert ArtifactStore(tmp_path).load_profile(PROFILE_32) \
                is not None
        after = cache.stats()
        assert after["misses"] == after_first["misses"]  # never re-hashed
        assert after["hits"] > after_first["hits"]

    def test_publish_seeds_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MEMORY_BYTES", "0")
        warm_store(tmp_path)  # publish records digests as a side effect
        cache = tiers.digest_cache()
        before = cache.stats()
        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is not None
        after = cache.stats()
        # The very first verified load costs a stat, not a hash.
        assert after["misses"] == before["misses"]

    def test_verify_always_bypasses_the_cache(self, tmp_path, monkeypatch):
        warm_store(tmp_path)
        monkeypatch.setenv("REPRO_STORE_MEMORY_BYTES", "0")
        monkeypatch.setenv("REPRO_STORE_VERIFY", "always")
        tiers.clear_process_caches()
        cache = tiers.digest_cache()
        before = cache.stats()
        for _ in range(2):
            assert ArtifactStore(tmp_path).load_profile(PROFILE_32) \
                is not None
        after = cache.stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
