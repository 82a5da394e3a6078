"""Tests for the dict-bucket hashed cache oracle (§VI extension)."""

import numpy as np
import pytest

from cache_oracles import HashedNegativeCache, stable_key_hash


class TestStableKeyHash:
    def test_deterministic(self):
        assert stable_key_hash((3, 7)) == stable_key_hash((3, 7))

    def test_order_sensitive(self):
        assert stable_key_hash((3, 7)) != stable_key_hash((7, 3))

    def test_spreads_keys(self):
        buckets = {stable_key_hash((i, j)) % 64 for i in range(20) for j in range(20)}
        assert len(buckets) > 48  # good spread over 64 buckets


class TestHashedCache:
    def test_entries_bounded_by_buckets(self, rng):
        cache = HashedNegativeCache(4, 100, rng, n_buckets=5)
        for i in range(50):
            cache.get((i, i + 1))
        assert cache.n_entries <= 5

    def test_colliding_keys_share_entry(self, rng):
        cache = HashedNegativeCache(4, 100, rng, n_buckets=1)
        a = cache.get((0, 1))
        b = cache.get((42, 7))
        np.testing.assert_array_equal(a, b)

    def test_put_via_any_alias(self, rng):
        cache = HashedNegativeCache(3, 100, rng, n_buckets=1)
        cache.put((0, 1), np.array([1, 2, 3]))
        np.testing.assert_array_equal(cache.get((99, 99)), [1, 2, 3])

    def test_memory_bound_formula(self, rng):
        cache = HashedNegativeCache(10, 100, rng, n_buckets=8)
        assert cache.memory_bound_bytes() == 8 * 10 * 8

    def test_scores_supported(self, rng):
        cache = HashedNegativeCache(2, 50, rng, n_buckets=4, store_scores=True)
        cache.put((1, 2), np.array([5, 6]), np.array([0.5, 0.6]))
        np.testing.assert_allclose(cache.scores((1, 2)), [0.5, 0.6])

    def test_invalid_buckets_rejected(self, rng):
        with pytest.raises(ValueError, match="n_buckets"):
            HashedNegativeCache(4, 100, rng, n_buckets=0)

    def test_contains_respects_hashing(self, rng):
        cache = HashedNegativeCache(4, 100, rng, n_buckets=1)
        cache.get((0, 0))
        assert (123, 456) in cache  # same single bucket


class TestBucketParity:
    def test_bucket_introspection_matches_bucketed_array(self, rng):
        """Same hash, same buckets: the dict reference reports the same
        load factor / collision counts as the array sibling."""
        from repro.core.array_cache import ArrayNegativeCache
        from repro.data.keyindex import KeyIndex

        index = KeyIndex(np.arange(12), np.arange(12), 12)
        hashed = HashedNegativeCache(4, 100, rng, n_buckets=3)
        bucketed = ArrayNegativeCache(4, 100, rng, n_buckets=3)
        hashed.attach_index(index)
        bucketed.attach_index(index)
        assert hashed.load_factor() == bucketed.load_factor() == 4.0
        assert hashed.n_colliding_keys() == bucketed.n_colliding_keys()

    def test_introspection_requires_index(self, rng):
        cache = HashedNegativeCache(4, 100, rng, n_buckets=3)
        with pytest.raises(RuntimeError, match="attach_index"):
            cache.load_factor()
