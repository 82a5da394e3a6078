"""Tests for the bucket row map (``n_buckets``) of the array cache."""

import numpy as np
import pytest

from repro.core.array_cache import ArrayNegativeCache
from repro.data.keyindex import KeyIndex


def _index(n_keys: int = 8, n_second: int = 100) -> KeyIndex:
    return KeyIndex(
        np.arange(n_keys, dtype=np.int64), np.arange(n_keys, dtype=np.int64), n_second
    )


def _cache(size=5, n_entities=50, seed=0, n_keys=8, n_second=100, n_buckets=4,
           **kwargs):
    cache = ArrayNegativeCache(
        size, n_entities, np.random.default_rng(seed), n_buckets=n_buckets, **kwargs
    )
    cache.attach_index(_index(n_keys, n_second))
    return cache


class TestConstruction:
    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError, match="n_buckets"):
            ArrayNegativeCache(4, 100, n_buckets=0)

    def test_gather_before_attach_rejected(self):
        cache = ArrayNegativeCache(5, 20, n_buckets=4)
        with pytest.raises(RuntimeError, match="attach_index"):
            cache.gather(np.array([0]))

    def test_bucket_introspection_needs_buckets(self):
        cache = ArrayNegativeCache(4, 20, 0)
        cache.attach_index(_index())
        with pytest.raises(RuntimeError, match="n_buckets"):
            cache.load_factor()
        with pytest.raises(RuntimeError, match="n_buckets"):
            cache.memory_bound_bytes()


class TestMemoryBound:
    def test_allocation_is_bucket_count_not_key_count(self):
        """The §VI bound: storage rows == n_buckets regardless of keys."""
        small = _cache(size=4, n_keys=6, n_buckets=16)
        large = _cache(size=4, n_keys=96, n_second=200, n_buckets=16)
        assert small.allocated_bytes() == large.allocated_bytes()
        # int64 ids [16, 4] + live bitmap [16].
        assert small.allocated_bytes() == 16 * 4 * 8 + 16

    def test_memory_bound_formula(self):
        cache = _cache(size=10, n_buckets=8)
        assert cache.memory_bound_bytes() == 8 * 10 * 8
        with_scores = _cache(size=10, n_buckets=8, store_scores=True)
        assert with_scores.memory_bound_bytes() == 2 * 8 * 10 * 8

    def test_entries_bounded_by_buckets(self):
        cache = _cache(n_keys=50, n_second=64, n_buckets=5)
        cache.gather(np.arange(50, dtype=np.int64))
        assert cache.n_entries <= 5


class TestCollisions:
    def test_colliding_rows_share_entry(self):
        cache = _cache(n_buckets=1)
        out = cache.gather(np.array([0, 5]))
        np.testing.assert_array_equal(out[0], out[1])
        assert cache.initialised_entries == 1

    def test_scatter_via_any_alias(self):
        cache = _cache(size=3, n_buckets=1)
        cache.scatter(np.array([0]), np.array([[1, 2, 3]]))
        np.testing.assert_array_equal(cache.gather(np.array([7]))[0], [1, 2, 3])

    def test_colliding_writes_count_ce_sequentially(self):
        """Two keys, one bucket: the second write's CE is counted against
        the first write's contents, and the last write wins."""
        cache = _cache(size=3, n_buckets=1)
        cache.scatter(np.array([0]), np.array([[1, 2, 3]]))
        cache.reset_counters()
        ids = np.array([[4, 5, 6], [4, 5, 7]])
        # write #1 vs {1,2,3}: 3 changed; write #2 vs {4,5,6}: 1 changed.
        assert cache.scatter(np.array([2, 6]), ids) == 4
        np.testing.assert_array_equal(cache.gather(np.array([0]))[0], [4, 5, 7])

    def test_introspection(self):
        cache = _cache(n_keys=12, n_buckets=1)
        assert cache.load_factor() == 12.0
        assert cache.n_colliding_keys() == 12
        assert "n_buckets=1" in repr(cache)


class TestKeyAddressed:
    def test_get_and_contains_hash_any_key(self):
        cache = _cache(n_buckets=1)
        assert (123, 456) not in cache  # nothing materialised yet
        entry = cache.get((0, 0))
        assert entry.shape == (5,)
        # Single bucket: every key, indexed or not, now hits it.
        assert (123, 456) in cache
        np.testing.assert_array_equal(cache.get((123, 456)), entry)

    def test_keys_are_bucket_keys(self):
        cache = _cache(n_buckets=1)
        cache.gather(np.array([3]))
        assert cache.keys() == [(0, 0)]


class TestScores:
    def test_scores_roundtrip_through_buckets(self):
        cache = _cache(size=3, n_buckets=2, store_scores=True)
        cache.scatter(
            np.array([0]), np.array([[1, 2, 3]]), np.array([[0.1, 0.2, 0.3]])
        )
        np.testing.assert_allclose(
            cache.gather_scores(np.array([0]))[0], [0.1, 0.2, 0.3]
        )

    def test_scores_require_flag(self):
        cache = _cache(size=3, n_buckets=2)
        with pytest.raises(RuntimeError, match="store_scores"):
            cache.gather_scores(np.array([0]))
        with pytest.raises(RuntimeError, match="store_scores"):
            cache.scores((0, 0))
