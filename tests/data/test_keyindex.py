"""Tests for the dense cache-key indexes."""

import numpy as np
import pytest

from repro.data.keyindex import BucketIndex, KeyIndex, TripleKeyIndex, stable_key_hash


class TestKeyIndex:
    def test_distinct_pairs_get_distinct_rows(self):
        index = KeyIndex(np.array([1, 1, 2, 2, 1]), np.array([3, 4, 3, 3, 3]), 10)
        assert index.n_keys == 3  # (1,3), (1,4), (2,3)
        rows = index.rows(np.array([1, 1, 2]), np.array([3, 4, 3]))
        assert len(set(rows.tolist())) == 3

    def test_rows_roundtrip_key_of(self):
        index = KeyIndex(np.array([0, 5, 9]), np.array([2, 0, 6]), 7)
        for key in [(0, 2), (5, 0), (9, 6)]:
            assert index.key_of(index.row_of(key)) == key

    def test_unknown_pair_raises_keyerror(self):
        index = KeyIndex(np.array([1]), np.array([1]), 4)
        with pytest.raises(KeyError, match=r"\(2, 3\)"):
            index.rows(np.array([1, 2]), np.array([1, 3]))

    def test_contains(self):
        index = KeyIndex(np.array([1, 2]), np.array([0, 3]), 5)
        assert index.contains((1, 0))
        assert index.contains((2, 3))
        assert not index.contains((1, 3))
        assert not index.contains((0, 0))

    def test_keys_in_row_order(self):
        index = KeyIndex(np.array([2, 0, 1]), np.array([1, 2, 0]), 4)
        pairs = index.keys()
        for row, (a, b) in enumerate(pairs):
            assert index.row_of((int(a), int(b))) == row

    def test_empty_batch(self):
        index = KeyIndex(np.array([1]), np.array([1]), 4)
        assert index.rows(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_second"):
            KeyIndex(np.array([0]), np.array([0]), 0)
        with pytest.raises(ValueError, match="out of range"):
            KeyIndex(np.array([0]), np.array([5]), 3)
        with pytest.raises(ValueError, match="equal-length"):
            KeyIndex(np.array([0, 1]), np.array([0]), 3)


class TestTripleKeyIndex:
    def test_sides_use_paper_keys(self, tiny_kg):
        index = TripleKeyIndex.from_triples(
            tiny_kg.train, tiny_kg.n_entities, tiny_kg.n_relations
        )
        batch = tiny_kg.train[:16]
        head_rows = index.head_rows(batch)
        tail_rows = index.tail_rows(batch)
        for i, (h, r, t) in enumerate(batch.tolist()):
            assert index.head.key_of(int(head_rows[i])) == (r, t)
            assert index.tail.key_of(int(tail_rows[i])) == (h, r)

    def test_covers_whole_split(self, tiny_kg):
        index = TripleKeyIndex.from_triples(
            tiny_kg.train, tiny_kg.n_entities, tiny_kg.n_relations
        )
        head_rows = index.head_rows(tiny_kg.train)
        assert head_rows.shape == (len(tiny_kg.train),)
        # Rows are dense: every index below n_keys, every key reachable.
        assert set(head_rows.tolist()) == set(range(index.head.n_keys))

    def test_shared_keys_share_rows(self, tiny_kg):
        index = TripleKeyIndex.from_triples(
            tiny_kg.train, tiny_kg.n_entities, tiny_kg.n_relations
        )
        triples = tiny_kg.train
        rows = index.tail_rows(triples)
        pair_to_row: dict[tuple[int, int], int] = {}
        for (h, r, _t), row in zip(triples.tolist(), rows.tolist()):
            assert pair_to_row.setdefault((h, r), row) == row


class TestStableKeyHash:
    def test_matches_scalar_reference(self):
        from cache_oracles import stable_key_hash as scalar_hash

        rng = np.random.default_rng(3)
        first = rng.integers(0, 10**12, size=500)
        second = rng.integers(0, 10**12, size=500)
        expected = np.array(
            [scalar_hash((a, b)) for a, b in zip(first, second)], dtype=np.uint64
        )
        np.testing.assert_array_equal(stable_key_hash(first, second), expected)

    def test_deterministic_and_order_sensitive(self):
        a = np.array([3, 7])
        b = np.array([7, 3])
        first = stable_key_hash(a, b)
        np.testing.assert_array_equal(stable_key_hash(a, b), first)
        assert first[0] != first[1]

    def test_returns_uint64(self):
        out = stable_key_hash(np.array([1]), np.array([2]))
        assert out.dtype == np.uint64 and out.shape == (1,)

    def test_spreads_keys(self):
        grid = np.arange(20)
        first, second = np.meshgrid(grid, grid)
        buckets = stable_key_hash(first.ravel(), second.ravel()) % np.uint64(64)
        assert len(np.unique(buckets)) > 48


class TestBucketIndex:
    def _index(self, n_keys=10):
        return KeyIndex(
            np.arange(n_keys, dtype=np.int64),
            np.arange(n_keys, dtype=np.int64),
            n_keys,
        )

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError, match="n_buckets"):
            BucketIndex(self._index(), 0)

    def test_bucket_rows_in_range_and_stable(self):
        buckets = BucketIndex(self._index(), 4)
        rows = np.arange(10, dtype=np.int64)
        out = buckets.bucket_rows(rows)
        assert out.shape == (10,)
        assert np.all((out >= 0) & (out < 4))
        np.testing.assert_array_equal(buckets.bucket_rows(rows), out)

    def test_matches_dict_hashed_bucketing(self):
        """Same hash, same buckets as HashedNegativeCache's scalar path."""
        from cache_oracles import stable_key_hash as scalar_hash

        index = self._index(25)
        buckets = BucketIndex(index, 7)
        for row, (a, b) in enumerate(index.keys()):
            assert buckets.bucket_rows(np.array([row]))[0] == (
                scalar_hash((int(a), int(b))) % 7
            )

    def test_bucket_of_serves_unindexed_keys(self):
        buckets = BucketIndex(self._index(), 5)
        assert 0 <= buckets.bucket_of((999, 888)) < 5

    def test_occupancy_partitions_keys(self):
        buckets = BucketIndex(self._index(12), 4)
        occupancy = buckets.occupancy()
        assert occupancy.shape == (4,)
        assert occupancy.sum() == 12

    def test_load_factor_and_colliding_keys(self):
        buckets = BucketIndex(self._index(12), 1)
        assert buckets.load_factor() == 12.0
        assert buckets.n_colliding_keys() == 12  # all share the one bucket

    def test_no_collisions_with_many_buckets(self):
        buckets = BucketIndex(self._index(3), 2**20)
        assert buckets.n_colliding_keys() == 0
        assert "colliding=0" in repr(buckets)
