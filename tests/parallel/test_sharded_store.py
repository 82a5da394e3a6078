"""Shared-memory ↔ heap storage bit-parity and lifecycle.

The allocator (``n_shards``) only changes where the storage bytes live
(shared memory) and how the row-space is described (the shard plan);
gather/scatter/CE/RNG semantics must be bit-identical to the heap
sibling with the same row map (``n_buckets``) for any ``n_shards`` —
including colliding bucket writes and co-stored scores.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_cache import ArrayNegativeCache
from repro.data.keyindex import KeyIndex

N_KEYS = 6
N_ENTITIES = 30
ENTRY = 4
N_BUCKETS = 3  # < N_KEYS so bucket collisions are exercised


def _index() -> KeyIndex:
    return KeyIndex(
        np.arange(N_KEYS, dtype=np.int64),
        np.arange(N_KEYS, dtype=np.int64),
        N_KEYS,
    )


def _pair(n_buckets, n_shards, store_scores=False):
    """(heap reference, layout under test) with identical seeds."""
    reference, sharded = (
        ArrayNegativeCache(
            ENTRY,
            N_ENTITIES,
            np.random.default_rng(99),
            store_scores=store_scores,
            n_buckets=n_buckets,
            n_shards=shards,
        )
        for shards in (None, n_shards)
    )
    index = _index()
    reference.attach_index(index)
    sharded.attach_index(index)
    return reference, sharded


_ops = st.lists(
    st.tuples(
        st.sampled_from(["gather", "scatter"]),
        st.lists(st.integers(0, N_KEYS - 1), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=12,
)


class TestShardedUnshardedParity:
    """The allocator invariant: n_shards is storage layout, not semantics.

    Covers the full row-map x allocator grid: ``n_buckets`` in {None,
    N_BUCKETS} x ``n_shards`` in {None, 1, 2, 3, 5}.
    """

    @given(
        ops=_ops,
        data_seed=st.integers(0, 2**16),
        n_shards=st.sampled_from([None, 1, 2, 3, 5]),
        n_buckets=st.sampled_from([None, N_BUCKETS]),
        store_scores=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_entries_scores_and_ce(
        self, ops, data_seed, n_shards, n_buckets, store_scores
    ):
        reference, sharded = _pair(n_buckets, n_shards, store_scores)
        try:
            data_rng = np.random.default_rng(data_seed)
            for op, row_list in ops:
                rows = np.array(row_list, dtype=np.int64)
                if op == "gather":
                    np.testing.assert_array_equal(
                        reference.gather(rows), sharded.gather(rows)
                    )
                    if store_scores:
                        np.testing.assert_array_equal(
                            reference.gather_scores(rows),
                            sharded.gather_scores(rows),
                        )
                else:
                    ids = data_rng.integers(0, N_ENTITIES, size=(len(rows), ENTRY))
                    scores = data_rng.random((len(rows), ENTRY)) if store_scores else None
                    assert reference.scatter(rows, ids, scores) == sharded.scatter(
                        rows, ids, scores
                    )
            assert reference.changed_elements == sharded.changed_elements
            assert reference.initialised_entries == sharded.initialised_entries
            assert reference.n_entries == sharded.n_entries
            assert reference.memory_bytes() == sharded.memory_bytes()
            np.testing.assert_array_equal(
                reference.storage_rows(np.arange(N_KEYS)),
                sharded.storage_rows(np.arange(N_KEYS)),
            )
            for row in range(N_KEYS):
                key = (row, row)
                assert (key in reference) == (key in sharded)
                if key in reference:
                    np.testing.assert_array_equal(
                        reference.get(key), sharded.get(key)
                    )
        finally:
            sharded.close()


class TestShardPlanIntrospection:
    def test_plan_covers_storage_rows(self):
        _, sharded = _pair(None, 3)
        try:
            assert sharded.plan.n_rows == N_KEYS
            assert sharded.plan.n_shards == 3
            assert sharded.shard_key_ownership().sum() == N_KEYS
        finally:
            sharded.close()

    def test_bucketed_plan_partitions_buckets_not_keys(self):
        _, sharded = _pair(N_BUCKETS, 2)
        try:
            assert sharded.plan.n_rows == N_BUCKETS
            # Every key's bucket row falls in some shard; collisions mean
            # ownership counts keys, not rows.
            assert sharded.shard_key_ownership().sum() == N_KEYS
        finally:
            sharded.close()

    def test_shard_occupancy_tracks_live_rows(self):
        _, sharded = _pair(None, 2)
        try:
            assert sharded.shard_occupancy().sum() == 0
            sharded.gather(np.array([0, 5]))  # materialises two rows
            occupancy = sharded.shard_occupancy()
            assert occupancy.sum() == 2
            np.testing.assert_array_equal(occupancy, [1, 1])  # rows 0-2 / 3-5
        finally:
            sharded.close()


class TestLifecycle:
    def test_close_releases_and_blocks_access(self):
        _, sharded = _pair(None, 2)
        sharded.gather(np.array([0]))
        sharded.close()
        with pytest.raises(RuntimeError, match="no storage"):
            sharded.gather(np.array([0]))
        with pytest.raises(RuntimeError, match="no shard plan"):
            sharded.shard_occupancy()
        with pytest.raises(RuntimeError, match="no shard plan"):
            sharded.worker_layout()
        sharded.close()  # idempotent

    def test_reattach_replaces_segments(self):
        _, sharded = _pair(None, 2)
        try:
            sharded.gather(np.array([0]))
            sharded.attach_index(_index())
            assert sharded.n_entries == 0  # fresh storage
        finally:
            sharded.close()

    def test_heap_layout_has_no_shard_plan(self):
        heap, _ = _pair(None, 2)
        heap.close()  # a no-op: nothing shared to release
        assert heap.n_entries == 0 and heap.gather(np.array([0])).shape == (1, ENTRY)
        with pytest.raises(RuntimeError, match="no shard plan"):
            heap.worker_layout()


class TestOptionValidation:
    """Bad layout counts fail at construction with ValueError (the CLI
    exit-2 path), before any allocation."""

    @pytest.mark.parametrize("name", ("n_shards", "n_buckets"))
    @pytest.mark.parametrize("value", (0, -3, 2.5, True, "many"))
    def test_layout_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            ArrayNegativeCache(ENTRY, N_ENTITIES, 0, **{name: value})
