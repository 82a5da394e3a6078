"""Tests for the preallocated array cache and its vectorised CE counter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.array_cache as array_cache_module
from repro.core.array_cache import ArrayNegativeCache, multiset_overlap_rows
from repro.data.keyindex import KeyIndex

from cache_oracles import NegativeCache, _multiset_overlap


def _index(n_keys: int = 8, n_second: int = 100) -> KeyIndex:
    return KeyIndex(
        np.arange(n_keys, dtype=np.int64), np.arange(n_keys, dtype=np.int64), n_second
    )


def _cache(size=5, n_entities=50, seed=0, n_keys=8, **kwargs) -> ArrayNegativeCache:
    cache = ArrayNegativeCache(size, n_entities, np.random.default_rng(seed), **kwargs)
    cache.attach_index(_index(n_keys))
    return cache


class TestConstruction:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="N1"):
            ArrayNegativeCache(0, 20)
        with pytest.raises(ValueError, match="n_entities"):
            ArrayNegativeCache(5, 0)

    def test_gather_before_attach_rejected(self):
        cache = ArrayNegativeCache(5, 20)
        with pytest.raises(RuntimeError, match="attach_index"):
            cache.gather(np.array([0]))



class TestGather:
    def test_lazy_random_initialisation(self):
        cache = _cache()
        out = cache.gather(np.array([0, 3]))
        assert out.shape == (2, 5)
        assert np.all((out >= 0) & (out < 50))
        assert cache.initialised_entries == 2
        assert cache.n_entries == 2

    def test_gather_is_stable(self):
        cache = _cache()
        first = cache.gather(np.array([1, 2]))
        np.testing.assert_array_equal(cache.gather(np.array([1, 2])), first)
        assert cache.initialised_entries == 2

    def test_gather_returns_copy(self):
        cache = _cache()
        out = cache.gather(np.array([0]))
        out[...] = -1
        assert cache.gather(np.array([0])).min() >= 0

    def test_duplicate_rows_share_entry(self):
        cache = _cache()
        out = cache.gather(np.array([4, 4]))
        np.testing.assert_array_equal(out[0], out[1])
        assert cache.initialised_entries == 1

    def test_matches_dict_rng_stream(self):
        """Lazy init consumes the generator exactly like the dict cache."""
        index = _index()
        array_cache = ArrayNegativeCache(5, 50, np.random.default_rng(7))
        array_cache.attach_index(index)
        dict_cache = NegativeCache(5, 50, np.random.default_rng(7))
        dict_cache.attach_index(index)
        rows = np.array([3, 1, 3, 0])
        np.testing.assert_array_equal(
            array_cache.gather(rows), dict_cache.gather(rows)
        )


class TestScatter:
    def test_replaces_entry(self):
        cache = _cache(size=3)
        cache.scatter(np.array([2]), np.array([[1, 2, 3]]))
        np.testing.assert_array_equal(cache.gather(np.array([2]))[0], [1, 2, 3])

    def test_wrong_shape_rejected(self):
        cache = _cache(size=3)
        with pytest.raises(ValueError, match="shape"):
            cache.scatter(np.array([0]), np.array([[1, 2]]))

    def test_ce_counting_matches_reference(self):
        cache = _cache(size=3)
        cache.scatter(np.array([0]), np.array([[1, 2, 3]]))
        cache.reset_counters()
        assert cache.scatter(np.array([0]), np.array([[3, 2, 9]])) == 1
        assert cache.changed_elements == 1

    def test_scatter_on_fresh_row_counts_full_and_initialises(self):
        cache = _cache(size=3)
        assert cache.scatter(np.array([5]), np.array([[1, 2, 3]])) == 3
        assert cache.initialised_entries == 1

    def test_duplicate_rows_sequential_semantics(self):
        """Repeated rows in one scatter behave like sequential puts."""
        cache = _cache(size=3)
        cache.scatter(np.array([0]), np.array([[1, 2, 3]]))
        cache.reset_counters()
        ids = np.array([[4, 5, 6], [4, 5, 7]])
        # put #1 vs {1,2,3}: 3 changed; put #2 vs {4,5,6}: 1 changed.
        assert cache.scatter(np.array([0, 0]), ids) == 4
        np.testing.assert_array_equal(cache.gather(np.array([0]))[0], [4, 5, 7])

    def test_empty_scatter(self):
        cache = _cache(size=3)
        assert cache.scatter(np.empty(0, dtype=np.int64), np.empty((0, 3))) == 0


class TestScores:
    def test_scores_require_flag(self):
        cache = _cache()
        with pytest.raises(RuntimeError, match="store_scores"):
            cache.gather_scores(np.array([0]))

    def test_scores_roundtrip(self):
        cache = _cache(size=3, store_scores=True)
        np.testing.assert_array_equal(
            cache.gather_scores(np.array([0]))[0], np.zeros(3)
        )
        cache.scatter(
            np.array([0]), np.array([[1, 2, 3]]), np.array([[0.1, 0.2, 0.3]])
        )
        np.testing.assert_allclose(
            cache.gather_scores(np.array([0]))[0], [0.1, 0.2, 0.3]
        )

    def test_scatter_without_scores_rejected_when_required(self):
        cache = _cache(size=3, store_scores=True)
        with pytest.raises(ValueError, match="requires scores"):
            cache.scatter(np.array([0]), np.array([[1, 2, 3]]))


class TestKeyAddressed:
    def test_get_and_contains(self):
        cache = _cache()
        assert (0, 0) not in cache
        entry = cache.get((0, 0))
        assert entry.shape == (5,)
        assert (0, 0) in cache
        assert (9, 9) not in cache  # not in the index at all

    def test_keys_lists_initialised_rows(self):
        cache = _cache()
        cache.gather(np.array([2]))
        assert cache.keys() == [(2, 2)]


class TestAccounting:
    def test_memory_bytes_counts_initialised_entries(self):
        cache = _cache(size=4)
        assert cache.memory_bytes() == 0
        cache.gather(np.array([0]))
        one = cache.memory_bytes()
        assert one == 4 * 8
        cache.gather(np.array([1]))
        assert cache.memory_bytes() == 2 * one

    def test_allocated_bytes_counts_preallocation(self):
        cache = _cache(size=4, n_keys=8)
        assert cache.allocated_bytes() >= 8 * 4 * 8

    def test_len_and_repr(self):
        cache = _cache()
        cache.gather(np.array([0, 1]))
        assert len(cache) == 2
        assert "n_keys=8" in repr(cache)


class TestMultisetOverlapRows:
    def test_matches_scalar_reference(self, rng):
        a = rng.integers(0, 12, size=(64, 9))
        b = rng.integers(0, 12, size=(64, 9))
        expected = np.array([_multiset_overlap(x, y) for x, y in zip(a, b)])
        np.testing.assert_array_equal(multiset_overlap_rows(a, b), expected)

    def test_identical_rows_full_overlap(self, rng):
        a = rng.integers(0, 100, size=(8, 6))
        np.testing.assert_array_equal(multiset_overlap_rows(a, a), np.full(8, 6))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            multiset_overlap_rows(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_empty(self):
        out = multiset_overlap_rows(np.empty((3, 0)), np.empty((3, 0)))
        np.testing.assert_array_equal(out, np.zeros(3))


class TestScoresValidation:
    def test_scatter_wrong_shaped_scores_rejected(self):
        cache = _cache(size=3, store_scores=True)
        rows = np.array([0, 1])
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        for bad in (np.ones((2, 2)), np.ones((1, 3)), np.ones(3), np.array(0.5)):
            with pytest.raises(ValueError, match="scores must have shape"):
                cache.scatter(rows, ids, bad)
        assert cache.n_entries == 0  # rejected before any write

    def test_scatter_validates_scores_even_without_storage(self):
        """A wrong-shaped block is a caller bug whether stored or not."""
        cache = _cache(size=3)
        with pytest.raises(ValueError, match="scores must have shape"):
            cache.scatter(np.array([0]), np.array([[1, 2, 3]]), np.ones(2))


class TestMultisetOverlapWideIds:
    """The packed-code path overflows int64 for extreme id ranges; the
    lexsort fallback must kick in instead of raising (regression: the CE
    count of ``scatter`` crashed on wide id ranges where dict worked)."""

    def test_fallback_at_packing_threshold(self):
        # n_rows * span * n_cols == 2 * 2**60 * 2 == 2**62: first width
        # the packed path must refuse.
        a = np.array([[0, 2**60 - 1], [5, 5]])
        b = np.array([[2**60 - 1, 3], [5, 9]])
        expected = np.array([_multiset_overlap(x, y) for x, y in zip(a, b)])
        np.testing.assert_array_equal(multiset_overlap_rows(a, b), expected)

    def test_fallback_matches_packed_path(self, rng):
        """Both paths agree on data either could handle."""
        a = rng.integers(0, 10, size=(16, 6))
        b = rng.integers(0, 10, size=(16, 6))
        narrow = multiset_overlap_rows(a, b)
        wide_a, wide_b = a.copy(), b.copy()
        # Push one row into fallback territory without changing overlaps:
        # shift a disjoint value pair far apart.
        wide_a[0], wide_b[0] = np.arange(6), np.arange(6) + 2**61
        reference = np.array(
            [_multiset_overlap(x, y) for x, y in zip(wide_a, wide_b)]
        )
        np.testing.assert_array_equal(
            multiset_overlap_rows(wide_a, wide_b), reference
        )
        np.testing.assert_array_equal(reference[1:], narrow[1:])

    def test_scatter_ce_count_survives_wide_id_ranges(self):
        """End to end: a cache over a huge entity space no longer crashes
        where the dict backend worked."""
        n_entities = 2**61
        index = _index(n_keys=4)
        array_cache = ArrayNegativeCache(3, n_entities, np.random.default_rng(0))
        dict_cache = NegativeCache(3, n_entities, np.random.default_rng(0))
        array_cache.attach_index(index)
        dict_cache.attach_index(index)
        rows = np.array([0, 1])
        ids = np.array([[0, 1, 2**60], [2**60, 7, 0]])
        assert array_cache.scatter(rows, ids) == dict_cache.scatter(rows, ids)
        ids2 = np.array([[2**60, 1, 3], [2**60, 7, 1]])
        assert array_cache.scatter(rows, ids2) == dict_cache.scatter(rows, ids2)
        assert array_cache.changed_elements == dict_cache.changed_elements


class TestChangedHintAndExternalStorage:
    """The scatter per-row CE hint (`overlap=`) and worker-style storage views."""

    def test_changed_hint_skips_counting_but_updates_counters(self):
        index = _index(n_keys=3)
        cache = ArrayNegativeCache(2, 20, np.random.default_rng(0))
        cache.attach_index(index)
        rows = np.array([0, 2])
        cache.gather(rows)  # materialise (the hint describes stored entries)
        before = cache.initialised_entries
        got = cache.scatter(rows, np.array([[1, 2], [3, 4]]), overlap=[1, 0])
        assert got == 3  # taken from the hint: (2 - 1) + (2 - 0)
        assert cache.changed_elements == 3
        assert cache.initialised_entries == before
        np.testing.assert_array_equal(cache.gather(np.array([0]))[0], [1, 2])

    def test_changed_hint_equivalent_to_counted_scatter(self):
        """With unique live rows, hint-written state matches counted state."""
        index = _index(n_keys=4)
        caches = []
        for _ in range(2):
            cache = ArrayNegativeCache(3, 30, np.random.default_rng(7))
            cache.attach_index(index)
            cache.gather(np.arange(4))
            caches.append(cache)
        counted, hinted = caches
        rows = np.array([1, 3])
        ids = np.array([[5, 6, 7], [8, 9, 10]])
        overlap = multiset_overlap_rows(ids, hinted.gather(rows))
        assert counted.scatter(rows, ids) == hinted.scatter(rows, ids, overlap=overlap)
        assert counted.changed_elements == hinted.changed_elements
        np.testing.assert_array_equal(
            counted.gather(np.arange(4)), hinted.gather(np.arange(4))
        )

    def test_overlap_hint_shape_checked(self):
        cache = _cache(size=2, n_keys=3)
        with pytest.raises(ValueError, match="overlap must have shape"):
            cache.scatter(np.array([0, 1]), np.zeros((2, 2)), overlap=[0])

    def test_hints_of_unlive_and_repeated_rows_are_ignored(self):
        """A fresh row counts as fully changed and a repeated row against
        its preceding write, whatever their hints say."""
        cache = _cache(size=3, n_keys=4)
        cache.scatter(np.array([0]), np.array([[5, 6, 7]]))
        rows = np.array([0, 1, 0])
        ids = np.array([[7, 5, 6], [1, 2, 3], [5, 40, 41]])
        got = cache.scatter(rows, ids, overlap=[3, 99, -99])
        # row 0: 0 changed; row 1 (fresh): 3; row 0 again vs its first write: 2.
        assert got == 5
        assert cache.initialised_entries == 2
        np.testing.assert_array_equal(cache.gather(np.array([0]))[0], ids[2])

    def test_attach_storage_views_external_arrays(self):
        ids = np.zeros((5, 2), dtype=np.int64)
        live = np.zeros(5, dtype=bool)
        view = ArrayNegativeCache(2, 20, np.random.default_rng(0))
        view.attach_storage(None, ids, live)
        view.scatter(np.array([3]), np.array([[7, 8]]))
        np.testing.assert_array_equal(ids[3], [7, 8])  # wrote through
        assert live[3]
        with pytest.raises(RuntimeError, match="no key index"):
            view.get((0, 0))

    def test_attach_storage_validates_shapes(self):
        view = ArrayNegativeCache(2, 20, store_scores=True)
        ids = np.zeros((5, 2), dtype=np.int64)
        live = np.zeros(5, dtype=bool)
        with pytest.raises(ValueError, match="scores"):
            view.attach_storage(None, ids, live)
        with pytest.raises(ValueError, match="live"):
            view.attach_storage(None, ids, np.zeros(4, dtype=bool),
                                np.zeros((5, 2)))
        with pytest.raises(ValueError, match="ids"):
            view.attach_storage(None, np.zeros((5, 3), dtype=np.int64), live,
                                np.zeros((5, 3)))


def _true_overlap_hint(cache, rows, ids, live_storage, rng):
    """The per-row hint a refresh derives, plus noise where it is unused.

    First writes to a live storage row get their exact overlap with the
    stored entry; every other row (fresh, or a repeat of an earlier row)
    gets a random value that scatter must ignore.
    """
    storage = cache.storage_rows(rows)
    hint = rng.integers(-5, 10, size=len(rows))
    _, first = np.unique(storage, return_index=True)
    for b in first:
        if storage[b] in live_storage:
            stored = cache.gather(rows[b : b + 1])[0]  # live: no side effect
            hint[b] = _multiset_overlap(stored, ids[b])
    return hint


class TestOverlapHintProperty:
    @given(
        seed=st.integers(0, 2**16),
        n_buckets=st.sampled_from([None, 2, 3]),
        store_scores=st.booleans(),
        size=st.integers(1, 5),
        n_values=st.integers(1, 12),
        batch=st.integers(1, 12),
        rounds=st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_hinted_scatter_equals_unhinted(
        self, seed, n_buckets, store_scores, size, n_values, batch, rounds
    ):
        """Same return value, counters and contents with or without the
        hint, over repeated key rows, bucket collisions and fresh rows."""
        n_keys = 6
        rng = np.random.default_rng(seed)
        caches = [
            _cache(size=size, n_entities=n_values, seed=seed, n_keys=n_keys,
                   n_buckets=n_buckets, store_scores=store_scores)
            for _ in range(2)
        ]
        plain, hinted = caches
        warm = rng.integers(0, n_keys, size=rng.integers(0, n_keys + 1))
        for cache in caches:
            cache.gather(warm)
        live_storage = set(plain.storage_rows(warm).tolist())
        for _ in range(rounds):
            rows = rng.integers(0, n_keys, size=batch)
            ids = rng.integers(0, n_values, size=(batch, size))
            scores = rng.normal(size=(batch, size)) if store_scores else None
            hint = _true_overlap_hint(hinted, rows, ids, live_storage, rng)
            assert plain.scatter(rows, ids, scores) == hinted.scatter(
                rows, ids, scores, overlap=hint
            )
            live_storage |= set(plain.storage_rows(rows).tolist())
            assert plain.changed_elements == hinted.changed_elements
            assert plain.initialised_entries == hinted.initialised_entries
        every_key = np.arange(n_keys)
        np.testing.assert_array_equal(plain.gather(every_key), hinted.gather(every_key))
        if store_scores:
            np.testing.assert_array_equal(
                plain.gather_scores(every_key), hinted.gather_scores(every_key)
            )


class TestOverlapHintRecountsOnlyRepeats:
    """With a hint, scatter sorts only the non-first writes of a storage row.

    A silent fall-back to counting every row would keep every parity test
    green and only show as a slower refresh, so the call sizes are pinned.
    """

    @pytest.fixture
    def recounted(self, monkeypatch):
        sizes = []
        real = array_cache_module.multiset_overlap_rows

        def counting(a, b):
            sizes.append(len(a))
            return real(a, b)

        monkeypatch.setattr(array_cache_module, "multiset_overlap_rows", counting)
        return sizes

    def test_unique_rows_never_sort(self, recounted):
        cache = _cache(size=3, n_keys=6)
        rows = np.array([4, 0, 2])
        cache.gather(rows)
        cache.scatter(rows, np.zeros((3, 3), dtype=np.int64), overlap=[0, 0, 0])
        assert recounted == []

    def test_only_later_writes_are_recounted(self, recounted):
        cache = _cache(size=3, n_keys=6)
        rows = np.array([1, 0, 1, 2, 1, 0])
        cache.gather(rows)
        cache.scatter(rows, np.zeros((6, 3), dtype=np.int64), overlap=np.zeros(6))
        assert recounted == [3]  # rows 1, 1 and 0 after their first writes

    def test_bucket_collisions_are_recounted(self, recounted):
        cache = _cache(size=3, n_keys=6, n_buckets=2)
        rows = np.arange(6)
        n_repeats = len(rows) - len(np.unique(cache.storage_rows(rows)))
        cache.gather(rows)
        cache.scatter(rows, np.zeros((6, 3), dtype=np.int64), overlap=np.zeros(6))
        assert recounted == [n_repeats]

    def test_without_hint_every_row_is_counted(self, recounted):
        cache = _cache(size=3, n_keys=6)
        cache.scatter(np.array([1, 2]), np.zeros((2, 3), dtype=np.int64))
        assert recounted == [2]

    def test_sequential_refresh_recounts_only_repeated_rows(self, recounted, tiny_kg):
        """End to end: one NSCaching update sorts exactly the batch's
        repeated storage rows, per cache side."""
        from repro.core.nscaching import NSCachingSampler
        from repro.models import make_model

        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4, n_buckets=16)
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:64]
        rows = sampler.precompute_rows(batch)
        expected = []
        for cache, side_rows in (
            (sampler.head_cache, rows.head), (sampler.tail_cache, rows.tail)
        ):
            n_repeats = len(side_rows) - len(np.unique(cache.storage_rows(side_rows)))
            if n_repeats:
                expected.append(n_repeats)
        assert expected  # 64 triples over 16 buckets must collide
        sampler.update(batch, batch, rows)
        assert recounted == expected
