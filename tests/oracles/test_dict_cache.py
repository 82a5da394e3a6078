"""Tests for the dict negative-cache oracle."""

import numpy as np
import pytest

from repro.data.keyindex import KeyIndex

from cache_oracles import NegativeCache, _multiset_overlap


class TestCacheBasics:
    def test_lazy_random_initialisation(self, rng):
        cache = NegativeCache(5, 20, rng)
        entry = cache.get((0, 1))
        assert entry.shape == (5,)
        assert np.all((entry >= 0) & (entry < 20))
        assert cache.initialised_entries == 1

    def test_get_is_stable(self, rng):
        cache = NegativeCache(5, 20, rng)
        first = cache.get((0, 1)).copy()
        np.testing.assert_array_equal(cache.get((0, 1)), first)
        assert cache.initialised_entries == 1

    def test_distinct_keys_independent(self, rng):
        cache = NegativeCache(8, 1000, rng)
        a = cache.get((0, 1))
        b = cache.get((1, 0))
        assert not np.array_equal(a, b)

    def test_put_replaces_entry(self, rng):
        cache = NegativeCache(3, 20, rng)
        cache.get((0, 0))
        new = np.array([1, 2, 3])
        cache.put((0, 0), new)
        np.testing.assert_array_equal(cache.get((0, 0)), new)

    def test_put_wrong_shape_rejected(self, rng):
        cache = NegativeCache(3, 20, rng)
        with pytest.raises(ValueError, match="shape"):
            cache.put((0, 0), np.array([1, 2]))

    def test_contains_and_len(self, rng):
        cache = NegativeCache(3, 20, rng)
        assert (0, 0) not in cache
        cache.get((0, 0))
        assert (0, 0) in cache
        assert len(cache) == 1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="N1"):
            NegativeCache(0, 20)
        with pytest.raises(ValueError, match="n_entities"):
            NegativeCache(5, 0)


class TestEntriesAreReadOnly:
    def test_get_rejects_writes(self, rng):
        cache = NegativeCache(5, 20, rng)
        entry = cache.get((0, 1))
        with pytest.raises(ValueError, match="read-only"):
            entry[0] = 99

    def test_put_entry_rejects_writes(self, rng):
        cache = NegativeCache(3, 20, rng)
        cache.put((0, 0), np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="read-only"):
            cache.get((0, 0))[:] = 0

    def test_scores_reject_writes(self, rng):
        cache = NegativeCache(3, 20, rng, store_scores=True)
        with pytest.raises(ValueError, match="read-only"):
            cache.scores((0, 0))[0] = 1.0

    def test_caller_arrays_not_frozen(self, rng):
        """put() must not freeze the caller's own array."""
        cache = NegativeCache(3, 20, rng)
        mine = np.array([1, 2, 3])
        cache.put((0, 0), mine)
        mine[0] = 7  # still writable; cache unaffected
        assert cache.get((0, 0))[0] == 1


class TestRowAdapters:
    """The dict cache speaks the engine's row-addressed surface too."""

    def _with_index(self, rng, size=3, n_keys=4):
        from repro.data.keyindex import KeyIndex

        cache = NegativeCache(size, 20, rng)
        cache.attach_index(
            KeyIndex(np.arange(n_keys), np.arange(n_keys), n_keys)
        )
        return cache

    def test_gather_matches_get(self, rng):
        cache = self._with_index(rng)
        stacked = cache.gather(np.array([0, 2, 0]))
        np.testing.assert_array_equal(stacked[0], cache.get((0, 0)))
        np.testing.assert_array_equal(stacked[1], cache.get((2, 2)))
        np.testing.assert_array_equal(stacked[0], stacked[2])

    def test_scatter_matches_put(self, rng):
        cache = self._with_index(rng)
        changed = cache.scatter(
            np.array([1, 1]), np.array([[1, 2, 3], [1, 2, 9]])
        )
        # Sequential puts: 3 changed on the fresh row, then 1 more.
        assert changed == 4
        np.testing.assert_array_equal(cache.get((1, 1)), [1, 2, 9])

    def test_scatter_checks_changed_hint(self, rng):
        """Each row of a caller-derived overlap hint must equal the
        multiset walk against the entry it overwrites."""
        cache = self._with_index(rng)
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        assert cache.scatter(np.array([0, 1]), ids) == 6
        swapped = np.array([[3, 2, 1], [4, 5, 9]])
        with pytest.raises(
            AssertionError, match="hint for row 1: overlap 3 != multiset walk 2"
        ):
            cache.scatter(np.array([0, 1]), swapped, overlap=[3, 3])
        assert cache.scatter(np.array([0, 1]), swapped, overlap=[3, 2]) == 1
        # A repeated row's later write is counted against the earlier
        # write, not checked against its hint.
        assert cache.scatter(np.array([1, 1]), ids[[0, 1]], overlap=[0, -7]) == 6

    def test_gather_without_index_rejected(self, rng):
        cache = NegativeCache(3, 20, rng)
        with pytest.raises(RuntimeError, match="attach_index"):
            cache.gather(np.array([0]))


class TestChangedElements:
    def test_identical_put_counts_zero(self, rng):
        cache = NegativeCache(3, 20, rng)
        entry = cache.get((0, 0)).copy()
        cache.reset_counters()
        assert cache.put((0, 0), entry) == 0
        assert cache.changed_elements == 0

    def test_disjoint_put_counts_full(self, rng):
        cache = NegativeCache(3, 100, rng)
        cache.put((0, 0), np.array([1, 2, 3]))
        cache.reset_counters()
        assert cache.put((0, 0), np.array([4, 5, 6])) == 3

    def test_partial_overlap(self, rng):
        cache = NegativeCache(3, 100, rng)
        cache.put((0, 0), np.array([1, 2, 3]))
        cache.reset_counters()
        assert cache.put((0, 0), np.array([3, 2, 9])) == 1

    def test_multiset_semantics(self, rng):
        cache = NegativeCache(3, 100, rng)
        cache.put((0, 0), np.array([5, 5, 3]))
        cache.reset_counters()
        # One 5 survives, the duplicate 5 counts as changed.
        assert cache.put((0, 0), np.array([5, 1, 2])) == 2

    def test_reset_counters(self, rng):
        cache = NegativeCache(3, 100, rng)
        cache.put((0, 0), np.array([1, 2, 3]))
        cache.reset_counters()
        assert cache.changed_elements == 0
        assert cache.initialised_entries == 0


class TestScores:
    def test_scores_require_flag(self, rng):
        cache = NegativeCache(3, 20, rng, store_scores=False)
        with pytest.raises(RuntimeError, match="store_scores"):
            cache.scores((0, 0))

    def test_scores_initialised_to_zero(self, rng):
        cache = NegativeCache(3, 20, rng, store_scores=True)
        np.testing.assert_array_equal(cache.scores((0, 0)), np.zeros(3))

    def test_put_with_scores_roundtrip(self, rng):
        cache = NegativeCache(3, 20, rng, store_scores=True)
        cache.put((0, 0), np.array([1, 2, 3]), np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(cache.scores((0, 0)), [0.1, 0.2, 0.3])

    def test_put_without_scores_rejected_when_required(self, rng):
        cache = NegativeCache(3, 20, rng, store_scores=True)
        with pytest.raises(ValueError, match="requires scores"):
            cache.put((0, 0), np.array([1, 2, 3]))


class TestBatchAccess:
    def test_get_many_shape(self, rng):
        cache = NegativeCache(4, 50, rng)
        stacked = cache.get_many([(0, 0), (1, 1), (0, 0)])
        assert stacked.shape == (3, 4)
        np.testing.assert_array_equal(stacked[0], stacked[2])

    def test_memory_accounting_grows(self, rng):
        cache = NegativeCache(4, 50, rng)
        assert cache.memory_bytes() == 0
        cache.get((0, 0))
        one = cache.memory_bytes()
        cache.get((1, 1))
        assert cache.memory_bytes() == 2 * one


class TestMultisetOverlap:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ([1, 2, 3], [1, 2, 3], 3),
            ([1, 2, 3], [4, 5, 6], 0),
            ([1, 1, 2], [1, 3, 4], 1),
            ([1, 1, 2], [1, 1, 9], 2),
        ],
    )
    def test_cases(self, a, b, expected):
        assert _multiset_overlap(np.array(a), np.array(b)) == expected


class TestScoresValidation:
    def test_put_wrong_shaped_scores_rejected(self, rng):
        cache = NegativeCache(3, 50, rng, store_scores=True)
        with pytest.raises(ValueError, match="scores must have shape"):
            cache.put((0, 0), np.array([1, 2, 3]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="scores must have shape"):
            # A scalar would silently broadcast without validation.
            cache.put((0, 0), np.array([1, 2, 3]), np.array(0.5))

    def test_rejected_put_leaves_entry_untouched(self, rng):
        """Validation precedes mutation: no ids-without-scores state."""
        cache = NegativeCache(3, 50, rng, store_scores=True)
        cache.put((0, 0), np.array([1, 2, 3]), np.array([0.1, 0.2, 0.3]))
        before = cache.changed_elements
        with pytest.raises(ValueError, match="requires scores"):
            cache.put((0, 0), np.array([7, 8, 9]))
        np.testing.assert_array_equal(cache.get((0, 0)), [1, 2, 3])
        np.testing.assert_allclose(cache.scores((0, 0)), [0.1, 0.2, 0.3])
        assert cache.changed_elements == before

    def test_scatter_wrong_shaped_scores_rejected(self, rng):
        cache = NegativeCache(3, 50, rng, store_scores=True)
        index = KeyIndex(np.arange(4), np.arange(4), 4)
        cache.attach_index(index)
        rows = np.array([0, 1])
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="scores must have shape"):
            cache.scatter(rows, ids, np.ones((2, 2)))
        # Nothing was written: the batch failed as a unit, not mid-loop.
        assert cache.n_entries == 0
