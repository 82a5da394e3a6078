"""Tests for the sample-from-cache and update-cache strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import (
    SampleStrategy,
    SurvivorSelection,
    UpdateStrategy,
    duplicate_mask,
    sample_from_cache,
)

from cache_oracles import _multiset_overlap, select_cache_survivors


class TestDuplicateMask:
    def test_no_duplicates(self):
        mask = duplicate_mask(np.array([[1, 2, 3]]))
        assert not mask.any()

    def test_marks_later_occurrences(self):
        mask = duplicate_mask(np.array([[5, 1, 5, 5]]))
        assert mask.sum() == 2
        assert not mask[0, 0] or not mask[0, 2]  # exactly one 5 kept

    def test_rows_independent(self):
        mask = duplicate_mask(np.array([[1, 1], [1, 2]]))
        assert mask[0].sum() == 1
        assert mask[1].sum() == 0

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=12)
    )
    @settings(max_examples=40, deadline=None)
    def test_property_kept_entries_are_unique_set(self, row):
        ids = np.asarray([row])
        mask = duplicate_mask(ids)
        kept = ids[0][~mask[0]]
        assert sorted(kept.tolist()) == sorted(set(row))


    @pytest.mark.parametrize(
        "low, high",
        [(0, 900), (2**31 - 50, 2**31 + 50), (-(2**61), 2**61)],
        ids=["int32-codes", "int64-codes", "argsort-fallback"],
    )
    def test_every_code_width_agrees_with_a_stable_argsort(self, low, high):
        """The packed sort runs on int32 codes when they fit, int64 codes
        when they do not, and a per-row argsort past 2**62; all three
        mark the same repeats."""
        rng = np.random.default_rng(4)
        ids = rng.integers(low, high, size=(64, 30))
        ids[:, 1] = ids[:, 0]  # at least one repeat per row
        order = np.argsort(ids, axis=1, kind="stable")
        sorted_ids = np.take_along_axis(ids, order, axis=1)
        repeat = np.zeros_like(ids, dtype=bool)
        repeat[:, 1:] = sorted_ids[:, 1:] == sorted_ids[:, :-1]
        expected = np.zeros_like(repeat)
        np.put_along_axis(expected, order, repeat, axis=1)
        np.testing.assert_array_equal(duplicate_mask(ids), expected)


class TestSampleFromCache:
    def test_uniform_returns_cache_members(self, rng):
        ids = np.array([[10, 11, 12], [20, 21, 22]])
        out = sample_from_cache(ids, None, SampleStrategy.UNIFORM, rng)
        assert out[0] in ids[0] and out[1] in ids[1]

    def test_top_returns_argmax(self, rng):
        ids = np.array([[10, 11, 12]])
        scores = np.array([[0.1, 5.0, 0.2]])
        assert sample_from_cache(ids, scores, SampleStrategy.TOP, rng)[0] == 11

    def test_importance_prefers_high_scores(self, rng):
        ids = np.tile(np.array([[10, 11]]), (2000, 1))
        scores = np.tile(np.array([[0.0, 5.0]]), (2000, 1))
        out = sample_from_cache(ids, scores, SampleStrategy.IMPORTANCE, rng)
        assert np.mean(out == 11) > 0.9

    def test_uniform_covers_all_members(self, rng):
        ids = np.tile(np.array([[1, 2, 3]]), (600, 1))
        out = sample_from_cache(ids, None, SampleStrategy.UNIFORM, rng)
        assert set(out.tolist()) == {1, 2, 3}

    def test_scores_required_for_top(self, rng):
        with pytest.raises(ValueError, match="requires scores"):
            sample_from_cache(np.array([[1, 2]]), None, SampleStrategy.TOP, rng)

    def test_string_strategy_accepted(self, rng):
        ids = np.array([[1, 2, 3]])
        out = sample_from_cache(ids, None, "uniform", rng)
        assert out[0] in (1, 2, 3)


class TestSelectCacheSurvivors:
    def test_top_keeps_largest(self, rng):
        ids = np.array([[1, 2, 3, 4]])
        scores = np.array([[0.0, 3.0, 1.0, 2.0]])
        kept, kept_scores = select_cache_survivors(
            ids, scores, 2, UpdateStrategy.TOP, rng
        )
        assert set(kept[0].tolist()) == {2, 4}
        assert set(kept_scores[0].tolist()) == {3.0, 2.0}

    def test_importance_without_replacement(self, rng):
        ids = np.tile(np.arange(6), (200, 1))
        scores = np.zeros((200, 6))
        kept, _ = select_cache_survivors(
            ids, scores, 4, UpdateStrategy.IMPORTANCE, rng
        )
        for row in kept:
            assert len(set(row.tolist())) == 4  # no repeats within a row

    def test_importance_prefers_high_scores(self, rng):
        ids = np.tile(np.array([[0, 1, 2, 3]]), (2000, 1))
        scores = np.tile(np.array([[10.0, 10.0, -10.0, -10.0]]), (2000, 1))
        kept, _ = select_cache_survivors(
            ids, scores, 2, UpdateStrategy.IMPORTANCE, rng
        )
        frequency_high = np.mean([(0 in row or 1 in row) for row in kept.tolist()])
        assert frequency_high > 0.99

    def test_duplicates_suppressed(self, rng):
        ids = np.array([[7, 7, 7, 1, 2]])
        scores = np.array([[9.0, 9.0, 9.0, 1.0, 0.0]])
        kept, _ = select_cache_survivors(ids, scores, 2, UpdateStrategy.TOP, rng)
        assert sorted(kept[0].tolist()) == [1, 7]

    def test_uniform_ignores_scores(self, rng):
        ids = np.tile(np.arange(10), (500, 1))
        scores = np.tile(np.linspace(-5, 5, 10), (500, 1))
        kept, _ = select_cache_survivors(
            ids, scores, 3, UpdateStrategy.UNIFORM, rng
        )
        counts = np.bincount(kept.ravel(), minlength=10)
        # Every candidate selected sometimes; low-score ones too.
        assert counts.min() > 0

    @pytest.mark.parametrize("strategy", list(UpdateStrategy))
    def test_return_scores_false_skips_gather_only(self, strategy):
        """Dropping the score gather changes neither the ids nor the RNG
        stream — it only returns ``None`` in the scores slot."""
        data_rng = np.random.default_rng(3)
        ids = data_rng.integers(0, 40, size=(5, 8))
        scores = data_rng.normal(size=(5, 8))
        with_scores = select_cache_survivors(
            ids, scores, 3, strategy, np.random.default_rng(7)
        )
        without = select_cache_survivors(
            ids, scores, 3, strategy, np.random.default_rng(7), return_scores=False
        )
        np.testing.assert_array_equal(with_scores[0], without[0])
        assert with_scores[1].shape == (5, 3)
        assert without[1] is None

    def test_keep_more_than_available_rejected(self, rng):
        with pytest.raises(ValueError, match="cannot keep"):
            select_cache_survivors(
                np.array([[1, 2]]), np.zeros((1, 2)), 3, UpdateStrategy.TOP, rng
            )

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="disagree"):
            select_cache_survivors(
                np.array([[1, 2]]), np.zeros((1, 3)), 1, UpdateStrategy.TOP, rng
            )

    @given(
        n_keep=st.integers(1, 4),
        seed=st.integers(0, 100),
        strategy=st.sampled_from(list(UpdateStrategy)),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_survivors_come_from_candidates(self, n_keep, seed, strategy):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 30, size=(3, 6))
        scores = rng.normal(size=(3, 6))
        kept, kept_scores = select_cache_survivors(ids, scores, n_keep, strategy, rng)
        assert kept.shape == (3, n_keep)
        for i in range(3):
            candidates = set(ids[i].tolist())
            assert set(kept[i].tolist()) <= candidates

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("strategy", list(UpdateStrategy))
    def test_non_finite_scores_raise_before_selecting(self, bad, strategy):
        """A NaN or infinite score must stop the refresh, not steer
        argpartition; nothing is drawn from the generator first."""
        ids = np.arange(12).reshape(3, 4)
        scores = np.zeros((3, 4))
        scores[1, 2] = scores[2, 0] = bad
        rng = np.random.default_rng(0)
        with pytest.raises(
            FloatingPointError,
            match=r"2 non-finite candidate scores \(first in row 1\)",
        ):
            select_cache_survivors(ids, scores, 2, strategy, rng)
        assert rng.random() == np.random.default_rng(0).random()


class TestSurvivorSelection:
    def test_selection_carries_columns_and_ids_agree(self, rng):
        ids = np.array([[10, 20, 30, 40]])
        scores = np.array([[0.0, 3.0, 2.0, 1.0]])
        selection = select_cache_survivors(
            ids, scores, 2, UpdateStrategy.TOP, rng, return_selection=True
        )
        assert isinstance(selection, SurvivorSelection)
        np.testing.assert_array_equal(
            selection.ids, ids[0][selection.columns]
        )
        assert not selection.filled.any()

    def test_filled_flags_duplicate_fill_rows(self, rng):
        # Only two distinct values but three survivors needed: a -inf
        # (duplicate) column must be selected.
        ids = np.array([[7, 7, 7, 9]])
        scores = np.zeros((1, 4))
        selection = select_cache_survivors(
            ids, scores, 3, UpdateStrategy.TOP, rng, return_selection=True
        )
        assert selection.filled[0]

    def test_rng_consumption_matches_plain_call(self):
        ids = np.arange(12).reshape(2, 6)
        scores = np.linspace(0, 1, 12).reshape(2, 6)
        plain_rng = np.random.default_rng(3)
        selection_rng = np.random.default_rng(3)
        plain_ids, _ = select_cache_survivors(
            ids, scores, 3, UpdateStrategy.IMPORTANCE, plain_rng
        )
        selection = select_cache_survivors(
            ids, scores, 3, UpdateStrategy.IMPORTANCE, selection_rng,
            return_selection=True,
        )
        np.testing.assert_array_equal(plain_ids, selection.ids)
        assert plain_rng.integers(0, 2**31) == selection_rng.integers(0, 2**31)


class TestSurvivorSelectionFilled:
    @given(
        seed=st.integers(0, 2**16),
        n_keep=st.integers(1, 5),
        n_fresh=st.integers(0, 5),
        batch=st.integers(1, 8),
        n_values=st.integers(1, 12),
        strategy=st.sampled_from(list(UpdateStrategy)),
    )
    @settings(max_examples=150, deadline=None)
    def test_filled_is_a_selected_duplicate(
        self, seed, n_keep, n_fresh, batch, n_values, strategy
    ):
        """``filled`` flags exactly the rows that selected a duplicate
        column, i.e. the rows with fewer than ``n_keep`` distinct ids, and
        the selection draws the same numbers as the plain call."""
        data = np.random.default_rng(seed)
        union = data.integers(0, n_values, size=(batch, n_keep + n_fresh))
        scores = data.normal(size=union.shape)
        plain_rng = np.random.default_rng(seed + 1)
        selection_rng = np.random.default_rng(seed + 1)
        plain_ids, plain_scores = select_cache_survivors(
            union, scores, n_keep, strategy, plain_rng
        )
        selection = select_cache_survivors(
            union, scores, n_keep, strategy, selection_rng, return_selection=True
        )
        picked_duplicate = np.take_along_axis(
            duplicate_mask(union), selection.columns, axis=1
        ).any(axis=1)
        np.testing.assert_array_equal(selection.filled, picked_duplicate)
        distinct = np.array([len(np.unique(row)) for row in union])
        np.testing.assert_array_equal(selection.filled, distinct < n_keep)
        np.testing.assert_array_equal(plain_ids, selection.ids)
        np.testing.assert_array_equal(plain_scores, selection.scores)
        assert plain_rng.integers(0, 2**31) == selection_rng.integers(0, 2**31)


class TestCachedOverlap:
    """The per-row CE hint vs the sorted multiset reference."""

    @staticmethod
    def _reference(union, selection, n_keep):
        return np.array(
            [
                _multiset_overlap(cached, kept)
                for cached, kept in zip(union[:, :n_keep], selection.ids)
            ]
        )

    @given(
        seed=st.integers(0, 2**16),
        n_keep=st.integers(1, 16),
        n_fresh=st.integers(1, 24),
        batch=st.integers(1, 8),
        n_values=st.integers(1, 40),
        strategy=st.sampled_from(list(UpdateStrategy)),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_sorted_reference_per_row(
        self, seed, n_keep, n_fresh, batch, n_values, strategy
    ):
        """Every row's hint equals the multiset walk, including the
        duplicate-filled rows small id pools force."""
        rng = np.random.default_rng(seed)
        union = rng.integers(0, n_values, size=(batch, n_keep + n_fresh))
        scores = rng.normal(size=union.shape)
        selection = select_cache_survivors(
            union, scores, n_keep, strategy, rng, return_selection=True
        )
        np.testing.assert_array_equal(
            selection.cached_overlap(union[:, :n_keep]),
            self._reference(union, selection, n_keep),
        )

    def test_duplicate_filled_row_counts_the_multiset(self):
        # Row 0 had two distinct ids for three slots and kept the repeat
        # from fresh column 3: the column count says 2, but the survivors
        # [7, 8, 7] match the cached [7, 8, 7] in all 3 places.  Row 1 is
        # unfilled and keeps the column count.
        selection = SurvivorSelection(
            ids=np.array([[7, 8, 7], [1, 5, 3]]),
            scores=None,
            columns=np.array([[0, 1, 3], [0, 4, 2]]),
            filled=np.array([True, False]),
        )
        cached = np.array([[7, 8, 7], [1, 2, 3]])
        np.testing.assert_array_equal(selection.cached_overlap(cached), [3, 2])

    def test_all_survivors_from_cache_means_full_overlap(self, rng):
        union = np.array([[1, 2, 9, 9]])
        scores = np.array([[5.0, 4.0, 0.0, 0.0]])
        selection = select_cache_survivors(
            union, scores, 2, UpdateStrategy.TOP, rng, return_selection=True
        )
        np.testing.assert_array_equal(selection.cached_overlap(union[:, :2]), [2])

    def test_all_survivors_fresh_means_zero_overlap(self, rng):
        union = np.array([[1, 2, 8, 9]])
        scores = np.array([[0.0, 0.0, 5.0, 4.0]])
        selection = select_cache_survivors(
            union, scores, 2, UpdateStrategy.TOP, rng, return_selection=True
        )
        np.testing.assert_array_equal(selection.cached_overlap(union[:, :2]), [0])

    def test_hint_feeds_scatter_like_the_sorted_count(self, rng):
        """Rows repeated in the batch: the hint's first writes plus the
        scatter-side recount reproduce the unhinted scatter exactly."""
        from repro.core.array_cache import ArrayNegativeCache
        from repro.data.keyindex import KeyIndex

        index = KeyIndex(np.arange(4), np.arange(4), 4)
        caches = [ArrayNegativeCache(3, 6, np.random.default_rng(1)) for _ in range(2)]
        for cache in caches:
            cache.attach_index(index)
        rows = np.array([2, 0, 2, 3, 2])
        plain, hinted = caches
        gathered = [cache.gather(rows) for cache in caches]
        union = np.concatenate([gathered[0], rng.integers(0, 6, size=(5, 3))], axis=1)
        selection = select_cache_survivors(
            union, rng.normal(size=union.shape), 3, UpdateStrategy.IMPORTANCE, rng,
            return_selection=True,
        )
        hint = selection.cached_overlap(union[:, :3])
        assert plain.scatter(rows, selection.ids) == hinted.scatter(
            rows, selection.ids, overlap=hint
        )
        np.testing.assert_array_equal(plain.gather(np.arange(4)), hinted.gather(np.arange(4)))
