"""Cross-module property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.ccdf import ccdf
from repro.eval.ranking import rank_scores
from repro.models.losses import LogisticLoss, MarginRankingLoss

from cache_oracles import _multiset_overlap


class TestRankScoreProperties:
    @given(
        scores=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=20,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_bounds_and_monotonicity(self, scores, data):
        """Ranks lie in [1, n]; raising the true score never worsens the rank."""
        arr = np.asarray([scores])
        col = data.draw(st.integers(0, len(scores) - 1))
        rank = rank_scores(arr, np.array([col]), None)[0]
        assert 1.0 <= rank <= len(scores)
        boosted = arr.copy()
        boosted[0, col] += 5.0
        better = rank_scores(boosted, np.array([col]), None)[0]
        assert better <= rank

    @given(
        scores=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=3,
            max_size=15,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_filtering_never_hurts(self, scores, data):
        """Masking competitors can only improve (lower) the rank."""
        arr = np.asarray([scores])
        col = data.draw(st.integers(0, len(scores) - 1))
        others = [i for i in range(len(scores)) if i != col]
        mask = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=5))
        raw = rank_scores(arr, np.array([col]), None)[0]
        filtered = rank_scores(arr, np.array([col]), [np.asarray(mask, dtype=np.int64)])[0]
        assert filtered <= raw

    @given(
        scores=st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=20,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_true_column_survives_any_mask(self, scores, data):
        """The documented re-admission contract (relied on by both the
        evaluators and the serving layer): the true column is never
        excluded, even when it appears in ``mask_cols`` — possibly
        alongside every other column."""
        arr = np.asarray([scores])
        col = data.draw(st.integers(0, len(scores) - 1))
        extra = data.draw(
            st.lists(
                st.integers(0, len(scores) - 1), unique=True, max_size=len(scores)
            )
        )
        mask = np.asarray(sorted(set(extra) | {col}), dtype=np.int64)
        rank = rank_scores(arr, np.array([col]), [mask])[0]
        # The true column is ranked only against unmasked competitors:
        # never worse than with no mask, and exactly 1.0 when the mask
        # covers every column (the true score competes against itself).
        assert rank <= rank_scores(arr, np.array([col]), None)[0]
        survivors = [
            s for i, s in enumerate(scores) if i == col or i not in set(extra) | {col}
        ]
        expected = (
            1.0
            + sum(s > scores[col] for s in survivors)
            + 0.5 * (sum(s == scores[col] for s in survivors) - 1)
        )
        assert rank == pytest.approx(expected)


class TestCCDFProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_ccdf_is_a_survival_function(self, values):
        xs, probs = ccdf(np.asarray(values))
        assert np.all((0.0 <= probs) & (probs <= 1.0))
        assert np.all(np.diff(probs) <= 1e-12)


class TestLossProperties:
    @given(
        pos=st.floats(min_value=-20, max_value=20, allow_nan=False),
        neg=st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_losses_nonnegative(self, pos, neg):
        for loss in (MarginRankingLoss(1.0), LogisticLoss()):
            value = loss.value(np.array([pos]), np.array([neg]))[0]
            assert value >= 0.0

    @given(
        pos=st.floats(min_value=-20, max_value=20, allow_nan=False),
        neg=st.floats(min_value=-20, max_value=20, allow_nan=False),
        delta=st.floats(min_value=0.01, max_value=5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_monotone_in_scores(self, pos, neg, delta):
        """Raising the positive score (or lowering the negative) never
        increases either loss."""
        for loss in (MarginRankingLoss(1.0), LogisticLoss()):
            base = loss.value(np.array([pos]), np.array([neg]))[0]
            better_pos = loss.value(np.array([pos + delta]), np.array([neg]))[0]
            better_neg = loss.value(np.array([pos]), np.array([neg - delta]))[0]
            assert better_pos <= base + 1e-12
            assert better_neg <= base + 1e-12


class TestMultisetOverlapProperties:
    @given(
        a=st.lists(st.integers(0, 8), min_size=1, max_size=12),
        b=st.lists(st.integers(0, 8), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_overlap_matches_counter_intersection(self, a, b):
        from collections import Counter

        expected = sum((Counter(a) & Counter(b)).values())
        got = _multiset_overlap(np.asarray(a), np.asarray(b))
        assert got == expected

    @given(a=st.lists(st.integers(0, 8), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_overlap_with_self_is_full(self, a):
        arr = np.asarray(a)
        assert _multiset_overlap(arr, arr) == len(a)
