"""Tests for the link-prediction evaluator."""

import numpy as np
import pytest

from repro.data.dataset import KGDataset
from repro.data.triples import Vocabulary
from repro.eval.ranking import RankingResult, link_prediction, rank_scores
from repro.models import make_model


class TestRankScores:
    def test_perfect_rank(self):
        scores = np.array([[0.1, 0.9, 0.2]])
        assert rank_scores(scores, np.array([1]), None)[0] == 1.0

    def test_worst_rank(self):
        scores = np.array([[0.9, 0.1, 0.5]])
        assert rank_scores(scores, np.array([1]), None)[0] == 3.0

    def test_tie_averaging(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        # True column 0 ties with column 1 -> average of ranks 1 and 2.
        assert rank_scores(scores, np.array([0]), None)[0] == 1.5

    def test_constant_scores_give_middle_rank(self):
        scores = np.zeros((1, 5))
        assert rank_scores(scores, np.array([2]), None)[0] == 3.0

    def test_filtering_removes_other_true_entities(self):
        scores = np.array([[0.9, 0.8, 0.7, 0.1]])
        true_col = np.array([2])
        unfiltered = rank_scores(scores, true_col, None)[0]
        filtered = rank_scores(scores, true_col, [np.array([0, 1])])[0]
        assert unfiltered == 3.0
        assert filtered == 1.0

    def test_filtering_never_removes_true_column(self):
        scores = np.array([[0.9, 0.8]])
        # The mask includes the true column itself; it must survive.
        rank = rank_scores(scores, np.array([0]), [np.array([0, 1])])[0]
        assert rank == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_flat_mask_write_matches_per_row_loop(self, seed):
        """The one fancy assignment gives the ranks of the per-row loop,
        with empty masks, masks holding the true column, and repeated
        columns, on scores with ties."""
        rng = np.random.default_rng(seed)
        b, n = 40, 30
        scores = rng.integers(0, 8, (b, n)).astype(np.float64)  # many ties
        true_cols = rng.integers(0, n, b)
        masks = []
        for i in range(b):
            kind = i % 4
            if kind == 0:
                masks.append(np.empty(0, dtype=np.int64))
            elif kind == 1:
                masks.append(np.append(rng.integers(0, n, 5), true_cols[i]))
            elif kind == 2:
                masks.append(np.repeat(rng.integers(0, n, 3), 3))
            else:
                masks.append(rng.choice(n, 10, replace=False))
        before = scores.copy()
        got = rank_scores(scores, true_cols, masks)
        assert got.tobytes() == _looped_rank_scores(scores, true_cols, masks).tobytes()
        assert scores.tobytes() == before.tobytes()  # the input is not written

    def test_all_empty_masks_rank_as_unfiltered(self, rng):
        scores = rng.normal(size=(6, 9))
        true_cols = rng.integers(0, 9, 6)
        empty = [np.empty(0, dtype=np.int64)] * 6
        got = rank_scores(scores, true_cols, empty)
        assert got.tobytes() == rank_scores(scores, true_cols, None).tobytes()
        assert got.tobytes() == _looped_rank_scores(scores, true_cols, empty).tobytes()


def _looped_rank_scores(scores, true_cols, mask_cols):
    """The per-row mask loop ``rank_scores`` used to run: the oracle for
    its one flat assignment."""
    rows = np.arange(len(scores))
    true_scores = scores[rows, true_cols].copy()
    scores = scores.copy()
    for i, cols in enumerate(mask_cols):
        if len(cols):
            scores[i, cols] = -np.inf
    scores[rows, true_cols] = true_scores
    greater = np.sum(scores > true_scores[:, None], axis=1)
    ties = np.sum(scores == true_scores[:, None], axis=1) - 1
    return 1.0 + greater + 0.5 * ties


class TestRankingResult:
    def test_metrics_from_known_ranks(self):
        result = RankingResult(ranks=np.array([1.0, 2.0, 10.0]), hits_at=(1, 10))
        assert result.mrr == pytest.approx((1 + 0.5 + 0.1) / 3)
        assert result.mr == pytest.approx(13 / 3)
        assert result.hits(1) == pytest.approx(1 / 3)
        assert result.hits(10) == pytest.approx(1.0)

    def test_empty_ranks_report_nan(self):
        # Regression: these used to report 0.0, and an MR of 0.0 is
        # *better* than the theoretical optimum of 1.0 — a minimize-style
        # early stopper on an empty split would lock onto it forever.
        result = RankingResult(ranks=np.empty(0))
        assert np.isnan(result.mrr)
        assert np.isnan(result.mr)
        for k in result.hits_at:
            assert np.isnan(result.hits(k))

    def test_empty_ranks_never_beat_a_real_result(self):
        empty = RankingResult(ranks=np.empty(0))
        real = RankingResult(ranks=np.array([5.0]))
        # NaN compares False in both directions, as "no data" should.
        assert not (empty.mr < real.mr)
        assert not (empty.mrr > real.mrr)


class TestLinkPrediction:
    def _perfect_dataset_and_model(self):
        """A 1-triple test set and a model rigged to rank it first."""
        vocab = Vocabulary.anonymous(5, 1)
        train = np.array([(0, 0, 1), (1, 0, 2), (2, 0, 3)])
        test = np.array([(3, 0, 4)])
        ds = KGDataset("rigged", vocab, train, np.empty((0, 3), dtype=np.int64), test)
        model = make_model("TransE", 5, 1, 4, rng=0)
        model.params["relation"][0] = 0.0
        for e in range(5):
            model.params["entity"][e] = 0.1 * e
        # With r=0 and distinct entity rows, the nearest entity to h is
        # its own embedding; rig tail 4 to coincide with head 3.
        model.params["entity"][4] = model.params["entity"][3]
        return ds, model

    def test_rigged_model_gets_top_ranks(self):
        ds, model = self._perfect_dataset_and_model()
        result = link_prediction(model, ds, "test", filtered=False)
        assert result.ranks.max() <= 2.0  # h itself may tie

    def test_filtered_never_worse_than_raw(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        raw = link_prediction(model, tiny_kg, "test", filtered=False)
        filtered = link_prediction(model, tiny_kg, "test", filtered=True)
        assert filtered.mr <= raw.mr + 1e-9
        assert filtered.mrr >= raw.mrr - 1e-9

    def test_rank_count_is_twice_split_size(self, tiny_kg):
        model = make_model("DistMult", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        result = link_prediction(model, tiny_kg, "test")
        assert len(result.ranks) == 2 * len(tiny_kg.test)

    def test_batching_invariance(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        small = link_prediction(model, tiny_kg, "test", batch_size=3)
        large = link_prediction(model, tiny_kg, "test", batch_size=512)
        # Rank *order* differs (head/tail interleaving per batch), but the
        # multiset of ranks and hence every metric must be identical.
        np.testing.assert_allclose(np.sort(small.ranks), np.sort(large.ranks))
        assert small.mrr == pytest.approx(large.mrr)

    def test_hits_at_configurable(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        result = link_prediction(model, tiny_kg, "test", hits_at=(5,))
        assert "hits@5" in result.metrics
        assert "hits@10" not in result.metrics

    def test_ranks_bounded_by_entity_count(self, tiny_kg):
        model = make_model("ComplEx", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        result = link_prediction(model, tiny_kg, "test")
        assert result.ranks.min() >= 1.0
        assert result.ranks.max() <= tiny_kg.n_entities
