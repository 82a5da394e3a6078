"""Tests for the batched filtered top-k scorer."""

import numpy as np
import pytest

from repro.data.triples import HEAD, REL, TAIL
from repro.eval.filters import head_filter_masks, tail_filter_masks
from repro.eval.ranking import rank_scores
from repro.serve.topk import TopKScorer


class TestTopTails:
    def test_matches_full_sort_unfiltered(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        triples = tiny_kg.test[:6]
        results = scorer.top_tails(triples[:, HEAD], triples[:, REL], 5, filtered=False)
        scores = small_transe.score_all_tails(triples[:, HEAD], triples[:, REL])
        for i, result in enumerate(results):
            expected = np.argsort(-scores[i], kind="stable")[:5]
            np.testing.assert_array_equal(result.entities, expected)
            np.testing.assert_array_equal(result.scores, scores[i][expected])

    def test_filtered_excludes_known_tails(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        triples = tiny_kg.test[:8]
        results = scorer.top_tails(triples[:, HEAD], triples[:, REL], 10)
        masks = tail_filter_masks(tiny_kg, triples[:, HEAD], triples[:, REL])
        for result, mask in zip(results, masks):
            assert not set(result.entities.tolist()) & set(mask.tolist())

    def test_keep_readmits_the_true_tail(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        triples = tiny_kg.test[:8]
        results = scorer.top_tails(
            triples[:, HEAD], triples[:, REL], tiny_kg.n_entities,
            keep=triples[:, TAIL],
        )
        for triple, result in zip(triples, results):
            assert int(triple[TAIL]) in result.entities

    def test_scores_descend(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        triples = tiny_kg.test[:4]
        for result in scorer.top_tails(triples[:, HEAD], triples[:, REL], 7):
            assert np.all(np.diff(result.scores) <= 0)

    def test_k_larger_than_entities_truncates(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        (result,) = scorer.top_tails(
            tiny_kg.test[:1, HEAD], tiny_kg.test[:1, REL],
            tiny_kg.n_entities * 10, filtered=False,
        )
        assert len(result.entities) == tiny_kg.n_entities


class TestEvalParity:
    """The acceptance property: served ranks == eval-protocol ranks."""

    def test_tail_positions_match_rank_scores(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        triples = tiny_kg.test[:16]
        h, r, t = triples[:, HEAD], triples[:, REL], triples[:, TAIL]
        results = scorer.top_tails(h, r, tiny_kg.n_entities, keep=t)
        ranks = rank_scores(
            small_transe.score_all_tails(h, r), t, tail_filter_masks(tiny_kg, h, r)
        )
        for i, result in enumerate(results):
            position = int(np.flatnonzero(result.entities == t[i])[0]) + 1
            assert position == ranks[i]

    def test_head_positions_match_rank_scores(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        triples = tiny_kg.test[:16]
        h, r, t = triples[:, HEAD], triples[:, REL], triples[:, TAIL]
        results = scorer.top_heads(r, t, tiny_kg.n_entities, keep=h)
        ranks = rank_scores(
            small_transe.score_all_heads(r, t), h, head_filter_masks(tiny_kg, r, t)
        )
        for i, result in enumerate(results):
            position = int(np.flatnonzero(result.entities == h[i])[0]) + 1
            assert position == ranks[i]


class TestValidation:
    def test_filtered_without_dataset_rejected(self, small_transe):
        scorer = TopKScorer(small_transe)
        with pytest.raises(ValueError, match="dataset"):
            scorer.top_tails(np.array([0]), np.array([0]), 3)

    def test_unfiltered_without_dataset_works(self, small_transe):
        scorer = TopKScorer(small_transe)
        (result,) = scorer.top_tails(np.array([0]), np.array([0]), 3, filtered=False)
        assert len(result.entities) == 3

    def test_out_of_range_ids_rejected(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        with pytest.raises(ValueError, match="out of range"):
            scorer.top_tails(np.array([tiny_kg.n_entities]), np.array([0]), 3)
        with pytest.raises(ValueError, match="out of range"):
            scorer.top_heads(np.array([tiny_kg.n_relations]), np.array([0]), 3)

    def test_bad_k_rejected(self, tiny_kg, small_transe):
        scorer = TopKScorer(small_transe, tiny_kg)
        with pytest.raises(ValueError, match="k must be > 0"):
            scorer.top_tails(np.array([0]), np.array([0]), 0)

    def test_to_json_is_serialisable(self, tiny_kg, small_transe):
        import json

        scorer = TopKScorer(small_transe, tiny_kg)
        (result,) = scorer.top_tails(np.array([0]), np.array([0]), 3)
        payload = result.to_json()
        assert json.loads(json.dumps(payload)) == payload
