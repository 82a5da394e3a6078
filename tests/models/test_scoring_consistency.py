"""Bulk-scoring consistency: every fast path must agree with score().

The cache update, the GAN and self-adversarial samplers and the sampled
evaluator rely on ``score_candidates``; the full evaluator and the serve
path rely on ``score_all_*``.  Each model overrides the candidate kernel
(and the GEMM models ``score_all_*``) with a closed form, so each must
match the reference ``score``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import MODEL_REGISTRY, make_model

N_ENTITIES, N_RELATIONS, DIM = 12, 3, 6


def _model(name):
    return make_model(name, N_ENTITIES, N_RELATIONS, DIM, rng=3)


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
class TestBulkScoring:
    def test_score_tails_matches_score(self, model_name, rng):
        model = _model(model_name)
        b, c = 4, 7
        h = rng.integers(0, N_ENTITIES, b)
        r = rng.integers(0, N_RELATIONS, b)
        cand = rng.integers(0, N_ENTITIES, (b, c))
        got = model.score_candidates(h, r, cand, "tail")
        for i in range(b):
            expected = model.score(
                np.full(c, h[i]), np.full(c, r[i]), cand[i]
            )
            np.testing.assert_allclose(got[i], expected, atol=1e-10)

    def test_score_heads_matches_score(self, model_name, rng):
        model = _model(model_name)
        b, c = 4, 7
        r = rng.integers(0, N_RELATIONS, b)
        t = rng.integers(0, N_ENTITIES, b)
        cand = rng.integers(0, N_ENTITIES, (b, c))
        got = model.score_candidates(t, r, cand, "head")
        for i in range(b):
            expected = model.score(
                cand[i], np.full(c, r[i]), np.full(c, t[i])
            )
            np.testing.assert_allclose(got[i], expected, atol=1e-10)

    def test_score_all_tails_matches_score_tails(self, model_name, rng):
        model = _model(model_name)
        b = 3
        h = rng.integers(0, N_ENTITIES, b)
        r = rng.integers(0, N_RELATIONS, b)
        all_cand = np.broadcast_to(
            np.arange(N_ENTITIES), (b, N_ENTITIES)
        )
        np.testing.assert_allclose(
            model.score_all_tails(h, r),
            model.score_candidates(h, r, all_cand, "tail"),
            atol=1e-10,
        )

    def test_score_all_heads_matches_score_heads(self, model_name, rng):
        model = _model(model_name)
        b = 3
        r = rng.integers(0, N_RELATIONS, b)
        t = rng.integers(0, N_ENTITIES, b)
        all_cand = np.broadcast_to(
            np.arange(N_ENTITIES), (b, N_ENTITIES)
        )
        np.testing.assert_allclose(
            model.score_all_heads(r, t),
            model.score_candidates(t, r, all_cand, "head"),
            atol=1e-10,
        )

    def test_score_triples_matches_score(self, model_name, rng):
        model = _model(model_name)
        triples = np.stack(
            [
                rng.integers(0, N_ENTITIES, 6),
                rng.integers(0, N_RELATIONS, 6),
                rng.integers(0, N_ENTITIES, 6),
            ],
            axis=1,
        )
        np.testing.assert_allclose(
            model.score_triples(triples),
            model.score(triples[:, 0], triples[:, 1], triples[:, 2]),
        )


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_property_bulk_equals_pointwise(model_name, data):
    """Hypothesis: arbitrary (h, r, candidate-set) agree with score()."""
    model = _model(model_name)
    h = data.draw(st.integers(0, N_ENTITIES - 1))
    r = data.draw(st.integers(0, N_RELATIONS - 1))
    cand = data.draw(
        st.lists(st.integers(0, N_ENTITIES - 1), min_size=1, max_size=8)
    )
    cand_arr = np.asarray([cand])
    bulk = model.score_candidates(
        np.array([h]), np.array([r]), cand_arr, "tail"
    )[0]
    point = model.score(
        np.full(len(cand), h), np.full(len(cand), r), np.asarray(cand)
    )
    np.testing.assert_allclose(bulk, point, atol=1e-10)
