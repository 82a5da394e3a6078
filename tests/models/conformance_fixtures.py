"""Shared helpers for the model-conformance harness (see ``conftest.py``).

Kept outside ``conftest.py`` so test modules can import the constants and
oracle directly (the tests directory is not a package).
"""

from __future__ import annotations

import numpy as np

from repro.models import make_model

#: Vocabulary the conformance models are built with — deliberately odd
#: sizes (13 entities, 4 relations, dim 6) to shake out square-shape
#: assumptions in kernels.
CONF_N_ENTITIES = 13
CONF_N_RELATIONS = 4
CONF_DIM = 6


def build_conformance_model(name: str, rng: int = 3):
    """A small, seeded instance of one registry model."""
    return make_model(name, CONF_N_ENTITIES, CONF_N_RELATIONS, CONF_DIM, rng=rng)


def looped_reference_scores(model, anchors, r, candidates, mode):
    """Candidate-block scores via one ``score()`` call per row.

    The slowest, most obviously correct formulation — the oracle every
    ``score_candidates`` kernel must agree with.
    """
    b, c = candidates.shape
    out = np.empty((b, c), dtype=np.float64)
    for i in range(b):
        if mode == "tail":
            out[i] = model.score(
                np.full(c, anchors[i]), np.full(c, r[i]), candidates[i]
            )
        else:
            out[i] = model.score(
                candidates[i], np.full(c, r[i]), np.full(c, anchors[i])
            )
    return out


# -- unblocked bilinear kernels ----------------------------------------------
# The bilinear kernels before row-blocking: gather the whole [B, C, d]
# block, then one batched matmul per entity table.  ``score_candidates``
# must reproduce these byte for byte (see TestRowBlockedKernels).


def _unblocked(terms, candidates):
    out = None
    for table, query in terms:
        scores = np.matmul(table[candidates], query[:, :, None])
        out = scores if out is None else out + scores
    return out[:, :, 0]


def _complex_oracle(model, anchors, r, candidates, mode):
    if mode == "tail":
        a, b = model._tail_query(anchors, r)
    else:
        a, b = model._head_query(r, anchors)
    p = model.params
    return _unblocked([(p["entity_re"], a), (p["entity_im"], b)], candidates)


def _distmult_oracle(model, anchors, r, candidates, mode):
    ent, rel = model.params["entity"], model.params["relation"]
    return _unblocked([(ent, ent[anchors] * rel[r])], candidates)


def _simple_oracle(model, anchors, r, candidates, mode):
    p = model.params
    if mode == "tail":
        fwd_q = p["entity_head"][anchors] * p["relation"][r]
        inv_q = p["relation_inv"][r] * p["entity_tail"][anchors]
        fwd_table, inv_table = p["entity_tail"], p["entity_head"]
    else:
        fwd_q = p["relation"][r] * p["entity_tail"][anchors]
        inv_q = p["entity_head"][anchors] * p["relation_inv"][r]
        fwd_table, inv_table = p["entity_head"], p["entity_tail"]
    out = _unblocked([(fwd_table, fwd_q), (inv_table, inv_q)], candidates)
    out *= 0.5
    return out


def _rescal_oracle(model, anchors, r, candidates, mode):
    ent = model.params["entity"]
    m = model.params["relation"][r]
    if mode == "tail":
        query = np.einsum("bi,bij->bj", ent[anchors], m)
    else:
        query = np.einsum("bij,bj->bi", m, ent[anchors])
    return _unblocked([(ent, query)], candidates)


def _hole_oracle(model, anchors, r, candidates, mode):
    from repro.models.hole import _cconv, _ccorr

    ent, rel = model.params["entity"], model.params["relation"]
    op = _cconv if mode == "tail" else _ccorr
    return _unblocked([(ent, op(rel[r], ent[anchors]))], candidates)


#: Registry name -> unblocked reference kernel, for every bilinear model
#: whose ``_score_candidates_impl`` runs through ``score_candidate_blocks``.
UNBLOCKED_KERNELS = {
    "ComplEx": _complex_oracle,
    "DistMult": _distmult_oracle,
    "SimplE": _simple_oracle,
    "RESCAL": _rescal_oracle,
    "HolE": _hole_oracle,
}
