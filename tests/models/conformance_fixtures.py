"""Shared helpers for the model-conformance harness (see ``conftest.py``).

Kept outside ``conftest.py`` so test modules can import the constants and
oracle directly (the tests directory is not a package).
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.models import make_model
from repro.models.base import CANDIDATE_BLOCK_BYTES, candidate_block_rows
from repro.models.norms import norm_forward

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


# -- unblocked candidate kernels ---------------------------------------------
# The candidate kernels before row-blocking: gather the whole [B, C, d]
# block, then one batched matmul per entity table (bilinear) or one
# residual norm (TransE).  ``score_candidates`` must reproduce these byte
# for byte (see TestRowBlockedKernels).


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


def _transe_oracle(model, anchors, r, candidates, mode):
    ent, rel = model.params["entity"], model.params["relation"]
    e = ent[candidates]
    if mode == "tail":
        query = ent[anchors] + rel[r]
        np.subtract(query[:, None, :], e, out=e)
    else:
        query = rel[r] - ent[anchors]
        e += query[:, None, :]
    return -norm_forward(e, model.p)


def _rotate_oracle(model, anchors, r, candidates, mode):
    """RotatE's fused kernel before row-blocking: both residual halves
    written into one ``[B, C, 2d]`` buffer gathered whole."""
    p = model.params
    theta = p["phase"][r]
    cos, sin = np.cos(theta), np.sin(theta)
    c_re = p["entity_re"][candidates]  # [B, C, d]
    c_im = p["entity_im"][candidates]
    b, c = candidates.shape
    e = np.empty((b, c, 2 * model.dim))
    e_re, e_im = e[:, :, : model.dim], e[:, :, model.dim :]
    if mode == "tail":
        h_re, h_im = p["entity_re"][anchors], p["entity_im"][anchors]
        rot_re = h_re * cos - h_im * sin
        rot_im = h_re * sin + h_im * cos
        np.subtract(rot_re[:, None, :], c_re, out=e_re)
        np.subtract(rot_im[:, None, :], c_im, out=e_im)
    else:
        np.multiply(c_re, cos[:, None, :], out=e_re)
        e_re -= c_im * sin[:, None, :]
        e_re -= p["entity_re"][anchors][:, None, :]
        np.multiply(c_re, sin[:, None, :], out=e_im)
        e_im += c_im * cos[:, None, :]
        e_im -= p["entity_im"][anchors][:, None, :]
    return -norm_forward(e, model.p)


#: Registry name -> unblocked reference kernel, for every model whose
#: ``_score_candidates_impl`` gathers its candidates a few rows at a time.
UNBLOCKED_KERNELS = {
    "ComplEx": _complex_oracle,
    "DistMult": _distmult_oracle,
    "SimplE": _simple_oracle,
    "RESCAL": _rescal_oracle,
    "HolE": _hole_oracle,
    "TransE": _transe_oracle,
    "RotatE": _rotate_oracle,
}

#: Kernel variants the row-blocking tests cover: registry name and
#: constructor options per case.  The oracle is ``UNBLOCKED_KERNELS`` of
#: the registry name (TransE's and RotatE's oracles read the model's norm
#: order).
BLOCKED_KERNEL_CASES = {
    **{name: (name, {}) for name in UNBLOCKED_KERNELS},
    "TransE-p2": ("TransE", {"p": 2}),
    "RotatE-p1": ("RotatE", {"p": 1}),
}

#: Gathered columns per embedding dimension where it is not 1: RotatE
#: gathers ``[re | im]`` rows, so its blocks hold half as many rows.
GATHER_WIDTH = {"RotatE": 2}


def block_rows(name, n_candidates, dim):
    """Rows per gathered block of registry model ``name``'s kernel."""
    return candidate_block_rows(n_candidates, GATHER_WIDTH.get(name, 1) * dim)


# -- broadcast score_all paths -----------------------------------------------
# score_all_* before entity blocking, for the models without a GEMM of
# their own, at the old default of 64 query rows per chunk.  Oracles take
# ``(model, anchors, r, mode)`` with the anchors the heads for mode="tail"
# and the tails for mode="head".

_CHUNK = 64


def _transe_score_all_oracle(model, anchors, r, mode):
    """TransE's old override: broadcast ``[chunk, E, d]`` against the table."""
    ent, rel = model.params["entity"], model.params["relation"]
    if mode == "tail":
        query = ent[anchors] + rel[r]
    else:
        query = rel[r] - ent[anchors]
    out = np.empty((len(anchors), model.n_entities))
    for start in range(0, len(anchors), _CHUNK):
        stop = min(start + _CHUNK, len(anchors))
        if mode == "tail":
            e = query[start:stop, None, :] - ent[None, :, :]
        else:
            e = ent[None, :, :] + query[start:stop, None, :]
        out[start:stop] = -norm_forward(e, model.p)
    return out


def _rotate_tails(model, h, r, candidates):
    """RotatE's old unblocked tail scorer: gather the whole block, then
    concatenate the two residual halves."""
    p = model.params
    h_re, h_im = p["entity_re"][h], p["entity_im"][h]
    theta = p["phase"][r]
    cos, sin = np.cos(theta), np.sin(theta)
    rot_re = (h_re * cos - h_im * sin)[:, None, :]  # [B, 1, d]
    rot_im = (h_re * sin + h_im * cos)[:, None, :]
    e = np.concatenate(
        [
            rot_re - p["entity_re"][candidates],
            rot_im - p["entity_im"][candidates],
        ],
        axis=2,
    )
    return -norm_forward(e, model.p)


def _rotate_heads(model, candidates, r, t):
    """RotatE's old unblocked head scorer: rotate every candidate head
    forward and measure against the tail."""
    p = model.params
    theta = p["phase"][r]
    cos, sin = np.cos(theta)[:, None, :], np.sin(theta)[:, None, :]
    c_re = p["entity_re"][candidates]
    c_im = p["entity_im"][candidates]
    rot_re = c_re * cos - c_im * sin
    rot_im = c_re * sin + c_im * cos
    e = np.concatenate(
        [
            rot_re - p["entity_re"][t][:, None, :],
            rot_im - p["entity_im"][t][:, None, :],
        ],
        axis=2,
    )
    return -norm_forward(e, model.p)


def _rotate_score_all_oracle(model, anchors, r, mode):
    """The old generic base path for RotatE: ``[chunk, E]`` broadcast ids
    through its unblocked tail / head scorers."""
    everyone = np.arange(model.n_entities)
    out = np.empty((len(anchors), model.n_entities))
    for start in range(0, len(anchors), _CHUNK):
        stop = min(start + _CHUNK, len(anchors))
        ids = np.broadcast_to(everyone, (stop - start, model.n_entities))
        if mode == "tail":
            out[start:stop] = _rotate_tails(model, anchors[start:stop], r[start:stop], ids)
        else:
            out[start:stop] = _rotate_heads(model, ids, r[start:stop], anchors[start:stop])
    return out


#: Registry name -> the broadcast ``score_all_*`` the entity-blocked base
#: method must reproduce byte for byte.  The other base-path models
#: (TransH, TransD, TransR, SimplE) now match their ``score_candidates``
#: bytes instead, which differ from the broadcast path in the last
#: few ulps because their old bulk scorers ordered the operations
#: differently.
UNBLOCKED_SCORE_ALL = {
    "TransE": _transe_score_all_oracle,
    "RotatE": _rotate_score_all_oracle,
}


def assert_score_all_memory_bounded(model_name, mode, rng):
    """Peak memory of one ``score_all_*`` call stays within the output plus
    a few candidate blocks, however many entities there are (the
    [chunk, E, d] broadcast peaked at hundreds of MB here)."""
    n, b = 20_000, 16
    model = make_model(model_name, n, CONF_N_RELATIONS, 8, rng=5)
    anchors = rng.integers(0, n, b)
    r = rng.integers(0, CONF_N_RELATIONS, b)
    tracemalloc.start()
    try:
        if mode == "tail":
            model.score_all_tails(anchors, r)
        else:
            model.score_all_heads(r, anchors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = b * n * 8
    assert peak < output + 8 * CANDIDATE_BLOCK_BYTES, (
        f"peak {peak} B, output {output} B"
    )
