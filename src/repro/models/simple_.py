"""SimplE (Kazemi & Poole 2018) — extension beyond the paper's five models.

Each entity has a *head* role vector and a *tail* role vector; each relation
a forward and an inverse vector.  The score averages the forward and inverse
canonical-polyadic terms:

``f = 0.5 * ( <hh_h, r, ht_t> + <hh_t, r_inv, ht_h> )``

which is fully expressive while keeping O(d) per relation.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, score_candidate_blocks
from repro.models.initializers import xavier_uniform
from repro.models.params import GradientBag

__all__ = ["SimplE"]


class SimplE(KGEModel):
    """Bidirectional canonical-polyadic semantic matching model."""

    default_loss = "logistic"
    entity_params = ("entity_head", "entity_tail")
    relation_params = ("relation", "relation_inv")

    def _init_params(self, rng: np.random.Generator) -> None:
        shape_e = (self.n_entities, self.dim)
        shape_r = (self.n_relations, self.dim)
        self.params["entity_head"] = xavier_uniform(shape_e, rng)
        self.params["entity_tail"] = xavier_uniform(shape_e, rng)
        self.params["relation"] = xavier_uniform(shape_r, rng)
        self.params["relation_inv"] = xavier_uniform(shape_r, rng)

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        p = self.params
        forward = np.sum(p["entity_head"][h] * p["relation"][r] * p["entity_tail"][t], axis=-1)
        inverse = np.sum(p["entity_head"][t] * p["relation_inv"][r] * p["entity_tail"][h], axis=-1)
        return 0.5 * (forward + inverse)

    def score_tails(
        self, h: np.ndarray, r: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        p = self.params
        fwd_q = p["entity_head"][h] * p["relation"][r]  # pairs with candidate tail-role
        inv_q = p["relation_inv"][r] * p["entity_tail"][h]  # pairs with candidate head-role
        return 0.5 * (
            np.einsum("bd,bcd->bc", fwd_q, p["entity_tail"][candidates])
            + np.einsum("bd,bcd->bc", inv_q, p["entity_head"][candidates])
        )

    def score_heads(
        self, candidates: np.ndarray, r: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        p = self.params
        fwd_q = p["relation"][r] * p["entity_tail"][t]
        inv_q = p["entity_head"][t] * p["relation_inv"][r]
        return 0.5 * (
            np.einsum("bd,bcd->bc", fwd_q, p["entity_head"][candidates])
            + np.einsum("bd,bcd->bc", inv_q, p["entity_tail"][candidates])
        )

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: forward and inverse queries built once per
        row, block scored against both role tables by the shared row-blocked
        kernel."""
        p = self.params
        if mode == "tail":
            fwd_q = p["entity_head"][anchors] * p["relation"][r]
            inv_q = p["relation_inv"][r] * p["entity_tail"][anchors]
            fwd_table, inv_table = p["entity_tail"], p["entity_head"]
        else:
            fwd_q = p["relation"][r] * p["entity_tail"][anchors]
            inv_q = p["entity_head"][anchors] * p["relation_inv"][r]
            fwd_table, inv_table = p["entity_head"], p["entity_tail"]
        out = score_candidate_blocks(
            candidates, [(fwd_table, fwd_q), (inv_table, inv_q)]
        )
        out *= 0.5
        return out

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        p = self.params
        hh, ht = p["entity_head"][h], p["entity_tail"][h]
        th, tt = p["entity_head"][t], p["entity_tail"][t]
        rr, ri = p["relation"][r], p["relation_inv"][r]
        up = 0.5 * np.asarray(upstream, dtype=np.float64)[:, None]
        bag = GradientBag()
        # forward term <hh, rr, tt-of-t>
        bag.add("entity_head", h, up * rr * tt)
        bag.add("relation", r, up * hh * tt)
        bag.add("entity_tail", t, up * hh * rr)
        # inverse term <hh-of-t, ri, tt-of-h>
        bag.add("entity_head", t, up * ri * ht)
        bag.add("relation_inv", r, up * th * ht)
        bag.add("entity_tail", h, up * th * ri)
        return bag
