"""RESCAL (Nickel et al. 2011) — extension beyond the paper's five models.

The original bilinear model: each relation is a full ``d x d`` interaction
matrix, ``f = h^T M_r t``.  Expressive but ``O(d^2)`` parameters per
relation — exactly the cost DistMult/ComplEx were designed to avoid, which
makes it a useful ablation point.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, score_candidate_blocks
from repro.models.initializers import xavier_uniform
from repro.models.params import GradientBag

__all__ = ["RESCAL"]


class RESCAL(KGEModel):
    """Full bilinear semantic matching model."""

    default_loss = "logistic"
    entity_params = ("entity",)
    relation_params = ("relation",)

    def _init_params(self, rng: np.random.Generator) -> None:
        self.params["entity"] = xavier_uniform((self.n_entities, self.dim), rng)
        # Relation matrices initialised near scaled identity to keep early
        # scores in a sane range.
        rel = 0.1 * rng.normal(size=(self.n_relations, self.dim, self.dim))
        idx = np.arange(self.dim)
        rel[:, idx, idx] += 0.5
        self.params["relation"] = rel

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        ent = self.params["entity"]
        m = self.params["relation"][r]
        return np.einsum("bi,bij,bj->b", ent[h], m, ent[t])

    def score_tails(
        self, h: np.ndarray, r: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        ent = self.params["entity"]
        m = self.params["relation"][r]
        query = np.einsum("bi,bij->bj", ent[h], m)  # h^T M
        return np.einsum("bj,bcj->bc", query, ent[candidates])

    def score_heads(
        self, candidates: np.ndarray, r: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        ent = self.params["entity"]
        m = self.params["relation"][r]
        query = np.einsum("bij,bj->bi", m, ent[t])  # M t
        return np.einsum("bi,bci->bc", query, ent[candidates])

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: the relation matrix is contracted with the
        anchor once per row (``h^T M`` or ``M t``), then the block is scored
        by the shared row-blocked matmul kernel."""
        ent = self.params["entity"]
        m = self.params["relation"][r]
        if mode == "tail":
            query = np.einsum("bi,bij->bj", ent[anchors], m)  # h^T M
        else:
            query = np.einsum("bij,bj->bi", m, ent[anchors])  # M t
        return score_candidate_blocks(candidates, [(ent, query)])

    def score_all_tails(self, h: np.ndarray, r: np.ndarray, chunk: int = 64) -> np.ndarray:
        ent = self.params["entity"]
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        query = np.einsum("bi,bij->bj", ent[h], self.params["relation"][r])
        return query @ ent.T

    def score_all_heads(self, r: np.ndarray, t: np.ndarray, chunk: int = 64) -> np.ndarray:
        ent = self.params["entity"]
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        query = np.einsum("bij,bj->bi", self.params["relation"][r], ent[t])
        return query @ ent.T

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        ent = self.params["entity"]
        m = self.params["relation"][r]
        eh, et = ent[h], ent[t]
        up = np.asarray(upstream, dtype=np.float64)
        bag = GradientBag()
        bag.add("entity", h, up[:, None] * np.einsum("bij,bj->bi", m, et))
        bag.add("entity", t, up[:, None] * np.einsum("bi,bij->bj", eh, m))
        bag.add("relation", r, up[:, None, None] * np.einsum("bi,bj->bij", eh, et))
        return bag
