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

    def _query(self, anchors: np.ndarray, r: np.ndarray, mode: str) -> np.ndarray:
        """Per-row coefficients ``q`` with ``f = q . candidate``; ``[B, d]``.

        The relation matrix is contracted with the anchor once per row:
        ``h^T M`` for candidate tails, ``M t`` for candidate heads.
        """
        anchor = self.params["entity"][anchors]
        m = self.params["relation"][r]
        if mode == "tail":
            return np.einsum("bi,bij->bj", anchor, m)
        return np.einsum("bij,bj->bi", m, anchor)

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: the per-row query, then the block scored
        by the shared row-blocked matmul kernel."""
        query = self._query(anchors, r, mode)
        return score_candidate_blocks(candidates, [(self.params["entity"], query)])

    def score_all_tails(self, h: np.ndarray, r: np.ndarray, chunk: int = 64) -> np.ndarray:
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        return self._query(h, r, "tail") @ self.params["entity"].T

    def score_all_heads(self, r: np.ndarray, t: np.ndarray, chunk: int = 64) -> np.ndarray:
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        return self._query(t, r, "head") @ self.params["entity"].T

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
