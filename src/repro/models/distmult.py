"""DistMult (Yang et al. 2015).

``f(h, r, t) = sum(h * r * t)`` — RESCAL with the relation matrix
restricted to a diagonal.  Symmetric in (h, t), hence weak on asymmetric
relations, but a strong and cheap semantic matching baseline.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, score_candidate_blocks
from repro.models.initializers import xavier_uniform
from repro.models.params import GradientBag

__all__ = ["DistMult"]


class DistMult(KGEModel):
    """Diagonal bilinear semantic matching model."""

    default_loss = "logistic"
    entity_params = ("entity",)
    relation_params = ("relation",)

    def _init_params(self, rng: np.random.Generator) -> None:
        self.params["entity"] = xavier_uniform((self.n_entities, self.dim), rng)
        self.params["relation"] = xavier_uniform((self.n_relations, self.dim), rng)

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        ent, rel = self.params["entity"], self.params["relation"]
        return np.sum(ent[h] * rel[r] * ent[t], axis=-1)

    def _query(self, anchors: np.ndarray, r: np.ndarray, mode: str) -> np.ndarray:
        """Per-row coefficients ``q`` with ``f = q . candidate``; ``[B, d]``.

        ``f`` is symmetric in (h, t), so both modes share one query form.
        """
        return self.params["entity"][anchors] * self.params["relation"][r]

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: the anchor-relation query is built once
        per row and the block is scored by the shared row-blocked matmul
        kernel (BLAS)."""
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
        ent, rel = self.params["entity"], self.params["relation"]
        eh, er, et = ent[h], rel[r], ent[t]
        up = np.asarray(upstream, dtype=np.float64)[:, None]
        bag = GradientBag()
        bag.add("entity", h, up * er * et)
        bag.add("relation", r, up * eh * et)
        bag.add("entity", t, up * eh * er)
        return bag
