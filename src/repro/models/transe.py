"""TransE (Bordes et al. 2013).

``f(h, r, t) = -||h + r - t||_p`` — a triple is plausible when the tail
embedding sits at the head embedding translated by the relation vector.
Entity embeddings are kept on the unit sphere after every update, as in the
original implementation.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import (
    KGEModel,
    residual_norm_scores,
    score_candidate_blocks,
)
from repro.models.initializers import xavier_uniform
from repro.models.norms import check_p, norm_backward, norm_forward
from repro.models.params import GradientBag

__all__ = ["TransE"]


class TransE(KGEModel):
    """Translational-distance model with a single vector per relation."""

    default_loss = "margin"
    entity_params = ("entity",)
    relation_params = ("relation",)

    def __init__(
        self,
        n_entities: int,
        n_relations: int,
        dim: int,
        rng: np.random.Generator | int | None = None,
        *,
        p: int = 1,
    ) -> None:
        self.p = check_p(p)
        super().__init__(n_entities, n_relations, dim, rng)

    def _init_params(self, rng: np.random.Generator) -> None:
        self.params["entity"] = xavier_uniform((self.n_entities, self.dim), rng)
        self.params["relation"] = xavier_uniform((self.n_relations, self.dim), rng)
        self.normalize()

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        ent, rel = self.params["entity"], self.params["relation"]
        e = ent[h] + rel[r] - ent[t]
        return -norm_forward(e, self.p)

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel on the shared row-blocked gather: the
        per-row query is folded into each gathered block in place before
        the norm, so no ``[B, C, d]`` temporary is ever allocated."""
        ent, rel = self.params["entity"], self.params["relation"]
        if mode == "tail":
            query = ent[anchors] + rel[r]  # e = query - cand
        else:
            query = rel[r] - ent[anchors]  # e = cand + query
        return score_candidate_blocks(
            candidates, [(ent, query)], residual_norm_scores(mode, self.p)
        )

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        ent, rel = self.params["entity"], self.params["relation"]
        e = ent[h] + rel[r] - ent[t]
        # f = -||e||  =>  df/de = -norm_backward(e)
        de = -norm_backward(e, self.p) * np.asarray(upstream, dtype=np.float64)[:, None]
        bag = GradientBag()
        bag.add("entity", h, de)
        bag.add("entity", t, -de)
        bag.add("relation", r, de)
        return bag

    # -- constraints -----------------------------------------------------------
    def normalize(self, touched_entities: np.ndarray | None = None) -> None:
        """Renormalise entity rows to unit l2 norm (original TransE step 5)."""
        ent = self.params["entity"]
        if touched_entities is None:
            norms = np.linalg.norm(ent, axis=1, keepdims=True)
            ent /= np.maximum(norms, 1e-12)
        else:
            rows = np.unique(np.asarray(touched_entities, dtype=np.int64))
            norms = np.linalg.norm(ent[rows], axis=1, keepdims=True)
            ent[rows] /= np.maximum(norms, 1e-12)
