"""TransR (Lin et al. 2015) — extension beyond the paper's five models.

Entities live in entity space, relations in their own space, connected by a
full per-relation projection matrix ``M_r`` (``O(d_r * d)`` parameters per
relation):

``f = -|| M_r h + r - M_r t ||_p``.

Included because the paper cites it as a standard translational baseline;
it also stresses the optimiser with matrix-shaped parameter rows.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel
from repro.models.initializers import normalize_rows, xavier_uniform
from repro.models.norms import check_p, norm_backward, norm_forward
from repro.models.params import GradientBag

__all__ = ["TransR"]


class TransR(KGEModel):
    """Projection-matrix translational model."""

    default_loss = "margin"
    entity_params = ("entity",)
    relation_params = ("relation", "projection")

    def __init__(
        self,
        n_entities: int,
        n_relations: int,
        dim: int,
        rng: np.random.Generator | int | None = None,
        *,
        relation_dim: int | None = None,
        p: int = 1,
    ) -> None:
        self.p = check_p(p)
        self.relation_dim = int(relation_dim or dim)
        super().__init__(n_entities, n_relations, dim, rng)

    def _init_params(self, rng: np.random.Generator) -> None:
        d, k = self.dim, self.relation_dim
        self.params["entity"] = xavier_uniform((self.n_entities, d), rng)
        self.params["relation"] = xavier_uniform((self.n_relations, k), rng)
        # Initialise every projection near the identity, as in the original.
        eye = np.zeros((k, d))
        np.fill_diagonal(eye, 1.0)
        projection = np.tile(eye, (self.n_relations, 1, 1))
        projection += 0.01 * rng.normal(size=projection.shape)
        self.params["projection"] = projection
        self.normalize()

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        ent = self.params["entity"]
        m = self.params["projection"][r]  # [B, k, d]
        diff = ent[h] - ent[t]  # [B, d]
        e = np.einsum("bkd,bd->bk", m, diff) + self.params["relation"][r]
        return -norm_forward(e, self.p)

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: project the whole candidate block with one
        batched matmul (BLAS) instead of an einsum, then fold the per-row
        query into it in place."""
        ent = self.params["entity"]
        m = self.params["projection"][r]  # [B, k, d]
        # [B, C, d] @ [B, d, k] -> [B, C, k]: batched GEMM over the block.
        projected = np.matmul(ent[candidates], m.transpose(0, 2, 1))
        anchor = np.einsum("bkd,bd->bk", m, ent[anchors])
        if mode == "tail":
            query = anchor + self.params["relation"][r]
            np.subtract(query[:, None, :], projected, out=projected)
        else:
            base = self.params["relation"][r] - anchor
            projected += base[:, None, :]
        return -norm_forward(projected, self.p)

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        ent = self.params["entity"]
        m = self.params["projection"][r]
        diff = ent[h] - ent[t]
        e = np.einsum("bkd,bd->bk", m, diff) + self.params["relation"][r]
        up = np.asarray(upstream, dtype=np.float64)[:, None]
        s = -norm_backward(e, self.p) * up  # [B, k]
        d_ent = np.einsum("bkd,bk->bd", m, s)  # M^T s
        d_m = np.einsum("bk,bd->bkd", s, diff)  # s (h - t)^T
        bag = GradientBag()
        bag.add("entity", h, d_ent)
        bag.add("entity", t, -d_ent)
        bag.add("relation", r, s)
        bag.add("projection", r, d_m)
        return bag

    # -- constraints -----------------------------------------------------------
    def normalize(self, touched_entities: np.ndarray | None = None) -> None:
        """Clamp entity rows to the unit l2 ball."""
        ent = self.params["entity"]
        if touched_entities is None:
            ent[...] = normalize_rows(ent)
        else:
            rows = np.unique(np.asarray(touched_entities, dtype=np.int64))
            ent[rows] = normalize_rows(ent[rows])
