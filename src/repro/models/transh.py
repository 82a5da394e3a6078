"""TransH (Wang et al. 2014).

Each relation owns a hyperplane with unit normal ``w_r`` and a translation
``d_r`` living in that hyperplane.  Entities are projected onto the
hyperplane before translation:

``f = -|| (h - (w.h) w) + d_r - (t - (w.t) w) ||_p``

which handles 1-N/N-1/N-N relations that plain TransE collapses.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel
from repro.models.initializers import normalize_rows, xavier_uniform
from repro.models.norms import check_p, norm_backward, norm_forward
from repro.models.params import GradientBag

__all__ = ["TransH"]


class TransH(KGEModel):
    """Hyperplane-projection translational model."""

    default_loss = "margin"
    entity_params = ("entity",)
    relation_params = ("relation", "normal")

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
        normal = xavier_uniform((self.n_relations, self.dim), rng)
        self.params["normal"] = normal / np.maximum(
            np.linalg.norm(normal, axis=1, keepdims=True), 1e-12
        )
        self.normalize()

    # -- internals -------------------------------------------------------------
    def _residual(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(e, u, w)`` with ``u = h - t`` embeddings and residual
        ``e = u - (w.u) w + d_r`` (projection distributes over the difference)."""
        ent = self.params["entity"]
        u = ent[h] - ent[t]  # [B, d]
        w = self.params["normal"][r]
        wu = np.sum(w * u, axis=1, keepdims=True)
        e = u - wu * w + self.params["relation"][r]
        return e, u, w

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        e, _, _ = self._residual(h, r, t)
        return -norm_forward(e, self.p)

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: project the anchor once per row, fold the
        candidate projection into the gathered block in place, and compute
        the per-candidate hyperplane dot with one batched matmul."""
        ent = self.params["entity"]
        w = self.params["normal"][r]  # [B, d]
        anchor = ent[anchors]
        anchor_proj = anchor - np.sum(w * anchor, axis=1, keepdims=True) * w
        cand = ent[candidates]  # [B, C, d] copy — overwritten below
        wc = np.matmul(cand, w[:, :, None])[:, :, 0]  # (w . cand), [B, C]
        if mode == "tail":
            # e = (hp + d_r) - (cand - (w.cand) w)
            base = anchor_proj + self.params["relation"][r]
            np.subtract(base[:, None, :], cand, out=cand)
            cand += wc[:, :, None] * w[:, None, :]
        else:
            # e = (cand - (w.cand) w) + (d_r - tp)
            base = self.params["relation"][r] - anchor_proj
            cand += base[:, None, :]
            cand -= wc[:, :, None] * w[:, None, :]
        return -norm_forward(cand, self.p)

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        e, u, w = self._residual(h, r, t)
        up = np.asarray(upstream, dtype=np.float64)[:, None]
        s = -norm_backward(e, self.p) * up  # d(sum up*f)/de, [B, d]
        ws = np.sum(w * s, axis=1, keepdims=True)
        wu = np.sum(w * u, axis=1, keepdims=True)
        du = s - ws * w  # de/du applied transposed: (I - w w^T) s
        dw = -(ws * u + wu * s)  # d[-(w.u)w]/dw applied to s
        bag = GradientBag()
        bag.add("entity", h, du)
        bag.add("entity", t, -du)
        bag.add("relation", r, s)
        bag.add("normal", r, dw)
        return bag

    # -- constraints -----------------------------------------------------------
    def normalize(self, touched_entities: np.ndarray | None = None) -> None:
        """Clamp entity rows to the unit ball; renormalise hyperplane normals."""
        ent = self.params["entity"]
        if touched_entities is None:
            ent[...] = normalize_rows(ent)
        else:
            rows = np.unique(np.asarray(touched_entities, dtype=np.int64))
            ent[rows] = normalize_rows(ent[rows])
        normal = self.params["normal"]
        normal /= np.maximum(np.linalg.norm(normal, axis=1, keepdims=True), 1e-12)
