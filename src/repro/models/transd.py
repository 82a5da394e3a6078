"""TransD (Ji et al. 2015).

Every entity and relation carries a second *projection* vector; the mapping
matrix ``M_r = I + w_r w_e^T`` is entity-and-relation specific but costs
only two vectors:

``h_p = h + (w_h . h) w_r``, ``t_p = t + (w_t . t) w_r``,
``f = -|| h_p + r - t_p ||_p``.

TransD is the paper's workhorse for the ablation studies (Figures 6-9).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel
from repro.models.initializers import normalize_rows, xavier_uniform
from repro.models.norms import check_p, norm_backward, norm_forward
from repro.models.params import GradientBag

__all__ = ["TransD"]


class TransD(KGEModel):
    """Dynamic-mapping-matrix translational model."""

    default_loss = "margin"
    entity_params = ("entity", "entity_proj")
    relation_params = ("relation", "relation_proj")

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
        self.params["entity_proj"] = xavier_uniform((self.n_entities, self.dim), rng)
        self.params["relation"] = xavier_uniform((self.n_relations, self.dim), rng)
        self.params["relation_proj"] = xavier_uniform((self.n_relations, self.dim), rng)
        self.normalize()

    # -- internals -------------------------------------------------------------
    def _project(
        self, entities: np.ndarray, wr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project entity rows; returns ``(projected, raw, w_e)``."""
        raw = self.params["entity"][entities]
        we = self.params["entity_proj"][entities]
        dot = np.sum(we * raw, axis=-1, keepdims=True)
        return raw + dot * wr, raw, we

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        wr = self.params["relation_proj"][r]
        hp, _, _ = self._project(h, wr)
        tp, _, _ = self._project(t, wr)
        e = hp + self.params["relation"][r] - tp
        return -norm_forward(e, self.p)

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: anchor projection once per row, candidate
        projection folded into the gathered block in place (no ``we * raw``
        or projected-block temporaries)."""
        wr = self.params["relation_proj"][r]  # [B, d]
        anchor_proj, _, _ = self._project(anchors, wr)
        raw = self.params["entity"][candidates]  # [B, C, d] copy
        we = self.params["entity_proj"][candidates]
        dot = np.einsum("bcd,bcd->bc", we, raw)  # (w_e . e) per candidate
        if mode == "tail":
            # e = (hp + r) - (raw + dot * w_r)
            query = anchor_proj + self.params["relation"][r]
            np.subtract(query[:, None, :], raw, out=raw)
            raw -= dot[:, :, None] * wr[:, None, :]
        else:
            # e = (raw + dot * w_r) + (r - tp)
            base = self.params["relation"][r] - anchor_proj
            raw += base[:, None, :]
            raw += dot[:, :, None] * wr[:, None, :]
        return -norm_forward(raw, self.p)

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        wr = self.params["relation_proj"][r]
        hp, h_raw, wh = self._project(h, wr)
        tp, t_raw, wt = self._project(t, wr)
        e = hp + self.params["relation"][r] - tp
        up = np.asarray(upstream, dtype=np.float64)[:, None]
        s = -norm_backward(e, self.p) * up  # [B, d]

        wr_s = np.sum(wr * s, axis=1, keepdims=True)  # (w_r . s)
        wh_h = np.sum(wh * h_raw, axis=1, keepdims=True)  # (w_h . h)
        wt_t = np.sum(wt * t_raw, axis=1, keepdims=True)  # (w_t . t)

        bag = GradientBag()
        # d e / d h = I + w_r w_h^T  (transposed action on s)
        bag.add("entity", h, s + wr_s * wh)
        bag.add("entity_proj", h, wr_s * h_raw)
        bag.add("entity", t, -(s + wr_s * wt))
        bag.add("entity_proj", t, -wr_s * t_raw)
        bag.add("relation", r, s)
        bag.add("relation_proj", r, (wh_h - wt_t) * s)
        return bag

    # -- constraints -----------------------------------------------------------
    def normalize(self, touched_entities: np.ndarray | None = None) -> None:
        """Clamp entity rows to the unit l2 ball (soft constraint of the paper)."""
        ent = self.params["entity"]
        if touched_entities is None:
            ent[...] = normalize_rows(ent)
        else:
            rows = np.unique(np.asarray(touched_entities, dtype=np.int64))
            ent[rows] = normalize_rows(ent[rows])
