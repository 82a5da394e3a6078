"""ComplEx (Trouillon et al. 2016).

Embeddings are complex vectors; ``f = Re(<h, r, conj(t)>)``.  The imaginary
parts break DistMult's symmetry, so asymmetric relations become modellable.
Stored as four real tables (entity/relation x real/imaginary), with the real
expansion

``f = sum(h_re r_re t_re + h_im r_re t_im + h_re r_im t_im - h_im r_im t_re)``.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, score_candidate_blocks
from repro.models.initializers import xavier_uniform
from repro.models.params import GradientBag

__all__ = ["ComplEx"]


class ComplEx(KGEModel):
    """Complex-valued bilinear semantic matching model."""

    default_loss = "logistic"
    entity_params = ("entity_re", "entity_im")
    relation_params = ("relation_re", "relation_im")

    def _init_params(self, rng: np.random.Generator) -> None:
        shape_e = (self.n_entities, self.dim)
        shape_r = (self.n_relations, self.dim)
        self.params["entity_re"] = xavier_uniform(shape_e, rng)
        self.params["entity_im"] = xavier_uniform(shape_e, rng)
        self.params["relation_re"] = xavier_uniform(shape_r, rng)
        self.params["relation_im"] = xavier_uniform(shape_r, rng)

    # -- internals -------------------------------------------------------------
    def _gather(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        p = self.params
        return (
            p["entity_re"][h], p["entity_im"][h],
            p["relation_re"][r], p["relation_im"][r],
            p["entity_re"][t], p["entity_im"][t],
        )

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        h_re, h_im, r_re, r_im, t_re, t_im = self._gather(h, r, t)
        return np.sum(
            h_re * r_re * t_re
            + h_im * r_re * t_im
            + h_re * r_im * t_im
            - h_im * r_im * t_re,
            axis=-1,
        )

    def _tail_query(self, h: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (A, B) with f(t) = A . t_re + B . t_im."""
        p = self.params
        h_re, h_im = p["entity_re"][h], p["entity_im"][h]
        r_re, r_im = p["relation_re"][r], p["relation_im"][r]
        return h_re * r_re - h_im * r_im, h_im * r_re + h_re * r_im

    def _head_query(self, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (C, D) with f(h) = C . h_re + D . h_im."""
        p = self.params
        t_re, t_im = p["entity_re"][t], p["entity_im"][t]
        r_re, r_im = p["relation_re"][r], p["relation_im"][r]
        return r_re * t_re + r_im * t_im, r_re * t_im - r_im * t_re

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: the complex query coefficients are built
        once per row, then the block is scored against the real and
        imaginary tables by the shared row-blocked kernel."""
        if mode == "tail":
            a, b = self._tail_query(anchors, r)
        else:
            a, b = self._head_query(r, anchors)
        p = self.params
        return score_candidate_blocks(
            candidates, [(p["entity_re"], a), (p["entity_im"], b)]
        )

    def score_all_tails(self, h: np.ndarray, r: np.ndarray, chunk: int = 64) -> np.ndarray:
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        a, b = self._tail_query(h, r)
        return a @ self.params["entity_re"].T + b @ self.params["entity_im"].T

    def score_all_heads(self, r: np.ndarray, t: np.ndarray, chunk: int = 64) -> np.ndarray:
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        c, d = self._head_query(r, t)
        return c @ self.params["entity_re"].T + d @ self.params["entity_im"].T

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        h_re, h_im, r_re, r_im, t_re, t_im = self._gather(h, r, t)
        up = np.asarray(upstream, dtype=np.float64)[:, None]
        bag = GradientBag()
        bag.add("entity_re", h, up * (r_re * t_re + r_im * t_im))
        bag.add("entity_im", h, up * (r_re * t_im - r_im * t_re))
        bag.add("relation_re", r, up * (h_re * t_re + h_im * t_im))
        bag.add("relation_im", r, up * (h_re * t_im - h_im * t_re))
        bag.add("entity_re", t, up * (h_re * r_re - h_im * r_im))
        bag.add("entity_im", t, up * (h_im * r_re + h_re * r_im))
        return bag
