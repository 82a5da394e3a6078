"""TransE (Bordes et al. 2013).

``f(h, r, t) = -||h + r - t||_p`` — a triple is plausible when the tail
embedding sits at the head embedding translated by the relation vector.
Entity embeddings are kept on the unit sphere after every update, as in the
original implementation.

Candidate scoring runs the shared row-blocked gather; scoring every
entity (:meth:`TransE._score_all`) gathers nothing: each query row meets
contiguous slices of the entity table through the same element-wise ops
and norm, so the scores equal ``score_candidates`` byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import (
    CANDIDATE_BLOCK_BYTES,
    KGEModel,
    residual_norm_scores,
    score_candidate_blocks,
    split_work,
)
from repro.models.initializers import xavier_uniform
from repro.models.norms import check_p, negated_norm_into, norm_backward, norm_forward
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

    def _query(self, anchors: np.ndarray, r: np.ndarray, mode: str) -> np.ndarray:
        """Per-row query: ``e = query - cand`` for tails, ``cand + query``
        for heads."""
        ent, rel = self.params["entity"], self.params["relation"]
        if mode == "tail":
            return ent[anchors] + rel[r]
        return rel[r] - ent[anchors]

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel on the shared row-blocked gather: the
        per-row query is folded into each gathered block in place before
        the norm, so no ``[B, C, d]`` temporary is ever allocated."""
        return score_candidate_blocks(
            candidates,
            [(self.params["entity"], self._query(anchors, r, mode))],
            residual_norm_scores(mode, self.p),
        )

    def _score_all(self, anchors: np.ndarray, r: np.ndarray, mode: str) -> np.ndarray:
        """All-entity scoring straight from the entity table.

        Work items are (query row, entity range) pairs, range-major so one
        table slice serves every row while cached.  A range holds one row's
        candidate byte budget of entities (1,024 at d = 64; the last takes
        the remainder).  Each item runs the candidate kernel's element-wise
        op into a reused buffer and its norm into the output row, so every
        score has the bytes :meth:`score_candidates` gives it.  Items are
        split over the helper thread (:func:`split_work`) unless the whole
        call fits one range.
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        b, n = len(anchors), self.n_entities
        out = np.empty((b, n), dtype=np.float64)
        ent = self.params["entity"]
        query = self._query(anchors, r, mode)
        width = max(1, CANDIDATE_BLOCK_BYTES // (self.dim * ent.itemsize))
        n_ranges = max(1, n // width)
        last = (n_ranges - 1) * width  # the last range: [last, n)

        def score_items(first: int, stop_item: int) -> None:
            buffer = np.empty((n - last, self.dim), dtype=ent.dtype)
            for i in range(first, stop_item):
                k, row = divmod(i, b)
                start = k * width
                stop = n if k == n_ranges - 1 else start + width
                e = buffer[: stop - start]
                if mode == "tail":
                    np.subtract(query[row], ent[start:stop], out=e)
                else:
                    np.add(ent[start:stop], query[row], out=e)
                negated_norm_into(e, self.p, out[row, start:stop])

        if b * n <= width:
            score_items(0, b * n_ranges)
        else:
            split_work(b * n_ranges, score_items)
        return out

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
