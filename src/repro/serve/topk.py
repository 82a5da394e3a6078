"""Vectorised filtered top-k scoring for link-prediction queries.

The serving counterpart of :mod:`repro.eval.ranking`: where the evaluator
ranks one *known* answer among all entities, :class:`TopKScorer` returns
the *best* ``k`` candidate entities for a query ``(h, r, ?)`` or
``(?, r, t)``.  Both use the same all-entity scoring paths
(:meth:`KGEModel.score_all_tails` / ``score_all_heads``) and the same
filtered-candidate masks (:mod:`repro.eval.filters`), so a served top-1 is
exactly the entity the offline protocol would rank first.

Top-k extraction is ``np.argpartition`` (O(E) per query) followed by a
sort of the ``k`` survivors — not a full O(E log E) sort per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import KGDataset
from repro.eval.filters import head_filter_masks, tail_filter_masks
from repro.models.base import KGEModel

__all__ = ["TopKResult", "TopKScorer"]


@dataclass
class TopKResult:
    """Ranked candidates for one query, best first.

    ``entities``/``scores`` may hold fewer than the requested ``k`` entries
    when filtering leaves fewer valid candidates.  A plain (unfrozen)
    dataclass on purpose: frozen ``__init__`` goes through
    ``object.__setattr__`` per field, which is measurable when a batched
    call constructs one result per row.
    """

    direction: str  # "tail" for (h, r, ?), "head" for (?, r, t)
    entities: np.ndarray  # int64 [<=k]
    scores: np.ndarray  # float64 [<=k]
    filtered: bool

    def to_json(self) -> dict[str, object]:
        """A JSON-safe dict (used by the HTTP layer).

        ``tolist()`` converts whole arrays at C speed — this sits on the
        per-request hot path.
        """
        return {
            "direction": self.direction,
            "entities": self.entities.tolist(),
            "scores": self.scores.tolist(),
            "filtered": self.filtered,
        }


class TopKScorer:
    """Batched top-k candidate retrieval over all entities.

    Parameters
    ----------
    model:
        Any :class:`KGEModel` (typically rebuilt from a snapshot).
    dataset:
        Supplies the known-triple filter indexes.  Optional; without it
        only unfiltered queries are possible.
    """

    def __init__(self, model: KGEModel, dataset: KGDataset | None = None) -> None:
        self.model = model
        self.dataset = dataset

    # -- public API ---------------------------------------------------------
    def top_tails(
        self,
        h: np.ndarray,
        r: np.ndarray,
        k: int,
        *,
        filtered: bool = True,
        keep: np.ndarray | None = None,
    ) -> list[TopKResult]:
        """Top-k tail candidates for each query ``(h[i], r[i], ?)``.

        ``keep[i]`` (optional) is an entity re-admitted past the filter —
        the evaluation semantics, where the queried true answer itself is
        never masked.
        """
        h = np.asarray(h, dtype=np.int64).ravel()
        r = np.asarray(r, dtype=np.int64).ravel()
        self._check_ids(h, self.model.n_entities, "head")
        self._check_ids(r, self.model.n_relations, "relation")
        scores = self.model.score_all_tails(h, r)
        masks = self._masks("tail", h, r, filtered)
        return self._extract("tail", scores, masks, keep, k, filtered)

    def top_heads(
        self,
        r: np.ndarray,
        t: np.ndarray,
        k: int,
        *,
        filtered: bool = True,
        keep: np.ndarray | None = None,
    ) -> list[TopKResult]:
        """Top-k head candidates for each query ``(?, r[i], t[i])``."""
        r = np.asarray(r, dtype=np.int64).ravel()
        t = np.asarray(t, dtype=np.int64).ravel()
        self._check_ids(t, self.model.n_entities, "tail")
        self._check_ids(r, self.model.n_relations, "relation")
        scores = self.model.score_all_heads(r, t)
        masks = self._masks("head", r, t, filtered)
        return self._extract("head", scores, masks, keep, k, filtered)

    # -- internals ----------------------------------------------------------
    @staticmethod
    def _check_ids(ids: np.ndarray, bound: int, kind: str) -> None:
        if len(ids) and (ids.min() < 0 or ids.max() >= bound):
            raise ValueError(f"{kind} id out of range [0, {bound})")

    def _masks(
        self, direction: str, a: np.ndarray, b: np.ndarray, filtered: bool
    ) -> list[np.ndarray] | None:
        if not filtered:
            return None
        if self.dataset is None:
            raise ValueError("filtered queries need a dataset with filter indexes")
        if direction == "tail":
            return tail_filter_masks(self.dataset, a, b)
        return head_filter_masks(self.dataset, a, b)

    def _extract(
        self,
        direction: str,
        scores: np.ndarray,
        masks: list[np.ndarray] | None,
        keep: np.ndarray | None,
        k: int,
        filtered: bool,
    ) -> list[TopKResult]:
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        scores = np.asarray(scores, dtype=np.float64)
        n = scores.shape[1]
        if masks is not None:
            # One flat fancy assignment for the whole batch instead of a
            # per-row loop — the mask write is on the serving hot path.
            lengths = [len(cols) for cols in masks]
            if any(lengths):
                scores = scores.copy()
                rows = np.repeat(np.arange(len(masks)), lengths)
                cols = np.concatenate([c for c in masks if len(c)])
                kept = None
                if keep is not None:
                    keep = np.asarray(keep, dtype=np.int64).ravel()
                    kept = scores[np.arange(len(masks)), keep].copy()
                scores[rows, cols] = -np.inf
                if kept is not None:
                    scores[np.arange(len(masks)), keep] = kept
        neg = -scores  # negate once; argpartition/argsort both want ascending
        kk = min(int(k), n)
        rows = np.arange(len(scores))[:, None]
        if kk < n:
            # Ascending-id order inside the partition + a stable sort below
            # makes the result deterministic; ties *within* the partition
            # break toward the lowest entity id (ties spanning the
            # partition boundary keep whichever members argpartition
            # selected).
            part = np.sort(np.argpartition(neg, kk - 1, axis=1)[:, :kk], axis=1)
        else:
            part = np.broadcast_to(np.arange(n), scores.shape)
        # Broadcast fancy indexing beats take_along_axis (which rebuilds a
        # full index grid per call) on this hot path.
        part_neg = neg[rows, part]
        order = np.argsort(part_neg, axis=1, kind="stable")
        top = part[rows, order].astype(np.int64, copy=False)
        top_scores = -part_neg[rows, order]
        # Masked candidates sit at -inf, sorted to the tail of each row;
        # counting finite entries once replaces a per-row isfinite scan.
        valid_counts = np.sum(np.isfinite(top_scores), axis=1)
        return [
            TopKResult(
                direction=direction,
                entities=top[i, : valid_counts[i]],
                scores=top_scores[i, : valid_counts[i]],
                filtered=filtered,
            )
            for i in range(len(scores))
        ]
