"""Link prediction: the paper's primary evaluation task (§IV-A2).

For every test triple ``(h, r, t)``, rank the true tail among all entities
scored as ``(h, r, ?)`` and the true head among all ``(?, r, t)``.  Metrics
(§IV-A3): mean reciprocal rank (MRR), mean rank (MR) and Hits@k.  In the
"filtered" setting every *other* known-true entity is removed from the
candidate list before ranking, so a model is not punished for ranking a
different correct answer above the queried one.

Ties are scored with the *average* rank (mean of optimistic and
pessimistic), which prevents constant-score models from appearing perfect.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import KGDataset
from repro.data.triples import HEAD, REL, TAIL
from repro.eval.filters import head_filter_masks, tail_filter_masks
from repro.models.base import KGEModel
from repro.obs.registry import MetricsRegistry

__all__ = [
    "RankingResult",
    "link_prediction",
    "rank_scores",
    "record_eval_counters",
]


@dataclass
class RankingResult:
    """Per-query ranks plus the aggregate metrics computed from them."""

    ranks: np.ndarray  # float ranks (average tie policy), head+tail queries
    hits_at: tuple[int, ...] = (1, 3, 10)
    metrics: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        ranks = np.asarray(self.ranks, dtype=np.float64)
        if len(ranks) == 0:
            # NaN, not 0.0: an MR of 0.0 beats the theoretical optimum of
            # 1.0, so a minimize-style early stopper on an empty split
            # would lock onto the bogus value forever.  NaN compares
            # False against everything, which "no data" should.
            self.metrics = {"mrr": float("nan"), "mr": float("nan")}
            self.metrics.update({f"hits@{k}": float("nan") for k in self.hits_at})
            return
        self.metrics = {
            "mrr": float(np.mean(1.0 / ranks)),
            "mr": float(np.mean(ranks)),
        }
        for k in self.hits_at:
            self.metrics[f"hits@{k}"] = float(np.mean(ranks <= k))

    @property
    def mrr(self) -> float:
        """Mean reciprocal rank."""
        return self.metrics["mrr"]

    @property
    def mr(self) -> float:
        """Mean rank."""
        return self.metrics["mr"]

    def hits(self, k: int) -> float:
        """Hits@k (fraction of queries ranked in the top k)."""
        return self.metrics[f"hits@{k}"]

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.4f}" for k, v in self.metrics.items())
        return f"RankingResult({parts}, n={len(self.ranks)})"


def rank_scores(
    scores: np.ndarray, true_cols: np.ndarray, mask_cols: list[np.ndarray] | None
) -> np.ndarray:
    """Average-tie ranks of ``scores[i, true_cols[i]]`` within each row.

    ``mask_cols[i]`` lists candidate columns to exclude (the filtered
    setting); the true column is never excluded.  The masks are written
    in one flat fancy assignment, as in ``TopKScorer._extract``, and
    ``scores`` is copied only when some mask is non-empty.
    """
    scores = np.asarray(scores, dtype=np.float64)
    b = len(scores)
    rows = np.arange(b)
    true_scores = scores[rows, true_cols].copy()
    if mask_cols is not None:
        lengths = [len(cols) for cols in mask_cols]
        if any(lengths):
            scores = scores.copy()
            scores[
                np.repeat(rows, lengths),
                np.concatenate([cols for cols in mask_cols if len(cols)]),
            ] = -np.inf
            scores[rows, true_cols] = true_scores
    greater = np.sum(scores > true_scores[:, None], axis=1)
    ties = np.sum(scores == true_scores[:, None], axis=1) - 1  # exclude self
    return 1.0 + greater + 0.5 * ties


def record_eval_counters(
    metrics: MetricsRegistry,
    *,
    protocol: str,
    queries: int,
    candidates: int,
    batches: int,
    seconds: float,
) -> None:
    """Fold one evaluation pass into the shared eval phase counters.

    Both the full and sampled evaluators report here, so dashboards can
    compare the two protocols' query volume and cost under one metric
    family, split by the ``protocol`` label.
    """
    labels = {"protocol": protocol}
    metrics.counter(
        "eval_queries_total", "ranked link-prediction queries", labels=labels
    ).inc(queries)
    metrics.counter(
        "eval_candidates_scored_total",
        "candidate entities scored during evaluation",
        labels=labels,
    ).inc(candidates)
    metrics.counter(
        "eval_batches_total", "evaluation batches processed", labels=labels
    ).inc(batches)
    metrics.counter(
        "eval_seconds_total", "evaluation wall seconds", labels=labels
    ).inc(seconds)


def link_prediction(
    model: KGEModel,
    dataset: KGDataset,
    split: str = "test",
    *,
    filtered: bool = True,
    batch_size: int = 128,
    hits_at: tuple[int, ...] = (1, 3, 10),
    metrics: MetricsRegistry | None = None,
) -> RankingResult:
    """Evaluate link prediction over both head and tail queries.

    Parameters
    ----------
    split:
        ``"test"``, ``"valid"`` or ``"train"`` (the latter for diagnostics).
    filtered:
        Apply the filtered protocol (all corrupted triples existing in any
        split are removed, §IV-A3).
    metrics:
        Optional registry; when given, the evaluator counts queries,
        scored candidates, batches and wall seconds under
        ``protocol="full"`` labels.
    """
    triples = getattr(dataset, split)
    started = time.perf_counter()
    all_ranks: list[np.ndarray] = []
    for start in range(0, len(triples), batch_size):
        batch = triples[start : start + batch_size]
        h, r, t = batch[:, HEAD], batch[:, REL], batch[:, TAIL]

        tail_scores = model.score_all_tails(h, r)
        tail_mask = tail_filter_masks(dataset, h, r) if filtered else None
        all_ranks.append(rank_scores(tail_scores, t, tail_mask))

        head_scores = model.score_all_heads(r, t)
        head_mask = head_filter_masks(dataset, r, t) if filtered else None
        all_ranks.append(rank_scores(head_scores, h, head_mask))
    ranks = np.concatenate(all_ranks) if all_ranks else np.empty(0)
    if metrics is not None:
        record_eval_counters(
            metrics,
            protocol="full",
            queries=2 * len(triples),
            candidates=2 * len(triples) * dataset.n_entities,
            batches=-(-len(triples) // batch_size) if len(triples) else 0,
            seconds=time.perf_counter() - started,
        )
    return RankingResult(ranks=ranks, hits_at=hits_at)
