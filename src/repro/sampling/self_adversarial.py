"""Self-adversarial negative sampling (Sun et al. 2019) — extension.

A later, GAN-free competitor to NSCaching: draw ``candidate_size`` uniform
candidates and sample one with probability ``softmax(alpha * f_D)`` using
the *discriminator's own* scores (no generator, no REINFORCE).  Included as
an extension benchmark because it occupies the same design point the paper
argues for — hard negatives without adversarial training — but without a
cache, so every batch pays the scoring cost on fresh candidates.
"""

from __future__ import annotations

import numpy as np

from repro.data.triples import HEAD, REL, TAIL
from repro.sampling.base import NegativeSampler

__all__ = ["SelfAdversarialSampler"]


class SelfAdversarialSampler(NegativeSampler):
    """Score-weighted sampling from fresh uniform candidates."""

    name = "SelfAdv"

    def __init__(
        self,
        *,
        candidate_size: int = 50,
        alpha: float = 1.0,
        bernoulli: bool = True,
    ) -> None:
        super().__init__(bernoulli=bernoulli)
        if candidate_size <= 0:
            raise ValueError(f"candidate_size must be > 0, got {candidate_size}")
        if alpha <= 0:
            raise ValueError(f"alpha (temperature) must be > 0, got {alpha}")
        self.candidate_size = int(candidate_size)
        self.alpha = float(alpha)

    def sample(self, batch: np.ndarray, rows: object = None) -> np.ndarray:
        self._require_bound()
        batch = np.asarray(batch, dtype=np.int64)
        b = len(batch)
        candidates = self.rng.integers(
            0, self.dataset.n_entities, size=(b, self.candidate_size), dtype=np.int64
        )
        head_mask = self.choose_head_corruption(batch[:, REL])

        scores = np.empty((b, self.candidate_size), dtype=np.float64)
        if head_mask.any():
            rows = np.flatnonzero(head_mask)
            scores[rows] = self.model.score_candidates(
                batch[rows, TAIL], batch[rows, REL], candidates[rows], "head"
            )
        if (~head_mask).any():
            rows = np.flatnonzero(~head_mask)
            scores[rows] = self.model.score_candidates(
                batch[rows, HEAD], batch[rows, REL], candidates[rows], "tail"
            )

        logits = self.alpha * scores
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        u = self.rng.random((b, 1))
        chosen = np.minimum((u > cdf).sum(axis=1), self.candidate_size - 1)
        picked = candidates[np.arange(b), chosen.astype(np.int64)]

        negatives = batch.copy()
        negatives[head_mask, HEAD] = picked[head_mask]
        negatives[~head_mask, TAIL] = picked[~head_mask]
        return negatives
