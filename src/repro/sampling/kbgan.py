"""KBGAN (Cai & Wang 2018) — GAN-based negative sampling baseline.

The generator is a separate embedding model (the paper uses TransE, §IV-B1).
For each positive, ``candidate_size`` entities are drawn uniformly to form
the set ``Neg``; the generator softmaxes its scores over ``Neg`` and samples
one — that entity corrupts the triple.  The discriminator (the target KG
embedding model) trains on the chosen negative as usual, while the generator
is trained by REINFORCE: the reward is the discriminator's score of the
chosen negative (a high-scoring negative confused the discriminator), with
a moving-average baseline for variance reduction.

This reproduces the properties the paper attributes to KBGAN: extra
generator parameters (Table I), REINFORCE's high-variance gradients, and
the resulting sensitivity to pretraining (§IV-B3/B4).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import KGDataset
from repro.data.triples import HEAD, REL, TAIL
from repro.models.base import KGEModel
from repro.models.transe import TransE
from repro.optim.adam import Adam
from repro.sampling.base import NegativeSampler

__all__ = ["KBGANSampler"]


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilisation."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class KBGANSampler(NegativeSampler):
    """GAN negative sampler over a uniformly drawn candidate set."""

    name = "KBGAN"

    def __init__(
        self,
        *,
        candidate_size: int = 50,
        generator_dim: int | None = None,
        generator_lr: float = 0.001,
        baseline_momentum: float = 0.9,
        bernoulli: bool = True,
    ) -> None:
        super().__init__(bernoulli=bernoulli)
        if candidate_size <= 0:
            raise ValueError(f"candidate_size must be > 0, got {candidate_size}")
        self.candidate_size = int(candidate_size)
        self.generator_dim = generator_dim
        self.generator_lr = float(generator_lr)
        self.baseline_momentum = float(baseline_momentum)
        self.generator: KGEModel | None = None
        self._gen_optimizer: Adam | None = None
        self._baseline = 0.0
        self._baseline_initialised = False
        # Per-batch context saved between sample() and update().
        self._last: dict[str, np.ndarray] | None = None
        # Warm-start request recorded before bind() (pretrain protocol).
        self._pending_warm_start: KGEModel | None = None

    # -- lifecycle ------------------------------------------------------------
    def bind(
        self,
        model: KGEModel,
        dataset: KGDataset,
        rng: np.random.Generator | int | None = None,
    ) -> "KBGANSampler":
        super().bind(model, dataset, rng)
        dim = int(self.generator_dim or model.dim)
        self.generator = TransE(
            dataset.n_entities,
            dataset.n_relations,
            dim,
            rng=self.rng.integers(2**31 - 1),
        )
        self._gen_optimizer = Adam(self.generator_lr)
        self._baseline = 0.0
        self._baseline_initialised = False
        if self._pending_warm_start is not None:
            self._copy_tables(self._pending_warm_start)
        return self

    def warm_start_generator(self, pretrained: KGEModel) -> None:
        """Copy a pretrained model's tables into the generator (paper §IV-B1).

        May be called before :meth:`bind`, in which case the copy is applied
        when the generator is created (the trainer re-binds samplers).
        """
        if self.generator is None:
            self._pending_warm_start = pretrained
            return
        self._pending_warm_start = pretrained
        self._copy_tables(pretrained)

    def _copy_tables(self, pretrained: KGEModel) -> None:
        assert self.generator is not None
        for name in ("entity", "relation"):
            if (
                name in pretrained.params
                and pretrained.params[name].shape == self.generator.params[name].shape
            ):
                self.generator.params[name][...] = pretrained.params[name]

    # -- sampling ---------------------------------------------------------------
    def sample(self, batch: np.ndarray, rows: object = None) -> np.ndarray:
        self._require_bound()
        assert self.generator is not None
        batch = np.asarray(batch, dtype=np.int64)
        b = len(batch)
        candidates = self.rng.integers(
            0, self.dataset.n_entities, size=(b, self.candidate_size), dtype=np.int64
        )
        head_mask = self.choose_head_corruption(batch[:, REL])

        scores = np.empty((b, self.candidate_size), dtype=np.float64)
        if head_mask.any():
            sel = np.flatnonzero(head_mask)
            scores[sel] = self.generator.score_candidates(
                batch[sel, TAIL], batch[sel, REL], candidates[sel], "head"
            )
        if (~head_mask).any():
            sel = np.flatnonzero(~head_mask)
            scores[sel] = self.generator.score_candidates(
                batch[sel, HEAD], batch[sel, REL], candidates[sel], "tail"
            )
        probs = _softmax(scores)
        # Vectorised categorical sampling via inverse CDF.
        cdf = np.cumsum(probs, axis=1)
        u = self.rng.random((b, 1))
        chosen = np.minimum(
            (u > cdf).sum(axis=1), self.candidate_size - 1
        ).astype(np.int64)

        negatives = batch.copy()
        picked = candidates[np.arange(b), chosen]
        negatives[head_mask, HEAD] = picked[head_mask]
        negatives[~head_mask, TAIL] = picked[~head_mask]
        self._last = {
            "batch": batch,
            "candidates": candidates,
            "probs": probs,
            "chosen": chosen,
            "head_mask": head_mask,
        }
        return negatives

    # -- generator REINFORCE step -------------------------------------------------
    def update(
        self, batch: np.ndarray, negatives: np.ndarray, rows: object = None
    ) -> None:
        if self._last is None:
            return
        assert self.generator is not None and self._gen_optimizer is not None
        ctx = self._last
        self._last = None
        b, n = ctx["candidates"].shape

        rewards = self.model.score_triples(negatives)  # discriminator's view
        if not self._baseline_initialised:
            self._baseline = float(np.mean(rewards))
            self._baseline_initialised = True
        advantage = rewards - self._baseline
        self._baseline = (
            self.baseline_momentum * self._baseline
            + (1.0 - self.baseline_momentum) * float(np.mean(rewards))
        )

        # d log p(chosen) / d score_j = 1[j == chosen] - p_j; REINFORCE ascends
        # advantage * log p, and the optimiser descends, hence the minus sign.
        coeff = -ctx["probs"].copy()
        coeff[np.arange(b), ctx["chosen"]] += 1.0
        upstream = -(advantage[:, None] * coeff)  # [B, N]

        heads = np.repeat(ctx["batch"][:, HEAD], n).reshape(b, n)
        tails = np.repeat(ctx["batch"][:, TAIL], n).reshape(b, n)
        head_mask = ctx["head_mask"]
        heads[head_mask] = ctx["candidates"][head_mask]
        tails[~head_mask] = ctx["candidates"][~head_mask]
        rels = np.repeat(ctx["batch"][:, REL], n)

        bag = self.generator.grad(
            heads.ravel(), rels, tails.ravel(), upstream.ravel()
        )
        self._gen_optimizer.step(self.generator.params, bag)
        self.generator.normalize(bag.touched_rows("entity"))
