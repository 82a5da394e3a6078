"""HolE (Nickel et al. 2016) — extension beyond the paper's five models.

Holographic embeddings score with circular correlation:

``f(h, r, t) = r . (h ⋆ t)``, ``(h ⋆ t)_k = sum_i h_i t_{(k+i) mod d}``.

Computed in O(d log d) via FFT.  The analytic gradients follow from the
index algebra (verified by the gradient-check tests):

* ``df/dr = h ⋆ t``  (circular correlation)
* ``df/dh = r ⋆ t``  (circular correlation)
* ``df/dt = r ∗ h``  (circular convolution)
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel, score_candidate_blocks
from repro.models.initializers import xavier_uniform
from repro.models.params import GradientBag

__all__ = ["HolE"]


def _ccorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular correlation along the last axis via FFT."""
    return np.fft.irfft(np.conj(np.fft.rfft(a)) * np.fft.rfft(b), n=a.shape[-1])


def _cconv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular convolution along the last axis via FFT."""
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=a.shape[-1])


class HolE(KGEModel):
    """Holographic (circular-correlation) semantic matching model."""

    default_loss = "logistic"
    entity_params = ("entity",)
    relation_params = ("relation",)

    def _init_params(self, rng: np.random.Generator) -> None:
        self.params["entity"] = xavier_uniform((self.n_entities, self.dim), rng)
        self.params["relation"] = xavier_uniform((self.n_relations, self.dim), rng)

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        ent, rel = self.params["entity"], self.params["relation"]
        return np.sum(rel[r] * _ccorr(ent[h], ent[t]), axis=-1)

    def _query(self, anchors: np.ndarray, r: np.ndarray, mode: str) -> np.ndarray:
        """Per-row coefficients ``q`` with ``f = q . candidate``; ``[B, d]``.

        ``f`` is linear in either entity, so one FFT per row gives the
        linear form of the circular op: ``f(t) = (r conv h) . t`` and
        ``f(h) = (r ccorr t) . h``.
        """
        ent, rel = self.params["entity"], self.params["relation"]
        op = _cconv if mode == "tail" else _ccorr
        return op(rel[r], ent[anchors])

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: one FFT query per row, block scored by
        the shared row-blocked matmul kernel."""
        query = self._query(anchors, r, mode)
        return score_candidate_blocks(candidates, [(self.params["entity"], query)])

    def score_all_tails(self, h: np.ndarray, r: np.ndarray, chunk: int = 64) -> np.ndarray:
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        return self._query(h, r, "tail") @ self.params["entity"].T

    def score_all_heads(self, r: np.ndarray, t: np.ndarray, chunk: int = 64) -> np.ndarray:
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        return self._query(t, r, "head") @ self.params["entity"].T

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        ent, rel = self.params["entity"], self.params["relation"]
        eh, er, et = ent[h], rel[r], ent[t]
        up = np.asarray(upstream, dtype=np.float64)[:, None]
        bag = GradientBag()
        bag.add("relation", r, up * _ccorr(eh, et))
        bag.add("entity", h, up * _ccorr(er, et))
        bag.add("entity", t, up * _cconv(er, eh))
        return bag
