"""RotatE (Sun et al. 2019) — extension beyond the paper's five models.

Entities are complex vectors; each relation is an element-wise *rotation*
``r = exp(i theta_r)`` on the complex plane:

``f(h, r, t) = -|| h o r - t ||``

where ``o`` is element-wise complex multiplication and the norm runs over
the real and imaginary parts.  Rotations model symmetry/antisymmetry,
inversion and composition — the relation patterns the later literature
benchmarks — and RotatE is the model the self-adversarial sampler
(:mod:`repro.sampling.self_adversarial`) was introduced with, making the
pair a natural extension experiment.

Stored parameters: ``entity_re``/``entity_im`` ``[E, d]`` and the rotation
phases ``phase`` ``[R, d]`` (one angle per dimension — relations have
exactly ``d`` parameters, like TransE).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import KGEModel
from repro.models.initializers import xavier_uniform
from repro.models.norms import check_p, norm_backward, norm_forward
from repro.models.params import GradientBag

__all__ = ["RotatE"]


class RotatE(KGEModel):
    """Complex-rotation translational model."""

    default_loss = "margin"
    entity_params = ("entity_re", "entity_im")
    relation_params = ("phase",)

    def __init__(
        self,
        n_entities: int,
        n_relations: int,
        dim: int,
        rng: np.random.Generator | int | None = None,
        *,
        p: int = 2,
    ) -> None:
        self.p = check_p(p)
        super().__init__(n_entities, n_relations, dim, rng)

    def _init_params(self, rng: np.random.Generator) -> None:
        shape_e = (self.n_entities, self.dim)
        self.params["entity_re"] = xavier_uniform(shape_e, rng)
        self.params["entity_im"] = xavier_uniform(shape_e, rng)
        self.params["phase"] = rng.uniform(-np.pi, np.pi, size=(self.n_relations, self.dim))

    # -- internals -------------------------------------------------------------
    def _residual(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(e, h_re, h_im, cos, sin)`` with ``e = [e_re | e_im]``.

        ``e_re = h_re cos - h_im sin - t_re`` and
        ``e_im = h_re sin + h_im cos - t_im``, concatenated so the shared
        norm helpers see one ``[B, 2d]`` residual.
        """
        p = self.params
        h_re, h_im = p["entity_re"][h], p["entity_im"][h]
        theta = p["phase"][r]
        cos, sin = np.cos(theta), np.sin(theta)
        e_re = h_re * cos - h_im * sin - p["entity_re"][t]
        e_im = h_re * sin + h_im * cos - p["entity_im"][t]
        return np.concatenate([e_re, e_im], axis=1), h_re, h_im, cos, sin

    # -- forward -------------------------------------------------------------
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        e, *_ = self._residual(h, r, t)
        return -norm_forward(e, self.p)

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Fused candidate kernel: both residual halves are written straight
        into one ``[B, C, 2d]`` buffer (no per-half temporaries or final
        concatenate copy)."""
        p = self.params
        theta = p["phase"][r]
        cos, sin = np.cos(theta), np.sin(theta)
        c_re = p["entity_re"][candidates]  # [B, C, d]
        c_im = p["entity_im"][candidates]
        b, c = candidates.shape
        e = np.empty((b, c, 2 * self.dim))
        e_re, e_im = e[:, :, : self.dim], e[:, :, self.dim :]
        if mode == "tail":
            # Rotate the anchor head once per row; e = (h o r) - cand.
            h_re, h_im = p["entity_re"][anchors], p["entity_im"][anchors]
            rot_re = h_re * cos - h_im * sin
            rot_im = h_re * sin + h_im * cos
            np.subtract(rot_re[:, None, :], c_re, out=e_re)
            np.subtract(rot_im[:, None, :], c_im, out=e_im)
        else:
            # Rotate every candidate forward; e = (cand o r) - t.
            np.multiply(c_re, cos[:, None, :], out=e_re)
            e_re -= c_im * sin[:, None, :]
            e_re -= p["entity_re"][anchors][:, None, :]
            np.multiply(c_re, sin[:, None, :], out=e_im)
            e_im += c_im * cos[:, None, :]
            e_im -= p["entity_im"][anchors][:, None, :]
        return -norm_forward(e, self.p)

    # -- backward ------------------------------------------------------------
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        e, h_re, h_im, cos, sin = self._residual(h, r, t)
        up = np.asarray(upstream, dtype=np.float64)[:, None]
        s = -norm_backward(e, self.p) * up  # [B, 2d]
        s_re, s_im = s[:, : self.dim], s[:, self.dim :]

        bag = GradientBag()
        # de_re/dh_re = cos, de_im/dh_re = sin, etc.
        bag.add("entity_re", h, s_re * cos + s_im * sin)
        bag.add("entity_im", h, -s_re * sin + s_im * cos)
        bag.add("entity_re", t, -s_re)
        bag.add("entity_im", t, -s_im)
        # de_re/dtheta = -h_re sin - h_im cos; de_im/dtheta = h_re cos - h_im sin.
        d_theta = s_re * (-h_re * sin - h_im * cos) + s_im * (h_re * cos - h_im * sin)
        bag.add("phase", r, d_theta)
        return bag
