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

from repro.models.base import (
    KGEModel,
    candidate_block_rows,
    check_gather_ids,
    split_row_blocks,
)
from repro.models.initializers import xavier_uniform
from repro.models.norms import (
    check_p,
    negated_norm_into,
    norm_backward,
    norm_forward,
)
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
        """Row-blocked candidate kernel: a few rows at a time, both tables
        are gathered into two reused ``[rows, C, d]`` halves, combined into
        one reused ``[rows, C, 2d]`` residual and reduced in place — the
        element-wise ops of the unblocked residual, so the same bytes.
        The block rows fit the residual to the byte budget; the halves
        take as much again (fitting all three was slower)."""
        p = self.params
        ent_re, ent_im = p["entity_re"], p["entity_im"]
        theta = p["phase"][r]
        cos, sin = np.cos(theta), np.sin(theta)
        if mode == "tail":
            # Rotate the anchor head once per row; e = (h o r) - cand.
            h_re, h_im = ent_re[anchors], ent_im[anchors]
            rot_re = h_re * cos - h_im * sin
            rot_im = h_re * sin + h_im * cos
        else:
            # Rotate every candidate forward; e = (cand o r) - t.
            t_re, t_im = ent_re[anchors], ent_im[anchors]
        check_gather_ids(candidates, self.n_entities)
        b, c = candidates.shape
        d = self.dim
        step = candidate_block_rows(c, 2 * d)
        out = np.empty((b, c), dtype=np.float64)

        def score_rows(begin: int, end: int) -> None:
            rows = min(step, end - begin)
            buffer = np.empty((rows, c, 2 * d))
            re_buffer, im_buffer = np.empty((rows, c, d)), np.empty((rows, c, d))
            for start in range(begin, end, step):
                stop = min(start + step, end)
                ids = candidates[start:stop]
                e = buffer[: stop - start]
                e_re, e_im = e[:, :, :d], e[:, :, d:]
                c_re, c_im = re_buffer[: stop - start], im_buffer[: stop - start]
                np.take(ent_re, ids, axis=0, out=c_re, mode="wrap")
                np.take(ent_im, ids, axis=0, out=c_im, mode="wrap")
                if mode == "tail":
                    np.subtract(rot_re[start:stop, None, :], c_re, out=e_re)
                    np.subtract(rot_im[start:stop, None, :], c_im, out=e_im)
                else:
                    cos_b, sin_b = cos[start:stop, None, :], sin[start:stop, None, :]
                    np.multiply(c_re, cos_b, out=e_re)
                    np.multiply(c_re, sin_b, out=e_im)
                    np.multiply(c_im, sin_b, out=c_re)  # c_re is free now
                    e_re -= c_re
                    e_re -= t_re[start:stop, None, :]
                    np.multiply(c_im, cos_b, out=c_im)
                    e_im += c_im
                    e_im -= t_im[start:stop, None, :]
                negated_norm_into(e, self.p, out[start:stop])

        split_row_blocks(b, step, score_rows)
        return out

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
