"""Shared vector-norm forward/backward helpers for translational models.

Translational distance models score ``f = -||e||_p`` with ``p`` in {1, 2}
(Table III uses L1).  Both the norm and its subgradient are needed; the L2
norm is smoothed with a small epsilon to avoid division by zero at the
origin, and the L1 subgradient uses ``sign`` (zero at kinks), matching the
behaviour of the autodiff frameworks the paper used.
"""

from __future__ import annotations

import numpy as np

__all__ = ["norm_forward", "norm_backward", "check_p", "negated_norm_into"]

_EPS = 1e-12


def check_p(p: int) -> int:
    """Validate the norm order (only L1 and L2 are supported)."""
    if p not in (1, 2):
        raise ValueError(f"norm order p must be 1 or 2, got {p}")
    return p


def norm_forward(e: np.ndarray, p: int) -> np.ndarray:
    """``||e||_p`` along the last axis."""
    if p == 1:
        return np.sum(np.abs(e), axis=-1)
    return np.sqrt(np.sum(e**2, axis=-1) + _EPS)


def negated_norm_into(e: np.ndarray, p: int, out: np.ndarray) -> None:
    """``out = -||e||_p`` along the last axis, using ``e`` as scratch.

    The operations of ``-norm_forward(e, p)`` in the same order, done in
    place, so ``out`` holds the same bytes without any temporaries.
    """
    if p == 1:
        np.abs(e, out=e)
        np.sum(e, axis=-1, out=out)
    else:
        np.square(e, out=e)
        np.sum(e, axis=-1, out=out)
        out += _EPS
        np.sqrt(out, out=out)
    np.negative(out, out=out)


def norm_backward(e: np.ndarray, p: int) -> np.ndarray:
    """``d ||e||_p / d e`` along the last axis (same shape as ``e``)."""
    if p == 1:
        return np.sign(e)
    norms = np.sqrt(np.sum(e**2, axis=-1, keepdims=True) + _EPS)
    return e / norms
