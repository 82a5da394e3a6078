"""The scoring-model interface shared by all KG embedding models.

A model owns its parameter tables and exposes three things:

* **forward**: :meth:`KGEModel.score` — plausibility ``f(h, r, t)`` of a
  batch of triples (higher = more plausible; translational models return
  the *negated* distance, see DESIGN.md §6);
* **backward**: :meth:`KGEModel.grad` — the analytic gradient of
  ``sum(upstream * f)`` w.r.t. every touched parameter row, returned as a
  :class:`~repro.models.params.GradientBag` (this is what PyTorch autodiff
  provided in the paper's code; here every formula is hand-derived and
  verified against finite differences in the test suite);
* **bulk scoring**: :meth:`score_tails` / :meth:`score_all_tails` (and the
  head-side twins) used by the cache update (Alg. 3 step 4), KBGAN/IGAN
  generators, and the link-prediction evaluator.  The base class provides
  correct broadcast implementations; subclasses override them with faster
  closed forms where available;
* **fused candidate scoring**: :meth:`KGEModel.score_candidates` — one
  validated entry point for scoring a ``[B, C]`` candidate block against
  per-row ``(anchor, relation)`` queries, the primitive the NSCaching
  refresh (Alg. 3 step 4) is built on.  Validation and dispatch live in
  the base class; models override the :meth:`_score_candidates_impl`
  kernel hook with fused per-family kernels (see the conformance suite in
  ``tests/models/test_conformance.py`` for the contract they must honour).
  The bilinear family shares one row-blocked kernel,
  :func:`score_candidate_blocks`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.models.params import GradientBag
from repro.utils.rng import ensure_rng

__all__ = [
    "CANDIDATE_MODES",
    "KGEModel",
    "candidate_block_rows",
    "score_candidate_blocks",
]

#: Corruption modes understood by :meth:`KGEModel.score_candidates`:
#: ``"tail"`` scores ``(anchor, r, candidate)``; ``"head"`` scores
#: ``(candidate, r, anchor)``.
CANDIDATE_MODES: tuple[str, ...] = ("head", "tail")

#: Bytes of one gathered ``[rows, C, d]`` candidate block: small enough to
#: stay in a core's L2 cache next to the tables it was gathered from, so
#: the matvec that scores it never goes back to main memory.
CANDIDATE_BLOCK_BYTES = 1 << 19


def candidate_block_rows(n_candidates: int, width: int, itemsize: int = 8) -> int:
    """Rows of a ``[B, n_candidates]`` block that one gather covers (>= 1)."""
    return max(1, CANDIDATE_BLOCK_BYTES // (n_candidates * width * itemsize))


def score_candidate_blocks(
    candidates: np.ndarray, terms: Sequence[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """``out[b, c] = sum_k tables_k[candidates[b, c]] . queries_k[b]``.

    The shared kernel of the bilinear family: each ``(table, query)`` term
    pairs an ``[n, d]`` entity table with ``[B, d]`` per-row queries.
    ``candidates`` is a non-empty ``[B, C]`` id block (the validated input
    of :meth:`KGEModel.score_candidates`).
    Rather than gathering the whole ``[B, C, d]`` block at once, a few
    rows (:func:`candidate_block_rows`) are gathered into one reused
    buffer and scored while still cache-resident.  Each row's matvec is
    the same BLAS call as over the full block, so the scores are
    byte-identical to ``sum_k matmul(table_k[candidates], q_k[:, :, None])``.
    """
    b, c = candidates.shape
    first_table = terms[0][0]
    n_rows, d = first_table.shape
    # np.take into a preallocated buffer skips fancy indexing's temporary;
    # its "wrap" mode matches Python indexing once ids lie in [-n, n).
    low, high = int(candidates.min()), int(candidates.max())
    if low < -n_rows or high >= n_rows:
        bad = low if low < -n_rows else high
        raise IndexError(
            f"index {bad} is out of bounds for axis 0 with size {n_rows}"
        )
    step = candidate_block_rows(c, d, first_table.itemsize)
    out = np.empty((b, c), dtype=np.float64)
    buffer = np.empty((min(step, b), c, d), dtype=first_table.dtype)
    for start in range(0, b, step):
        stop = min(start + step, b)
        rows = candidates[start:stop]
        block = buffer[: stop - start]
        for k, (table, query) in enumerate(terms):
            np.take(table, rows, axis=0, out=block, mode="wrap")
            scores = np.matmul(block, query[start:stop, :, None])[:, :, 0]
            # Assign the first term rather than add it to zeros: 0.0 + -0.0
            # would turn a -0.0 score into +0.0.
            if k == 0:
                out[start:stop] = scores
            else:
                out[start:stop] += scores
    return out


class KGEModel(ABC):
    """Base class for knowledge-graph embedding scoring models.

    Parameters
    ----------
    n_entities, n_relations:
        Vocabulary sizes; parameter tables are indexed by these ids.
    dim:
        Embedding dimension ``d``.
    rng:
        Seed or generator for parameter initialisation.
    """

    #: "margin" (Eq. 1, translational distance) or "logistic" (Eq. 2).
    default_loss: str = "margin"

    def __init__(
        self,
        n_entities: int,
        n_relations: int,
        dim: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_entities <= 0 or n_relations <= 0 or dim <= 0:
            raise ValueError(
                f"n_entities, n_relations and dim must be positive, got "
                f"({n_entities}, {n_relations}, {dim})"
            )
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self.dim = int(dim)
        self.params: dict[str, np.ndarray] = {}
        self._init_params(ensure_rng(rng))

    # -- subclass responsibilities ------------------------------------------
    @abstractmethod
    def _init_params(self, rng: np.random.Generator) -> None:
        """Create and initialise the entries of ``self.params``."""

    @abstractmethod
    def score(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Plausibility of each triple; ``h, r, t`` are id arrays of shape [B]."""

    @abstractmethod
    def grad(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, upstream: np.ndarray
    ) -> GradientBag:
        """Gradient of ``sum(upstream * score)`` w.r.t. touched parameter rows."""

    # -- parameter naming, used by trainers/regularizers ---------------------
    #: Names of parameter tables indexed by entity id.
    entity_params: tuple[str, ...] = ("entity",)
    #: Names of parameter tables indexed by relation id.
    relation_params: tuple[str, ...] = ("relation",)

    # -- convenience forward variants ----------------------------------------
    def score_triples(self, triples: np.ndarray) -> np.ndarray:
        """Score an ``[B, 3]`` triple array."""
        triples = np.asarray(triples, dtype=np.int64)
        return self.score(triples[:, 0], triples[:, 1], triples[:, 2])

    def grad_triples(self, triples: np.ndarray, upstream: np.ndarray) -> GradientBag:
        """Gradient counterpart of :meth:`score_triples`."""
        triples = np.asarray(triples, dtype=np.int64)
        return self.grad(triples[:, 0], triples[:, 1], triples[:, 2], upstream)

    def score_tails(
        self, h: np.ndarray, r: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Score ``(h_b, r_b, c)`` for every candidate tail ``c``.

        ``candidates`` has shape ``[B, C]``; the result matches it.  The
        generic implementation broadcasts and calls :meth:`score`; subclasses
        may override with a closed form.
        """
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        b, c = candidates.shape
        flat_h = np.repeat(h, c)
        flat_r = np.repeat(r, c)
        return self.score(flat_h, flat_r, candidates.ravel()).reshape(b, c)

    def score_heads(
        self, candidates: np.ndarray, r: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """Score ``(c, r_b, t_b)`` for every candidate head ``c`` (shape [B, C])."""
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        b, c = candidates.shape
        flat_r = np.repeat(r, c)
        flat_t = np.repeat(t, c)
        return self.score(candidates.ravel(), flat_r, flat_t).reshape(b, c)

    def score_candidates(
        self,
        anchors: np.ndarray,
        r: np.ndarray,
        candidates: np.ndarray,
        mode: str = "tail",
    ) -> np.ndarray:
        """Score a ``[B, C]`` candidate block against per-row queries.

        The fused scoring primitive behind the NSCaching cache refresh
        (Alg. 3 step 4): every row ``b`` carries one partial triple and
        ``C`` corruption candidates.

        Parameters
        ----------
        anchors:
            ``[B]`` entity ids of the *uncorrupted* side — the heads when
            ``mode="tail"``, the tails when ``mode="head"``.
        r:
            ``[B]`` relation ids.
        candidates:
            ``[B, C]`` entity ids filling the corrupted slot.  May be
            non-contiguous; it is never written to.
        mode:
            ``"tail"`` scores ``(anchors_b, r_b, candidates[b, c])``;
            ``"head"`` scores ``(candidates[b, c], r_b, anchors_b)``.
            Anything else raises ``ValueError`` before any scoring work.

        Returns
        -------
        ``float64 [B, C]`` plausibility scores matching :meth:`score`.

        This entry point owns validation and dispatch; models specialise
        the :meth:`_score_candidates_impl` kernel hook instead of
        overriding this method, so every kernel inherits the same
        contract (checked model-by-model in the conformance suite).
        """
        if mode not in CANDIDATE_MODES:
            raise ValueError(
                f"unknown corruption mode {mode!r}; expected one of "
                f"{CANDIDATE_MODES}"
            )
        anchors = np.asarray(anchors, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.ndim != 2:
            raise ValueError(
                f"candidates must be [B, C], got shape {candidates.shape}"
            )
        if anchors.shape != (len(candidates),) or r.shape != (len(candidates),):
            raise ValueError(
                f"anchors {anchors.shape} and r {r.shape} must both be "
                f"[{len(candidates)}] to match candidates {candidates.shape}"
            )
        if candidates.size == 0:  # empty batch or zero-candidate block
            return np.zeros(candidates.shape, dtype=np.float64)
        out = self._score_candidates_impl(anchors, r, candidates, mode)
        return np.asarray(out, dtype=np.float64)

    def _score_candidates_impl(
        self, anchors: np.ndarray, r: np.ndarray, candidates: np.ndarray, mode: str
    ) -> np.ndarray:
        """Kernel hook behind :meth:`score_candidates` (inputs validated).

        The generic fallback delegates to the model's bulk scorers, which
        at worst broadcast through :meth:`score` — correct for any model.
        Override this (not :meth:`score_candidates`) with a fused kernel
        when per-family structure pays: compute the per-row query once,
        then score the whole candidate block with one matmul/broadcast op.
        """
        if mode == "tail":
            return self.score_tails(anchors, r, candidates)
        return self.score_heads(candidates, r, anchors)

    def score_all_tails(
        self, h: np.ndarray, r: np.ndarray, chunk: int = 64
    ) -> np.ndarray:
        """Score against every entity as tail; result ``[B, n_entities]``.

        Evaluation-sized workloads go through here, so the generic version
        processes query rows in chunks to bound temporary memory.
        """
        h = np.asarray(h, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        all_entities = np.arange(self.n_entities, dtype=np.int64)
        out = np.empty((len(h), self.n_entities), dtype=np.float64)
        for start in range(0, len(h), chunk):
            stop = min(start + chunk, len(h))
            cand = np.broadcast_to(all_entities, (stop - start, self.n_entities))
            out[start:stop] = self.score_tails(h[start:stop], r[start:stop], cand)
        return out

    def score_all_heads(
        self, r: np.ndarray, t: np.ndarray, chunk: int = 64
    ) -> np.ndarray:
        """Score against every entity as head; result ``[B, n_entities]``."""
        r = np.asarray(r, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        all_entities = np.arange(self.n_entities, dtype=np.int64)
        out = np.empty((len(r), self.n_entities), dtype=np.float64)
        for start in range(0, len(r), chunk):
            stop = min(start + chunk, len(r))
            cand = np.broadcast_to(all_entities, (stop - start, self.n_entities))
            out[start:stop] = self.score_heads(cand, r[start:stop], t[start:stop])
        return out

    # -- constraints ----------------------------------------------------------
    def normalize(self, touched_entities: np.ndarray | None = None) -> None:
        """Apply the model's norm constraints (default: none).

        Called by the trainer after each optimiser step with the entity rows
        touched by the step, or ``None`` for all rows.
        """

    # -- bookkeeping ------------------------------------------------------------
    def n_parameters(self) -> int:
        """Total number of scalar parameters (Table I comparisons)."""
        return int(sum(p.size for p in self.params.values()))

    def copy(self) -> "KGEModel":
        """Deep copy (used to snapshot pretrained states)."""
        import copy as _copy

        return _copy.deepcopy(self)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of all parameter arrays."""
        return {name: array.copy() for name, array in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        for name, array in state.items():
            if name not in self.params:
                raise KeyError(f"unknown parameter {name!r}")
            if self.params[name].shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{self.params[name].shape} vs {array.shape}"
                )
            self.params[name][...] = array

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_entities={self.n_entities}, "
            f"n_relations={self.n_relations}, dim={self.dim})"
        )
