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
* **candidate scoring**: :meth:`KGEModel.score_candidates` — the one
  validated entry point for scoring a ``[B, C]`` candidate block against
  per-row ``(anchor, relation)`` queries.  The NSCaching refresh (Alg. 3
  step 4), the KBGAN generator, self-adversarial sampling and the sampled
  evaluator all score through it.  Validation and dispatch live in the
  base class; the :meth:`_score_candidates_impl` kernel hook falls back
  to broadcasting through :meth:`score`, and models override it with one
  fused per-family kernel (see the conformance suite in
  ``tests/models/test_conformance.py`` for the contract they must honour).
  The bilinear family and TransE share one row-blocked gather loop,
  :func:`score_candidate_blocks`, with a per-family block scorer
  (:func:`matvec_scores`, :func:`residual_norm_scores`); RotatE runs its
  own gather over the same :func:`split_row_blocks`.
  :meth:`score_all_tails` / :meth:`score_all_heads` (the link-prediction
  evaluator and the serve path) feed contiguous entity ranges to the same
  kernel; the GEMM models (ComplEx, DistMult, RESCAL, HolE) override them
  with one product against the entity table, and TransE scores each query
  row against contiguous slices of the table with its candidate kernel's
  ops (no gather).

The row blocks of one candidate call, the entity ranges of one base
``score_all_*`` call and the (row, range) items of one TransE
``score_all_*`` call are split between the calling thread and one helper
thread (:func:`split_work`) when at least two CPUs are usable: numpy
releases the GIL inside the gathers, ufuncs, sums and matmuls of every
block.  Each thread has its own buffer and writes a disjoint slice of
the output with the ops of the serial loop, so scores are
byte-identical either way.  A call made while another is in progress
(inside a split, or from another thread) runs serially, and so does
every call in a forked child.  The sequential NSCaching refresh splits
one level up: its head and tail cache sides are the two halves of one
:func:`split_work` call per batch, so each side's candidate call runs
serially on its own thread.  The kernel split itself serves
single-side refreshes, evaluation and serving.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.models.norms import negated_norm_into
from repro.models.params import GradientBag
from repro.utils.cpus import usable_cpu_count
from repro.utils.rng import ensure_rng

__all__ = [
    "CANDIDATE_MODES",
    "BlockScorer",
    "KGEModel",
    "candidate_block_rows",
    "check_gather_ids",
    "entity_range_width",
    "matvec_scores",
    "residual_norm_scores",
    "score_candidate_blocks",
    "split_row_blocks",
    "split_work",
]

#: Corruption modes understood by :meth:`KGEModel.score_candidates`:
#: ``"tail"`` scores ``(anchor, r, candidate)``; ``"head"`` scores
#: ``(candidate, r, anchor)``.
CANDIDATE_MODES: tuple[str, ...] = ("head", "tail")

#: Bytes of one gathered ``[rows, C, d]`` candidate block, per thread:
#: small enough to stay in one core's L2 cache next to the tables it was
#: gathered from, so the matvec that scores it never goes back to main
#: memory.  With the split on, each of the two threads has its own block.
CANDIDATE_BLOCK_BYTES = 1 << 19

#: Whether :func:`split_work` hands half of the work to the helper thread:
#: on when at least 2 CPUs are usable, and off for good in a forked child,
#: whose parent (the refresh pool) already gives it a core of its own.
_split = usable_cpu_count() >= 2
#: The one helper thread, started on the first split and joined before
#: every fork.
_helper: ThreadPoolExecutor | None = None
#: Calls of :func:`split_work` in progress that could split (``n >= 2``
#: with the split on), on any thread.  Only a call that finds none
#: splits; a nested call (from either thread of a split) or one made
#: while another thread scores runs serially, so concurrent callers, such
#: as requests on the threaded HTTP server, each keep one core instead of
#: queuing behind one helper.  Guarded by ``_idle``'s lock, which a fork
#: holds from its ``before`` hook until it is done.  Only the call that
#: found no other, or that hook once none is left, touches ``_helper``.
_calls = 0
_idle = threading.Condition(threading.Lock())


def split_work(n: int, work: Callable[[int, int], None]) -> None:
    """Run ``work(start, stop)`` over the items ``[0, n)`` on two threads.

    The calling thread takes the first half of the items and the helper
    thread the rest; ``work`` must write a disjoint output per item.  It
    runs as one serial ``work(0, n)`` when ``n < 2``, when the split is off
    (fewer than 2 usable CPUs, or a forked child), and while another call
    is in progress: a call made inside a split, from either thread, and
    concurrent calls from other threads.  So the split never uses more
    than the caller plus the one helper, and no call waits for the
    helper to finish another call's work.  An error in the caller's half
    wins over one in the helper's; either is raised once both halves
    have finished.
    """
    global _calls, _helper
    if n < 2 or not _split:
        work(0, n)
        return
    with _idle:
        _calls += 1
        alone = _calls == 1
    try:
        if not alone:
            work(0, n)
            return
        if _helper is None:
            _helper = ThreadPoolExecutor(1, thread_name_prefix="repro-kernel")
        half = (n + 1) // 2
        helped = _helper.submit(work, half, n)
        try:
            work(0, half)
        except BaseException:
            helped.exception()  # wait for the helper's half, then drop it
            raise
        helped.result()
    finally:
        with _idle:
            _calls -= 1
            if not _calls:
                _idle.notify_all()


def _stop_helper() -> None:
    """Join the helper thread; the caller holds ``_idle`` with no call in
    progress, so the helper is idle."""
    global _helper
    if _helper is not None:
        _helper.shutdown()
        _helper = None


def _before_fork() -> None:
    # Wait out the calls in progress, then keep _idle held until the fork
    # is done, so no thread can start a helper that the fork would copy.
    _idle.acquire()
    _idle.wait_for(lambda: not _calls)
    _stop_helper()


def _after_fork_in_parent() -> None:
    _idle.release()


def _serial_in_child() -> None:
    global _split
    _split = False
    _idle.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=_after_fork_in_parent,
        after_in_child=_serial_in_child,
    )


def candidate_block_rows(n_candidates: int, width: int, itemsize: int = 8) -> int:
    """Rows of a ``[B, n_candidates]`` block that one gather covers (>= 1)."""
    return max(1, CANDIDATE_BLOCK_BYTES // (n_candidates * width * itemsize))


def entity_range_width(n_queries: int, dim: int) -> int:
    """Entities per range of the base ``score_all_*`` for ``n_queries`` rows.

    The ``[n_queries, width, dim]`` gather fits the candidate byte budget,
    rounded down to whole multiples of 64 entities (at least 64).  The
    rounding keeps every entity at the same offset within BLAS's unrolled
    groups as in one all-entity call, and keeps BLAS off its small-matrix
    kernels, so the scores match ``score_candidates`` over all entities
    byte for byte.  The budget is one thread's: with the split on, each
    of the two threads scores its own ranges of this width.  Sizing the
    ranges for both threads at once would double their number, and the
    per-range overhead then costs more than the second core gains.
    """
    return max(64, candidate_block_rows(max(n_queries, 1), dim) // 64 * 64)


#: The per-block step of :func:`score_candidate_blocks`:
#: ``score_block(block, query, out, k)`` scores term ``k``'s gathered
#: ``[rows, C, d]`` block (a scratch buffer it may overwrite) against the
#: ``[rows, d]`` queries, assigning into ``out`` ``[rows, C]`` when
#: ``k == 0`` and accumulating into it after.
BlockScorer = Callable[[np.ndarray, np.ndarray, np.ndarray, int], None]


def matvec_scores(
    block: np.ndarray, query: np.ndarray, out: np.ndarray, k: int
) -> None:
    """Bilinear block scorer: ``out[b, c] (+)= block[b, c] . query[b]``."""
    scores = np.matmul(block, query[:, :, None])[:, :, 0]
    # Assign the first term rather than add it to zeros: 0.0 + -0.0 would
    # turn a -0.0 score into +0.0.
    if k == 0:
        out[...] = scores
    else:
        out += scores


def residual_norm_scores(mode: str, p: int) -> BlockScorer:
    """Translational block scorer: ``out = -||query - cand||_p`` for tails,
    ``-||cand + query||_p`` for heads (one term per call).

    The query is folded into the gathered block in place and the norm
    reduced straight into ``out`` — the element-wise ops of
    ``-norm_forward(e, p)`` in the same order, so the scores are
    byte-identical to the unblocked residual.
    """

    def score_block(
        block: np.ndarray, query: np.ndarray, out: np.ndarray, k: int
    ) -> None:
        if mode == "tail":
            np.subtract(query[:, None, :], block, out=block)
        else:
            block += query[:, None, :]
        negated_norm_into(block, p, out)

    return score_block


def check_gather_ids(ids: np.ndarray, n_rows: int) -> None:
    """Raise fancy indexing's ``IndexError`` unless every id lies in
    ``[-n_rows, n_rows)``.

    Kernels gather with ``np.take(..., out=buffer, mode="wrap")``, which
    skips fancy indexing's temporary and matches Python indexing once the
    ids pass this check.
    """
    low, high = int(ids.min()), int(ids.max())
    if low < -n_rows or high >= n_rows:
        bad = low if low < -n_rows else high
        raise IndexError(
            f"index {bad} is out of bounds for axis 0 with size {n_rows}"
        )


def split_row_blocks(
    n_rows: int, step: int, score_rows: Callable[[int, int], None]
) -> None:
    """Call ``score_rows(start, stop)`` on whole blocks of ``step`` rows of
    ``[0, n_rows)``: the caller's half of the blocks and the helper's (see
    :func:`split_work`).  ``score_rows`` allocates its own gather buffer
    and walks its rows ``step`` at a time."""

    def blocks(first: int, last: int) -> None:
        score_rows(first * step, min(last * step, n_rows))

    split_work(-(-n_rows // step), blocks)


def score_candidate_blocks(
    candidates: np.ndarray,
    terms: Sequence[tuple[np.ndarray, np.ndarray]],
    score_block: BlockScorer = matvec_scores,
) -> np.ndarray:
    """Score a ``[B, C]`` id block term by term, a few rows per gather.

    Each ``(table, query)`` term pairs an ``[n, d]`` entity table with
    ``[B, d]`` per-row queries; ``score_block`` turns one gathered block
    of a term into scores (default: the bilinear ``sum_k table_k[c] .
    query_k[b]``).  ``candidates`` is a non-empty ``[B, C]`` id block (the
    validated input of :meth:`KGEModel.score_candidates`).
    Rather than gathering the whole ``[B, C, d]`` block at once, a few
    rows (:func:`candidate_block_rows`) are gathered into one reused
    buffer per thread and scored while still cache-resident.  Every row
    is scored by the same operations as over the full block (a matvec, or
    element-wise ops and a sum over the contiguous last axis), so the
    scores are byte-identical to the unblocked kernels.
    """
    b, c = candidates.shape
    first_table = terms[0][0]
    n_rows, d = first_table.shape
    check_gather_ids(candidates, n_rows)
    step = candidate_block_rows(c, d, first_table.itemsize)
    out = np.empty((b, c), dtype=np.float64)

    def score_rows(begin: int, end: int) -> None:
        buffer = np.empty((min(step, end - begin), c, d), dtype=first_table.dtype)
        for start in range(begin, end, step):
            stop = min(start + step, end)
            rows = candidates[start:stop]
            block = buffer[: stop - start]
            for k, (table, query) in enumerate(terms):
                np.take(table, rows, axis=0, out=block, mode="wrap")
                score_block(block, query[start:stop], out[start:stop], k)

    split_row_blocks(b, step, score_rows)
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

        The generic fallback broadcasts the ``[B, C]`` block through
        :meth:`score` — correct for any model that defines ``score``.
        Override this (not :meth:`score_candidates`) with a fused kernel
        when per-family structure pays: compute the per-row query once,
        then score the whole candidate block with one matmul/broadcast op.
        """
        b, c = candidates.shape
        flat_anchors = np.repeat(anchors, c)
        flat_r = np.repeat(r, c)
        flat_candidates = candidates.ravel()
        if mode == "tail":
            scores = self.score(flat_anchors, flat_r, flat_candidates)
        else:
            scores = self.score(flat_candidates, flat_r, flat_anchors)
        return scores.reshape(b, c)

    def score_all_tails(
        self, h: np.ndarray, r: np.ndarray, chunk: int = 64
    ) -> np.ndarray:
        """Score against every entity as tail; result ``[B, n_entities]``.

        ``chunk`` is accepted for API compatibility and ignored: the work
        is split into entity ranges sized by the candidate byte budget
        (see :meth:`_score_all`).
        """
        return self._score_all(h, r, "tail")

    def score_all_heads(
        self, r: np.ndarray, t: np.ndarray, chunk: int = 64
    ) -> np.ndarray:
        """Score against every entity as head; result ``[B, n_entities]``.

        ``chunk`` is ignored, as in :meth:`score_all_tails`.
        """
        return self._score_all(t, r, "head")

    def _score_all(self, anchors: np.ndarray, r: np.ndarray, mode: str) -> np.ndarray:
        """All-entity scoring through the candidate kernel.

        Contiguous entity ranges (:func:`entity_range_width`) go to
        :meth:`_score_candidates_impl` as ``[B, width]`` candidate blocks,
        so the temporaries stay within a few candidate blocks whatever the
        entity count, and every score has the bytes
        :meth:`score_candidates` gives it.  The ranges are split between
        the caller and the helper thread (:func:`split_work`); the kernel
        calls inside them run serially.
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        b, n = len(anchors), self.n_entities
        out = np.empty((b, n), dtype=np.float64)
        if b == 0:
            return out
        width = entity_range_width(b, self.dim)
        # The last range takes the remainder (up to 2 * width - 1 ids), so
        # BLAS sees the tail of the entity axis as in one all-entity call.
        n_ranges = max(1, n // width)

        def score_ranges(first: int, last: int) -> None:
            for i in range(first, last):
                start = i * width
                stop = n if i == n_ranges - 1 else start + width
                ids = np.broadcast_to(
                    np.arange(start, stop, dtype=np.int64), (b, stop - start)
                )
                out[:, start:stop] = self._score_candidates_impl(
                    anchors, r, ids, mode
                )

        split_work(n_ranges, score_ranges)
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
