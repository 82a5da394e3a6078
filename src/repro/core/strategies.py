"""Sample-from-cache and update-cache strategies (paper §III-B1 / §III-B2).

The paper's design space, studied in Figure 6:

* **sampling** (Alg. 2 step 6) — how to pick the corrupting entity from a
  cache entry: ``uniform`` (the paper's choice: unbiased, balances
  exploration/exploitation), ``importance`` (probability proportional to
  ``softmax(score)``; biased towards stale scores and false negatives) or
  ``top`` (always the largest score; worst — it locks onto false
  negatives);
* **updating** (Alg. 3) — how to select the ``N1`` survivors from the
  ``N1 + N2`` union of cache and fresh candidates: ``importance``
  (sampling *without replacement* proportional to ``softmax(score)``, the
  paper's choice), ``top`` (deterministic top-N1; under-explores, Fig. 8)
  or ``uniform`` (ignores scores; loses the hard-negative signal).

Without-replacement softmax sampling is implemented with the Gumbel-top-k
trick so whole batches are processed with one vectorised ``argpartition``.
:func:`refresh_cache_rows` is the whole Alg. 3 update of a block of cache
rows built on that selection; the sequential sampler and the refresh
pool's tasks both run it.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.array_cache import multiset_overlap_rows
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:
    from repro.core.array_cache import ArrayNegativeCache
    from repro.models.base import KGEModel

__all__ = [
    "SampleStrategy",
    "SurvivorSelection",
    "UpdateStrategy",
    "duplicate_mask",
    "refresh_cache_rows",
    "sample_from_cache",
    "select_cache_survivors",
]


class SampleStrategy(str, Enum):
    """How to draw the corrupting entity from a cache entry."""

    UNIFORM = "uniform"
    IMPORTANCE = "importance"
    TOP = "top"


class UpdateStrategy(str, Enum):
    """How to select the new cache contents from the candidate union."""

    IMPORTANCE = "importance"
    TOP = "top"
    UNIFORM = "uniform"


def duplicate_mask(ids: np.ndarray) -> np.ndarray:
    """True at positions holding a *repeat* of an id earlier in the row.

    The Alg. 3 union ``H ∪ Rm`` can contain the same entity twice (cache
    hit in the random draw, or repeats inside the draw); masking repeats
    prevents double probability mass and duplicate cache entries.

    Implementation: pack ``(row, value, column)`` into one int64 per
    element and sort the flat array once — within a run of equal
    ``(row, value)`` the smallest column sorts first, so every later
    element of the run is a repeat.  One flat sort beats a per-row
    stable argsort + scatter by ~2x at hot-loop sizes.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n_rows, n_cols = ids.shape
    if ids.size == 0:
        return np.zeros_like(ids, dtype=bool)
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    if n_rows * span * n_cols >= 2**62:  # fall back for extreme id ranges
        order = np.argsort(ids, axis=1, kind="stable")
        sorted_ids = np.take_along_axis(ids, order, axis=1)
        dup_sorted = np.zeros_like(ids, dtype=bool)
        dup_sorted[:, 1:] = sorted_ids[:, 1:] == sorted_ids[:, :-1]
        mask = np.zeros_like(dup_sorted)
        np.put_along_axis(mask, order, dup_sorted, axis=1)
        return mask
    row_base = (np.arange(n_rows, dtype=np.int64) * span)[:, None]
    codes = ((row_base + (ids - lo)) * n_cols + np.arange(n_cols)).ravel()
    codes.sort()
    repeats = codes[1:][codes[1:] // n_cols == codes[:-1] // n_cols]
    mask = np.zeros(n_rows * n_cols, dtype=bool)
    mask[(repeats // (span * n_cols)) * n_cols + repeats % n_cols] = True
    return mask.reshape(n_rows, n_cols)


def _gumbel(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    u = rng.random(shape)
    return -np.log(-np.log(np.clip(u, 1e-300, 1.0)))


def sample_from_cache(
    ids: np.ndarray,
    scores: np.ndarray | None,
    strategy: SampleStrategy,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Pick one entity per row from cached ``ids``; returns shape ``[B]``.

    ``scores`` (same shape as ``ids``) is required for the importance and
    top strategies; the uniform strategy ignores it.
    """
    rng = ensure_rng(rng)
    ids = np.asarray(ids, dtype=np.int64)
    b, n = ids.shape
    strategy = SampleStrategy(strategy)
    if strategy is SampleStrategy.UNIFORM:
        cols = rng.integers(0, n, size=b)
    else:
        if scores is None:
            raise ValueError(f"strategy {strategy.value!r} requires scores")
        scores = np.asarray(scores, dtype=np.float64)
        if strategy is SampleStrategy.TOP:
            cols = np.argmax(scores, axis=1)
        else:  # IMPORTANCE: one softmax draw == Gumbel argmax.
            cols = np.argmax(scores + _gumbel(scores.shape, rng), axis=1)
    return ids[np.arange(b), cols]


class SurvivorSelection(NamedTuple):
    """One Alg. 3 selection with its column structure preserved.

    ``columns[b, j]`` is the union column survivor ``ids[b, j]`` was taken
    from; ``filled[b]`` flags rows where a duplicate-suppressed (``-inf``
    key) column had to be selected because the row had fewer distinct
    candidates than ``n_keep``.  The column structure is what
    :meth:`cached_overlap` derives the per-row CE hint from without
    re-sorting the id block.
    """

    ids: np.ndarray
    scores: np.ndarray | None
    columns: np.ndarray
    filled: np.ndarray

    def cached_overlap(self, cached: np.ndarray) -> np.ndarray:
        """Per-row multiset overlap of the survivors with ``cached``.

        ``cached`` is the ``[B, n_keep]`` entry gathered into union
        columns ``[0, n_keep)``; fresh draws fill the rest, and the
        selection suppresses within-row duplicates.  A survivor taken
        from a column ``< n_keep`` is therefore an entity that was
        already cached, and one taken from a column ``>= n_keep`` (a
        non-duplicate, so its *first* occurrence in the row) cannot
        appear among the cached columns: a row's overlap is its number
        of survivor columns ``< n_keep``, no sort needed.  Only the rare
        duplicate-filled rows, where a selected repeat breaks that
        argument, run the sorted
        :func:`~repro.core.array_cache.multiset_overlap_rows`.

        The result is the per-row ``overlap=`` hint of
        :meth:`~repro.core.array_cache.ArrayNegativeCache.scatter`, which
        recounts a storage row written twice in one batch itself.
        Agreement with the sorted walk is property-tested.
        """
        n_keep = cached.shape[1]
        overlap = np.count_nonzero(self.columns < n_keep, axis=1)
        if self.filled.any():
            filled = np.flatnonzero(self.filled)
            overlap[filled] = multiset_overlap_rows(self.ids[filled], cached[filled])
        return overlap


def select_cache_survivors(
    candidate_ids: np.ndarray,
    candidate_scores: np.ndarray,
    n_keep: int,
    strategy: UpdateStrategy,
    rng: np.random.Generator | int | None = None,
    *,
    return_scores: bool = True,
    return_selection: bool = False,
) -> tuple[np.ndarray, np.ndarray | None] | SurvivorSelection:
    """Select ``n_keep`` entries per row from the Alg. 3 candidate union.

    Returns ``(ids, scores)`` each of shape ``[B, n_keep]``.  Duplicate ids
    within a row are suppressed before selection.  Importance selection is
    sampling *without replacement* with probability ``softmax(score)``
    (Eq. 6), realised as top-``n_keep`` of ``score + Gumbel noise``.

    This runs once per cache per batch in the refresh hot loop, so the
    selection keys are built in place (Gumbel noise reused as the key
    buffer) rather than through ``np.where`` copies, and the score gather
    is skipped entirely with ``return_scores=False`` (the caches only
    co-store scores for the IS/top sampling strategies) — ``scores`` is
    then ``None``.  RNG consumption is identical either way, so toggling
    it cannot perturb a seeded run.

    With ``return_selection=True`` the result is a
    :class:`SurvivorSelection` that additionally carries the selected
    union columns and the duplicate-fill flags, the inputs of the
    sort-free per-row CE hint (:meth:`SurvivorSelection.cached_overlap`).

    Every refresh path (sequential, unfused and pool worker) selects
    through here, so this is where a NaN or infinite score stops the run
    with ``FloatingPointError`` instead of silently steering
    ``argpartition``.
    """
    rng = ensure_rng(rng)
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    candidate_scores = np.asarray(candidate_scores, dtype=np.float64)
    if candidate_ids.shape != candidate_scores.shape:
        raise ValueError(
            f"ids {candidate_ids.shape} and scores {candidate_scores.shape} disagree"
        )
    b, n = candidate_ids.shape
    if n_keep > n:
        raise ValueError(f"cannot keep {n_keep} of {n} candidates")
    strategy = UpdateStrategy(strategy)
    finite = np.isfinite(candidate_scores)
    if not finite.all():
        bad_rows = np.flatnonzero(~finite.all(axis=1))
        raise FloatingPointError(
            f"{finite.size - np.count_nonzero(finite)} non-finite candidate "
            f"scores (first in row {bad_rows[0]}); refusing to select cache "
            f"survivors"
        )

    # Suppress within-row duplicates; -inf keys are never selected unless a
    # row has fewer uniques than n_keep, in which case duplicates fill in
    # (harmless: the cache then holds a repeat, as the paper's would).
    dup = duplicate_mask(candidate_ids)
    if strategy is UpdateStrategy.TOP:
        keys = candidate_scores.copy()
    elif strategy is UpdateStrategy.IMPORTANCE:
        keys = _gumbel(candidate_scores.shape, rng)
        keys += candidate_scores
    else:  # UNIFORM
        keys = rng.random((b, n))
    keys[dup] = -np.inf

    top = np.argpartition(-keys, n_keep - 1, axis=1)[:, :n_keep]
    rows = np.arange(b)[:, None]
    ids = candidate_ids[rows, top]
    scores = candidate_scores[rows, top] if return_scores else None
    if not return_selection:
        return ids, scores
    # A row selects a -inf (duplicate) key exactly when it has fewer than
    # n_keep non-duplicate keys, all of which are finite.
    filled = np.count_nonzero(dup, axis=1) > n - n_keep
    return SurvivorSelection(ids, scores, top, filled)


def refresh_cache_rows(
    model: KGEModel,
    cache: ArrayNegativeCache,
    anchors: np.ndarray,
    relations: np.ndarray,
    rows: np.ndarray,
    mode: str,
    union: np.ndarray,
    strategy: UpdateStrategy,
    rng: np.random.Generator,
    score_context: AbstractContextManager[object] | None = None,
) -> int:
    """Run Algorithm 3 on a block of cache rows; returns the CE count.

    ``union`` is the ``[len(rows), N1 + N2]`` int64 block to assemble in
    (callers reuse one across batches): each row's ``N1 = cache.size``
    cached entities, then ``N2`` fresh uniform draws from ``rng``.  The
    block is scored in one ``model.score_candidates`` call, and the
    survivors go from the selection straight into ``cache.scatter`` with
    the sort-free per-row CE hint of
    :meth:`SurvivorSelection.cached_overlap`.

    ``rng`` also draws the selection noise; rows gathered before their
    first write initialise from ``cache.rng``.  ``score_context`` is
    entered around the scoring call only.
    """
    n1 = cache.size
    union[:, :n1] = cache.gather(rows)
    union[:, n1:] = rng.integers(
        0, cache.n_entities, size=(len(rows), union.shape[1] - n1), dtype=np.int64
    )
    with score_context if score_context is not None else nullcontext():
        scores = model.score_candidates(anchors, relations, union, mode)
    selection = select_cache_survivors(
        union, scores, n1, strategy, rng,
        return_scores=cache.store_scores, return_selection=True,
    )
    return cache.scatter(
        rows, selection.ids, selection.scores,
        overlap=selection.cached_overlap(union[:, :n1]),
    )
