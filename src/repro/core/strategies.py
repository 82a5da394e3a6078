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

The Alg. 3 update of a block of cache rows is two steps split at its only
RNG boundary: :func:`draw_candidates` makes every draw (the gather's lazy
init, the ``N2`` fresh ids, the selection noise), and
:func:`score_and_select` does the row-local rest (scoring, the finiteness
check, the Gumbel transform, duplicate suppression, ``argpartition`` and
the CE hint) without touching a generator or the cache.  The sequential
sampler makes both sides' draws in stream order and then runs the head
and tail sides' row-local steps on two threads; a refresh pool task runs
the two back to back through :func:`refresh_cache_rows`.
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
    "CandidateDraw",
    "RefreshedRows",
    "SampleStrategy",
    "SurvivorSelection",
    "UpdateStrategy",
    "draw_candidates",
    "duplicate_mask",
    "refresh_cache_rows",
    "reusable_rows",
    "sample_from_cache",
    "score_and_select",
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

    Implementation: pack ``(row, value, column)`` into one integer per
    element and sort the flat array once — within a run of equal
    ``(row, value)`` the smallest column sorts first, so every later
    element of the run is a repeat.  One flat sort beats a per-row
    stable argsort + scatter by ~2x at hot-loop sizes.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n_rows, n_cols = ids.shape
    if ids.size == 0:
        return np.zeros_like(ids, dtype=bool)
    lo, hi = int(ids.min()), int(ids.max())
    span = hi - lo + 1
    if n_rows * span * n_cols >= 2**62:  # fall back for extreme id ranges
        order = np.argsort(ids, axis=1, kind="stable")
        sorted_ids = np.take_along_axis(ids, order, axis=1)
        dup_sorted = np.zeros_like(ids, dtype=bool)
        dup_sorted[:, 1:] = sorted_ids[:, 1:] == sorted_ids[:, :-1]
        mask = np.zeros_like(dup_sorted)
        np.put_along_axis(mask, order, dup_sorted, axis=1)
        return mask
    # Built in one block, in place, and as int32 whenever the codes and
    # ids fit: the refresh runs this on both threads at once, and numpy
    # sorts int32 about twice as fast as int64 (51,200 codes: 0.20 vs
    # 0.41 ms).
    fits = n_rows * span * n_cols < 2**31 and -(2**31) <= lo and hi < 2**31
    dtype = np.int32 if fits else np.int64
    codes = np.subtract(ids, lo, dtype=dtype)
    codes += (np.arange(n_rows, dtype=dtype) * span)[:, None]
    codes *= n_cols
    codes += np.arange(n_cols, dtype=dtype)
    codes = codes.ravel()
    codes.sort()
    row_values = codes // n_cols
    repeats = codes[1:][row_values[1:] == row_values[:-1]]
    mask = np.zeros(n_rows * n_cols, dtype=bool)
    mask[(repeats // (span * n_cols)) * n_cols + repeats % n_cols] = True
    return mask.reshape(n_rows, n_cols)


def _gumbel_in_place(u: np.ndarray) -> np.ndarray:
    """Turn uniforms ``u`` into Gumbel noise ``-log(-log(u))`` in place."""
    np.clip(u, 1e-300, 1.0, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


def _gumbel(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return _gumbel_in_place(rng.random(shape))


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


def _checked_candidates(
    candidate_ids: np.ndarray, candidate_scores: np.ndarray, n_keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """The union as int64 ids and float64 scores, validated for selection.

    Every refresh path (sequential, unfused and pool worker) selects
    through here, so this is where a NaN or infinite score stops the run
    with ``FloatingPointError`` instead of silently steering
    ``argpartition``.
    """
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    candidate_scores = np.asarray(candidate_scores, dtype=np.float64)
    if candidate_ids.shape != candidate_scores.shape:
        raise ValueError(
            f"ids {candidate_ids.shape} and scores {candidate_scores.shape} disagree"
        )
    if n_keep > candidate_ids.shape[1]:
        raise ValueError(f"cannot keep {n_keep} of {candidate_ids.shape[1]} candidates")
    finite = np.isfinite(candidate_scores)
    if not finite.all():
        bad_rows = np.flatnonzero(~finite.all(axis=1))
        raise FloatingPointError(
            f"{finite.size - np.count_nonzero(finite)} non-finite candidate "
            f"scores (first in row {bad_rows[0]}); refusing to select cache "
            f"survivors"
        )
    return candidate_ids, candidate_scores


def _draw_noise(
    shape: tuple[int, ...],
    strategy: UpdateStrategy,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray | None:
    """The selection's one RNG use: a block of uniforms (None for top)."""
    if strategy is UpdateStrategy.TOP:
        return None
    return rng.random(shape) if out is None else rng.random(out=out)


def _select(
    ids: np.ndarray,
    scores: np.ndarray,
    n_keep: int,
    strategy: UpdateStrategy,
    noise: np.ndarray | None,
    return_scores: bool,
) -> SurvivorSelection:
    """Row-local selection from checked candidates and drawn ``noise``.

    The keys are built negated, in place in ``noise`` (Gumbel-transformed
    for importance, used as they are for uniform; top negates the
    scores), so ``argpartition`` picks the smallest.
    """
    b, n = ids.shape
    # Suppress within-row duplicates; +inf negated keys are never selected
    # unless a row has fewer uniques than n_keep, in which case duplicates
    # fill in (harmless: the cache then holds a repeat, as the paper's
    # would).
    dup = duplicate_mask(ids)
    if strategy is UpdateStrategy.TOP:
        keys = np.negative(scores)
    else:
        assert noise is not None
        keys = noise
        if strategy is UpdateStrategy.IMPORTANCE:
            _gumbel_in_place(keys)
            keys += scores
        np.negative(keys, out=keys)
    keys[dup] = np.inf

    top = np.argpartition(keys, n_keep - 1, axis=1)[:, :n_keep]
    rows = np.arange(b)[:, None]
    # A row selects a duplicate exactly when it has fewer than n_keep
    # non-duplicate keys, all of which are finite.
    filled = np.count_nonzero(dup, axis=1) > n - n_keep
    return SurvivorSelection(
        ids[rows, top], scores[rows, top] if return_scores else None, top, filled
    )


def reusable_rows(
    buffers: dict[str, np.ndarray], key: str, n_rows: int, width: int, dtype: type
) -> np.ndarray:
    """The first ``n_rows`` rows of the persistent block ``buffers[key]``.

    The ``[*, width]`` block is reallocated only when a batch has more
    rows than any before, so a refresh reuses its buffers across batches.
    """
    block = buffers.get(key)
    if block is None or block.shape[0] < n_rows:
        block = buffers[key] = np.empty((n_rows, width), dtype=dtype)
    return block[:n_rows]


class CandidateDraw(NamedTuple):
    """Every random input of one Alg. 3 update of a block of cache rows.

    ``union`` is the ``[B, N1 + N2]`` candidate block: each row's ``N1``
    cached entities, then ``N2`` fresh uniform draws.  ``noise`` is the
    ``[B, N1 + N2]`` block of selection uniforms (``None`` for top);
    :func:`score_and_select` overwrites it with the selection keys.
    """

    union: np.ndarray
    noise: np.ndarray | None


class RefreshedRows(NamedTuple):
    """One block's survivors, ready for ``cache.scatter``: ``[B, N1]`` ids,
    their scores (``None`` unless the cache co-stores scores) and the
    per-row CE hint (:meth:`SurvivorSelection.cached_overlap`)."""

    ids: np.ndarray
    scores: np.ndarray | None
    overlap: np.ndarray


def draw_candidates(
    cache: ArrayNegativeCache,
    rows: np.ndarray,
    union: np.ndarray,
    strategy: UpdateStrategy,
    rng: np.random.Generator,
    noise: np.ndarray | None = None,
) -> CandidateDraw:
    """Alg. 3's draw step: every generator use of a refresh, in stream order.

    Gathers the rows' cached entities into ``union[:, :N1]`` (rows never
    written before initialise from ``cache.rng`` first), fills the rest of
    the ``[len(rows), N1 + N2]`` int64 block with ``N2`` fresh uniform ids
    from ``rng``, then draws the selection uniforms from ``rng`` — into
    ``noise`` when given (a float64 block of ``union``'s shape), else into
    a new block.  Callers reuse ``union`` and ``noise`` across batches.
    """
    n1 = cache.size
    union[:, :n1] = cache.gather(rows)
    union[:, n1:] = rng.integers(
        0, cache.n_entities, size=(len(rows), union.shape[1] - n1), dtype=np.int64
    )
    return CandidateDraw(
        union, _draw_noise(union.shape, UpdateStrategy(strategy), rng, noise)
    )


def score_and_select(
    model: KGEModel,
    cache: ArrayNegativeCache,
    anchors: np.ndarray,
    relations: np.ndarray,
    mode: str,
    draw: CandidateDraw,
    strategy: UpdateStrategy,
    score_context: AbstractContextManager[object] | None = None,
) -> RefreshedRows:
    """Alg. 3's row-local step: score a drawn union and select survivors.

    One ``model.score_candidates`` call scores ``draw.union``
    (``score_context`` is entered around it alone); the selection then
    keeps ``cache.size`` survivors per row from ``draw.noise`` and derives
    the sort-free per-row CE hint.  Neither a generator nor the cache is
    touched, and only ``draw.noise`` is written, so the head and tail
    sides of one batch can run this on two threads at once.  A non-finite
    score raises ``FloatingPointError``.
    """
    n1 = cache.size
    with score_context if score_context is not None else nullcontext():
        scores = model.score_candidates(anchors, relations, draw.union, mode)
    ids, scores = _checked_candidates(draw.union, scores, n1)
    selection = _select(
        ids, scores, n1, UpdateStrategy(strategy), draw.noise, cache.store_scores
    )
    return RefreshedRows(
        selection.ids, selection.scores, selection.cached_overlap(ids[:, :n1])
    )


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
) -> int:
    """Run Algorithm 3 on a block of cache rows serially; returns the CE count.

    :func:`draw_candidates` (assembling in ``union``, a reused
    ``[len(rows), N1 + N2]`` int64 block), then :func:`score_and_select`,
    then ``cache.scatter`` with the survivors and their CE hint — a
    refresh pool task's body.
    """
    draw = draw_candidates(cache, rows, union, strategy, rng)
    refreshed = score_and_select(model, cache, anchors, relations, mode, draw, strategy)
    return cache.scatter(
        rows, refreshed.ids, refreshed.scores, overlap=refreshed.overlap
    )
