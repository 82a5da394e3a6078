"""Dirty-row tracking for incremental parameter synchronisation.

The :class:`~repro.parallel.pool.RefreshPool` keeps its workers on
current embeddings by mirroring the model's parameters into shared
memory before every refresh.  A full mirror is one ``memcpy`` of *every*
parameter table per batch — at million-entity scale that copy, not the
refresh, dominates and worker counts stop paying.  But one optimiser
step only touches the rows of the batch's entities and relations (the
sparse :class:`~repro.models.params.GradientBag` names them exactly), so
the mirror only needs those **dirty rows**: ``shared[rows] = param[rows]``.

A :class:`DirtyRowTracker` accumulates the touched rows per parameter
between syncs.  Every tracker starts **fully dirty** — the first drain
after construction (or after :meth:`mark_all`) reports a full copy, so a
consumer that honours the ``None`` sentinel is always correct even when
nothing was ever marked.  Marks are appended raw (no per-batch
deduplication on the hot path); :meth:`drain` compacts with one
``np.unique``.  When the raw marks for a parameter exceed
``full_threshold`` of its rows the tracker compacts early and — if the
*unique* count still exceeds the threshold — collapses to fully dirty:
a contiguous block copy beats fancy indexing over most of the table.

The pool keeps one tracker for its one shared parameter mirror: it
accumulates the rows dirtied since the mirror was last published.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

__all__ = ["DirtyRowTracker"]


class DirtyRowTracker:
    """Accumulates dirty row indices per named parameter table.

    Parameters
    ----------
    row_counts:
        ``{parameter name: number of rows}`` for every tracked table.
        Marks for unknown names raise ``KeyError`` (a silent typo here
        would mean silently stale worker parameters).
    full_threshold:
        Fraction of a table's rows beyond which the tracker collapses to
        "fully dirty" (default 0.5): past that point one contiguous copy
        is cheaper than a fancy-indexed gather/scatter pair.
    """

    def __init__(
        self,
        row_counts: Mapping[str, int],
        *,
        full_threshold: float = 0.5,
    ) -> None:
        if not 0.0 < full_threshold <= 1.0:
            raise ValueError(
                f"full_threshold must be in (0, 1], got {full_threshold}"
            )
        self.row_counts = {
            name: int(count) for name, count in row_counts.items()
        }
        for name, count in self.row_counts.items():
            if count < 1:
                raise ValueError(
                    f"row count for {name!r} must be >= 1, got {count}"
                )
        self.full_threshold = float(full_threshold)
        # Start fully dirty: the first sync after construction must be a
        # full copy (the shared buffer holds zeros, not parameters).
        self._full: set[str] = set(self.row_counts)
        self._chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in self.row_counts
        }
        self._raw_counts: dict[str, int] = dict.fromkeys(self.row_counts, 0)

    # -- marking (hot path) ---------------------------------------------------
    def mark(self, name: str, rows: np.ndarray) -> None:
        """Record that ``param[name][rows]`` changed since the last drain."""
        limit = self.row_counts.get(name)
        if limit is None:
            raise KeyError(
                f"unknown parameter {name!r}; tracking "
                f"{sorted(self.row_counts)}"
            )
        if name in self._full:
            return  # already fully dirty — marks add nothing
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if len(rows) == 0:
            return
        if rows.min() < 0 or rows.max() >= limit:
            raise ValueError(
                f"rows for {name!r} must lie in [0, {limit}), got range "
                f"[{rows.min()}, {rows.max()}]"
            )
        self._chunks[name].append(rows)
        self._raw_counts[name] += len(rows)
        if self._raw_counts[name] >= self.full_threshold * limit:
            self._compact(name)

    def mark_all(self, name: str | None = None) -> None:
        """Mark one table (or every table) as fully dirty."""
        names: Iterable[str]
        if name is None:
            names = self.row_counts
        elif name in self.row_counts:
            names = (name,)
        else:
            raise KeyError(
                f"unknown parameter {name!r}; tracking "
                f"{sorted(self.row_counts)}"
            )
        for n in names:
            self._full.add(n)
            self._chunks[n] = []
            self._raw_counts[n] = 0

    def _compact(self, name: str) -> None:
        """Dedup the raw marks; collapse to full past the threshold."""
        unique = np.unique(np.concatenate(self._chunks[name]))
        if len(unique) >= self.full_threshold * self.row_counts[name]:
            self.mark_all(name)
        else:
            self._chunks[name] = [unique]
            self._raw_counts[name] = len(unique)

    # -- draining -------------------------------------------------------------
    def drain(self, name: str) -> np.ndarray | None:
        """The dirty rows of ``name`` since the last drain; resets to clean.

        ``None`` means *fully dirty* — the consumer must copy the whole
        table.  Otherwise the sorted unique row indices are returned
        (possibly empty: nothing to sync).
        """
        if name not in self.row_counts:
            raise KeyError(
                f"unknown parameter {name!r}; tracking "
                f"{sorted(self.row_counts)}"
            )
        if name in self._full:
            self._full.discard(name)
            return None
        chunks = self._chunks[name]
        self._chunks[name] = []
        self._raw_counts[name] = 0
        if not chunks:
            return np.empty(0, dtype=np.int64)
        if len(chunks) == 1:
            return np.unique(chunks[0])
        return np.unique(np.concatenate(chunks))

    # -- introspection --------------------------------------------------------
    def is_full(self, name: str) -> bool:
        """Whether ``name`` is currently marked fully dirty."""
        return name in self._full

    def pending_rows(self, name: str) -> int:
        """Upper bound on the dirty rows a drain of ``name`` would return.

        Raw (pre-dedup) count, or the table's row count when fully
        dirty — an O(1) read for telemetry, never a compaction.
        """
        if name in self._full:
            return self.row_counts[name]
        return self._raw_counts[name]

    def pending_fraction(self) -> float:
        """Dirty fraction over all tracked rows (upper bound, in [0, 1])."""
        total = sum(self.row_counts.values())
        pending = sum(self.pending_rows(name) for name in self.row_counts)
        return min(1.0, pending / total)

    def __repr__(self) -> str:
        pending = {name: self.pending_rows(name) for name in self.row_counts}
        return f"DirtyRowTracker(pending={pending}, full={sorted(self._full)})"
