"""Parameter and gradient containers.

Embedding models hold their parameters as plain numpy arrays in a
``dict[str, np.ndarray]``.  A training step touches only a few rows of each
table, so gradients are exchanged as a :class:`GradientBag` — a collection
of ``(row indices, row gradients)`` pairs per parameter — which the sparse
optimisers consume without ever materialising a dense gradient.

A bag is compacted at most once per training step: the first
:meth:`GradientBag.compacted` call sums duplicate rows with one flat
scatter-add over ``inverse * width + column`` indices, and every later
reader (:meth:`~GradientBag.global_norm`, the optimiser step and its
dirty-row marks, :meth:`~GradientBag.touched_rows`) reuses that result
until the next :meth:`~GradientBag.add` or :meth:`~GradientBag.merge`.
Each row's contributions are still added in occurrence order starting
from zero, so the sums are byte-identical to a row-wise ``np.add.at``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

import numpy as np

__all__ = ["GradientBag"]


def _sum_duplicate_rows(
    rows: np.ndarray, grads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(unique_rows, summed)`` with ``summed[i]`` the sum of every
    ``grads[k]`` whose ``rows[k] == unique_rows[i]``, in order of ``k``.

    Every entry of ``grads`` lands in one flat bin
    ``inverse[k] * width + column``; ``np.bincount`` accumulates each bin
    sequentially from ``+0.0``, exactly as ``np.add.at`` does row-wise.
    """
    unique, inverse = np.unique(rows, return_inverse=True)
    row_shape = grads.shape[1:]
    width = int(np.prod(row_shape, dtype=np.int64))
    bins = (inverse * width)[:, None] + np.arange(width, dtype=np.int64)
    summed = np.bincount(
        bins.ravel(), weights=grads.ravel(), minlength=len(unique) * width
    )
    return unique, summed.reshape((len(unique), *row_shape))


class GradientBag:
    """Accumulates sparse row gradients for named parameters.

    Multiple ``add`` calls may reference the same rows; :meth:`compacted`
    sums duplicates so each row appears exactly once — required for correct
    AdaGrad/Adam moment updates.
    """

    def __init__(self) -> None:
        self._rows: dict[str, list[np.ndarray]] = defaultdict(list)
        self._grads: dict[str, list[np.ndarray]] = defaultdict(list)
        # name -> (unique rows, summed grads); None until the next compaction.
        self._compact: dict[str, tuple[np.ndarray, np.ndarray]] | None = None

    def add(self, name: str, rows: np.ndarray, grads: np.ndarray) -> None:
        """Record gradients ``grads[i]`` for ``param[name][rows[i]]``.

        ``rows`` has shape ``[n]``; ``grads`` has shape ``[n, *row_shape]``.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        grads = np.asarray(grads, dtype=np.float64)
        if len(rows) != len(grads):
            raise ValueError(
                f"rows ({len(rows)}) and grads ({len(grads)}) for {name!r} disagree"
            )
        if len(rows) == 0:
            return
        self._compact = None
        self._rows[name].append(rows)
        self._grads[name].append(grads)

    def merge(self, other: "GradientBag") -> "GradientBag":
        """Fold another bag into this one (in place); returns self."""
        self._compact = None
        for name in other._rows:
            self._rows[name].extend(other._rows[name])
            self._grads[name].extend(other._grads[name])
        return self

    def names(self) -> list[str]:
        """Parameter names with at least one recorded gradient."""
        return list(self._rows.keys())

    def compacted(self) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        """Yield ``(name, unique_rows, summed_grads)`` per parameter.

        Computed on the first call after an ``add``/``merge`` and reused
        until the next one; the yielded arrays are that shared result,
        marked read-only.
        """
        compact = self._compact
        if compact is None:
            compact = {}
            for name in self._rows:
                unique, summed = _sum_duplicate_rows(
                    np.concatenate(self._rows[name]),
                    np.concatenate(self._grads[name], axis=0),
                )
                unique.flags.writeable = False
                summed.flags.writeable = False
                compact[name] = (unique, summed)
            self._compact = compact
        return ((name, rows, grads) for name, (rows, grads) in compact.items())

    def dense(self, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
        """Materialise dense gradients (used by gradient-check tests only)."""
        out = {name: np.zeros(shape) for name, shape in shapes.items()}
        for name, rows, grads in self.compacted():
            out[name][rows] += grads
        return out

    def global_norm(self) -> float:
        """l2 norm over every recorded gradient entry (Figure 10 metric)."""
        total = 0.0
        for _, _, grads in self.compacted():
            total += float(np.sum(grads**2))
        return float(np.sqrt(total))

    def touched_rows(self, name: str) -> np.ndarray:
        """Unique row indices recorded for ``name`` (empty if none)."""
        for other, rows, _ in self.compacted():
            if other == name:
                return rows
        return np.empty(0, dtype=np.int64)

    def __bool__(self) -> bool:
        return bool(self._rows)
