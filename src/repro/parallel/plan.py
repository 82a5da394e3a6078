"""Shard plans: contiguous partitions of a cache's storage row-space.

Cache rows are the unit of write ownership in the NSCaching refresh: a
batch's update touches exactly the storage rows of its cache keys (key
rows with one row per key, bucket rows with ``n_buckets`` — both
row-addressed).  A :class:`ShardPlan` splits that row-space into
``n_shards`` contiguous ranges; any two batch slices whose rows fall in
different shards touch disjoint storage and can therefore refresh
concurrently with zero locking.  The plan is the contract between an
:class:`~repro.core.array_cache.ArrayNegativeCache` built with
``n_shards=`` (which owns the rows) and the
:class:`~repro.parallel.pool.RefreshPool` (which assigns each shard's
slice of a batch to a worker).

Ranges are near-equal by construction
(:func:`~repro.data.keyindex.even_ranges`); with bucket rows the
hash spreads keys uniformly over buckets, so equal *row* ranges are also
approximately equal *load* ranges.
"""

from __future__ import annotations

import numpy as np

from repro.data.keyindex import even_ranges

__all__ = ["ShardPlan"]


class ShardPlan:
    """A partition of ``[0, n_rows)`` into contiguous shard ranges."""

    def __init__(self, n_rows: int, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows}")
        self.n_rows = int(n_rows)
        self.n_shards = int(n_shards)
        #: ``n_shards + 1`` ascending bounds; shard ``s`` owns rows
        #: ``[bounds[s], bounds[s+1])``.
        self.bounds = even_ranges(self.n_rows, self.n_shards)

    # -- row → shard ---------------------------------------------------------
    def shard_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Owning shard id of each storage row; shape ``[len(rows)]``."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ValueError(
                f"rows must lie in [0, {self.n_rows}), got range "
                f"[{rows.min()}, {rows.max()}]"
            )
        return np.searchsorted(self.bounds[1:], rows, side="right")

    def shard_bounds(self, shard: int) -> tuple[int, int]:
        """The ``[start, stop)`` row range shard ``shard`` owns."""
        if not 0 <= shard < self.n_shards:
            raise IndexError(f"shard must be in [0, {self.n_shards}), got {shard}")
        return int(self.bounds[shard]), int(self.bounds[shard + 1])

    def rows_per_shard(self) -> np.ndarray:
        """Storage rows owned by each shard; shape ``[n_shards]``."""
        return np.diff(self.bounds)

    # -- batch → shard slices --------------------------------------------------
    def split(self, rows: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Group a batch's storage rows by owning shard.

        Returns ``(shard_id, positions)`` pairs — ``positions`` indexes
        into ``rows`` (hence into the batch), in batch order, so repeated
        rows within one shard keep their write order.  Shards the batch
        does not touch are omitted; the positions of all pairs partition
        ``arange(len(rows))``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return []
        shards = self.shard_of_rows(rows)
        order = np.argsort(shards, kind="stable")  # batch order within shard
        counts = np.bincount(shards, minlength=self.n_shards)
        out: list[tuple[int, np.ndarray]] = []
        start = 0
        for shard in np.flatnonzero(counts):
            stop = start + int(counts[shard])
            out.append((int(shard), order[start:stop]))
            start = stop
        return out

    def occupancy_of(self, rows: np.ndarray) -> np.ndarray:
        """How many of ``rows`` each shard owns; shape ``[n_shards]``."""
        return np.bincount(self.shard_of_rows(rows), minlength=self.n_shards)

    def __repr__(self) -> str:
        return f"ShardPlan(n_rows={self.n_rows}, n_shards={self.n_shards})"
