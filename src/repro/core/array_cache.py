"""The negative cache (paper §III-B): one preallocated numpy engine.

NSCaching keeps a *head cache* ``H`` indexed by ``(r, t)`` and a *tail
cache* ``T`` indexed by ``(h, r)``; each entry holds ``N1`` entity ids
(only indices are stored, §III-B3).  :class:`ArrayNegativeCache` stores a
whole cache as one block::

    ids    : int64  [n_rows, N1]   cached entity ids
    scores : float64[n_rows, N1]   optional (IS/top sampling only)
    _live  : bool   [n_rows]       which rows have been initialised

Callers address it by the dense key rows of a
:class:`~repro.data.keyindex.KeyIndex` (attached once at bind time), so a
batch access is a single fancy-index ``gather`` and a refresh is a single
``scatter`` — zero per-row Python.  Two independent constructor choices
fix the layout:

* **row map** — ``n_buckets=None`` stores one row per distinct key;
  ``n_buckets=K`` hashes keys onto ``K`` rows through a
  :class:`~repro.data.keyindex.BucketIndex` (the §VI memory bound:
  storage is ``O(K * N1)`` whatever the number of keys, and colliding
  keys share a row);
* **allocator** — ``n_shards=None`` allocates on the heap;
  ``n_shards=S`` allocates ``multiprocessing.shared_memory`` segments
  (:class:`~repro.parallel.sharded.SharedArrayBlock`) and overlays a
  :class:`~repro.parallel.plan.ShardPlan` of ``S`` contiguous ranges on
  the storage rows, so :class:`~repro.parallel.pool.RefreshPool` workers
  can refresh disjoint shards of one batch concurrently.  The owner must
  :meth:`~ArrayNegativeCache.close` the segments.

Neither choice changes access semantics beyond the row map: every layout
is bit-identical to its heap sibling under a seed (property-tested).
Lazy random initialisation draws from the generator in first-occurrence
order, which keeps the RNG stream bit-identical to a per-key dict cache's
lazy draws (the dict oracles in ``tests/cache_oracles.py`` pin this).

The CE metric (changed cache elements, Figure 8) is counted per row
against the stored entry: by :func:`multiset_overlap_rows` for a whole
batch at once, or taken from the fused refresh's per-row ``overlap``
hint.  A storage row written twice in one batch is recounted locally,
against its preceding write.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.keyindex import BucketIndex, KeyIndex
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # runtime imports stay lazy: repro.parallel imports this module
    from repro.parallel.plan import ShardPlan
    from repro.parallel.sharded import SharedArrayBlock

__all__ = ["ArrayNegativeCache", "multiset_overlap_rows"]


def layout_count(name: str, value: int | None) -> int | None:
    """Validate an optional ``n_buckets``/``n_shards`` count (int >= 1)."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if int(value) < 1:
        raise ValueError(f"{name} must be >= 1, got {int(value)}")
    return int(value)


def _occurrence_rank(sorted_rows: np.ndarray) -> np.ndarray:
    """Per element of a row-wise sorted array: its index among equal values.

    ``[3, 5, 5, 5, 9] -> [0, 0, 1, 2, 0]``.  Tagging each value with its
    rank makes multisets behave as sets: ``min(count_a(v), count_b(v))``
    equals the number of ``(v, rank)`` pairs the two rows share.
    """
    b, n = sorted_rows.shape
    idx = np.broadcast_to(np.arange(n), (b, n))
    is_run_start = np.ones((b, n), dtype=bool)
    is_run_start[:, 1:] = sorted_rows[:, 1:] != sorted_rows[:, :-1]
    run_start = np.maximum.accumulate(np.where(is_run_start, idx, 0), axis=1)
    return idx - run_start


def multiset_overlap_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise multiset intersection sizes of two ``[B, N]`` id arrays.

    Exact vectorised equivalent of a per-row sorted merge walk over the
    two id multisets.

    Method: tag every element with its occurrence rank among equal values
    in its (sorted) row.  ``(row, value, rank)`` records are unique within
    each side, and ``min(count_a(v), count_b(v))`` is exactly the number of
    records the two sides share — so the multiset problem becomes a set
    intersection.  Packing each record into one int64 turns that into a
    single flat sort: shared records land as adjacent equal pairs.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"expected equal [B, N] shapes, got {a.shape} and {b.shape}")
    n_rows, n_cols = a.shape
    if a.size == 0:
        return np.zeros(n_rows, dtype=np.int64)
    a = np.sort(a, axis=1)
    b = np.sort(b, axis=1)
    lo = min(int(a[:, 0].min()), int(b[:, 0].min()))
    hi = max(int(a[:, -1].max()), int(b[:, -1].max()))
    span = hi - lo + 1
    if n_rows * span * n_cols >= 2**62:
        # Packed codes would overflow int64 (extreme id ranges); run the
        # same adjacency trick through an explicit lexsort over
        # (row, value, rank) records instead — overflow-free, mirroring
        # duplicate_mask's wide-id fallback.
        rows = np.repeat(np.arange(n_rows, dtype=np.int64), n_cols)
        rows = np.concatenate([rows, rows])
        values = np.concatenate([a.ravel(), b.ravel()])
        ranks = np.concatenate(
            [_occurrence_rank(a).ravel(), _occurrence_rank(b).ravel()]
        )
        order = np.lexsort((ranks, values, rows))
        rows, values, ranks = rows[order], values[order], ranks[order]
        same = (
            (rows[1:] == rows[:-1])
            & (values[1:] == values[:-1])
            & (ranks[1:] == ranks[:-1])
        )
        return np.bincount(rows[:-1][same], minlength=n_rows).astype(np.int64)
    row_base = (np.arange(n_rows, dtype=np.int64) * span)[:, None]
    codes = np.concatenate(
        [
            ((row_base + (a - lo)) * n_cols + _occurrence_rank(a)).ravel(),
            ((row_base + (b - lo)) * n_cols + _occurrence_rank(b)).ravel(),
        ]
    )
    codes.sort()
    matched = codes[:-1][codes[1:] == codes[:-1]]
    return np.bincount(matched // (span * n_cols), minlength=n_rows).astype(np.int64)


class ArrayNegativeCache:
    """A preallocated, fully vectorised negative cache.

    Storage is allocated when a :class:`~repro.data.keyindex.KeyIndex` is
    attached, which fixes the number of rows (the key count, or
    ``n_buckets``).  See the module docstring for the row map and the
    allocator.
    """

    def __init__(
        self,
        size: int,
        n_entities: int,
        rng: np.random.Generator | int | None = None,
        *,
        store_scores: bool = False,
        n_buckets: int | None = None,
        n_shards: int | None = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"cache size N1 must be > 0, got {size}")
        if n_entities <= 0:
            raise ValueError(f"n_entities must be > 0, got {n_entities}")
        self.size = int(size)
        self.n_entities = int(n_entities)
        self.store_scores = bool(store_scores)
        self.n_buckets = layout_count("n_buckets", n_buckets)
        self.n_shards = layout_count("n_shards", n_shards)
        self.rng = ensure_rng(rng)
        self._index: KeyIndex | None = None
        self._buckets: BucketIndex | None = None
        self._ids: np.ndarray | None = None
        self._scores: np.ndarray | None = None
        self._live: np.ndarray | None = None
        #: Shard partition of the storage rows (shared layout, after attach).
        self.plan: ShardPlan | None = None
        self._blocks: list[SharedArrayBlock] = []
        #: Total cache elements replaced since construction (the CE metric).
        self.changed_elements = 0
        #: Number of entries created lazily.
        self.initialised_entries = 0

    # -- lifecycle -----------------------------------------------------------
    def _alloc(self, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        """Allocate one zeroed storage block on the heap or in shared memory."""
        if self.n_shards is None:
            return np.zeros(shape, dtype=dtype)
        from repro.parallel.sharded import SharedArrayBlock

        block = SharedArrayBlock(shape, dtype)
        self._blocks.append(block)
        assert block.array is not None
        return block.array

    def attach_index(self, index: KeyIndex) -> None:
        """Bind the key→row map and preallocate storage for its rows.

        Re-attaching replaces the storage (and releases any previous
        shared-memory segments).
        """
        self.close()
        self._index = index
        n_rows = index.n_keys
        if self.n_buckets is not None:
            # The memory bound: allocation is O(n_buckets * N1) independent
            # of the number of distinct keys.
            self._buckets = BucketIndex(index, self.n_buckets)
            n_rows = self.n_buckets
        self._ids = self._alloc((n_rows, self.size), np.int64)
        self._live = self._alloc((n_rows,), bool)
        if self.store_scores:
            self._scores = self._alloc((n_rows, self.size), np.float64)
        if self.n_shards is not None:
            from repro.parallel.plan import ShardPlan

            self.plan = ShardPlan(n_rows, self.n_shards)

    def attach_storage(
        self,
        index: KeyIndex | None,
        ids: np.ndarray,
        live: np.ndarray,
        scores: np.ndarray | None = None,
    ) -> None:
        """Bind to externally allocated storage instead of allocating.

        This is how :class:`~repro.parallel.pool.RefreshPool` workers view
        the parent's shared-memory blocks: gather/scatter then operate on
        the shared rows directly.  ``index`` may be ``None`` when only
        row-addressed access is needed (key-addressed probes then raise).
        The view addresses storage rows, so it is built without
        ``n_buckets``.
        """
        if ids.ndim != 2 or ids.shape[1] != self.size:
            raise ValueError(f"ids must have shape [n_rows, {self.size}], got {ids.shape}")
        if live.shape != (ids.shape[0],):
            raise ValueError(
                f"live must have shape ({ids.shape[0]},), got {live.shape}"
            )
        if self.store_scores:
            if scores is None or scores.shape != ids.shape:
                raise ValueError(
                    "store_scores=True storage requires a scores block "
                    f"of shape {ids.shape}"
                )
        self._index = index
        self._ids = ids
        self._live = live
        self._scores = scores if self.store_scores else None

    def close(self) -> None:
        """Release the shared-memory segments (idempotent; heap: no-op).

        After closing, gather/scatter and the shard introspection raise
        until a new index is attached.
        """
        if not self._blocks:
            return
        self._ids = None
        self._live = None
        self._scores = None
        self.plan = None
        blocks, self._blocks = self._blocks, []
        for block in blocks:
            block.release()

    def _require_index(self) -> KeyIndex | None:
        if self._ids is None or self._live is None:
            raise RuntimeError(
                "ArrayNegativeCache has no storage yet; call "
                "attach_index(KeyIndex) before gather/scatter"
            )
        return self._index

    # -- access (dense key rows in, storage rows under the hood) ---------------
    def storage_rows(self, rows: np.ndarray) -> np.ndarray:
        """Translate dense key rows to the rows actually stored.

        The identity for one row per key; bucket rows with ``n_buckets``
        (colliding keys share a row).  This is the row-space that
        :class:`~repro.parallel.plan.ShardPlan` partitions and that CE
        repeat-write semantics are defined over.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if self.n_buckets is None:
            return rows
        self._require_index()
        assert self._buckets is not None
        return self._buckets.bucket_rows(rows)

    def _materialise(self, rows: np.ndarray) -> None:
        """Random-init any not-yet-live storage rows, in first-occurrence order.

        First-occurrence order (not sorted order) matters: it makes the
        generator consume draws exactly as a dict cache's lazy per-key
        ``get`` does, keeping the two bit-identical under a seed.
        """
        assert self._ids is not None and self._live is not None
        pending = rows[~self._live[rows]]
        if len(pending) == 0:
            return
        uniq, first_pos = np.unique(pending, return_index=True)
        uniq = uniq[np.argsort(first_pos, kind="stable")]
        self._ids[uniq] = self.rng.integers(
            0, self.n_entities, size=(len(uniq), self.size), dtype=np.int64
        )
        self._live[uniq] = True
        self.initialised_entries += len(uniq)

    def _gather_stored(self, stored: np.ndarray) -> np.ndarray:
        self._require_index()
        self._materialise(stored)
        assert self._ids is not None
        return self._ids[stored]

    def _gather_stored_scores(self, stored: np.ndarray) -> np.ndarray:
        if not self.store_scores:
            raise RuntimeError("cache was built with store_scores=False")
        self._require_index()
        self._materialise(stored)
        assert self._scores is not None
        return self._scores[stored]

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Cached ids for a batch of key rows; shape ``[len(rows), N1]``.

        Rows never touched before are random-initialised first (the
        paper's from-scratch init).  The result is a copy — mutating it
        cannot corrupt cache state.
        """
        return self._gather_stored(self.storage_rows(rows))

    def gather_scores(self, rows: np.ndarray) -> np.ndarray:
        """Stored scores for a batch of key rows (zeros until first refresh)."""
        if not self.store_scores:
            raise RuntimeError("cache was built with store_scores=False")
        return self._gather_stored_scores(self.storage_rows(rows))

    # -- mutation ------------------------------------------------------------
    def scatter(
        self,
        rows: np.ndarray,
        ids: np.ndarray,
        scores: np.ndarray | None = None,
        *,
        overlap: np.ndarray | None = None,
    ) -> int:
        """Replace the entries at key ``rows``; returns #elements that changed.

        Semantically equivalent to one sequential per-row ``put``: when a
        batch repeats a storage row (the same key twice, or colliding
        keys under ``n_buckets``), each write's CE is counted against the
        *previous* write, and the last write wins.

        ``overlap`` is an optional per-row hint: ``overlap[b]`` is the
        multiset overlap of ``ids[b]`` with the entry stored at row
        ``b``'s storage row before this call (the fused refresh derives
        it from the selection's columns, see
        :meth:`~repro.core.strategies.SurvivorSelection.cached_overlap`).
        Without it every row is counted by :func:`multiset_overlap_rows`.
        Either way, only the non-first writes of a repeated storage row
        are recounted here, against the preceding write; their hints are
        ignored.  Rows not yet initialised count as fully changed.
        """
        self._require_index()
        assert self._ids is not None and self._live is not None
        rows = self.storage_rows(rows)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (len(rows), self.size):
            raise ValueError(
                f"entries must have shape ({len(rows)}, {self.size}), got {ids.shape}"
            )
        if self.store_scores and scores is None:
            raise ValueError("store_scores=True cache requires scores on scatter()")
        if scores is not None:
            # Validate before any write: a wrong-shaped block would
            # otherwise broadcast or partially fill the score storage.
            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != (len(rows), self.size):
                raise ValueError(
                    f"scores must have shape ({len(rows)}, {self.size}) to "
                    f"match ids, got {scores.shape}"
                )
        if overlap is not None:
            overlap = np.array(overlap, dtype=np.int64)  # a copy: recounts write into it
            if overlap.shape != (len(rows),):
                raise ValueError(
                    f"overlap must have shape ({len(rows)},), got {overlap.shape}"
                )
        if len(rows) == 0:
            return 0
        if overlap is None:
            overlap = multiset_overlap_rows(ids, self._ids[rows])

        live = self._live[rows]
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        dup = sorted_rows[1:] == sorted_rows[:-1]
        if dup.any():
            # Non-first writes count against the preceding write's ids.
            later, earlier = order[1:][dup], order[:-1][dup]
            overlap[later] = multiset_overlap_rows(ids[later], ids[earlier])
            live[later] = True
        changed = int(np.where(live, self.size - overlap, self.size).sum())
        self.changed_elements += changed
        self.initialised_entries += int(np.count_nonzero(~live))

        # Last write wins: assign only each row's final occurrence.
        is_last = np.ones(len(rows), dtype=bool)
        is_last[order[:-1][dup]] = False
        self._ids[rows[is_last]] = ids[is_last]
        self._live[rows] = True
        if self.store_scores:
            assert self._scores is not None and scores is not None
            self._scores[rows[is_last]] = scores[is_last]
        return changed

    # -- key-addressed access (probing / callbacks) ---------------------------
    def _stored_row_of(self, key: tuple[int, int]) -> np.ndarray:
        """The storage row of one ``(id, id)`` key, as a 1-element array.

        With ``n_buckets`` hashing serves *any* key, indexed or not.
        """
        index = self._require_index()
        if self._buckets is not None:
            return np.array([self._buckets.bucket_of(key)], dtype=np.int64)
        if index is None:
            raise RuntimeError(
                "storage-attached cache has no key index; only row-addressed "
                "gather/scatter is available"
            )
        return np.array([index.row_of(key)], dtype=np.int64)

    def get(self, key: tuple[int, int]) -> np.ndarray:
        """Entity ids cached under a ``(id, id)`` key (a copy)."""
        return self._gather_stored(self._stored_row_of(key))[0]

    def scores(self, key: tuple[int, int]) -> np.ndarray:
        """Stored scores under a ``(id, id)`` key (a copy)."""
        if not self.store_scores:
            raise RuntimeError("cache was built with store_scores=False")
        return self._gather_stored_scores(self._stored_row_of(key))[0]

    def __contains__(self, key: tuple[int, int]) -> bool:
        if self._live is None:
            return False
        if self._buckets is not None:
            return bool(self._live[self._buckets.bucket_of(key)])
        if self._index is None or not self._index.contains(key):
            return False
        return bool(self._live[self._index.row_of(key)])

    # -- introspection ---------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Number of initialised storage rows."""
        return int(self._live.sum()) if self._live is not None else 0

    def live_fraction(self) -> float:
        """Initialised fraction of the allocated row-space, in [0, 1].

        How much of the preallocated block has been touched; 0.0 before
        storage is attached.
        """
        if self._live is None or len(self._live) == 0:
            return 0.0
        return self.n_entries / len(self._live)

    def keys(self) -> list[tuple[int, int]]:
        """Keys of all initialised rows.

        With ``n_buckets`` these are synthetic ``(bucket, 0)`` keys —
        real keys map many-to-one onto buckets.
        """
        if self._live is None:
            return []
        if self._buckets is not None:
            return [(int(bucket), 0) for bucket in np.flatnonzero(self._live)]
        if self._index is None:
            return []
        pairs = self._index.keys()[self._live]
        return [(int(a), int(b)) for a, b in pairs]

    def memory_bytes(self) -> int:
        """Bytes held by *initialised* entries (the paper's O(|S|·N1) figure).

        :meth:`allocated_bytes` reports the preallocated block.
        """
        return self.n_entries * self._row_bytes()

    def _row_bytes(self) -> int:
        return self.size * 8 * (2 if self.store_scores else 1)

    def allocated_bytes(self) -> int:
        """Actual bytes of the preallocated arrays (0 before attach)."""
        total = self._ids.nbytes if self._ids is not None else 0
        total += self._scores.nbytes if self._scores is not None else 0
        total += self._live.nbytes if self._live is not None else 0
        return total

    # -- bucket introspection (n_buckets) -----------------------------------------
    def _require_buckets(self) -> BucketIndex:
        # Collision stats need only the bucket index, not live storage —
        # they stay readable after shared segments were released.
        if self._buckets is None:
            raise RuntimeError(
                "cache has no bucket index; build it with n_buckets= and "
                "call attach_index(KeyIndex) before bucket introspection"
            )
        return self._buckets

    def load_factor(self) -> float:
        """Mean indexed keys per bucket (``n_keys / n_buckets``)."""
        return self._require_buckets().load_factor()

    def n_colliding_keys(self) -> int:
        """Indexed keys sharing their bucket with at least one other key."""
        return self._require_buckets().n_colliding_keys()

    def memory_bound_bytes(self) -> int:
        """Worst-case memory if every bucket materialises (the §VI bound)."""
        if self.n_buckets is None:
            raise RuntimeError("memory_bound_bytes needs n_buckets=")
        return self.n_buckets * self._row_bytes()

    # -- shard introspection (n_shards) --------------------------------------------
    def _require_plan(self) -> ShardPlan:
        if self.plan is None:
            raise RuntimeError(
                "cache has no shard plan; build it with n_shards= and call "
                "attach_index first"
            )
        return self.plan

    def shard_occupancy(self) -> np.ndarray:
        """Initialised (live) storage rows per shard; shape ``[n_shards]``."""
        plan = self._require_plan()
        assert self._live is not None
        return plan.occupancy_of(np.flatnonzero(self._live))

    def shard_key_ownership(self) -> np.ndarray:
        """Distinct cache keys whose storage row each shard owns.

        One row per key: the shard's row count.  With ``n_buckets``: the
        number of keys hashing into the shard's bucket range (collisions
        make it exceed the row count).
        """
        plan = self._require_plan()
        assert self._index is not None
        return plan.occupancy_of(
            self.storage_rows(np.arange(self._index.n_keys, dtype=np.int64))
        )

    def worker_layout(self) -> dict[str, object]:
        """The pieces a refresh worker needs to view this cache's rows."""
        self._require_plan()
        return {
            "ids": self._ids,
            "live": self._live,
            "scores": self._scores,
            "plan": self.plan,
            "size": self.size,
            "store_scores": self.store_scores,
        }

    # -- counters ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the CE / initialisation counters (per-epoch accounting)."""
        self.changed_elements = 0
        self.initialised_entries = 0

    def __len__(self) -> int:
        return self.n_entries

    def __repr__(self) -> str:
        n_keys = self._index.n_keys if self._index is not None else 0
        layout = "".join(
            f", {name}={value}"
            for name, value in (("n_buckets", self.n_buckets), ("n_shards", self.n_shards))
            if value is not None
        )
        return (
            f"ArrayNegativeCache(size={self.size}, n_keys={n_keys}{layout}, "
            f"entries={self.n_entries}, store_scores={self.store_scores})"
        )
