"""Sharded cache row-space and multiprocess epoch refresh.

The NSCaching refresh is the trainer's dominant cost and is
embarrassingly parallel once write ownership is made explicit: cache
storage rows are the unit of ownership, and batches touching disjoint
row ranges can refresh concurrently with zero locking.  This package
provides the three pieces:

* :class:`~repro.parallel.plan.ShardPlan` — partitions a storage
  row-space (key rows or bucket rows) into contiguous shard ranges and
  assigns each batch's touched rows to shards;
* :class:`~repro.parallel.sharded.SharedArrayBlock` — one ndarray in
  ``multiprocessing.shared_memory``: the storage an
  :class:`~repro.core.array_cache.ArrayNegativeCache` built with
  ``n_shards=`` allocates (bit-identical to its heap sibling under a
  seed), and the pool's parameter mirror;
* :class:`~repro.parallel.pool.RefreshPool` — persistent worker
  processes running the fused score-and-select refresh per shard against
  the shared storage, with deterministic per-``(mode, shard, epoch,
  batch)`` RNG streams and a bit-identical in-process fallback.

``NSCachingSampler(refresh_workers=...)`` wires them together (two or
more workers imply shared storage with ``n_shards`` defaulting to the
worker count); the CLI exposes ``--n-shards``/``--refresh-workers``.
"""

from repro.parallel.dirty import DirtyRowTracker
from repro.parallel.plan import ShardPlan
from repro.parallel.pool import RefreshPool, ShardResult, ShardTask, SyncReport
from repro.parallel.sharded import SharedArrayBlock

__all__ = [
    "DirtyRowTracker",
    "RefreshPool",
    "ShardPlan",
    "ShardResult",
    "ShardTask",
    "SharedArrayBlock",
    "SyncReport",
]
