"""Shared-memory array blocks.

:class:`SharedArrayBlock` is one ndarray backed by a
``multiprocessing.shared_memory`` segment.  Two owners allocate them:

* :class:`~repro.core.array_cache.ArrayNegativeCache` built with
  ``n_shards=`` keeps its storage in them, so
  :class:`~repro.parallel.pool.RefreshPool` worker processes can
  gather/scatter the same cache rows with zero copying;
* the pool mirrors the model's parameter tables into them, so a
  parent-side publish keeps the workers on current embeddings.

To *see* the resulting concurrency, trace a run (``repro train
--trace-out``): each worker's ``shard_task`` spans
(:mod:`repro.obs.trace`) land on their own pid row of the exported
timeline, overlapping the trainer's gradient and optimizer spans
whenever ``--refresh-workers`` is 2 or more.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArrayBlock"]


class SharedArrayBlock:
    """One ndarray backed by a ``multiprocessing.shared_memory`` segment.

    The creating process owns the segment and must :meth:`release` it;
    forked worker processes inherit the mapping and never unlink.
    """

    def __init__(self, shape: tuple[int, ...], dtype: object) -> None:
        nbytes = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        self._shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=nbytes
        )
        self.array: np.ndarray | None = np.ndarray(
            shape, dtype=dtype, buffer=self._shm.buf
        )
        self.array.fill(0)

    def release(self) -> None:
        """Drop the array view, close the mapping and unlink the segment."""
        if self._shm is None:
            return
        self.array = None  # the buffer export must go before close()
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
