"""The paper's contribution: cache-based negative sampling.

* :mod:`repro.core.array_cache` — :class:`ArrayNegativeCache`, the one
  cache engine: ``N1`` entity ids per key row (§III-B3) in a
  preallocated block, with an optional §VI bucket row map
  (``n_buckets``) and an optional shared-memory allocator
  (``n_shards``);
* :mod:`repro.core.strategies` — sample-from-cache and update-cache
  strategies with the exploration/exploitation trade-offs of Figure 6,
  and :func:`refresh_cache_rows`, the one Alg. 3 refresh body, split
  at its RNG boundary into a draw step and a row-local score/select step;
* :mod:`repro.core.nscaching` — :class:`NSCachingSampler`, Algorithms 2-3;
* :mod:`repro.core.stats` — RR / NZL / CE instrumentation (Figures 7-8).
"""

from repro.core.array_cache import ArrayNegativeCache, multiset_overlap_rows
from repro.core.nscaching import NSCachingSampler
from repro.core.stats import EpochSeries, NegativeTracker
from repro.core.strategies import (
    SampleStrategy,
    UpdateStrategy,
    duplicate_mask,
    refresh_cache_rows,
    sample_from_cache,
)

__all__ = [
    "ArrayNegativeCache",
    "EpochSeries",
    "NSCachingSampler",
    "NegativeTracker",
    "SampleStrategy",
    "UpdateStrategy",
    "duplicate_mask",
    "multiset_overlap_rows",
    "refresh_cache_rows",
    "sample_from_cache",
]
