"""An LRU cache for repeated link-prediction queries.

The serving-side sibling of the training-time
:class:`~repro.core.array_cache.ArrayNegativeCache`: where that cache keeps the
hardest negatives per ``(h, r)`` / ``(r, t)`` key hot across epochs, this
one keeps *answered queries* hot across requests.  Real query streams are
heavily skewed (a few head entities dominate), so even a small capacity
absorbs most of the scoring work.

Thread-safe: the HTTP layer serves from a threading server, so every
operation takes an internal lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

__all__ = ["QueryCache"]


class QueryCache:
    """A bounded mapping with least-recently-used eviction and hit stats."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        #: Lookup counters since construction (or the last reset).
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> object | None:
        """The cached value for ``key`` (refreshing its recency), else None."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh ``key``, evicting the LRU entry past capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_counters`)."""
        with self._lock:
            self._entries.clear()

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float | int]:
        """A JSON-safe counter snapshot for ``/stats``."""
        return {
            "capacity": self.capacity,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"QueryCache(capacity={self.capacity}, entries={len(self)}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
