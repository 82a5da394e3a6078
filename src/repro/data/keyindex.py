"""Dense integer indexes for the NSCaching cache keys (paper §III-B).

NSCaching addresses its head cache by ``(r, t)`` and its tail cache by
``(h, r)``.  The dict-backed cache materialises one Python tuple per batch
row per access; at paper defaults that is two tuples per triple per batch
per epoch.  :class:`KeyIndex` removes the tuples from the hot path: the
distinct key pairs of a dataset are enumerated **once** (``np.unique`` over
an integer encoding of the train split) and every pair maps to a dense row
index into a preallocated array cache.  Batch resolution is then a single
vectorised ``searchsorted``, and the trainer can go further and precompute
the row indices of the whole training split up front.

:class:`TripleKeyIndex` bundles the two sides so samplers build both maps
in one pass over the triples.

:class:`BucketIndex` adds the memory-bounded addressing mode (paper §VI):
it folds a :class:`KeyIndex`'s dense rows onto a fixed number of bucket
rows through :func:`stable_key_hash`.  The whole key set is hashed once
at construction, so translating a batch of dense rows to bucket rows is a
single fancy index in the hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.triples import HEAD, REL, TAIL

__all__ = [
    "BucketIndex",
    "KeyIndex",
    "TripleKeyIndex",
    "even_ranges",
    "stable_key_hash",
]

# Knuth-style multiplicative mixing constants (deterministic across runs
# and processes, unlike Python's salted ``hash()``).
_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xC2B2AE3D27D4EB4F)


def stable_key_hash(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hashes of ``(first[i], second[i])`` id pairs.

    Vectorised: hashing ``n`` keys is four uint64 array ops instead of a
    per-key Python loop.  Element-for-element identical to the scalar
    hash of the dict-bucket test oracle (enforced by test); returns a
    ``uint64`` array of the broadcast shape of the inputs.
    """
    # 1-element minimum keeps the arithmetic on arrays: numpy wraps array
    # integer overflow silently (wanted here) but warns on scalars.
    a = np.atleast_1d(np.asarray(first, dtype=np.int64)).astype(np.uint64)
    b = np.atleast_1d(np.asarray(second, dtype=np.int64)).astype(np.uint64)
    x = a * _MIX_A + b * _MIX_B
    x ^= x >> np.uint64(29)
    x *= _MIX_A
    x ^= x >> np.uint64(32)
    return x


def even_ranges(n_rows: int, n_parts: int) -> np.ndarray:
    """Bounds of ``n_parts`` contiguous near-equal ranges covering ``[0, n_rows)``.

    Returns an int64 array of ``n_parts + 1`` ascending bounds with
    ``bounds[0] == 0`` and ``bounds[-1] == n_rows``; part ``i`` owns rows
    ``[bounds[i], bounds[i+1])``.  Sizes differ by at most one (the first
    ``n_rows % n_parts`` parts get the extra row), so partitioning a cache
    row-space never concentrates load by construction.  Parts may be empty
    when ``n_parts > n_rows``.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_rows < 0:
        raise ValueError(f"n_rows must be >= 0, got {n_rows}")
    sizes = np.full(n_parts, n_rows // n_parts, dtype=np.int64)
    sizes[: n_rows % n_parts] += 1
    bounds = np.zeros(n_parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


class KeyIndex:
    """A bijection between distinct ``(first, second)`` id pairs and rows.

    Pairs are encoded as ``first * n_second + second`` (an injective code
    because ``0 <= second < n_second``), deduplicated and sorted; a pair's
    row is its rank among the distinct codes.
    """

    def __init__(self, first: np.ndarray, second: np.ndarray, n_second: int) -> None:
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        if first.shape != second.shape or first.ndim != 1:
            raise ValueError(
                f"key components must be equal-length 1-D arrays, got "
                f"{first.shape} and {second.shape}"
            )
        if n_second <= 0:
            raise ValueError(f"n_second must be > 0, got {n_second}")
        if len(second) and (second.min() < 0 or second.max() >= n_second):
            raise ValueError("second component out of range [0, n_second)")
        if len(first) and first.min() < 0:
            raise ValueError("first component must be non-negative")
        self.n_second = int(n_second)
        self._codes = np.unique(first * self.n_second + second)  # sorted

    # -- sizes -----------------------------------------------------------
    @property
    def n_keys(self) -> int:
        """Number of distinct pairs (= cache rows needed)."""
        return len(self._codes)

    # -- lookups ---------------------------------------------------------
    def rows(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Row index of each ``(first[i], second[i])`` pair; shape ``[B]``.

        Raises ``KeyError`` for pairs that were not in the indexed set —
        the array cache has no storage for them.
        """
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        codes = first * self.n_second + second
        if len(codes) == 0:
            return np.empty(0, dtype=np.int64)
        rows = np.searchsorted(self._codes, codes)
        rows_clipped = np.minimum(rows, self.n_keys - 1) if self.n_keys else rows
        missing = self.n_keys == 0 or not np.array_equal(
            self._codes[rows_clipped], codes
        )
        if missing:
            bad = (
                np.flatnonzero(self._codes[rows_clipped] != codes)[0]
                if self.n_keys
                else 0
            )
            raise KeyError(
                f"pair ({int(first[bad])}, {int(second[bad])}) is not in the "
                "key index (only keys seen at build time have cache rows)"
            )
        return rows

    def row_of(self, key: tuple[int, int]) -> int:
        """Row index of a single pair."""
        return int(self.rows(np.array([key[0]]), np.array([key[1]]))[0])

    def contains(self, key: tuple[int, int]) -> bool:
        """Whether a pair has a row."""
        code = int(key[0]) * self.n_second + int(key[1])
        pos = np.searchsorted(self._codes, code)
        return pos < self.n_keys and self._codes[pos] == code

    def key_of(self, row: int) -> tuple[int, int]:
        """The pair stored at ``row`` (inverse of :meth:`row_of`)."""
        code = int(self._codes[row])  # IndexError for out-of-range rows
        return code // self.n_second, code % self.n_second

    def keys(self) -> np.ndarray:
        """All pairs as an ``int64 [n_keys, 2]`` array, in row order."""
        return np.stack(
            [self._codes // self.n_second, self._codes % self.n_second], axis=1
        )

    def __repr__(self) -> str:
        return f"KeyIndex(n_keys={self.n_keys}, n_second={self.n_second})"


class BucketIndex:
    """Folds a :class:`KeyIndex`'s dense rows onto ``n_buckets`` bucket rows.

    The memory-bounded bucketed cache stores ``n_buckets`` rows no matter
    how many distinct keys the training split has; colliding keys share a
    row.  All indexed keys are hashed **once** here (one vectorised
    :func:`stable_key_hash` pass), so per-batch translation is a single
    fancy index — no per-key Python hash enters the hot loop.
    """

    def __init__(self, index: KeyIndex, n_buckets: int) -> None:
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be > 0, got {n_buckets}")
        self.base = index
        self.n_buckets = int(n_buckets)
        pairs = index.keys()
        self._bucket_of = (
            stable_key_hash(pairs[:, 0], pairs[:, 1]) % np.uint64(self.n_buckets)
        ).astype(np.int64)

    # -- sizes -----------------------------------------------------------
    @property
    def n_keys(self) -> int:
        """Distinct keys feeding the buckets (the base index's rows)."""
        return self.base.n_keys

    # -- lookups ---------------------------------------------------------
    def bucket_rows(self, rows: np.ndarray) -> np.ndarray:
        """Bucket row of each dense key row; shape ``[len(rows)]``."""
        return self._bucket_of[np.asarray(rows, dtype=np.int64)]

    def bucket_of(self, key: tuple[int, int]) -> int:
        """Bucket row of an arbitrary pair (indexed or not — hashing
        serves every key)."""
        h = stable_key_hash(
            np.array([key[0]], dtype=np.int64), np.array([key[1]], dtype=np.int64)
        )
        return int(h[0] % np.uint64(self.n_buckets))

    # -- collision introspection ------------------------------------------
    def occupancy(self) -> np.ndarray:
        """Number of indexed keys per bucket row; shape ``[n_buckets]``."""
        return np.bincount(self._bucket_of, minlength=self.n_buckets)

    def load_factor(self) -> float:
        """Mean keys per bucket (``n_keys / n_buckets``)."""
        return self.n_keys / self.n_buckets

    def n_colliding_keys(self) -> int:
        """Keys that share their bucket with at least one other key."""
        occupancy = self.occupancy()
        return int(occupancy[occupancy > 1].sum())

    def __repr__(self) -> str:
        return (
            f"BucketIndex(n_keys={self.n_keys}, n_buckets={self.n_buckets}, "
            f"colliding={self.n_colliding_keys()})"
        )


@dataclass(frozen=True)
class TripleKeyIndex:
    """Head- and tail-cache key indexes for one training split.

    ``head`` maps the head-cache key ``(r, t)`` (Alg. 2 step 5) and
    ``tail`` maps the tail-cache key ``(h, r)``.
    """

    head: KeyIndex
    tail: KeyIndex

    @classmethod
    def from_triples(
        cls, triples: np.ndarray, n_entities: int, n_relations: int
    ) -> "TripleKeyIndex":
        """Index the distinct cache keys of a triple array."""
        triples = np.asarray(triples, dtype=np.int64)
        return cls(
            head=KeyIndex(triples[:, REL], triples[:, TAIL], n_entities),
            tail=KeyIndex(triples[:, HEAD], triples[:, REL], n_relations),
        )

    def head_rows(self, batch: np.ndarray) -> np.ndarray:
        """Head-cache rows for a batch of triples."""
        batch = np.asarray(batch, dtype=np.int64)
        return self.head.rows(batch[:, REL], batch[:, TAIL])

    def tail_rows(self, batch: np.ndarray) -> np.ndarray:
        """Tail-cache rows for a batch of triples."""
        batch = np.asarray(batch, dtype=np.int64)
        return self.tail.rows(batch[:, HEAD], batch[:, REL])
