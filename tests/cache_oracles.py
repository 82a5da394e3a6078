"""Reference implementations the cache engine is parity-tested against.

Each oracle is the straightforward version of something
:class:`~repro.core.array_cache.ArrayNegativeCache` or
:class:`~repro.core.nscaching.NSCachingSampler` does vectorised, and each
is pinned bit-identical to it under a seed:

* :class:`NegativeCache` — a dict of per-key arrays with lazy per-key
  random init and a per-put multiset CE count (↔ one row per key);
* :class:`HashedNegativeCache` — the same dict over §VI hash buckets,
  through the scalar :func:`stable_key_hash` (↔ ``n_buckets=``);
* :class:`UnfusedRefreshSampler` — the step-by-step concatenate → score
  → select → scatter Alg. 3 refresh (↔ the fused refresh), selecting
  through :func:`select_cache_survivors`, the refresh's draw and
  row-local selection run back to back on one candidate union.

:class:`OracleCacheSampler` runs NSCaching on a dict oracle: it swaps
the caches after ``bind()`` and before any draw, and the oracle shares
``sampler.rng``, so the RNG stream stays identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.nscaching import NSCachingSampler
from repro.core.strategies import (
    SurvivorSelection,
    UpdateStrategy,
    _checked_candidates,
    _draw_noise,
    _select,
)
from repro.data.keyindex import BucketIndex, KeyIndex
from repro.data.triples import HEAD, REL, TAIL
from repro.utils.rng import ensure_rng

Key = tuple[int, int]


def select_cache_survivors(
    candidate_ids: np.ndarray,
    candidate_scores: np.ndarray,
    n_keep: int,
    strategy: UpdateStrategy,
    rng: np.random.Generator | int | None = None,
    *,
    return_scores: bool = True,
    return_selection: bool = False,
) -> tuple[np.ndarray, np.ndarray | None] | SurvivorSelection:
    """Select ``n_keep`` entries per row from the Alg. 3 candidate union.

    Returns ``(ids, scores)`` each of shape ``[B, n_keep]``.  Duplicate ids
    within a row are suppressed before selection.  Importance selection is
    sampling *without replacement* with probability ``softmax(score)``
    (Eq. 6), realised as top-``n_keep`` of ``score + Gumbel noise``.

    The refresh's selection split at its RNG boundary, run back to back:
    after the candidates are checked (a NaN or infinite score raises
    ``FloatingPointError`` before anything is drawn), one ``[B, n]``
    block of uniforms is drawn from ``rng`` (none for top), and the
    row-local rest builds the keys in that block.  The score gather is
    skipped with ``return_scores=False`` (the caches only co-store scores
    for the IS/top sampling strategies) — ``scores`` is then ``None``.
    RNG consumption is identical either way, so toggling it cannot
    perturb a seeded run.

    With ``return_selection=True`` the result is a
    :class:`SurvivorSelection` that additionally carries the selected
    union columns and the duplicate-fill flags, the inputs of the
    sort-free per-row CE hint (:meth:`SurvivorSelection.cached_overlap`).
    """
    rng = ensure_rng(rng)
    ids, scores = _checked_candidates(candidate_ids, candidate_scores, n_keep)
    strategy = UpdateStrategy(strategy)
    selection = _select(
        ids, scores, n_keep, strategy, _draw_noise(ids.shape, strategy, rng),
        return_scores,
    )
    if return_selection:
        return selection
    return selection.ids, selection.scores


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only (cache entries are replaced, never mutated)."""
    array.setflags(write=False)
    return array


class NegativeCache:
    """A mapping ``(id, id) -> N1 cached entity ids (+ optional scores)``."""

    def __init__(
        self,
        size: int,
        n_entities: int,
        rng: np.random.Generator | int | None = None,
        *,
        store_scores: bool = False,
    ) -> None:
        if size <= 0:
            raise ValueError(f"cache size N1 must be > 0, got {size}")
        if n_entities <= 0:
            raise ValueError(f"n_entities must be > 0, got {n_entities}")
        self.size = int(size)
        self.n_entities = int(n_entities)
        self.store_scores = bool(store_scores)
        self.rng = ensure_rng(rng)
        self._ids: dict[Key, np.ndarray] = {}
        self._scores: dict[Key, np.ndarray] = {}
        self._key_index: KeyIndex | None = None
        #: Total cache elements replaced since construction (the CE metric).
        self.changed_elements = 0
        #: Number of entries created lazily.
        self.initialised_entries = 0

    # -- access ------------------------------------------------------------
    def get(self, key: Key) -> np.ndarray:
        """Entity ids cached under ``key`` (random-initialised on first touch).

        The returned array is a **read-only view** of cache state; writing
        through it raises instead of silently corrupting the cache.
        """
        entry = self._ids.get(key)
        if entry is None:
            entry = _frozen(
                self.rng.integers(0, self.n_entities, size=self.size, dtype=np.int64)
            )
            self._ids[key] = entry
            if self.store_scores:
                self._scores[key] = _frozen(np.zeros(self.size, dtype=np.float64))
            self.initialised_entries += 1
        return entry

    def scores(self, key: Key) -> np.ndarray:
        """Stored scores for ``key`` (zeros until the first refresh)."""
        if not self.store_scores:
            raise RuntimeError("cache was built with store_scores=False")
        self.get(key)  # ensure the entry exists
        return self._scores[key]

    def get_many(self, keys: list[Key]) -> np.ndarray:
        """Stack cached ids for a batch of keys; shape ``[len(keys), N1]``."""
        return np.stack([self.get(key) for key in keys])

    def scores_many(self, keys: list[Key]) -> np.ndarray:
        """Stack stored scores for a batch of keys."""
        return np.stack([self.scores(key) for key in keys])

    # -- row-addressed access ---------------------------------------------------
    # The surface ArrayNegativeCache offers: rows are translated back to
    # tuple keys and served by the per-key dict machinery above.
    def attach_index(self, index: KeyIndex) -> None:
        """Bind the key→row map used by gather/scatter."""
        self._key_index = index

    def _rows_to_keys(self, rows: np.ndarray) -> list[Key]:
        if self._key_index is None:
            raise RuntimeError(
                f"{type(self).__name__} has no key index; call "
                "attach_index(KeyIndex) before gather/scatter"
            )
        return [self._key_index.key_of(int(row)) for row in np.asarray(rows)]

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Cached ids for a batch of rows; shape ``[len(rows), N1]``."""
        return self.get_many(self._rows_to_keys(rows))

    def gather_scores(self, rows: np.ndarray) -> np.ndarray:
        """Stored scores for a batch of rows."""
        return self.scores_many(self._rows_to_keys(rows))

    def storage_rows(self, rows: np.ndarray) -> np.ndarray:
        """Stored row per dense key row (identity: one entry per key)."""
        return np.asarray(rows, dtype=np.int64)

    def scatter(
        self,
        rows: np.ndarray,
        ids: np.ndarray,
        scores: np.ndarray | None = None,
        *,
        overlap: np.ndarray | None = None,
    ) -> int:
        """Row-by-row :meth:`put`; returns total #elements that changed.

        The CE count always comes from the per-put multiset walk.  A
        caller-derived per-row ``overlap`` hint (the fused refresh's
        column derivation) is checked row by row against that walk on
        the first write to each stored entry (the entry the hint
        describes), so every parity run also checks every hint.
        """
        keys = self._rows_to_keys(rows)
        ids = np.asarray(ids)
        if ids.shape != (len(keys), self.size):
            raise ValueError(
                f"entries must have shape ({len(keys)}, {self.size}), got {ids.shape}"
            )
        if scores is not None:
            # Validate up front: a wrong-shaped block would otherwise fail
            # (or broadcast) mid-loop, leaving earlier rows written.
            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != (len(keys), self.size):
                raise ValueError(
                    f"scores must have shape ({len(keys)}, {self.size}) to "
                    f"match ids, got {scores.shape}"
                )
        recount = 0
        written: set[Key] = set()
        for i, key in enumerate(keys):
            stored = self._stored_key(key)
            old = self._ids.get(stored)
            if overlap is not None and stored not in written and old is not None:
                walk = _multiset_overlap(old, ids[i])
                if int(overlap[i]) != walk:
                    raise AssertionError(
                        f"caller-derived CE hint for row {i}: overlap "
                        f"{int(overlap[i])} != multiset walk {walk}"
                    )
            written.add(stored)
            recount += self.put(key, ids[i], scores[i] if scores is not None else None)
        return recount

    def _stored_key(self, key: Key) -> Key:
        """The dict key ``key``'s entry is stored under (itself)."""
        return key

    def close(self) -> None:
        """Nothing to release (the sampler closes its caches)."""

    # -- mutation -------------------------------------------------------------
    def put(self, key: Key, ids: np.ndarray, scores: np.ndarray | None = None) -> int:
        """Replace the entry under ``key``; returns #elements that changed.

        The changed-element count compares id multisets, which is the CE
        metric of Figure 8: a refresh that re-selects the same entities
        counts as zero change.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (self.size,):
            raise ValueError(f"entry must have shape ({self.size},), got {ids.shape}")
        # All validation precedes any write so a rejected put leaves the
        # entry untouched (no partial id-without-scores state).
        if self.store_scores and scores is None:
            raise ValueError("store_scores=True cache requires scores on put()")
        if scores is not None:
            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != (self.size,):
                raise ValueError(
                    f"scores must have shape ({self.size},) to match the "
                    f"entry, got {scores.shape}"
                )
        old = self._ids.get(key)
        if old is None:
            changed = self.size
            self.initialised_entries += 1
        else:
            # Multiset difference size via sorted comparison.
            changed = self.size - _multiset_overlap(old, ids)
        self._ids[key] = _frozen(ids.copy())
        if self.store_scores:
            assert scores is not None
            self._scores[key] = _frozen(scores.copy())
        self.changed_elements += changed
        return changed

    # -- introspection ------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Number of materialised cache entries."""
        return len(self._ids)

    def keys(self) -> list[Key]:
        """All materialised keys."""
        return list(self._ids.keys())

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the stored arrays."""
        total = sum(a.nbytes for a in self._ids.values())
        total += sum(a.nbytes for a in self._scores.values())
        return total

    def reset_counters(self) -> None:
        """Zero the CE / initialisation counters (per-epoch accounting)."""
        self.changed_elements = 0
        self.initialised_entries = 0

    def __contains__(self, key: Key) -> bool:
        return key in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={self.size}, entries={self.n_entries}, "
            f"store_scores={self.store_scores})"
        )


def _multiset_overlap(a: np.ndarray, b: np.ndarray) -> int:
    """Size of the multiset intersection of two equal-length id arrays."""
    a = np.sort(a)
    b = np.sort(b)
    i = j = overlap = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            overlap += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return overlap


# Knuth-style multiplicative mixing constants (deterministic across runs,
# unlike Python's salted hash()).  Must match the vectorised
# ``repro.data.keyindex.stable_key_hash`` (enforced by test).
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xC2B2AE3D27D4EB4F
_MASK = (1 << 64) - 1


def stable_key_hash(key: Key) -> int:
    """Deterministic 64-bit hash of one ``(id, id)`` cache key.

    Scalar counterpart of the vectorised
    :func:`repro.data.keyindex.stable_key_hash`, in pure Python.
    """
    a, b = int(key[0]), int(key[1])
    x = (a * _MIX_A + b * _MIX_B) & _MASK
    x ^= x >> 29
    x = (x * _MIX_A) & _MASK
    x ^= x >> 32
    return x


class HashedNegativeCache(NegativeCache):
    """A :class:`NegativeCache` whose keys share ``n_buckets`` slots."""

    def __init__(
        self,
        size: int,
        n_entities: int,
        rng: np.random.Generator | int | None = None,
        *,
        n_buckets: int = 1024,
        store_scores: bool = False,
    ) -> None:
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be > 0, got {n_buckets}")
        super().__init__(size, n_entities, rng, store_scores=store_scores)
        self.n_buckets = int(n_buckets)
        self._bucket_index: BucketIndex | None = None

    def attach_index(self, index: KeyIndex) -> None:
        """Bind the key→row map; also index the buckets for introspection."""
        super().attach_index(index)
        self._bucket_index = BucketIndex(index, self.n_buckets)

    def _require_buckets(self) -> BucketIndex:
        if self._bucket_index is None:
            raise RuntimeError(
                "HashedNegativeCache has no key index; call "
                "attach_index(KeyIndex) before bucket introspection"
            )
        return self._bucket_index

    def load_factor(self) -> float:
        """Mean indexed keys per bucket (``n_keys / n_buckets``)."""
        return self._require_buckets().load_factor()

    def n_colliding_keys(self) -> int:
        """Indexed keys sharing their bucket with at least one other key."""
        return self._require_buckets().n_colliding_keys()

    def _stored_key(self, key: Key) -> Key:
        """The bucket ``key``'s entry is stored under."""
        return (stable_key_hash(key) % self.n_buckets, 0)

    def storage_rows(self, rows: np.ndarray) -> np.ndarray:
        """Bucket row per dense key row (colliding keys share a row)."""
        return np.array(
            [self._stored_key(key)[0] for key in self._rows_to_keys(rows)],
            dtype=np.int64,
        )

    def get(self, key: Key) -> np.ndarray:
        """Cached ids for ``key``'s bucket (shared across colliding keys)."""
        return super().get(self._stored_key(key))

    def scores(self, key: Key) -> np.ndarray:
        """Stored scores for ``key``'s bucket."""
        return super().scores(self._stored_key(key))

    def put(self, key: Key, ids: np.ndarray, scores: np.ndarray | None = None) -> int:
        """Replace ``key``'s bucket contents; returns #changed elements."""
        return super().put(self._stored_key(key), ids, scores)

    def __contains__(self, key: Key) -> bool:
        return super().__contains__(self._stored_key(key))

    def memory_bound_bytes(self) -> int:
        """Worst-case memory if every bucket materialises."""
        per_entry = self.size * 8 * (2 if self.store_scores else 1)
        return self.n_buckets * per_entry

    def __repr__(self) -> str:
        return (
            f"HashedNegativeCache(size={self.size}, n_buckets={self.n_buckets}, "
            f"entries={self.n_entries})"
        )


class UnfusedRefreshSampler(NSCachingSampler):
    """NSCaching with the step-by-step reference Alg. 3 refresh.

    Same kernels and the same generator consumption as the fused
    refresh, without the persistent union buffer, the selection fast
    path or the caller-derived per-row CE hint.
    """

    def _refresh_side(self, batch: np.ndarray, rows: np.ndarray, mode: str) -> None:
        assert self.head_cache is not None and self.tail_cache is not None
        cache = self.head_cache if mode == "head" else self.tail_cache
        n1, n2 = self.cache_size, self.candidate_size
        current = cache.gather(rows)  # [B, N1]
        fresh = self.rng.integers(
            0, self.dataset.n_entities, size=(len(batch), n2), dtype=np.int64
        )
        union = np.concatenate([current, fresh], axis=1)  # [B, N1+N2]
        anchors = batch[:, TAIL] if mode == "head" else batch[:, HEAD]
        scores = self.model.score_candidates(anchors, batch[:, REL], union, mode)
        new_ids, new_scores = select_cache_survivors(
            union, scores, n1, self.update_strategy, self.rng
        )
        ce = cache.scatter(rows, new_ids, new_scores if cache.store_scores else None)
        if self._mh is not None:
            self._observe_refresh(mode, len(batch), ce)


class OracleCacheSampler(NSCachingSampler):
    """An NSCachingSampler whose caches are dict oracles.

    ``oracle`` is :class:`NegativeCache` or :class:`HashedNegativeCache`
    (which takes the sampler's ``n_buckets``).  Every ``bind()`` swaps the
    engine caches for oracles before any draw; they share ``self.rng``.
    """

    def __init__(self, oracle: type, **kwargs: object) -> None:
        super().__init__(**kwargs)
        self.oracle = oracle

    def bind(self, model, dataset, rng=None) -> "OracleCacheSampler":
        super().bind(model, dataset, rng)
        assert self.key_index is not None and self.head_cache is not None
        options = (
            {"n_buckets": self.n_buckets} if self.oracle is HashedNegativeCache else {}
        )
        for side, index in (("head", self.key_index.head), ("tail", self.key_index.tail)):
            cache = self.oracle(
                self.cache_size,
                dataset.n_entities,
                self.rng,
                store_scores=self.head_cache.store_scores,
                **options,
            )
            cache.attach_index(index)
            setattr(self, f"{side}_cache", cache)
        return self
