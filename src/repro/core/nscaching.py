"""NSCaching — the paper's contribution (Algorithms 2 and 3).

For every positive triple ``(h, r, t)`` the sampler keeps a head cache
``H[(r, t)]`` and a tail cache ``T[(h, r)]`` of ``N1`` entity ids each:

* **sample** (Alg. 2 steps 5-7): index both caches, draw one candidate
  head and one candidate tail (uniformly by default — §III-B1), then keep
  either the head- or the tail-corruption via the Bernoulli coin;
* **update** (Alg. 2 step 8 / Alg. 3): union each cache entry with ``N2``
  fresh uniform entities, score all ``N1 + N2`` corruptions with the
  *current* model, and resample ``N1`` survivors without replacement with
  probability ``softmax(score)`` (importance sampling — §III-B2).

Exploration/exploitation: larger ``N1`` = more exploitation (more stored
hard negatives), larger ``N2`` = more exploration (faster refresh).  The
cache update may be applied lazily every ``lazy_epochs + 1`` epochs,
dividing its cost by ``n + 1`` (Table I).

Hot-loop layout: at :meth:`bind` time the distinct cache keys of the
training split are enumerated once into a
:class:`~repro.data.keyindex.TripleKeyIndex`, and both caches are
addressed by dense row indices of one
:class:`~repro.core.array_cache.ArrayNegativeCache` each.  A batch access
is then one vectorised ``gather`` and a refresh one ``scatter`` — no
per-triple Python tuples or loops.  The trainer can precompute the row
indices of the whole split once (:meth:`precompute_rows`) and pass
per-batch slices in.  ``n_buckets`` bounds the caches' memory by hashing
keys onto a fixed number of rows (§VI), and shared storage
(``n_shards``, or ``refresh_workers >= 2``) moves the rows into shared
memory; neither changes the refresh below.

The refresh itself (Alg. 3) is **fused**: the candidate union is
assembled in a persistent per-side buffer, scored in one shot through
the model's :meth:`~repro.models.base.KGEModel.score_candidates` kernel,
and the top-``N1`` survivors go straight from ``argpartition`` into the
cache ``scatter`` — no intermediate concatenate/score-gather copies.
The CE count arrives as a per-row hint derived from the selection's
column structure instead of a multiset sort, and ``scatter`` recounts
locally only the storage rows the batch writes more than once.

The head cache and the tail cache never read what the other writes, so
the two sides of a batch run on two threads, byte for byte.
:meth:`NSCachingSampler.update` first makes every draw of the batch on
the caller, head side then tail side, in the one stream's order
(:func:`~repro.core.strategies.draw_candidates`: the gather's lazy
init, the ``N2`` fresh ids, the selection noise into a persistent
per-side block).  The two sides' row-local steps
(:func:`~repro.core.strategies.score_and_select`) are then the two
halves of one :func:`~repro.models.base.split_work` call: the head side
on the caller, the tail side on the helper thread.  Only after the join
is either cache written, head then tail, so a non-finite score on either
side leaves both caches as they were.  A single side, a 1-CPU affinity
and a forked child run the same code serially.  The step-by-step
concatenate → score → select → scatter orchestration lives on as a test
oracle, bit-identical under a fixed seed
(``tests/integration/test_backend_parity.py``).

With ``refresh_workers >= 2`` the refresh instead runs on a
:class:`~repro.parallel.pool.RefreshPool`:
each batch is split by the cache's shard plan and every touched shard's
slice is refreshed by a worker process against shared-memory storage,
through the same ``refresh_cache_rows`` but drawing from its own
``(seed, mode, shard, epoch, batch)`` stream — deterministic and
worker-count-independent, though a different (equally valid) trajectory
than the sequential single-stream path.  The pooled refresh always runs
behind the training step: ``update()`` dispatches against a pre-step
parameter snapshot, and the results are collected before the caches are
next read.

Batching note: the paper updates caches triple-by-triple; this
implementation vectorises over the batch.  When two rows of one batch share
a cache key, both read the same pre-batch entry and the later write wins —
an O(1/|S|) -probability event that only delays one refresh.

No trainable parameters are added, and the KG embedding model trains with
plain gradient descent from scratch — the two properties Table I
contrasts with IGAN/KBGAN.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # runtime imports stay lazy to keep repro.parallel optional
    from repro.parallel.pool import RefreshPool, ShardResult, ShardTask, SyncReport

import numpy as np

from repro.core.array_cache import ArrayNegativeCache, layout_count
from repro.core.strategies import (
    CandidateDraw,
    RefreshedRows,
    SampleStrategy,
    UpdateStrategy,
    draw_candidates,
    reusable_rows,
    sample_from_cache,
    score_and_select,
)
from repro.data.dataset import KGDataset
from repro.data.keyindex import TripleKeyIndex
from repro.data.triples import HEAD, REL, TAIL
from repro.models.base import CANDIDATE_MODES, KGEModel, split_work
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.sampling.base import NegativeSampler

__all__ = ["BatchRows", "NSCachingSampler"]


class _RefreshMetrics:
    """Pre-resolved instrument handles for the sampler's hot paths.

    Built once when a :class:`~repro.obs.registry.MetricsRegistry` is
    attached, so a refresh pays a handful of attribute adds — never a
    registry lookup.  All counters carry a ``mode`` label (head/tail
    cache); the per-shard series add a ``shard`` label and are created
    lazily per touched shard.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

        def per_mode(name: str, help: str) -> dict[str, object]:
            return {
                mode: registry.counter(name, help, labels={"mode": mode})
                for mode in CANDIDATE_MODES
            }

        self.batches = per_mode(
            "cache_refresh_batches_total", "cache refresh calls (Alg. 3 batches)"
        )
        self.rows = per_mode(
            "cache_refresh_rows_total", "cache entries refreshed"
        )
        self.candidates = per_mode(
            "cache_refresh_candidates_total",
            "candidate entities scored during refreshes (rows * (N1+N2))",
        )
        self.changed = per_mode(
            "cache_changed_elements_total",
            "cache elements replaced by refreshes (the CE / churn metric)",
        )
        self.task_seconds = registry.histogram(
            "refresh_task_seconds", "per-shard refresh task execution time"
        )
        self.last_queue_wait = registry.gauge(
            "refresh_last_queue_wait_seconds",
            "max dispatch-to-start latency of the most recent pooled refresh",
        )
        self.sync_bytes = registry.counter(
            "param_sync_bytes_total",
            "parameter bytes published into the refresh pool's shared blocks",
        )
        self.sync_rows = registry.counter(
            "param_sync_rows_total",
            "parameter rows published into the refresh pool's shared blocks",
        )
        self.sync_full_tables = registry.counter(
            "param_sync_full_tables_total",
            "parameter tables that took the full-copy sync path",
        )
        self.sync_dirty_fraction = registry.gauge(
            "param_sync_dirty_fraction",
            "fraction of full parameter bytes the most recent sync shipped",
        )
        self.overlap_wait_seconds = registry.counter(
            "refresh_overlap_wait_seconds_total",
            "time spent waiting on overlapped refreshes at collect",
        )
        self._shards: dict[tuple[str, int], tuple[object, object, object]] = {}

    def shard(self, mode: str, shard: int) -> tuple[object, object, object]:
        """(seconds, tasks, queue-wait) counters for one (mode, shard)."""
        key = (mode, shard)
        handles = self._shards.get(key)
        if handles is None:
            labels = {"mode": mode, "shard": shard}
            handles = (
                self.registry.counter(
                    "refresh_task_seconds_total",
                    "cumulative refresh task seconds per shard",
                    labels=labels,
                ),
                self.registry.counter(
                    "refresh_tasks_total",
                    "refresh tasks executed per shard",
                    labels=labels,
                ),
                self.registry.counter(
                    "refresh_queue_wait_seconds_total",
                    "cumulative dispatch-to-start wait per shard",
                    labels=labels,
                ),
            )
            self._shards[key] = handles
        return handles


class BatchRows(NamedTuple):
    """Per-triple cache-row indices: head cache (r,t) and tail cache (h,r)."""

    head: np.ndarray
    tail: np.ndarray

    def take(self, indices: np.ndarray) -> "BatchRows":
        """Rows for a subset of the indexed triples."""
        return BatchRows(self.head[indices], self.tail[indices])


class _DrawnSide(NamedTuple):
    """One cache side of a batch refresh after its draws: the inputs of
    its row-local step and of its scatter."""

    mode: str
    cache: ArrayNegativeCache
    rows: np.ndarray
    anchors: np.ndarray
    relations: np.ndarray
    draw: CandidateDraw


class NSCachingSampler(NegativeSampler):
    """Cache-based negative sampling (Algorithm 2)."""

    name = "NSCaching"

    def __init__(
        self,
        *,
        cache_size: int = 50,
        candidate_size: int = 50,
        sample_strategy: SampleStrategy | str = SampleStrategy.UNIFORM,
        update_strategy: UpdateStrategy | str = UpdateStrategy.IMPORTANCE,
        lazy_epochs: int = 0,
        bernoulli: bool = True,
        cache_backend: str | None = None,
        n_buckets: int | None = None,
        n_shards: int | None = None,
        refresh_workers: int = 1,
        refresh_period: int = 1,
        refresh_overlap: bool | None = None,
    ) -> None:
        """
        Parameters
        ----------
        cache_size:
            ``N1``, entities kept per cache entry (paper default 50).
        candidate_size:
            ``N2``, fresh uniform candidates per refresh (paper default 50).
        sample_strategy:
            Step 6 strategy; the paper selects ``uniform`` (Fig. 6a).
        update_strategy:
            Alg. 3 strategy; the paper selects ``importance`` (Fig. 6b).
        lazy_epochs:
            ``n`` — skip cache refreshes except every ``n+1``-th epoch.
        bernoulli:
            Use the relation-aware head/tail coin (paper §IV-B1).
        cache_backend:
            Optional consistency check, not a selector: the layout name
            the arguments below imply — ``"array"`` (heap storage) or
            ``"sharded-array"`` (shared storage).  Any other value, or a
            mismatch, raises ``ValueError``.
        n_buckets:
            Hash cache keys onto this many rows per cache (the §VI
            memory bound: ``O(n_buckets * N1)`` whatever the key count;
            colliding keys share a row).  ``None`` keeps one row per key.
        n_shards:
            Keep the caches in shared memory, split into this many
            contiguous shards.  Storage is shared exactly when this is
            given or ``refresh_workers >= 2``; it then defaults to the
            worker count.  With one worker the sequential refresh runs
            against the shared rows, bit-identical to heap storage.
        refresh_workers:
            ``>= 2`` runs cache refreshes on a
            :class:`~repro.parallel.pool.RefreshPool` of that many worker
            processes (implies shared storage, see ``n_shards``).  Each
            shard's slice draws from its own ``(seed, mode, shard, epoch,
            batch)`` stream, so results are deterministic and independent
            of the worker count — but a *different* (equally valid)
            trajectory than the sequential single-stream path.  The
            pooled refresh overlaps the training step: :meth:`update`
            dispatches the batch against a pre-step parameter snapshot
            (Alg. 3 only needs pre-step parameters) and the results are
            collected at the next :meth:`sample`, :meth:`update`,
            :meth:`changed_elements`, :meth:`close` or
            :meth:`collect_refreshes` call.  The
            default ``1`` keeps the sequential refresh, bit-identical
            across layouts under a fixed seed.  Without the ``fork``
            start method the pool runs its tasks inline, bit-identical.
        refresh_period:
            ``k`` — refresh the caches only every ``k``-th batch of an
            epoch (default 1 = every batch).  The lazy *within-epoch*
            schedule of the journal follow-up (arXiv 2010.14227),
            orthogonal to ``lazy_epochs`` (which skips whole epochs):
            divides the refresh *and* parameter-sync cost by ``k`` while
            caches go at most ``k - 1`` batches stale.  The per-epoch
            batch counter still advances on skipped batches, so the
            parallel task streams stay aligned across periods.
        refresh_overlap:
            Optional consistency check, not a selector: the pooled
            refresh always overlaps and the sequential one never does.
            ``True`` requires ``refresh_workers >= 2``; ``False`` with
            ``refresh_workers >= 2`` raises ``ValueError``.
        """
        super().__init__(bernoulli=bernoulli)
        if cache_size <= 0 or candidate_size <= 0:
            raise ValueError(
                f"cache_size and candidate_size must be > 0, got "
                f"({cache_size}, {candidate_size})"
            )
        if lazy_epochs < 0:
            raise ValueError(f"lazy_epochs must be >= 0, got {lazy_epochs}")
        if refresh_workers < 1:
            raise ValueError(f"refresh_workers must be >= 1, got {refresh_workers}")
        if refresh_period < 1:
            raise ValueError(
                f"refresh_period must be >= 1, got {refresh_period}"
            )
        if refresh_overlap and refresh_workers < 2:
            raise ValueError(
                "refresh_overlap requires refresh_workers >= 2 (the overlap "
                "dispatch/collect pipeline only exists on the pooled path)"
            )
        if refresh_overlap is False and refresh_workers > 1:
            raise ValueError(
                "refresh_overlap=False contradicts refresh_workers >= 2: "
                "the pooled refresh always overlaps"
            )
        n_buckets = layout_count("n_buckets", n_buckets)
        n_shards = layout_count("n_shards", n_shards)
        if n_shards is None and refresh_workers > 1:
            n_shards = refresh_workers
        layout = "array" if n_shards is None else "sharded-array"
        if cache_backend is not None and cache_backend != layout:
            raise ValueError(
                f"cache_backend={cache_backend!r} does not match the derived "
                f"layout {layout!r}: the layout is chosen by n_buckets= (bucket "
                "rows) and n_shards= or refresh_workers >= 2 (shared memory); "
                "cache_backend may only restate 'array' or 'sharded-array'"
            )
        self.cache_size = int(cache_size)
        self.candidate_size = int(candidate_size)
        self.sample_strategy = SampleStrategy(sample_strategy)
        self.update_strategy = UpdateStrategy(update_strategy)
        self.lazy_epochs = int(lazy_epochs)
        #: The derived layout name, ``"array"`` or ``"sharded-array"``.
        self.cache_backend = layout
        self.n_buckets = n_buckets
        self.n_shards = n_shards
        self.refresh_workers = int(refresh_workers)
        self.refresh_period = int(refresh_period)
        self.key_index: TripleKeyIndex | None = None
        self.head_cache: ArrayNegativeCache | None = None
        self.tail_cache: ArrayNegativeCache | None = None
        #: Optional span tracer the trainer attaches (``--profile``,
        #: ``--metrics-out``, ``--trace-out``).  Refreshes then record
        #: ``refresh_side``/``dispatch``/``collect`` spans plus the
        #: trainer's ``train`` phases ``score_candidates`` (the caller's
        #: scoring step alone; the helper thread's side records its
        #: scoring as a ``refresh`` span) and ``parallel_refresh`` (the
        #: pooled dispatch+wait), and the pooled refresh merges the
        #: workers' shipped spans into this ring.  ``None`` (the default)
        #: keeps the exact seed code path.  Attach before the first
        #: parallel update(): workers inherit their rings at fork.
        self.tracer: Tracer | None = None
        self._metrics: MetricsRegistry | None = None
        self._mh: _RefreshMetrics | None = None  # pre-resolved handles
        #: Persistent per-side ``[B, N1+N2]`` union and noise blocks.
        self._unions: dict[str, np.ndarray] = {}
        self._noise: dict[str, np.ndarray] = {}
        self._pool: RefreshPool | None = None  # created on first parallel update
        self._pool_seed: int | None = None
        self._epoch_batch = 0  # per-epoch update counter for task streams
        #: Modes of the in-flight dispatch (None = nothing pending).
        self._pending_modes: tuple[str, ...] | None = None

    # -- lifecycle ------------------------------------------------------------
    def _make_cache(self, n_entities: int, store_scores: bool) -> ArrayNegativeCache:
        return ArrayNegativeCache(
            self.cache_size,
            n_entities,
            self.rng,
            store_scores=store_scores,
            n_buckets=self.n_buckets,
            n_shards=self.n_shards,
        )

    def bind(
        self,
        model: KGEModel,
        dataset: KGDataset,
        rng: np.random.Generator | int | None = None,
    ) -> "NSCachingSampler":
        """Index the train split's cache keys and create both caches.

        Scores are co-stored only when the sampling strategy needs them
        (the paper's extra-memory note for IS/top sampling).
        """
        super().bind(model, dataset, rng)
        self.close()  # rebinding replaces caches; release pool/shared memory
        self.key_index = TripleKeyIndex.from_triples(
            dataset.train, dataset.n_entities, dataset.n_relations
        )
        store_scores = self.sample_strategy is not SampleStrategy.UNIFORM
        self.head_cache = self._make_cache(dataset.n_entities, store_scores)
        self.tail_cache = self._make_cache(dataset.n_entities, store_scores)
        self.head_cache.attach_index(self.key_index.head)
        self.tail_cache.attach_index(self.key_index.tail)
        if self.refresh_workers > 1:
            # One draw reserved for the pool's task streams.  Taken only in
            # parallel mode, so the 1-worker stream stays bit-identical to
            # heap storage's.
            self._pool_seed = int(self.rng.integers(0, 2**63 - 1))
        return self

    def close(self) -> None:
        """Stop the refresh pool, release shared-memory cache storage and
        drop the refresh buffers.

        Idempotent; the sampler can be re-bound afterwards.  The trainer
        and CLI call this when training finishes.  A pooled refresh
        still in flight is collected (so its counter deltas are not
        lost) before the pool shuts down; a failed/dead pool is closed
        regardless.
        """
        try:
            self.collect_refreshes()
        except (RuntimeError, FloatingPointError):
            pass  # failed/dead workers: shutdown proceeds regardless
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        for cache in (self.head_cache, self.tail_cache):
            if cache is not None:
                cache.close()
        self._unions.clear()
        self._noise.clear()

    def on_epoch_start(self, epoch: int) -> None:
        """Epoch notification; also restarts the per-epoch batch counter."""
        super().on_epoch_start(epoch)
        self._epoch_batch = 0

    # -- observability --------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry | None:
        """The attached metrics registry (``None`` = uninstrumented).

        Attaching a registry resolves all instrument handles once; every
        refresh then reports batches/rows/candidates/changed-elements per
        cache side, and the pooled refresh adds per-shard task timings.
        ``refresh_overlap_wait_seconds_total`` is the duration of the
        ``collect`` span, so it counts only while a :attr:`tracer` is
        attached too (the trainer attaches one with every registry).
        With no registry attached the hot paths take the exact seed code
        path — training stays bit-identical (bench X8 pins the
        instrumented overhead < 3%).
        """
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry | None) -> None:
        self._metrics = registry
        self._mh = None if registry is None else _RefreshMetrics(registry)

    # -- row resolution -----------------------------------------------------------
    def precompute_rows(self, triples: np.ndarray) -> BatchRows:
        """Cache rows for every triple; compute once, slice per batch.

        The trainer calls this for the whole training split up front and
        passes per-batch slices to :meth:`sample`/:meth:`update`, removing
        key resolution from the epoch loop entirely.
        """
        self._require_bound()
        assert self.key_index is not None
        triples = np.asarray(triples, dtype=np.int64)
        return BatchRows(
            head=self.key_index.head_rows(triples),
            tail=self.key_index.tail_rows(triples),
        )

    def _resolve_rows(self, batch: np.ndarray, rows: BatchRows | None) -> BatchRows:
        if rows is not None:
            return rows
        return self.precompute_rows(batch)

    # -- Alg. 2 steps 5-7 ---------------------------------------------------------
    def sample(self, batch: np.ndarray, rows: BatchRows | None = None) -> np.ndarray:
        """Draw one negative per positive from the caches (Alg. 2 steps 5-7).

        ``batch`` must come from the training split the sampler was bound
        to: cache storage is preallocated per distinct train-split key, so
        a triple whose ``(r, t)`` / ``(h, r)`` pair never occurs in train
        raises ``KeyError``.
        """
        self._require_bound()
        assert self.head_cache is not None and self.tail_cache is not None
        self.collect_refreshes()  # caches must be settled before gathering
        batch = np.asarray(batch, dtype=np.int64)
        rows = self._resolve_rows(batch, rows)

        head_ids = self.head_cache.gather(rows.head)  # [B, N1]
        tail_ids = self.tail_cache.gather(rows.tail)

        need_scores = self.sample_strategy is not SampleStrategy.UNIFORM
        head_scores = self.head_cache.gather_scores(rows.head) if need_scores else None
        tail_scores = self.tail_cache.gather_scores(rows.tail) if need_scores else None

        sampled_heads = sample_from_cache(
            head_ids, head_scores, self.sample_strategy, self.rng
        )
        sampled_tails = sample_from_cache(
            tail_ids, tail_scores, self.sample_strategy, self.rng
        )

        negatives = batch.copy()
        head_mask = self.choose_head_corruption(batch[:, REL])
        negatives[head_mask, HEAD] = sampled_heads[head_mask]
        negatives[~head_mask, TAIL] = sampled_tails[~head_mask]
        return negatives

    # -- Alg. 3 --------------------------------------------------------------------
    def update(
        self,
        batch: np.ndarray,
        negatives: np.ndarray,
        rows: BatchRows | None = None,
        *,
        modes: tuple[str, ...] = CANDIDATE_MODES,
    ) -> None:
        """Refresh the caches for the batch's keys (Alg. 3), unless lazy.

        As with :meth:`sample`, ``batch`` must be train-split triples.
        ``modes`` selects which caches to refresh (``"head"`` = the
        head-corruption cache keyed by ``(r, t)``, ``"tail"`` = the
        tail-corruption cache keyed by ``(h, r)``; default both).  An
        unknown or repeated mode raises ``ValueError`` up front — even on
        lazily skipped epochs — instead of silently refreshing the tail
        cache.

        Two lazy schedules gate the refresh: ``lazy_epochs`` skips whole
        epochs (paper Table I) and ``refresh_period`` skips within an
        epoch (every ``k``-th batch refreshes).  Skipped calls still
        advance the per-epoch batch counter, keeping the parallel task
        streams aligned regardless of the schedule.
        """
        for mode in modes:
            if mode not in CANDIDATE_MODES:
                raise ValueError(
                    f"unknown corruption mode {mode!r}; expected one of "
                    f"{CANDIDATE_MODES}"
                )
        if len(set(modes)) != len(modes):
            # The sides of one batch draw before either is written, each
            # into its own buffers: a repeated side has neither.
            raise ValueError(f"corruption modes repeat in {modes!r}")
        batch_index = self._epoch_batch
        self._epoch_batch += 1
        if self.epoch % (self.lazy_epochs + 1) != 0:
            return  # lazy update: skip this epoch entirely
        if batch_index % self.refresh_period != 0:
            return  # lazy within-epoch schedule: not this batch's turn
        self._require_bound()
        batch = np.asarray(batch, dtype=np.int64)
        rows = self._resolve_rows(batch, rows)
        if self.refresh_workers > 1:
            self._parallel_refresh(batch, rows, modes, batch_index)
            return
        # Alg. 3's serial prefix: every draw of the batch, side after side
        # in mode order on the one stream.
        sides: list[_DrawnSide] = []
        for mode in modes:
            side = self._refresh_side(
                batch, rows.head if mode == "head" else rows.tail, mode
            )
            if side is not None:
                sides.append(side)
        refreshed: list[RefreshedRows | None] = [None] * len(sides)
        caller = threading.get_ident()

        def select_sides(first: int, last: int) -> None:
            for i in range(first, last):
                refreshed[i] = self._select_side(sides[i], caller)

        split_work(len(sides), select_sides)
        # Both sides are selected before either cache is written.
        for side, survivors in zip(sides, refreshed):
            assert survivors is not None
            ce = side.cache.scatter(
                side.rows, survivors.ids, survivors.scores, overlap=survivors.overlap
            )
            if self._mh is not None:
                self._observe_refresh(side.mode, len(side.rows), ce)

    def _refresh_side(
        self, batch: np.ndarray, rows: np.ndarray, mode: str
    ) -> _DrawnSide | None:
        """Alg. 3's draw step for one cache, on the sampler's stream.

        :func:`~repro.core.strategies.draw_candidates` into the side's
        persistent union and noise blocks; returns the side's row-local
        rest, which :meth:`update` runs and scatters.  An override may
        refresh its side outright and return ``None`` (the unfused
        reference refresh of the test oracles does).
        """
        assert self.head_cache is not None and self.tail_cache is not None
        cache = self.head_cache if mode == "head" else self.tail_cache
        width = self.cache_size + self.candidate_size
        union = reusable_rows(self._unions, mode, len(batch), width, np.int64)
        noise = (
            None
            if self.update_strategy is UpdateStrategy.TOP
            else reusable_rows(self._noise, mode, len(batch), width, np.float64)
        )
        draw = draw_candidates(cache, rows, union, self.update_strategy, self.rng, noise)
        anchors = batch[:, TAIL] if mode == "head" else batch[:, HEAD]
        return _DrawnSide(mode, cache, rows, anchors, batch[:, REL], draw)

    def _select_side(self, side: _DrawnSide, caller: int) -> RefreshedRows:
        """Alg. 3's row-local step for one drawn side, on either thread.

        With a tracer, a ``refresh_side`` span on the running thread
        wraps it and a span times its scoring step: the trainer's
        ``score_candidates`` phase on the ``caller`` thread, a ``refresh``
        span on the helper, whose time the caller's ``cache_update``
        already covers.
        """
        tracer = self.tracer
        if tracer is None:
            return score_and_select(
                self.model, side.cache, side.anchors, side.relations, side.mode,
                side.draw, self.update_strategy,
            )
        phase = "train" if threading.get_ident() == caller else "refresh"
        with tracer.start_span(
            "refresh_side", "refresh",
            args={"mode": side.mode, "rows": int(len(side.rows))},
        ):
            return score_and_select(
                self.model, side.cache, side.anchors, side.relations, side.mode,
                side.draw, self.update_strategy,
                score_context=tracer.start_span("score_candidates", phase),
            )

    def _observe_refresh(self, mode: str, n_rows: int, changed: int) -> None:
        """Fold one refreshed side into the attached registry's counters."""
        h = self._mh
        assert h is not None
        h.batches[mode].inc()
        h.rows[mode].inc(n_rows)
        h.candidates[mode].inc(n_rows * (self.cache_size + self.candidate_size))
        h.changed[mode].inc(changed)

    # -- parallel refresh (repro.parallel) -----------------------------------------
    def _ensure_pool(self) -> RefreshPool:
        """Create (and lazily start) the refresh pool on first parallel use."""
        if self._pool is None:
            from repro.parallel.pool import RefreshPool

            assert self.head_cache is not None and self.tail_cache is not None
            caches = {"head": self.head_cache, "tail": self.tail_cache}
            for mode, cache in caches.items():
                if not isinstance(cache, ArrayNegativeCache) or cache.plan is None:
                    raise RuntimeError(
                        f"parallel refresh needs shared-memory caches with a "
                        f"shard plan, got {cache!r} for the {mode} side"
                    )
            assert self._pool_seed is not None
            self._pool = RefreshPool(
                self.model,
                caches,
                n_entities=self.dataset.n_entities,
                candidate_size=self.candidate_size,
                update_strategy=self.update_strategy,
                seed=self._pool_seed,
                n_workers=self.refresh_workers,
                trace=self.tracer is not None,
            ).start()
        return self._pool

    def mark_dirty_params(self, name: str, rows: np.ndarray) -> None:
        """Report that ``model.params[name][rows]`` changed (dirty sync).

        The trainer wires this to the optimizer's ``dirty_mark`` hook (and
        reports the post-step normalisation's rows), so the pool's next
        parameter publish ships only the touched slices.  A no-op until
        the pool exists — the first sync is a full copy regardless.
        """
        if self._pool is not None:
            self._pool.mark_dirty(name, rows)

    def collect_refreshes(self) -> None:
        """Fold in the pooled refresh dispatched by a previous update().

        The collect half of the pooled refresh: blocks until the
        in-flight batch's workers finish (usually they already have — the
        gradient/optimizer step ran in between) and folds their counter
        deltas into the stores.  A no-op when nothing is pending, so the
        trainer and the sampler's own cache-reading paths can call it
        unconditionally.
        """
        pool = self._pool
        if pool is None or not pool.inflight:
            return
        span = (
            self.tracer.start_span("collect", "refresh")
            if self.tracer is not None
            else None
        )
        try:
            results = pool.collect()
        finally:
            modes, self._pending_modes = self._pending_modes, None
            waited = span.end() if span is not None else 0.0
        self._fold_results(results, modes or CANDIDATE_MODES)
        if self._mh is not None:
            self._mh.overlap_wait_seconds.inc(waited)

    def _build_tasks(
        self,
        batch: np.ndarray,
        rows: BatchRows,
        modes: tuple[str, ...],
        batch_index: int,
    ) -> list[ShardTask]:
        """One ShardTask per (mode, touched shard) of this batch."""
        from repro.parallel.pool import ShardTask

        tasks: list[ShardTask] = []
        for mode in modes:
            cache = self.head_cache if mode == "head" else self.tail_cache
            assert cache is not None
            side_rows = rows.head if mode == "head" else rows.tail
            storage_rows = cache.storage_rows(side_rows)
            anchors = batch[:, TAIL] if mode == "head" else batch[:, HEAD]
            relations = batch[:, REL]
            assert cache.plan is not None
            for shard, positions in cache.plan.split(storage_rows):
                tasks.append(
                    ShardTask(
                        mode=mode,
                        shard=shard,
                        epoch=self.epoch,
                        batch=batch_index,
                        anchors=anchors[positions],
                        relations=relations[positions],
                        rows=storage_rows[positions],
                    )
                )
        return tasks

    def _parallel_refresh(
        self,
        batch: np.ndarray,
        rows: BatchRows,
        modes: tuple[str, ...],
        batch_index: int,
    ) -> None:
        """Refresh via the worker pool: one task per (mode, touched shard).

        Workers run the same fused kernel against the shared storage and
        report CE / initialisation deltas, which are folded back into the
        caches' counters so ``changed_elements()`` and Figure 8 stay
        layout-agnostic.  Only the dispatch half runs here — the tasks
        execute against the pre-step parameter snapshot while the trainer
        computes the step, and :meth:`collect_refreshes` folds the
        results in later.
        """
        pool = self._ensure_pool()
        self.collect_refreshes()  # at most one batch in flight
        tracer = self.tracer
        spans: tuple[Span, ...] = ()
        if tracer is not None:
            spans = (
                tracer.start_span("dispatch", "refresh", args={"batch": batch_index}),
                tracer.start_span("parallel_refresh", "train"),
            )
        tasks = self._build_tasks(batch, rows, modes, batch_index)
        if pool.dispatch(tasks):
            self._pending_modes = modes
        for span in reversed(spans):
            span.end()
        if tasks and self._mh is not None and pool.last_sync is not None:
            self._observe_sync(pool.last_sync)

    def _observe_sync(self, report: SyncReport) -> None:
        """Fold one parameter publish's SyncReport into the registry."""
        h = self._mh
        assert h is not None
        h.sync_bytes.inc(report.bytes_copied)
        h.sync_rows.inc(report.rows_copied)
        h.sync_full_tables.inc(report.full_tables)
        h.sync_dirty_fraction.set(report.dirty_fraction)

    def _fold_results(
        self, results: list[ShardResult], modes: tuple[str, ...]
    ) -> None:
        """Fold completed shard results into store counters and metrics."""
        h = self._mh
        tracer = self.tracer
        max_wait = 0.0
        for result in results:
            cache = self.head_cache if result.mode == "head" else self.tail_cache
            assert cache is not None
            cache.changed_elements += result.changed
            cache.initialised_entries += result.initialised
            if tracer is not None and result.spans:
                # The cross-process merge: worker spans rode the result
                # queue; fold them into the parent's timeline.
                tracer.ingest(result.spans)
            if h is not None:
                h.rows[result.mode].inc(result.n_rows)
                h.candidates[result.mode].inc(
                    result.n_rows * (self.cache_size + self.candidate_size)
                )
                h.changed[result.mode].inc(result.changed)
                h.task_seconds.observe(result.seconds)
                seconds, tasks_done, wait = h.shard(result.mode, result.shard)
                seconds.inc(result.seconds)
                tasks_done.inc()
                wait.inc(result.queue_wait)
                max_wait = max(max_wait, result.queue_wait)
        if h is not None:
            for mode in modes:
                h.batches[mode].inc()
            h.last_queue_wait.set(max_wait)

    # -- introspection ---------------------------------------------------------------
    def cache_memory_bytes(self) -> int:
        """Combined footprint of both caches."""
        assert self.head_cache is not None and self.tail_cache is not None
        return self.head_cache.memory_bytes() + self.tail_cache.memory_bytes()

    def cache_stats(self) -> dict[str, object]:
        """Cache introspection: key counts, memory, bucket collisions.

        Always present: the layout name, per-side distinct key counts and
        live fractions, the materialised ``memory_bytes`` and the
        ``allocated_bytes`` of the preallocated blocks (``O(n_buckets *
        N1)`` with ``n_buckets``, independent of the key count).  Bucket
        rows add the per-side load factor and number of colliding keys;
        shared storage adds the per-shard occupancy.
        """
        self._require_bound()
        assert self.key_index is not None
        assert self.head_cache is not None and self.tail_cache is not None
        stats: dict[str, object] = {
            "backend": self.cache_backend,
            "head_keys": self.key_index.head.n_keys,
            "tail_keys": self.key_index.tail.n_keys,
            "memory_bytes": self.cache_memory_bytes(),
            "allocated_bytes": (
                self.head_cache.allocated_bytes() + self.tail_cache.allocated_bytes()
            ),
        }
        for side, cache in (("head", self.head_cache), ("tail", self.tail_cache)):
            stats[f"{side}_live_fraction"] = cache.live_fraction()
            if cache.n_buckets is not None:
                stats[f"{side}_load_factor"] = cache.load_factor()
                stats[f"{side}_n_colliding_keys"] = cache.n_colliding_keys()
            # Shared storage: per-shard occupancy (live rows) and key
            # ownership, compacted to `a/b/c` strings for the CLI table.
            # After close() the plan is gone — skip rather than crash.
            if cache.plan is not None:
                stats[f"{side}_shards"] = cache.plan.n_shards
                stats[f"{side}_shard_live_rows"] = "/".join(
                    str(int(n)) for n in cache.shard_occupancy()
                )
                stats[f"{side}_shard_keys"] = "/".join(
                    str(int(n)) for n in cache.shard_key_ownership()
                )
        if self.refresh_period != 1:
            stats["refresh_period"] = self.refresh_period
        if self.refresh_workers > 1:
            stats["refresh_workers"] = self.refresh_workers
            if self._pool is not None:
                stats["refresh_mode"] = (
                    "processes" if self._pool.using_processes else "inline"
                )
                if self._pool.last_sync is not None:
                    stats["last_sync_bytes"] = self._pool.last_sync.bytes_copied
                    stats["last_sync_dirty_fraction"] = round(
                        self._pool.last_sync.dirty_fraction, 6
                    )
        return stats

    def changed_elements(self, reset: bool = False) -> int:
        """CE metric: cache elements replaced since the last reset (Fig. 8)."""
        assert self.head_cache is not None and self.tail_cache is not None
        self.collect_refreshes()  # fold any in-flight deltas first
        total = self.head_cache.changed_elements + self.tail_cache.changed_elements
        if reset:
            self.head_cache.reset_counters()
            self.tail_cache.reset_counters()
        return total

    def __repr__(self) -> str:
        workers = (
            f", refresh_workers={self.refresh_workers}"
            if self.refresh_workers > 1
            else ""
        )
        buckets = f", n_buckets={self.n_buckets}" if self.n_buckets is not None else ""
        period = (
            f", refresh_period={self.refresh_period}"
            if self.refresh_period != 1
            else ""
        )
        return (
            f"NSCachingSampler(N1={self.cache_size}, N2={self.candidate_size}, "
            f"sample={self.sample_strategy.value}, update={self.update_strategy.value}, "
            f"lazy={self.lazy_epochs}, backend={self.cache_backend}"
            f"{buckets}{workers}{period})"
        )
