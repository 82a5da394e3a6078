"""The query engine: snapshot + top-k scorer + query cache.

:class:`PredictionEngine` is the transport-independent core of the serving
subsystem.  It parses link-prediction queries (dicts, the JSON wire
format), answers cache hits immediately, groups the misses by
``(direction, k, filtered)`` and scores each group in one vectorised
:class:`~repro.serve.topk.TopKScorer` call.  The ``serve-topk`` perfbench
workload measures its HTTP throughput and latency.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, ContextManager, Mapping, Sequence

import numpy as np

from repro.data.dataset import KGDataset
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.cache import QueryCache
from repro.serve.snapshot import EmbeddingSnapshot
from repro.serve.topk import TopKResult, TopKScorer

__all__ = ["PredictionEngine"]

_QUERY_FIELDS = frozenset(("head", "relation", "tail", "k", "filtered"))

#: Shared no-op context for the untraced path (no per-call allocation).
_NULL_CONTEXT: ContextManager[None] = nullcontext()


class PredictionEngine:
    """Answers batches of ``(h, r, ?)`` / ``(?, r, t)`` queries.

    Parameters
    ----------
    snapshot:
        The embedding tables to serve.
    dataset:
        Optional; enables the filtered protocol and label decoding.
    top_k:
        Default ``k`` for queries that do not specify one.
    max_k:
        Upper bound accepted from a query's ``k`` — the cap that keeps one
        request from demanding a full-entity ranked dump (response size,
        argsort work and cached memory all scale with ``k``).
    cache_capacity:
        LRU entries to keep; ``0`` disables the query cache.
    metrics:
        The registry backing ``/metrics``; the engine creates its own by
        default.  Internal counters stay plain ints under the engine's
        lock — they are mirrored into the registry at export time
        (:meth:`sync_metrics`); only the latency histograms are observed
        per request (they take their own lock, so the threading server is
        safe).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when attached,
        ``predict()`` records parse/cache/score spans (category
        ``serve``) and the HTTP layer adds a per-request parent span.
        ``None`` (the default) keeps the serve path span-free.
    """

    def __init__(
        self,
        snapshot: EmbeddingSnapshot,
        dataset: KGDataset | None = None,
        *,
        top_k: int = 10,
        max_k: int = 1000,
        cache_capacity: int = 1024,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if top_k <= 0:
            raise ValueError(f"top_k must be > 0, got {top_k}")
        if max_k < top_k:
            raise ValueError(f"max_k ({max_k}) must be >= top_k ({top_k})")
        if dataset is not None and (
            dataset.n_entities != snapshot.n_entities
            or dataset.n_relations != snapshot.n_relations
        ):
            raise ValueError(
                f"snapshot has {snapshot.n_entities} entities / "
                f"{snapshot.n_relations} relations but the dataset has "
                f"{dataset.n_entities} / {dataset.n_relations}; they must match"
            )
        self.snapshot = snapshot
        self.dataset = dataset
        self.top_k = int(top_k)
        self.max_k = int(max_k)
        self.scorer = TopKScorer(snapshot.model(), dataset)
        self.cache = QueryCache(cache_capacity) if cache_capacity > 0 else None
        self._lock = threading.Lock()
        self._started_at = time.time()
        #: Total queries answered (cache hits included).
        self.queries_served = 0
        #: Vectorised scorer calls issued for cache misses.
        self.scoring_batches = 0
        self.tracer = tracer
        # HTTP request accounting (fed by the HTTP layer's
        # observe_request); plain ints under the engine lock, mirrored as
        # http_requests_total / http_slow_requests_total at export time.
        self._http_requests: dict[tuple[str, str], int] = {}
        self._http_slow: dict[str, int] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The engine always owns a registry (serving is explicitly opted
        # into, unlike the hot training loop), so these chains are safe.
        self._predict_seconds = self.metrics.histogram(  # repro-lint: ignore[RPL003] -- engine always owns a registry
            "serve_predict_seconds", "wall time of one predict() batch"
        )
        self._batch_queries = self.metrics.histogram(  # repro-lint: ignore[RPL003] -- engine always owns a registry
            "serve_batch_queries",
            "queries per predict() batch",
            bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        dataset: KGDataset | None = None,
        **kwargs: Any,
    ) -> "PredictionEngine":
        """Build an engine straight from a ``.npz`` checkpoint or snapshot dir."""
        return cls(EmbeddingSnapshot.load(path), dataset, **kwargs)

    # -- query answering ----------------------------------------------------
    def predict(self, queries: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        """Answer a batch of queries, preserving order.

        Each query holds ``relation`` plus exactly one of ``head`` (tail
        prediction) or ``tail`` (head prediction); optional ``k`` and
        ``filtered`` override the engine defaults.  Raises ``ValueError``
        on a malformed query (the HTTP layer maps that to a 400).
        """
        started = time.perf_counter()
        tracer = self.tracer
        with (
            tracer.start_span("parse", "serve", args={"queries": len(queries)})
            if tracer is not None
            else _NULL_CONTEXT
        ):
            parsed = [self._parse(q) for q in queries]
        answers: list[dict[str, Any] | None] = [None] * len(parsed)

        # Cache pass.
        misses: list[int] = []
        with (
            tracer.start_span("cache", "serve")
            if tracer is not None
            else _NULL_CONTEXT
        ):
            for i, (direction, anchor, relation, k, filtered) in enumerate(parsed):
                key = (direction, anchor, relation, k, filtered)
                hit = self.cache.get(key) if self.cache is not None else None
                if hit is not None:
                    answers[i] = self._render(parsed[i], hit, cached=True)
                else:
                    misses.append(i)

        # Score the misses, one vectorised call per (direction, k, filtered).
        groups: dict[tuple[str, int, bool], list[int]] = {}
        for i in misses:
            direction, _, _, k, filtered = parsed[i]
            groups.setdefault((direction, k, filtered), []).append(i)
        score_span = (
            tracer.start_span("score", "serve", args={"misses": len(misses)})
            if tracer is not None and misses
            else None
        )
        for (direction, k, filtered), idxs in groups.items():
            anchors = np.array([parsed[i][1] for i in idxs], dtype=np.int64)
            relations = np.array([parsed[i][2] for i in idxs], dtype=np.int64)
            if direction == "tail":
                results = self.scorer.top_tails(
                    anchors, relations, k, filtered=filtered
                )
            else:
                results = self.scorer.top_heads(
                    relations, anchors, k, filtered=filtered
                )
            with self._lock:
                self.scoring_batches += 1
            for i, result in zip(idxs, results):
                direction_i, anchor, relation, k_i, filtered_i = parsed[i]
                if self.cache is not None:
                    # Copy the row slices: a result fresh from the scorer
                    # views its whole batch's arrays, which a cache entry
                    # must not pin.
                    self.cache.put(
                        (direction_i, anchor, relation, k_i, filtered_i),
                        TopKResult(
                            result.direction,
                            result.entities.copy(),
                            result.scores.copy(),
                            result.filtered,
                        ),
                    )
                answers[i] = self._render(parsed[i], result, cached=False)
        if score_span is not None:
            score_span.end()

        with self._lock:
            self.queries_served += len(parsed)
        self._predict_seconds.observe(time.perf_counter() - started)
        self._batch_queries.observe(float(len(parsed)))
        return [a for a in answers if a is not None]

    def predict_one(self, **query: Any) -> dict[str, Any]:
        """Answer a single keyword-style query (see :meth:`predict`)."""
        return self.predict([query])[0]

    def observe_request(
        self, route: str, status: int, seconds: float, *, slow: bool = False
    ) -> None:
        """Record one HTTP request (any method, any status) for ``/metrics``.

        Called by the HTTP layer after every response — error paths
        included, so 400/404/500 rates are visible.  The latency
        histogram takes its own lock; the per-``(route, status)`` counts
        stay plain ints under the engine lock and are exported as
        ``http_requests_total`` by :meth:`sync_metrics`.
        """
        self.metrics.histogram(  # repro-lint: ignore[RPL003] -- engine always owns a registry
            "http_request_seconds",
            "wall time of one HTTP request",
            labels={"route": route},
        ).observe(seconds)
        key = (route, str(int(status)))
        with self._lock:
            self._http_requests[key] = self._http_requests.get(key, 0) + 1
            if slow:
                self._http_slow[route] = self._http_slow.get(route, 0) + 1

    # -- introspection ------------------------------------------------------
    def cache_stats(self) -> dict[str, float | int]:
        """The query-cache counters; all-zero when the cache is disabled.

        Always a dict with the same keys, so ``/stats`` and ``/healthz``
        consumers never branch on the cache being configured.
        """
        if self.cache is not None:
            return self.cache.stats()
        return {
            "capacity": 0, "entries": 0, "hits": 0, "misses": 0,
            "evictions": 0, "hit_rate": 0.0,
        }

    def stats(self) -> dict[str, Any]:
        """A JSON-safe operational snapshot for ``/stats``."""
        return {
            "uptime_seconds": time.time() - self._started_at,
            "queries_served": self.queries_served,
            "scoring_batches": self.scoring_batches,
            "default_top_k": self.top_k,
            "dataset": self.dataset.name if self.dataset is not None else None,
            "snapshot": self.snapshot.describe(),
            "cache": self.cache_stats(),
        }

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` body: liveness plus the load-bearing counters.

        Shares the snapshot metadata and cache eviction counter with
        ``/stats`` so probes and dashboards read one consistent story.
        """
        cache = self.cache_stats()
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self._started_at,
            "queries_served": self.queries_served,
            "snapshot": self.snapshot.describe(),
            "cache_evictions": cache["evictions"],
            "cache_entries": cache["entries"],
        }

    def sync_metrics(self) -> MetricsRegistry:
        """Mirror the engine's counters into the registry and return it.

        Called by the ``/metrics`` route per scrape.  The engine's plain
        int counters (guarded by its own lock) stay the source of truth;
        ``set_total`` keeps the exported series cumulative.
        """
        registry = self.metrics
        with self._lock:
            queries, batches = self.queries_served, self.scoring_batches
            http_requests = dict(self._http_requests)
            http_slow = dict(self._http_slow)
        for (route, status), count in sorted(http_requests.items()):
            registry.counter(
                "http_requests_total",
                "HTTP requests by route and status code",
                labels={"route": route, "status": status},
            ).set_total(float(count))
        for route, count in sorted(http_slow.items()):
            registry.counter(
                "http_slow_requests_total",
                "requests slower than the serve layer's slow threshold",
                labels={"route": route},
            ).set_total(float(count))
        registry.counter(
            "serve_queries_total", "queries answered (cache hits included)"
        ).set_total(queries)
        registry.counter(
            "serve_scoring_batches_total", "vectorised scorer calls"
        ).set_total(batches)
        registry.gauge(
            "serve_uptime_seconds", "seconds since the engine started"
        ).set(time.time() - self._started_at)
        cache = self.cache_stats()
        for name in ("hits", "misses", "evictions"):
            registry.counter(
                f"serve_cache_{name}_total", f"query-cache {name}"
            ).set_total(float(cache[name]))
        registry.gauge(
            "serve_cache_entries", "query-cache entries currently held"
        ).set(float(cache["entries"]))
        return registry

    # -- internals ----------------------------------------------------------
    def _parse(
        self, query: Mapping[str, Any]
    ) -> tuple[str, int, int, int, bool]:
        if not isinstance(query, Mapping):
            raise ValueError("each query must be a JSON object")
        unknown = [key for key in query if key not in _QUERY_FIELDS]
        if unknown:
            raise ValueError(f"unknown query fields: {sorted(unknown)}")
        if "relation" not in query:
            raise ValueError("query needs a 'relation'")
        head, tail = query.get("head"), query.get("tail")
        if (head is None) == (tail is None):
            raise ValueError(
                "query needs exactly one of 'head' (tail prediction) or "
                "'tail' (head prediction)"
            )
        relation = self._id(query["relation"], "relation")
        k = query.get("k", self.top_k)
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {k!r}")
        k = int(k)
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        if k > self.max_k:
            raise ValueError(f"k must be <= {self.max_k}, got {k}")
        filtered = query.get("filtered", self.dataset is not None)
        if not isinstance(filtered, bool):
            raise ValueError(f"filtered must be a boolean, got {filtered!r}")
        if filtered and self.dataset is None:
            raise ValueError("filtered queries need the engine built with a dataset")
        if head is not None:
            return ("tail", self._id(head, "entity"), relation, k, filtered)
        return ("head", self._id(tail, "entity"), relation, k, filtered)

    def _id(self, value: Any, kind: str) -> int:
        """Resolve an int id or (with a vocabulary) a string label."""
        if isinstance(value, str):
            if self.dataset is None:
                raise ValueError(f"{kind} labels need the engine built with a dataset")
            vocab = self.dataset.vocab
            try:
                if kind == "entity":
                    return vocab.entity_id(value)
                return vocab.relation_id(value)
            except KeyError:
                raise ValueError(f"unknown {kind} label {value!r}") from None
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{kind} must be an int id or string label")
        value = int(value)
        bound = (
            self.snapshot.n_entities if kind == "entity" else self.snapshot.n_relations
        )
        if not 0 <= value < bound:
            raise ValueError(f"{kind} id {value} out of range [0, {bound})")
        return value

    def _render(
        self,
        parsed: tuple[str, int, int, int, bool],
        result: TopKResult,
        *,
        cached: bool,
    ) -> dict[str, Any]:
        direction, anchor, relation, k, _filtered = parsed
        answer = result.to_json()
        answer["relation"] = relation
        answer["k"] = k
        answer["cached"] = cached
        answer["head" if direction == "tail" else "tail"] = anchor
        if self.dataset is not None:
            entities = self.dataset.vocab.entities
            answer["labels"] = [entities[e] for e in answer["entities"]]
        return answer
