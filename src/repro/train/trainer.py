"""The mini-batch training loop (Algorithms 1 and 2).

One :class:`Trainer` wires together a scoring model, a negative sampler, a
loss matched to the model family (Eq. 1 / Eq. 2), a sparse optimiser and an
optional L2 regulariser, and exposes per-epoch statistics: mean loss,
non-zero-loss ratio (NZL), average gradient l2 norm (Figure 10), cache
changed-elements (Figure 8) and the repeat ratio of sampled negatives
(Figure 7).

Two hot-path amenities: samplers that expose ``precompute_rows`` (the
NSCaching array cache) get the whole split's cache-row indices resolved
once at construction and sliced per batch, and ``profile=True`` reports
the per-phase breakdown (sample / score / cache-update /
score-candidates / gradients / optimizer) so speedups are measurable
from the CLI.

Spans are the one stopwatch.  ``profile``, ``metrics`` (a
:class:`~repro.obs.registry.MetricsRegistry`), ``metrics_out`` (a JSONL
run-log path), ``tracer`` (a :class:`~repro.obs.trace.Tracer`) and
``trace_out`` (a JSONL trace path) each attach a tracer: every profile
phase and epoch becomes a ``train`` span, and samplers with a ``tracer``
slot record their refresh spans into the same ring, including the
``score_candidates`` scoring of the Alg. 3 candidate union and the
``parallel_refresh`` dispatch+wait, both nested inside ``cache_update``.
Only the trainer's own thread records ``train`` spans: the cache side
a helper thread refreshes records its scoring as a ``refresh`` span.
:meth:`Trainer.phase_seconds` reads each phase's ``train`` self time
from the tracer's running totals, so the phases partition the hot loop
and sum to at most its wall time.  The pooled refresh merges spans
shipped back from forked workers, so one timeline covers dispatch →
gradients/optimizer → collect across processes; with ``trace_out``,
``close()`` writes it for ``repro trace`` (summary, Chrome export).

``metrics`` / ``metrics_out`` also attach the registry to samplers that
accept one (per-refresh cache-health counters), mirror per-epoch
loss/NZL/grad-norm/throughput and cumulative phase seconds into it, and
— with ``metrics_out`` — stream one :mod:`repro.obs.runlog` record per
epoch for ``repro metrics`` to summarise.  With none of the five, every
instrumentation site is a ``None`` check: training is bit-identical to
the uninstrumented loop under a fixed seed.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import ContextManager, Sequence

import numpy as np

from repro.core.stats import EpochSeries, NegativeTracker
from repro.data.dataset import KGDataset
from repro.data.triples import HEAD, REL, TAIL
from repro.models.base import KGEModel
from repro.models.losses import LogisticLoss, Loss, MarginRankingLoss
from repro.models.regularizers import L2Regularizer
from repro.obs import clock
from repro.obs.registry import MetricsRegistry
from repro.obs.runlog import RunLogWriter
from repro.obs.trace import SpanTotal, Tracer, write_trace
from repro.optim import make_optimizer
from repro.sampling.base import NegativeSampler
from repro.train.config import TrainConfig
from repro.utils.rng import spawn_rngs

__all__ = ["Trainer", "TrainingHistory"]


class TrainingHistory:
    """Per-epoch series recorded by the trainer."""

    _NAMES = ("loss", "nzl", "grad_norm", "epoch_seconds", "repeat_ratio", "cache_changes")

    def __init__(self) -> None:
        self.series: dict[str, EpochSeries] = {
            name: EpochSeries(name) for name in self._NAMES
        }

    def record(self, epoch: int, stats: dict[str, float]) -> None:
        """Append every known stat for this epoch."""
        for name, series in self.series.items():
            if name in stats:
                series.append(epoch, stats[name])

    def __getitem__(self, name: str) -> EpochSeries:
        return self.series[name]

    def last(self, name: str) -> float:
        """Most recent value of a series."""
        return self.series[name].last()


class Trainer:
    """Runs the KG-embedding training loop for any sampler/model pair."""

    #: Phase names reported by the profiler, in hot-loop order.
    #: ``score_candidates`` and ``parallel_refresh`` nest inside
    #: ``cache_update`` (candidate scoring of the sequential refresh, and
    #: dispatch+wait of the pooled refresh); self time makes them
    #: disjoint.  ``refresh_overlap`` is the wait for the pooled
    #: refresh at the top of the next batch — time the refresh pipeline
    #: failed to hide behind the gradients/optimizer phases (0 when the
    #: workers finished first, or on the sequential refresh).
    PROFILE_PHASES = (
        "refresh_overlap", "sample", "score", "cache_update",
        "score_candidates", "parallel_refresh", "gradients", "optimizer",
    )

    def __init__(
        self,
        model: KGEModel,
        dataset: KGDataset,
        sampler: NegativeSampler,
        config: TrainConfig | None = None,
        callbacks: Sequence[object] = (),
        *,
        profile: bool = False,
        metrics: MetricsRegistry | None = None,
        metrics_out: str | None = None,
        tracer: Tracer | None = None,
        trace_out: str | None = None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.sampler = sampler
        self.config = config or TrainConfig()
        self.callbacks = list(callbacks)
        self.profile = bool(profile)
        if metrics is None and metrics_out is not None:
            metrics = MetricsRegistry()  # the run log needs instruments
        self.metrics = metrics
        if tracer is None and (
            self.profile or metrics is not None or trace_out is not None
        ):
            # Phase seconds, the run log and the trace file all read spans.
            # With no instrumentation, _phase() hands back a no-op context —
            # the seed hot loop, bit for bit.
            tracer = Tracer()
        self.tracer = tracer
        self._trace_out = trace_out
        self._run_log: RunLogWriter | None = None
        if metrics_out is not None:
            from repro.train.callbacks import RunLogCallback

            self._run_log = RunLogWriter(metrics_out)
            self.callbacks.append(RunLogCallback(self._run_log, metrics))

        rng_batches, rng_sampler = spawn_rngs(self.config.seed, 2)
        self._rng = rng_batches
        self.sampler.bind(model, dataset, rng_sampler)

        # Samplers with a ``metrics`` slot report cache health (refresh
        # rows, churn, per-shard task timings) into the shared registry.
        if hasattr(self.sampler, "metrics"):
            self.sampler.metrics = metrics
        # Samplers with a ``tracer`` slot record refresh spans into the
        # trainer's ring (and merge their forked workers' spans into it),
        # so one timeline covers the whole pipeline; their
        # ``score_candidates`` and ``parallel_refresh`` spans are phases.
        # Assigned unconditionally so a sampler handed to a new trainer
        # stops feeding a previous trainer's tracer.  Must happen before
        # the first update(): refresh workers inherit tracing at fork.
        if hasattr(self.sampler, "tracer"):
            self.sampler.tracer = tracer

        # Pooled-refresh samplers hand back a collect hook: the
        # trainer drains the in-flight dispatch at the top of every batch
        # (and at epoch end), timing the un-hidden wait as the
        # ``refresh_overlap`` phase.  Dirty-sync samplers take the rows
        # every optimizer step / normalisation touches, so parameter
        # publishes ship only the changed slices.
        collect = getattr(self.sampler, "collect_refreshes", None)
        self._collect_refreshes = collect if callable(collect) else None
        mark = getattr(self.sampler, "mark_dirty_params", None)
        self._dirty_mark = mark if callable(mark) else None

        # Row-indexed samplers resolve the whole split's cache rows once;
        # batches then carry integer slices instead of re-deriving keys.
        precompute = getattr(self.sampler, "precompute_rows", None)
        self._train_rows = precompute(dataset.train) if callable(precompute) else None

        self.loss = self._make_loss()
        self.optimizer = make_optimizer(
            self.config.optimizer, self.config.learning_rate
        )
        self.regularizer = (
            L2Regularizer(self.config.l2_weight)
            if self.config.l2_weight > 0
            else None
        )
        self.history = TrainingHistory()
        self.negative_tracker = (
            NegativeTracker() if self.config.track_negatives else None
        )
        #: Accumulated training wall time: the sum of ``epoch_seconds``.
        self.train_seconds = 0.0
        self._epoch = 0
        self._stop = False
        self.epochs_run = 0

    # -- construction helpers ----------------------------------------------------
    def _make_loss(self) -> Loss:
        kind = self.config.loss
        if kind == "auto":
            kind = self.model.default_loss
        if kind == "margin":
            return MarginRankingLoss(self.config.margin)
        return LogisticLoss()

    def request_stop(self) -> None:
        """Ask the training loop to stop after the current epoch."""
        self._stop = True

    # -- profiling / observability ---------------------------------------------
    def _phase(self, name: str) -> ContextManager[object]:
        """The phase's ``train`` span when a tracer is attached, else a
        no-op context — the seed hot loop, bit for bit."""
        if self.tracer is not None:
            return self.tracer.start_span(name, "train")
        return nullcontext()

    def phase_seconds(self) -> dict[str, float]:
        """Accumulated seconds per hot-loop phase, made disjoint.

        Each phase's ``train`` self time: ``score_candidates`` and
        ``parallel_refresh`` run nested inside the sampler's
        ``update()``, so their spans are carved out of ``cache_update``'s
        — the phases partition the hot loop and sum to at most its wall
        time.  All zeros when no tracer is attached.
        """
        totals = self.tracer.totals() if self.tracer is not None else {}
        zero = SpanTotal(0, 0.0, 0.0)
        return {
            name: totals.get(("train", name), zero).self_seconds
            for name in self.PROFILE_PHASES
        }

    def profile_report(self) -> dict[str, float]:
        """The disjoint phase breakdown (empty unless ``profile=True``)."""
        if not self.profile:
            return {}
        return self.phase_seconds()

    def _sync_metrics(self, stats: dict[str, float]) -> None:
        """Mirror one epoch's aggregates into the attached registry.

        Runs once per epoch (never per batch), before the callbacks fire,
        so exporters observe a consistent post-epoch view.  Cumulative
        phase seconds are mirrored with ``set_total`` — the spans stay
        the single source of truth.
        """
        registry = self.metrics
        assert registry is not None
        registry.counter("train_epochs_total", "training epochs completed").inc()
        registry.counter(
            "train_samples_total", "positive triples consumed"
        ).inc(len(self.dataset.train))
        registry.gauge("train_loss", "mean loss of the last epoch").set(
            stats["loss"]
        )
        registry.gauge("train_nzl", "non-zero-loss ratio (paper NZL)").set(
            stats["nzl"]
        )
        registry.gauge("train_grad_norm", "mean gradient l2 norm").set(
            stats["grad_norm"]
        )
        epoch_seconds = stats.get("epoch_seconds", 0.0)
        if epoch_seconds > 0.0:
            registry.gauge(
                "train_samples_per_sec", "training throughput of the last epoch"
            ).set(len(self.dataset.train) / epoch_seconds)
        for phase, seconds in self.phase_seconds().items():
            registry.counter(
                "train_phase_seconds_total",
                "cumulative hot-loop seconds per phase (disjoint)",
                labels={"phase": phase},
            ).set_total(seconds)

    def _collect_pooled_refresh(self) -> None:
        """Collect the sampler's in-flight pooled refresh, if it has one,
        counting a worker's non-finite score before it propagates."""
        if self._collect_refreshes is None:
            return
        with self._phase("refresh_overlap"):
            try:
                self._collect_refreshes()
            except FloatingPointError:
                self._count_nonfinite("refresh")
                raise

    def _count_nonfinite(self, source: str) -> None:
        """Count a batch stopped by a non-finite ``loss`` or ``refresh``
        score, before its ``FloatingPointError`` propagates."""
        if self.metrics is not None:
            self.metrics.counter(
                "train_nonfinite_total",
                "batches stopped by a non-finite loss or cache refresh score",
                labels={"source": source},
            ).inc()

    def cache_report(self) -> dict[str, object]:
        """The sampler's cache introspection (empty for cache-less samplers).

        Key counts, materialised/allocated bytes and — for the
        bucketed (``n_buckets``) caches — load factor and colliding-key
        counts; the CLI prints this next to the phase table under
        ``--profile``.
        """
        stats = getattr(self.sampler, "cache_stats", None)
        return stats() if callable(stats) else {}

    def close(self) -> None:
        """Release sampler-held resources (refresh pool, shared memory).

        Safe to call repeatedly and on samplers without resources; training
        can not continue on this trainer afterwards unless the sampler is
        re-bound.  Also closes the run-log writer, so an aborted run's
        JSONL ends cleanly at the last complete record (no ``run_end``),
        and flushes the trace file when ``trace_out`` was given — spans
        recorded so far survive an abort, like the run log does.
        """
        if self._run_log is not None:
            self._run_log.close()
        if self.tracer is not None and self._trace_out is not None:
            write_trace(self._trace_out, self.tracer.records())
        release = getattr(self.sampler, "close", None)
        if callable(release):
            release()

    # -- main loop -----------------------------------------------------------------
    def run(self, epochs: int | None = None) -> TrainingHistory:
        """Train for ``epochs`` (default: the config's) and return history."""
        n_epochs = self.config.epochs if epochs is None else int(epochs)
        self._stop = False
        for callback in self.callbacks:
            callback.on_train_begin(self)
        epoch = self.epochs_run - 1
        for epoch in range(self.epochs_run, self.epochs_run + n_epochs):
            stats = self.train_epoch(epoch)
            self.history.record(epoch, stats)
            if self.metrics is not None:
                self._sync_metrics(stats)
            for callback in self.callbacks:
                callback.on_epoch_end(self, epoch, stats)
            if self._stop:
                break
        self.epochs_run = epoch + 1
        for callback in self.callbacks:
            callback.on_train_end(self)
        return self.history

    def train_epoch(self, epoch: int) -> dict[str, float]:
        """One pass over the training split; returns the epoch's stats."""
        train = self.dataset.train
        order = (
            self._rng.permutation(len(train))
            if self.config.shuffle
            else np.arange(len(train))
        )
        self._epoch = epoch
        self.sampler.on_epoch_start(epoch)

        losses: list[float] = []
        nzl_values: list[float] = []
        grad_norms: list[float] = []
        epoch_span = (
            self.tracer.start_span("epoch", "train", args={"epoch": epoch})
            if self.tracer is not None
            else None
        )
        started = clock.perf_counter()
        try:
            for start in range(0, len(train), self.config.batch_size):
                indices = order[start : start + self.config.batch_size]
                batch = train[indices]
                rows = (
                    self._train_rows.take(indices)
                    if self._train_rows is not None
                    else None
                )
                batch_stats = self.train_batch(batch, rows)
                losses.append(batch_stats["loss"])
                nzl_values.append(batch_stats["nzl"])
                grad_norms.append(batch_stats["grad_norm"])
            # The last batch's pooled refresh is still in flight: wait
            # for it inside the epoch clock so epoch_seconds stays honest
            # about the full refresh cost.
            self._collect_pooled_refresh()
        finally:
            epoch_seconds = clock.perf_counter() - started
            self.train_seconds += epoch_seconds
            if epoch_span is not None:
                epoch_span.end()

        stats: dict[str, float] = {
            "loss": float(np.mean(losses)) if losses else 0.0,
            "nzl": float(np.mean(nzl_values)) if nzl_values else 0.0,
            "grad_norm": float(np.mean(grad_norms)) if grad_norms else 0.0,
            "epoch_seconds": epoch_seconds,
        }
        if self.negative_tracker is not None:
            stats["repeat_ratio"] = self.negative_tracker.repeat_ratio()
            self.negative_tracker.end_epoch()
        changed = getattr(self.sampler, "changed_elements", None)
        if callable(changed):
            stats["cache_changes"] = float(changed(reset=True))
        return stats

    def train_batch(self, batch: np.ndarray, rows: object = None) -> dict[str, float]:
        """Algorithm 2 steps 4-9 for one mini-batch.

        ``rows`` carries precomputed cache-row indices for row-indexed
        samplers (sliced from the split-wide precomputation).  Raises
        :class:`FloatingPointError` when the batch's loss is not finite,
        before the caches or the embeddings are touched; a sequential
        refresh raises it for a non-finite candidate score before either
        cache is written, and a pooled one when it is collected.  With a
        registry attached, ``train_nonfinite_total{source="loss"|"refresh"}``
        counts either first.
        """
        # Collect the previous batch's pooled refresh before touching
        # the caches; whatever wait is left is overlap the step failed to
        # hide.  (sample() would collect defensively anyway — collecting
        # here attributes the wait to its own phase, not ``sample``.)
        self._collect_pooled_refresh()
        with self._phase("sample"):
            negatives = (
                self.sampler.sample(batch, rows)
                if rows is not None
                else self.sampler.sample(batch)
            )
        if self.negative_tracker is not None:
            self.negative_tracker.record(negatives)

        with self._phase("score"):
            pos_scores = self.model.score_triples(batch)
            neg_scores = self.model.score_triples(negatives)
            loss_values = self.loss.value(pos_scores, neg_scores)
            d_pos, d_neg = self.loss.score_grads(pos_scores, neg_scores)
        loss = float(np.mean(loss_values))
        if not np.isfinite(loss):
            self._count_nonfinite("loss")
            raise FloatingPointError(
                f"non-finite loss ({loss}) in epoch {self._epoch}: the "
                "embeddings hold NaN/inf or the learning rate diverged; "
                "stopping the run"
            )

        # Alg. 2 step 8: the cache refresh precedes the embedding update.
        with self._phase("cache_update"):
            try:
                if rows is not None:
                    self.sampler.update(batch, negatives, rows)
                else:
                    self.sampler.update(batch, negatives)
            except FloatingPointError:
                self._count_nonfinite("refresh")
                raise

        with self._phase("gradients"):
            bag = self.model.grad_triples(batch, d_pos)
            bag.merge(self.model.grad_triples(negatives, d_neg))
            if self.regularizer is not None:
                self.regularizer.add_gradients(
                    bag, self.model.params, self._touched_rows(batch, negatives)
                )
            grad_norm = bag.global_norm()

        with self._phase("optimizer"):
            self.optimizer.step(self.model.params, bag, dirty_mark=self._dirty_mark)

            if self.config.normalize:
                touched = np.concatenate(
                    [batch[:, HEAD], batch[:, TAIL],
                     negatives[:, HEAD], negatives[:, TAIL]]
                )
                self.model.normalize(touched)
                if self._dirty_mark is not None:
                    # Normalisation rewrites the touched entity rows too;
                    # report them so delta syncs stay complete.  (A subset
                    # of the optimizer's rows in practice — marked
                    # explicitly so the sync contract never depends on
                    # that coincidence.)
                    for name in self.model.entity_params:
                        self._dirty_mark(name, touched)

        return {
            "loss": loss,
            "nzl": self.loss.nonzero_ratio(pos_scores, neg_scores),
            "grad_norm": grad_norm,
        }

    def _touched_rows(
        self, batch: np.ndarray, negatives: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Rows whose embeddings the batch touches, per parameter table."""
        entities = np.concatenate(
            [batch[:, HEAD], batch[:, TAIL], negatives[:, HEAD], negatives[:, TAIL]]
        )
        relations = np.concatenate([batch[:, REL], negatives[:, REL]])
        rows: dict[str, np.ndarray] = {}
        for name in self.model.entity_params:
            rows[name] = entities
        for name in self.model.relation_params:
            rows[name] = relations
        return rows
