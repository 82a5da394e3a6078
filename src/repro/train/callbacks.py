"""Trainer callbacks: evaluation traces, early stopping, run telemetry.

Callbacks receive the trainer after every epoch and record whatever the
experiment needs — the convergence curves of Figures 2-5 (metric vs wall
time), the gradient norms of Figure 10, and validation-based early
stopping.  Evaluation time is excluded from the reported clock (the paper
plots *training* time).

:class:`RunLogCallback` is the trainer's JSONL exporter: it streams one
:mod:`repro.obs.runlog` record per epoch (loss/NZL/grad norm/throughput,
the disjoint phase seconds, and — via registry snapshot deltas — the
cache-health block: churn, survivor fraction, refresh counters and
per-shard task timings).  The trainer appends it automatically when
constructed with ``metrics_out=...``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.stats import EpochSeries
from repro.eval.protocol import evaluate
from repro.obs.registry import MetricsRegistry
from repro.obs.runlog import RunLogWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.train.trainer import Trainer

__all__ = [
    "Callback",
    "EvalCallback",
    "EarlyStopping",
    "CacheSnapshotCallback",
    "RunLogCallback",
]


class Callback:
    """Base class; all hooks are optional no-ops."""

    def on_train_begin(self, trainer: "Trainer") -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, trainer: "Trainer", epoch: int, stats: dict) -> None:
        """Called after every epoch with that epoch's aggregate stats."""

    def on_train_end(self, trainer: "Trainer") -> None:
        """Called after the last epoch (or early stop)."""


class EvalCallback(Callback):
    """Periodic link-prediction evaluation, recorded against wall time.

    Produces the series behind Figures 2-5: ``metric`` and ``hits@k``
    against both epoch number and accumulated *training* seconds (the
    trainer's clock only runs inside epochs, so evaluation between them
    is excluded).

    With ``num_negatives`` set, evaluation uses the sampled protocol
    (:func:`repro.eval.sampled.sampled_link_prediction`) — O(K) per query
    instead of O(E), the only practical per-epoch validation signal on
    million-entity graphs.  The draw seed is fixed per callback, so the
    series is comparable across epochs and across runs.
    """

    def __init__(
        self,
        split: str = "valid",
        every: int = 5,
        *,
        filtered: bool = True,
        hits_at: tuple[int, ...] = (10,),
        batch_size: int = 128,
        num_negatives: int | None = None,
        seed: int = 0,
    ) -> None:
        if every <= 0:
            raise ValueError(f"every must be > 0, got {every}")
        self.split = split
        self.every = int(every)
        self.filtered = filtered
        self.hits_at = hits_at
        self.batch_size = batch_size
        self.num_negatives = num_negatives
        self.seed = seed
        self.series: dict[str, EpochSeries] = {}
        self.times: list[float] = []
        self.epochs: list[int] = []

    def _record(self, trainer: "Trainer", epoch: int) -> dict[str, float]:
        metrics = evaluate(
            trainer.model,
            trainer.dataset,
            self.split,
            mode="sampled" if self.num_negatives is not None else "full",
            filtered=self.filtered,
            hits_at=self.hits_at,
            batch_size=self.batch_size,
            num_negatives=self.num_negatives,
            seed=self.seed,
            metrics=trainer.metrics,
        )
        self.epochs.append(epoch)
        self.times.append(trainer.train_seconds)
        for key, value in metrics.items():
            self.series.setdefault(key, EpochSeries(key)).append(epoch, value)
        return metrics

    def on_train_begin(self, trainer: "Trainer") -> None:
        self.series.clear()
        self.times.clear()
        self.epochs.clear()

    def on_epoch_end(self, trainer: "Trainer", epoch: int, stats: dict) -> None:
        if (epoch + 1) % self.every == 0 or epoch + 1 == trainer.config.epochs:
            metrics = self._record(trainer, epoch)
            stats.update({f"{self.split}_{k}": v for k, v in metrics.items()})

    def on_train_end(self, trainer: "Trainer") -> None:
        # An early-stopped run exits before the configured final epoch,
        # so the `epoch + 1 == config.epochs` trigger above never fires
        # and latest() would report a stale mid-run value.  Record the
        # final model state once, unless the last epoch already did.
        if trainer.epochs_run == 0:
            return
        last = trainer.epochs_run - 1
        if self.epochs and self.epochs[-1] == last:
            return
        self._record(trainer, last)

    def latest(self, key: str = "mrr") -> float:
        """Most recent value of a metric (NaN if never evaluated)."""
        series = self.series.get(key)
        return series.last() if series else float("nan")


class EarlyStopping(Callback):
    """Stop when a stat has not improved for ``patience`` observations."""

    def __init__(
        self, metric: str = "valid_mrr", patience: int = 5, minimize: bool = False
    ) -> None:
        if patience <= 0:
            raise ValueError(f"patience must be > 0, got {patience}")
        self.metric = metric
        self.patience = int(patience)
        self.minimize = bool(minimize)
        self.best = np.inf if minimize else -np.inf
        self.stale = 0

    def on_train_begin(self, trainer: "Trainer") -> None:
        self.best = np.inf if self.minimize else -np.inf
        self.stale = 0

    def on_epoch_end(self, trainer: "Trainer", epoch: int, stats: dict) -> None:
        if self.metric not in stats:
            return
        value = stats[self.metric]
        improved = value < self.best if self.minimize else value > self.best
        if improved:
            self.best = value
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                trainer.request_stop()


#: Per-(mode, shard) counters folded into an epoch's ``refresh_shards``.
_SHARD_SERIES = {
    "refresh_task_seconds_total": "seconds",
    "refresh_tasks_total": "tasks",
    "refresh_queue_wait_seconds_total": "queue_wait_seconds",
}


class RunLogCallback(Callback):
    """Stream one run-log record per epoch to a JSONL file.

    Epoch records combine three sources: the trainer's aggregate stats
    (loss, NZL, gradient norm, wall seconds), the phase span self times
    (reported as per-epoch deltas of the disjoint partition), and — when
    a registry is attached — deltas of the sampler's refresh counters
    (churn, refreshed rows, scored candidates, per-shard task timings).
    The survivor fraction is derived per the cache semantics:
    ``1 - churn / (refreshed_rows * N1)``.
    """

    def __init__(
        self, writer: RunLogWriter, registry: MetricsRegistry | None = None
    ) -> None:
        self.writer = writer
        self.registry = registry
        self._counters: dict[Any, float] = {}
        self._phases: dict[str, float] = {}

    def on_train_begin(self, trainer: "Trainer") -> None:
        config = json.loads(json.dumps(asdict(trainer.config), default=str))
        self.writer.write(
            self.writer.stamp(
                {
                    "type": "run_meta",
                    "model": type(trainer.model).__name__,
                    "dataset": str(getattr(trainer.dataset, "name", "unknown")),
                    "sampler": str(
                        getattr(trainer.sampler, "name", None)
                        or type(trainer.sampler).__name__
                    ),
                    "config": config,
                    "n_train": len(trainer.dataset.train),
                }
            )
        )
        self._counters = (
            self.registry.snapshot() if self.registry is not None else {}
        )
        self._phases = trainer.phase_seconds()

    def on_epoch_end(self, trainer: "Trainer", epoch: int, stats: dict) -> None:
        phases = trainer.phase_seconds()
        phase_delta = {
            name: round(max(0.0, seconds - self._phases.get(name, 0.0)), 6)
            for name, seconds in phases.items()
        }
        self._phases = phases
        epoch_seconds = float(stats.get("epoch_seconds", 0.0))
        n_train = len(trainer.dataset.train)
        record: dict[str, Any] = {
            "type": "epoch",
            "epoch": int(epoch),
            "loss": float(stats.get("loss", 0.0)),
            "nzl": float(stats.get("nzl", 0.0)),
            "grad_norm": float(stats.get("grad_norm", 0.0)),
            "epoch_seconds": epoch_seconds,
            "samples_per_sec": (
                n_train / epoch_seconds if epoch_seconds > 0.0 else 0.0
            ),
            "phase_seconds": {k: v for k, v in phase_delta.items() if v > 0.0},
        }
        if "repeat_ratio" in stats:
            record["extra"] = {"repeat_ratio": float(stats["repeat_ratio"])}
        cache, shards = self._cache_delta(trainer)
        if cache is not None:
            record["cache"] = cache
        if shards:
            record["refresh_shards"] = shards
        self.writer.write(self.writer.stamp(record))

    def on_train_end(self, trainer: "Trainer") -> None:
        self.writer.write(
            self.writer.stamp(
                {
                    "type": "run_end",
                    "epochs": int(trainer.epochs_run),
                    "train_seconds": float(trainer.train_seconds),
                    "phase_seconds": {
                        k: round(v, 6) for k, v in trainer.phase_seconds().items()
                    },
                }
            )
        )
        self.writer.close()

    # -- registry deltas -------------------------------------------------------
    def _cache_delta(
        self, trainer: "Trainer"
    ) -> tuple[dict[str, Any] | None, dict[str, Any]]:
        """Cache-health block + per-shard timings since the last epoch.

        ``(None, {})`` when no refresh counters exist in the registry —
        cache-less samplers and uninstrumented runs log no cache block.
        A zero-delta block is still logged (a lazily skipped epoch is a
        data point, not a gap).
        """
        if self.registry is None:
            return None, {}
        snapshot = self.registry.snapshot()
        previous, self._counters = self._counters, snapshot
        sums: dict[str, float] = {}
        shards: dict[str, dict[str, Any]] = {}
        for (name, labels), value in snapshot.items():
            delta = value - previous.get((name, labels), 0.0)
            if name in _SHARD_SERIES:
                pairs = dict(labels)
                key = f"{pairs.get('mode', '?')}:{pairs.get('shard', '?')}"
                field = _SHARD_SERIES[name]
                entry = shards.setdefault(key, {})
                entry[field] = (
                    int(delta) if field == "tasks" else round(delta, 6)
                )
            else:
                sums[name] = sums.get(name, 0.0) + delta
        if not any(
            name == "cache_refresh_batches_total" for name, _labels in snapshot
        ):
            return None, shards
        refreshed = sums.get("cache_refresh_rows_total", 0.0)
        churn = sums.get("cache_changed_elements_total", 0.0)
        cache: dict[str, Any] = {
            "churn": churn,
            "refreshed_rows": refreshed,
            "candidates": sums.get("cache_refresh_candidates_total", 0.0),
            "refresh_batches": sums.get("cache_refresh_batches_total", 0.0),
        }
        n1 = int(getattr(trainer.sampler, "cache_size", 0) or 0)
        if refreshed > 0.0 and n1 > 0:
            cache["survivor_fraction"] = round(
                1.0 - churn / (refreshed * n1), 6
            )
        report = trainer.cache_report()
        for side in ("head", "tail"):
            for suffix in ("live_fraction", "load_factor"):
                value = report.get(f"{side}_{suffix}")
                if isinstance(value, (int, float)):
                    cache[f"{side}_{suffix}"] = round(float(value), 6)
        return cache, shards


class CacheSnapshotCallback(Callback):
    """Record the contents of one cache entry per epoch (Table VI study)."""

    def __init__(self, key: tuple[int, int], *, head_side: bool = False) -> None:
        self.key = (int(key[0]), int(key[1]))
        self.head_side = bool(head_side)
        self.snapshots: dict[int, np.ndarray] = {}

    def on_epoch_end(self, trainer: "Trainer", epoch: int, stats: dict) -> None:
        sampler = trainer.sampler
        cache = getattr(
            sampler, "head_cache" if self.head_side else "tail_cache", None
        )
        if cache is not None and self.key in cache:
            self.snapshots[epoch] = cache.get(self.key).copy()
