"""The multiprocess cache-refresh pool.

One NSCaching batch refresh is embarrassingly parallel once the cache
row-space is sharded: every shard's slice of the batch reads and writes a
disjoint contiguous row range of the shared-memory storage
(an :class:`~repro.core.array_cache.ArrayNegativeCache` built with
``n_shards=``), so the pool simply ships each slice —
anchor/relation ids plus storage rows, a few KiB — to a persistent worker
process and lets it run the *same* Alg. 3 body the sequential path uses
(:func:`~repro.core.strategies.refresh_cache_rows`), scattering
survivors straight back into shared memory.  Worker processes are forked
once and live for the whole training run.

Keeping workers on current embeddings costs one parameter publish per
refresh (:meth:`RefreshPool.sync_params`) into **one** shared mirror of
the model.  Two mechanisms keep that publish off the critical path:

* **Dirty-row sync** — a :class:`~repro.parallel.dirty.DirtyRowTracker`
  accumulates the rows the optimiser actually touched since the last
  publish (callers report them via :meth:`RefreshPool.mark_dirty`); the
  sync then ships only ``param[rows]`` slices.  The first sync, any
  un-marked run, and heavily-dirty tables fall back to the full
  contiguous copy — bit-identical either way, the tracker only changes
  *how many bytes* move.
* **Dispatch/collect** — :meth:`dispatch` publishes the pre-step
  snapshot, enqueues the batch and returns immediately; the trainer runs
  its gradient/optimizer phases while the workers refresh, and
  :meth:`collect` picks up the results at the top of the next batch.
  Algorithm 3 only needs *pre-step* parameters, so overlapping the
  refresh with the step changes nothing about the results.  One mirror
  is enough: only one batch is ever in flight (:meth:`dispatch` raises
  over an uncollected one), so the next publish always follows the
  collect of the batch that read the mirror.

Determinism: every task draws from its own generator seeded by
``(seed, mode, shard_id, epoch, batch)``.  Streams belong to *shards*,
not workers, so results are bit-identical across worker counts,
scheduling orders, the in-process fallback (``n_workers < 2`` or
platforms without ``fork``), dirty vs full sync, and when the caller
collects — two seeded runs always produce the same caches and training
trajectory.  Note this stream layout differs from
the sequential single-stream path: parallel refresh (>= 2 workers) is a
*deterministic sibling* of sequential training, not a bit-identical twin;
with 1 worker the sampler keeps the sequential path, which is
bit-identical to heap storage.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, NamedTuple

import numpy as np

from repro.core.array_cache import ArrayNegativeCache
from repro.core.strategies import UpdateStrategy, refresh_cache_rows, reusable_rows
from repro.models.base import CANDIDATE_MODES, KGEModel
from repro.parallel.dirty import DirtyRowTracker
from repro.parallel.sharded import SharedArrayBlock

__all__ = ["RefreshPool", "ShardTask", "ShardResult", "SyncReport"]

#: Stable ordinal per corruption mode, mixed into the per-task seed so the
#: head- and tail-cache refreshes of one shard draw independent streams.
_MODE_ORDINAL = {mode: i for i, mode in enumerate(CANDIDATE_MODES)}

#: Seconds between liveness checks while waiting on worker results.  A
#: slow-but-alive worker is waited on indefinitely (shard slices can be
#: arbitrarily expensive at scale); only a dead worker aborts the wait.
_RESULT_POLL_SECONDS = 5.0


@dataclass(frozen=True)
class ShardTask:
    """One shard's slice of one batch refresh (a unit of worker work)."""

    mode: str
    shard: int
    epoch: int
    batch: int
    anchors: np.ndarray
    relations: np.ndarray
    rows: np.ndarray  # storage rows, all inside the shard's range
    #: ``time.monotonic()`` at :meth:`RefreshPool.dispatch`, which stamps
    #: every task of a batch with one reading.  On Linux the monotonic
    #: clock is system-wide, so a forked worker can subtract it from its
    #: own reading to measure queue wait.
    enqueued_at: float = 0.0


@dataclass(frozen=True)
class ShardResult:
    """Counter deltas and timings a completed task reports back.

    ``seconds`` is the task's execution wall time inside the worker;
    ``queue_wait`` the dispatch→start latency, which includes the run
    time of sibling tasks the same worker took first; ``worker_pid``
    identifies which process ran it (the parent pid under the inline
    fallback).  The sampler folds these
    into its metrics registry, giving the per-shard refresh timings of
    the run log and ``/metrics``.

    ``spans`` piggybacks the worker's finished trace spans (schema-v2
    ``span`` record dicts) when the pool was built with ``trace=True`` —
    the result queue is the only parent↔worker channel, so shipping the
    timeline on the results needs no extra plumbing.  Empty when tracing
    is off, so untraced refreshes move identical bytes.
    """

    mode: str
    shard: int
    changed: int
    initialised: int
    n_rows: int = 0
    seconds: float = 0.0
    queue_wait: float = 0.0
    worker_pid: int = 0
    spans: tuple[dict[str, Any], ...] = ()


class SyncReport(NamedTuple):
    """What one :meth:`RefreshPool.sync_params` publish actually moved.

    ``bytes_copied / total_bytes`` is the dirty fraction the obs layer
    tracks; ``full_tables`` counts parameter tables that took the
    contiguous full-copy path (first sync, un-marked run, or past the
    tracker's dirty threshold).
    """

    bytes_copied: int
    rows_copied: int
    total_bytes: int
    full_tables: int
    n_tables: int

    @property
    def dirty_fraction(self) -> float:
        """Fraction of the full parameter bytes this sync shipped."""
        if self.total_bytes <= 0:
            return 0.0
        return self.bytes_copied / self.total_bytes


@dataclass(frozen=True)
class _TaskFailure:
    """A worker-side exception, shipped back as text.

    ``nonfinite`` marks a ``FloatingPointError`` (a non-finite candidate
    score), which :meth:`RefreshPool.collect` re-raises as that type.
    """

    message: str
    nonfinite: bool = False


class _WorkerState:
    """Everything a refresh worker needs; built pre-fork, inherited.

    ``run`` is also the single-process fallback: the pool calls it inline
    when it has fewer than two workers or no ``fork``, so both execution
    modes share one code path (and are therefore bit-identical).
    ``views`` holds one row-addressed cache per mode over the shared
    storage, ``unions`` one persistent union block per mode.

    ``model`` scores through read-only views of the pool's shared
    parameter mirror.

    With ``trace=True`` the state carries a
    :class:`~repro.obs.trace.Tracer`: built pre-fork, so every worker
    inherits its *own* copy-on-write ring.  ``run`` records one
    ``queue_wait`` and one ``shard_task`` span per task (timestamped on
    the system-wide monotonic axis, comparable with the parent's spans)
    and drains them into the returned :attr:`ShardResult.spans`.  A
    ``queue_wait`` span starts no earlier than the end of the worker's
    previous ``shard_task``, so one worker's spans never overlap.
    """

    def __init__(
        self,
        model: KGEModel,
        views: dict[str, ArrayNegativeCache],
        candidate_size: int,
        update_strategy: UpdateStrategy,
        seed: int,
        trace: bool = False,
    ) -> None:
        self.model = model
        self.views = views
        self.unions: dict[str, np.ndarray] = {}
        self.candidate_size = candidate_size
        self.update_strategy = update_strategy
        self.seed = seed
        if trace:
            from repro.obs.trace import Tracer

            # A task ships 2 spans and drains per result: 1024 slots is
            # pure headroom, not a sizing decision.
            self.tracer: "Tracer | None" = Tracer(capacity=1024)
        else:
            self.tracer = None
        #: Monotonic end of this worker's previous traced ``shard_task``.
        self.last_task_end = 0.0

    def task_rng(self, task: ShardTask) -> np.random.Generator:
        """The task's own stream: keyed by (seed, mode, shard, epoch, batch)."""
        entropy = (
            self.seed,
            _MODE_ORDINAL[task.mode],
            task.shard,
            task.epoch,
            task.batch,
        )
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def union_buffer(self, mode: str, n_rows: int) -> np.ndarray:
        """The mode's persistent ``[n_rows, N1+N2]`` union block."""
        width = self.views[mode].size + self.candidate_size
        return reusable_rows(self.unions, mode, n_rows, width, np.int64)

    def run(self, task: ShardTask) -> ShardResult:
        """Fused Alg. 3 refresh of one shard slice, against shared storage."""
        now = time.monotonic()
        queue_wait = max(0.0, now - task.enqueued_at)
        tracer, task_span = self.tracer, None
        if tracer is not None:
            # The wait is already over; record it as a pre-finished span
            # from the dispatch stamp, or from the end of this worker's
            # previous task if it ran after the stamp.
            wait_start = min(now, max(task.enqueued_at, self.last_task_end))
            tracer.ingest((
                {
                    "name": "queue_wait",
                    "cat": "refresh_worker",
                    "ts": wait_start,
                    "dur": now - wait_start,
                    "pid": os.getpid(),
                    "tid": threading.get_native_id(),
                },
            ))
            task_span = tracer.start_span(
                "shard_task",
                "refresh_worker",
                args={
                    "mode": task.mode,
                    "shard": task.shard,
                    "epoch": task.epoch,
                    "batch": task.batch,
                    "rows": int(len(task.rows)),
                },
            )
        started = time.perf_counter()
        cache = self.views[task.mode]
        # One stream per task: new rows materialise from it as well.
        cache.rng = rng = self.task_rng(task)
        before_init = cache.initialised_entries
        changed = refresh_cache_rows(
            self.model, cache,
            task.anchors, task.relations, task.rows, task.mode,
            self.union_buffer(task.mode, len(task.rows)), self.update_strategy, rng,
        )
        spans: tuple[dict[str, Any], ...] = ()
        if tracer is not None:
            assert task_span is not None
            self.last_task_end = task_span.start + task_span.end()
            spans = tuple(tracer.drain())
        return ShardResult(
            task.mode,
            task.shard,
            changed,
            cache.initialised_entries - before_init,
            n_rows=len(task.rows),
            seconds=time.perf_counter() - started,
            queue_wait=queue_wait,
            worker_pid=os.getpid(),
            spans=spans,
        )


def _run_task(state: _WorkerState, task: ShardTask) -> ShardResult | _TaskFailure:
    """Run one task; an exception comes back as a :class:`_TaskFailure`."""
    try:
        return state.run(task)
    except Exception as exc:  # ship the failure, keep serving
        # Exception, not BaseException: KeyboardInterrupt/SystemExit
        # must terminate the worker normally, not masquerade as a
        # task failure.
        import traceback

        return _TaskFailure(
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            nonfinite=isinstance(exc, FloatingPointError),
        )


def _worker_main(state: _WorkerState, tasks: object, results: object) -> None:
    """Worker process loop: drain tasks until the ``None`` sentinel."""
    while True:
        task = tasks.get()  # type: ignore[attr-defined]
        if task is None:
            return
        results.put(_run_task(state, task))  # type: ignore[attr-defined]


def _fork_context() -> mp.context.BaseContext:
    """The ``fork`` start method; ``ValueError`` on platforms without it.

    Tests replace this lookup to run a multi-worker pool inline.
    """
    return mp.get_context("fork")


class RefreshPool:
    """Persistent worker processes running sharded cache refreshes.

    Parameters
    ----------
    model:
        The training model; its parameters are mirrored into one set of
        shared read-only blocks before every refresh (:meth:`sync_params`).
    caches:
        One shared-memory :class:`~repro.core.array_cache.ArrayNegativeCache`
        (built with ``n_shards=``) per corruption mode (``"head"``/``"tail"``) — storage must already be
        attached (shards planned) before :meth:`start`.
    n_workers:
        Worker processes to fork.  Values ``< 2`` mean no processes: the
        pool runs every task inline (the deterministic fallback), as it
        also does when the platform lacks the ``fork`` start method.
    seed:
        Base entropy for the per-``(mode, shard, epoch, batch)`` task
        streams.
    trace:
        Give every worker its own span :class:`~repro.obs.trace.Tracer`
        (built pre-fork); each task's ``queue_wait``/``shard_task``
        spans ship back on :attr:`ShardResult.spans` for the caller to
        merge into one timeline.  Off by default — tracing never touches
        the refresh math, only whether span dicts ride the result queue.
        Must be decided before :meth:`start` (workers inherit the state
        at fork).
    """

    def __init__(
        self,
        model: KGEModel,
        caches: dict[str, ArrayNegativeCache],
        *,
        n_entities: int,
        candidate_size: int,
        update_strategy: UpdateStrategy | str,
        seed: int,
        n_workers: int = 1,
        trace: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        unknown = sorted(set(caches) - set(CANDIDATE_MODES))
        if unknown:
            raise ValueError(f"unknown corruption mode(s) {unknown}")
        self.model = model
        self.caches = dict(caches)
        self.n_entities = int(n_entities)
        self.candidate_size = int(candidate_size)
        self.update_strategy = UpdateStrategy(update_strategy)
        self.seed = int(seed)
        self.n_workers = int(n_workers)
        self.trace = bool(trace)
        #: The ``{name: block}`` shared parameter mirror (filled by start).
        self._param_blocks: dict[str, SharedArrayBlock] = {}
        self._tracker: DirtyRowTracker | None = None
        self._armed = False  # becomes True on the first mark_dirty()
        self._inflight = 0  # dispatched-but-uncollected task count
        #: Pids of workers found dead by a collect; the pool then refuses work.
        self._dead: list[int] = []
        self._inline_pending: list[ShardResult | _TaskFailure] = []
        #: The most recent :class:`SyncReport` (telemetry; None pre-sync).
        self.last_sync: SyncReport | None = None
        self._state: _WorkerState | None = None
        self._processes: list[mp.process.BaseProcess] = []
        self._tasks: object | None = None
        self._results: object | None = None
        self._started = False

    # -- lifecycle ------------------------------------------------------------
    @property
    def using_processes(self) -> bool:
        """Whether tasks actually run in worker processes (after start)."""
        return bool(self._processes)

    @property
    def inflight(self) -> int:
        """Dispatched tasks not yet collected (0 = nothing outstanding)."""
        return self._inflight

    def start(self) -> "RefreshPool":
        """Allocate the shared parameter blocks and fork the workers."""
        if self._started:
            return self
        self._started = True

        # Mirror the model into shared memory: workers score through
        # read-only views of these blocks, so a parent-side publish per
        # refresh is all it takes to keep them on the right embeddings.
        worker_model = self.model.copy()
        for name, param in self.model.params.items():
            block = SharedArrayBlock(param.shape, param.dtype)
            assert block.array is not None
            self._param_blocks[name] = block
            view = block.array.view()
            view.setflags(write=False)
            worker_model.params[name] = view
        self._tracker = DirtyRowTracker(
            {name: int(param.shape[0]) for name, param in self.model.params.items()}
        )

        views: dict[str, ArrayNegativeCache] = {}
        for mode, store in self.caches.items():
            layout = store.worker_layout()
            view = ArrayNegativeCache(
                layout["size"],  # type: ignore[arg-type]
                self.n_entities,
                rng=0,  # replaced per task
                store_scores=bool(layout["store_scores"]),
            )
            view.attach_storage(
                None,
                layout["ids"],  # type: ignore[arg-type]
                layout["live"],  # type: ignore[arg-type]
                layout["scores"],  # type: ignore[arg-type]
            )
            views[mode] = view
        self._state = _WorkerState(
            worker_model,
            views,
            self.candidate_size,
            self.update_strategy,
            self.seed,
            trace=self.trace,
        )

        if self.n_workers >= 2:
            try:
                ctx = _fork_context()
            except ValueError:  # no fork: run the tasks inline
                ctx = None
            if ctx is not None:
                self._tasks = ctx.Queue()
                self._results = ctx.Queue()
                for _ in range(self.n_workers):
                    process = ctx.Process(
                        target=_worker_main,
                        args=(self._state, self._tasks, self._results),
                        daemon=True,
                    )
                    process.start()
                    self._processes.append(process)
        return self

    def close(self) -> None:
        """Stop the workers and release the shared parameter blocks.

        An uncollected in-flight refresh is drained best-effort first —
        its results (and any failures) are discarded, but the queue ends
        empty so the worker shutdown below cannot interleave sentinels
        with unread answers.  A dead worker aborts the drain rather than
        hanging the close; the shared blocks are released either way.
        """
        if self._inflight:
            try:
                self.collect()
            except (RuntimeError, FloatingPointError):
                pass  # failed/dead workers: shutdown proceeds regardless
        for _ in self._processes:
            assert self._tasks is not None
            self._tasks.put(None)  # type: ignore[attr-defined]
        for process in self._processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        if self._tasks is not None:
            self._tasks.close()  # type: ignore[attr-defined]
            self._tasks = None
        if self._results is not None:
            self._results.close()  # type: ignore[attr-defined]
            self._results = None
        self._state = None
        self._tracker = None
        self._armed = False
        self._dead = []
        self._inline_pending = []
        blocks, self._param_blocks = self._param_blocks, {}
        for block in blocks.values():
            block.release()
        self._started = False

    # -- dirty-row tracking ----------------------------------------------------
    def mark_dirty(self, name: str, rows: np.ndarray) -> None:
        """Report that ``model.params[name][rows]`` changed since last sync.

        The contract behind delta syncs: once a caller starts marking, it
        must mark *every* parameter mutation (the trainer reports the
        optimiser's touched rows and the post-step normalisation).  Marks
        before :meth:`start` are safely dropped — the first sync is a
        full copy regardless.
        """
        self._armed = True
        if self._tracker is not None:
            self._tracker.mark(name, rows)

    def mark_all_dirty(self) -> None:
        """Force the next sync back to a full copy.

        The escape hatch for bulk parameter mutations that bypass row
        tracking (checkpoint restore, manual edits).
        """
        if self._tracker is not None:
            self._tracker.mark_all()

    def dirty_fraction(self) -> float:
        """Pending dirty fraction of the next sync."""
        if self._tracker is None:
            return 1.0
        return self._tracker.pending_fraction()

    # -- per-refresh operations -------------------------------------------------
    def sync_params(self) -> SyncReport:
        """Publish current parameters into the shared mirror.

        Delta path: once any :meth:`mark_dirty` call was made, only each
        table's dirty rows move (``block[rows] = param[rows]``).  Full
        path — the first sync, never-marked runs, or tables past
        the tracker's threshold — is one contiguous ``np.copyto`` per
        table.  Both paths leave identical bytes in the mirror; the
        returned :class:`SyncReport` says how many actually moved.
        """
        if not self._started:
            self.start()
        blocks, tracker = self._param_blocks, self._tracker
        assert tracker is not None
        use_deltas = self._armed
        bytes_copied = rows_copied = full_tables = 0
        total_bytes = 0
        for name, block in blocks.items():
            param = self.model.params[name]
            total_bytes += param.nbytes
            assert block.array is not None
            rows = tracker.drain(name) if use_deltas else None
            if rows is None:
                np.copyto(block.array, param)
                bytes_copied += param.nbytes
                rows_copied += param.shape[0]
                full_tables += 1
            elif len(rows):
                block.array[rows] = param[rows]
                row_bytes = param.nbytes // max(1, param.shape[0])
                bytes_copied += len(rows) * row_bytes
                rows_copied += len(rows)
        if not use_deltas:
            # The full copy covered everything: any rows marked between
            # the previous sync and now are no longer dirty.
            tracker.mark_all()
            for name in blocks:
                tracker.drain(name)
        report = SyncReport(
            bytes_copied=bytes_copied,
            rows_copied=rows_copied,
            total_bytes=total_bytes,
            full_tables=full_tables,
            n_tables=len(blocks),
        )
        self.last_sync = report
        return report

    def dispatch(self, tasks: list[ShardTask]) -> int:
        """Publish a pre-step snapshot and enqueue a batch's shard tasks.

        Returns the number of tasks dispatched (0 for an empty batch —
        in which case no parameter publish happens either).  Every task
        is stamped with one ``enqueued_at`` reading for its queue wait.
        The tasks run against the snapshot taken *here*, so the caller
        is free to mutate the model afterwards; :meth:`collect` picks the
        results up later.  Only one batch may be in flight: dispatching
        over an uncollected batch raises ``RuntimeError``, as does
        dispatching to a pool whose collect found a dead worker.

        Under the inline fallback (no worker processes) the tasks run
        synchronously right here — same snapshot, same streams, so
        results are bit-identical to process execution; ``collect``
        then just hands the stored results back.
        """
        self._refuse_if_dead()
        if self._inflight:
            raise RuntimeError(
                f"{self._inflight} task(s) of a previous dispatch not yet "
                "collected; call collect() first"
            )
        if not tasks:
            return 0  # nothing to refresh: skip the parameter publish too
        if not self._started:
            self.start()
        assert self._state is not None
        now = time.monotonic()
        tasks = [replace(task, enqueued_at=now) for task in tasks]
        self.sync_params()
        self._inflight = len(tasks)
        if not self._processes:
            # Inline fallback: run now, hand back at collect().
            self._inline_pending = [_run_task(self._state, t) for t in tasks]
            return len(tasks)
        assert self._tasks is not None
        for task in tasks:
            self._tasks.put(task)  # type: ignore[attr-defined]
        return len(tasks)

    def collect(self) -> list[ShardResult]:
        """Results of the in-flight dispatch (empty if none outstanding).

        Blocks until every dispatched task completed; raises
        ``RuntimeError`` if a worker reported an exception or died, and
        ``FloatingPointError`` if the first failure was a non-finite
        candidate score (both say "refresh worker failed").  One
        result per dispatched task is always drained even after a task
        failure — a partially read queue would desync every later
        refresh.  A dead worker leaves unanswered tasks behind, so after
        one the pool refuses further dispatches and collects.
        """
        self._refuse_if_dead()
        if not self._inflight:
            return []
        pending, self._inflight = self._inflight, 0
        results: list[ShardResult] = []
        failure: _TaskFailure | None = None
        if not self._processes:
            drained, self._inline_pending = self._inline_pending, []
            for result in drained:
                if isinstance(result, _TaskFailure):
                    failure = failure or result
                else:
                    results.append(result)
        else:
            for _ in range(pending):
                result = self._next_result()
                if isinstance(result, _TaskFailure):
                    failure = failure or result
                else:
                    results.append(result)
        if failure is not None:
            error = FloatingPointError if failure.nonfinite else RuntimeError
            raise error(f"refresh worker failed:\n{failure.message}")
        return results

    def _refuse_if_dead(self) -> None:
        if self._dead:
            raise RuntimeError(
                f"refresh worker(s) {self._dead} died; the pool refuses "
                "further work, close it"
            )

    def _next_result(self) -> "ShardResult | _TaskFailure":
        """One queued result; waits as long as every worker stays alive.

        A shard refresh can legitimately run for minutes at scale, so a
        slow worker is never a failure.  Any worker *death* (crash, OOM
        kill) fails the refresh by design: the parent cannot tell whether
        the dead worker held an unanswered task, and waiting on a result
        that will never arrive would hang training — fail fast with a
        clear error instead.
        """
        assert self._results is not None
        while True:
            try:
                return self._results.get(  # type: ignore[attr-defined]
                    timeout=_RESULT_POLL_SECONDS
                )
            except queue_module.Empty:  # pragma: no cover - timing dependent
                dead = [p.pid for p in self._processes if not p.is_alive()]
                if dead:
                    self._dead = [pid for pid in dead if pid is not None]
                    raise RuntimeError(
                        f"refresh worker(s) {dead} died without answering"
                    ) from None

    def __enter__(self) -> "RefreshPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "processes" if self.using_processes else "inline"
        return (
            f"RefreshPool(n_workers={self.n_workers}, mode={mode}, "
            f"sides={sorted(self.caches)})"
        )
