"""RefreshPool: deterministic shard streams, process↔inline parity, errors.

The pool's contract is that the *shard*, not the worker, owns the RNG
stream: results must be identical across worker counts, across repeated
seeded runs, and between forked-process execution and the in-process
fallback.  The fallback runs when a pool has one worker, or under the
``no_fork`` fixture, which hides the ``fork`` start method.
"""

import multiprocessing as mp
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.array_cache import ArrayNegativeCache
from repro.core.strategies import UpdateStrategy
from repro.data.keyindex import KeyIndex
from repro.models import make_model
from repro.obs.trace import span_totals
from repro.parallel.pool import RefreshPool, ShardTask

N_ENTITIES = 25
N_RELATIONS = 4
ENTRY = 4
N_KEYS = 8

FORK_AVAILABLE = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="fork start method unavailable"
)


def _head_index() -> KeyIndex:
    return KeyIndex(
        np.arange(N_KEYS, dtype=np.int64) % N_RELATIONS,
        np.arange(N_KEYS, dtype=np.int64) % N_ENTITIES,
        N_ENTITIES,
    )


def _make_pool(n_workers, n_shards=3, seed=7, **pool_kwargs):
    model = make_model("DistMult", N_ENTITIES, N_RELATIONS, 6, rng=0)
    caches = {}
    for mode in ("head", "tail"):
        store = ArrayNegativeCache(
            ENTRY, N_ENTITIES, np.random.default_rng(5), n_shards=n_shards
        )
        store.attach_index(_head_index())
        caches[mode] = store
    pool = RefreshPool(
        model,
        caches,
        n_entities=N_ENTITIES,
        candidate_size=ENTRY,
        update_strategy=UpdateStrategy.IMPORTANCE,
        seed=seed,
        n_workers=n_workers,
        **pool_kwargs,
    )
    return pool, caches


def _tasks(caches, epoch=0, batch=0):
    rng = np.random.default_rng(3)
    tasks = []
    for mode, store in caches.items():
        rows = rng.integers(0, N_KEYS, size=12)
        storage_rows = store.storage_rows(rows)
        anchors = rng.integers(0, N_ENTITIES, size=12)
        relations = rng.integers(0, N_RELATIONS, size=12)
        for shard, positions in store.plan.split(storage_rows):
            tasks.append(
                ShardTask(
                    mode=mode,
                    shard=shard,
                    epoch=epoch,
                    batch=batch,
                    anchors=anchors[positions],
                    relations=relations[positions],
                    rows=storage_rows[positions],
                )
            )
    return tasks


def _refresh(pool, tasks):
    """One batch refresh: dispatch, then collect."""
    pool.dispatch(tasks)
    return pool.collect()


def _run_rounds(n_workers, rounds=3):
    """Final cache states + counter totals after a few refresh rounds."""
    pool, caches = _make_pool(n_workers)
    try:
        with pool:
            for batch in range(rounds):
                results = _refresh(pool, _tasks(caches, epoch=0, batch=batch))
                assert all(r.changed >= 0 for r in results)
        states = {
            mode: store.gather(np.arange(N_KEYS, dtype=np.int64))
            for mode, store in caches.items()
        }
        counters = {
            mode: (store.changed_elements, store.initialised_entries)
            for mode, store in caches.items()
        }
        return states, counters
    finally:
        for store in caches.values():
            store.close()


class TestDeterminism:
    def test_inline_runs_are_reproducible(self, no_fork):
        first = _run_rounds(2)
        second = _run_rounds(2)
        for mode in first[0]:
            np.testing.assert_array_equal(first[0][mode], second[0][mode])
        assert first[1] == second[1]

    @needs_fork
    def test_processes_match_inline_fallback(self, request):
        procs = _run_rounds(2)
        request.getfixturevalue("no_fork")  # later pools run inline
        inline = _run_rounds(2)
        for mode in inline[0]:
            np.testing.assert_array_equal(inline[0][mode], procs[0][mode])
        assert inline[1] == procs[1]

    @needs_fork
    def test_results_independent_of_worker_count(self):
        two = _run_rounds(2)
        three = _run_rounds(3)
        for mode in two[0]:
            np.testing.assert_array_equal(two[0][mode], three[0][mode])
        assert two[1] == three[1]

    def test_distinct_task_keys_draw_distinct_streams(self):
        pool, caches = _make_pool(1)
        try:
            pool.start()
            state = pool._state
            empty = np.empty(0, np.int64)

            def task(mode, shard, epoch, batch):
                return ShardTask(mode, shard, epoch, batch, empty, empty, empty)

            draws = {
                name: int(state.task_rng(t).integers(0, 2**31))
                for name, t in {
                    "base": task("head", 0, 0, 0),
                    "mode": task("tail", 0, 0, 0),
                    "shard": task("head", 1, 0, 0),
                    "epoch": task("head", 0, 1, 0),
                    "batch": task("head", 0, 0, 1),
                }.items()
            }
            assert len(set(draws.values())) == len(draws)
        finally:
            pool.close()
            for store in caches.values():
                store.close()


class TestPoolMechanics:
    @needs_fork
    def test_worker_processes_actually_fork(self):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            assert pool.using_processes
            assert len(pool._processes) == 2
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_single_worker_never_forks(self):
        pool, caches = _make_pool(1)
        try:
            pool.start()
            assert not pool.using_processes
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_missing_fork_falls_back_to_inline(self, no_fork):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            assert not pool.using_processes
            results = _refresh(pool, _tasks(caches))
            assert results
            assert {r.worker_pid for r in results} == {os.getpid()}
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_empty_refresh_is_a_noop(self):
        pool, caches = _make_pool(1)
        try:
            assert _refresh(pool, []) == []
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    @needs_fork
    def test_worker_failure_surfaces_as_runtime_error(self):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            bad = ShardTask(
                "head", 0, 0, 0,
                np.array([0]), np.array([0]),
                np.array([N_KEYS + 100]),  # out-of-range storage row
            )
            with pytest.raises(RuntimeError, match="refresh worker failed"):
                _refresh(pool, [bad])
            # The pool keeps serving after a failed task.
            results = _refresh(pool, _tasks(caches))
            assert results
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    @needs_fork
    def test_partial_failure_drains_sibling_results(self):
        """A failed task among successful siblings must not leave stale
        results queued — the next refresh gets exactly its own answers."""
        pool, caches = _make_pool(2)
        try:
            pool.start()
            good_tasks = _tasks(caches)
            bad = ShardTask(
                "head", 0, 0, 0,
                np.array([0]), np.array([0]), np.array([N_KEYS + 100]),
            )
            with pytest.raises(RuntimeError, match="refresh worker failed"):
                _refresh(pool, good_tasks + [bad])
            follow_up = _tasks(caches, batch=1)
            results = _refresh(pool, follow_up)
            assert len(results) == len(follow_up)
            # Results belong to the follow-up tasks, not the earlier batch.
            assert sorted((r.mode, r.shard) for r in results) == sorted(
                (t.mode, t.shard) for t in follow_up
            )
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    @needs_fork
    def test_non_finite_scores_surface_with_their_message(self):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            pool.model.params["entity"][:] = np.nan
            # Re-raised as its own type, so the trainer can count it.
            with pytest.raises(FloatingPointError, match="refresh worker failed") as info:
                _refresh(pool, _tasks(caches))
            message = str(info.value)
            assert "FloatingPointError" in message
            assert "non-finite candidate scores (first in row 0)" in message
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_tasks_reuse_one_union_buffer_per_side(self):
        pool, caches = _make_pool(1)
        try:
            _refresh(pool, _tasks(caches, batch=0))
            buffers = dict(pool._state.unions)
            assert set(buffers) == {"head", "tail"}
            _refresh(pool, _tasks(caches, batch=1))  # same slice sizes
            for mode, buffer in buffers.items():
                assert pool._state.unions[mode] is buffer
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_param_sync_ships_current_embeddings(self):
        pool, caches = _make_pool(1)
        try:
            pool.start()
            pool.model.params["entity"][:] = 123.0
            pool.sync_params()
            worker_view = pool._state.model.params["entity"]
            assert float(worker_view[0, 0]) == 123.0
            assert not worker_view.flags.writeable  # read-only snapshot
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_results_carry_task_telemetry(self, no_fork):
        pool, caches = _make_pool(2)
        try:
            tasks = _tasks(caches)
            results = _refresh(pool, tasks)
            by_key = {(t.mode, t.shard): t for t in tasks}
            for result in results:
                task = by_key[(result.mode, result.shard)]
                assert result.n_rows == len(task.rows)
                assert result.seconds > 0
                assert result.worker_pid == os.getpid()  # inline mode
                # dispatch() stamps every task, so the wait is measured
                # even for tasks built without a stamp.
                assert result.queue_wait > 0.0
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    @needs_fork
    def test_process_results_name_worker_pids(self):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            worker_pids = {p.pid for p in pool._processes}
            results = _refresh(pool, _tasks(caches))
            assert {r.worker_pid for r in results} <= worker_pids
            assert all(r.worker_pid != 0 for r in results)
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_close_drains_uncollected_inflight_refresh(self, no_fork):
        """close() over an uncollected dispatch must not wedge the queues:
        the in-flight results are drained (and discarded) first."""
        pool, caches = _make_pool(2)
        try:
            pool.start()
            assert pool.dispatch(_tasks(caches)) > 0
            assert pool.inflight > 0
            pool.close()
            assert pool.inflight == 0
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    @needs_fork
    def test_close_drains_uncollected_inflight_refresh_with_processes(self):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            assert pool.dispatch(_tasks(caches)) > 0
            pool.close()  # must neither hang nor raise
            assert pool.inflight == 0
        finally:
            for store in caches.values():
                store.close()

    def test_rejects_bad_construction(self):
        model = make_model("TransE", N_ENTITIES, N_RELATIONS, 4, rng=0)
        with pytest.raises(ValueError, match="n_workers"):
            RefreshPool(
                model, {},
                n_entities=N_ENTITIES, candidate_size=2,
                update_strategy="importance", seed=0, n_workers=0,
            )
        with pytest.raises(ValueError, match="unknown corruption mode"):
            RefreshPool(
                model, {"sideways": None},
                n_entities=N_ENTITIES, candidate_size=2,
                update_strategy="importance", seed=0,
            )


class TestDirtySync:
    def test_unmarked_sync_takes_the_full_copy_path(self):
        pool, caches = _make_pool(1)
        try:
            pool.start()
            report = pool.sync_params()
            assert report.full_tables == report.n_tables
            assert report.bytes_copied == report.total_bytes
            assert report.dirty_fraction == 1.0
            # Still full: nobody ever marked, so deltas never engage.
            assert pool.sync_params().full_tables == report.n_tables
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_marked_sync_ships_only_dirty_rows(self):
        pool, caches = _make_pool(1)
        try:
            pool.start()
            pool.sync_params()  # first sync: full copy, tracker drained
            rows = np.array([0, 3, 9])
            pool.model.params["entity"][rows] = 42.0
            pool.mark_dirty("entity", rows)
            report = pool.sync_params()
            assert report.full_tables == 0
            assert report.rows_copied == len(rows)
            assert report.bytes_copied < report.total_bytes
            assert 0.0 < report.dirty_fraction < 1.0
            view = pool._state.model.params["entity"]
            np.testing.assert_array_equal(view[rows], 42.0)
            assert pool.last_sync is report
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_delta_and_full_sync_agree_bit_for_bit(self):
        """The agreement contract: after identical mutation sequences, the
        delta-synced buffer equals the one an un-marked pool full-copies."""
        pools = {}
        stores = []
        try:
            for marked in (True, False):
                pool, caches = _make_pool(1)
                stores.extend(caches.values())
                pool.start()
                pool.sync_params()
                rng = np.random.default_rng(11)
                for _ in range(5):
                    rows = rng.integers(0, N_ENTITIES, size=6)
                    pool.model.params["entity"][rows] += 0.5
                    rel = rng.integers(0, N_RELATIONS, size=2)
                    pool.model.params["relation"][rel] -= 0.25
                    if marked:
                        pool.mark_dirty("entity", rows)
                        pool.mark_dirty("relation", rel)
                    pool.sync_params()
                pools[marked] = pool
            for name in ("entity", "relation"):
                np.testing.assert_array_equal(
                    pools[True]._state.model.params[name],
                    pools[False]._state.model.params[name],
                )
            full = pools[False].last_sync
            assert full.full_tables == full.n_tables
            assert pools[True].last_sync.bytes_copied < full.bytes_copied
        finally:
            for pool in pools.values():
                pool.close()
            for store in stores:
                store.close()

    def test_batch_realistic_dirty_set_ships_a_tenth_of_the_bytes(self):
        """Each delta publish of a batch-sized dirty set ships <= 10% of
        the full-copy bytes (a cache-less pool isolates the publish)."""
        n_entities, n_relations = 20_000, 16
        model = make_model("TransE", n_entities, n_relations, 8, rng=0)
        pool = RefreshPool(
            model, {}, n_entities=n_entities, candidate_size=1,
            update_strategy="importance", seed=0,
        )
        try:
            pool.start()
            pool.sync_params()  # the first publish is a full copy
            rng = np.random.default_rng(1)
            for _ in range(5):
                pool.mark_dirty(
                    "entity", rng.integers(0, n_entities, size=512)
                )
                pool.mark_dirty(
                    "relation", rng.integers(0, n_relations, size=64)
                )
                report = pool.sync_params()
                assert 0 < report.bytes_copied <= 0.10 * report.total_bytes, (
                    f"delta sync shipped {report.dirty_fraction:.1%} of the "
                    "full bytes"
                )
        finally:
            pool.close()

    def test_mark_all_dirty_forces_full_copy(self):
        pool, caches = _make_pool(1)
        try:
            pool.start()
            pool.sync_params()
            pool.mark_dirty("entity", np.array([1]))  # arm delta syncs
            pool.sync_params()
            pool.model.params["entity"][:] = 7.0  # untracked bulk edit
            pool.mark_all_dirty()  # the escape hatch
            report = pool.sync_params()
            assert report.full_tables == report.n_tables
            view = pool._state.model.params["entity"]
            np.testing.assert_array_equal(view, 7.0)
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_empty_refresh_skips_the_parameter_publish(self):
        """An empty batch must not pay the memcpy."""
        pool, caches = _make_pool(1)
        try:
            pool.start()
            pool.sync_params()
            pool.model.params["entity"][:] = 123.0
            assert _refresh(pool, []) == []
            view = pool._state.model.params["entity"]
            assert float(view[0, 0]) != 123.0  # snapshot untouched
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_dirty_fraction_reflects_pending_marks(self):
        pool, caches = _make_pool(1)
        try:
            pool.start()
            assert pool.dirty_fraction() == 1.0  # first sync pending
            pool.sync_params()
            assert pool.dirty_fraction() == 0.0
            pool.mark_dirty("entity", np.array([0, 1]))
            assert 0.0 < pool.dirty_fraction() < 1.0
        finally:
            pool.close()
            for store in caches.values():
                store.close()


def _overlap_rounds(overlap, rounds=3):
    """Cache states after `rounds` refreshes, overlapped or collected first.

    Each round perturbs the model after its dispatch — overlapped, before
    the collect.  The tasks must still see the pre-step snapshot, so
    results have to match a pool that collects before the model moves.
    """
    pool, caches = _make_pool(2)
    try:
        with pool:
            for batch in range(rounds):
                tasks = _tasks(caches, epoch=0, batch=batch)
                pool.dispatch(tasks)
                if overlap:
                    pool.model.params["entity"][:] += 0.125
                    results = pool.collect()
                else:
                    results = pool.collect()
                    pool.model.params["entity"][:] += 0.125
                assert len(results) == len(tasks)
        return {
            mode: store.gather(np.arange(N_KEYS, dtype=np.int64))
            for mode, store in caches.items()
        }
    finally:
        for store in caches.values():
            store.close()


class TestOverlap:
    def test_overlap_matches_one_shot_refresh(self, no_fork):
        sync = _overlap_rounds(overlap=False)
        overlapped = _overlap_rounds(overlap=True)
        for mode in sync:
            np.testing.assert_array_equal(sync[mode], overlapped[mode])

    @needs_fork
    def test_overlap_matches_one_shot_refresh_with_processes(self, request):
        overlapped = _overlap_rounds(overlap=True)
        request.getfixturevalue("no_fork")  # later pools run inline
        sync = _overlap_rounds(overlap=False)
        for mode in sync:
            np.testing.assert_array_equal(sync[mode], overlapped[mode])

    def test_dispatch_rejects_second_batch_in_flight(self, no_fork):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            pool.dispatch(_tasks(caches, batch=0))
            with pytest.raises(RuntimeError, match="not yet collected"):
                pool.dispatch(_tasks(caches, batch=1))
            assert pool.collect()  # the first batch is still intact
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_collect_without_dispatch_returns_nothing(self, no_fork):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            assert pool.collect() == []
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_empty_dispatch_is_a_noop(self, no_fork):
        pool, caches = _make_pool(2)
        try:
            pool.start()
            assert pool.dispatch([]) == 0
            assert pool.inflight == 0
            assert pool.last_sync is None  # no publish happened
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_each_publish_ships_the_rows_marked_since_the_last(self, no_fork):
        """One mirror, one tracker: a dispatch ships exactly the rows the
        step marked after the previous dispatch, and the mirror then
        holds the current parameters."""
        pool, caches = _make_pool(2)
        try:
            pool.start()
            pool.mark_dirty("entity", np.array([0]))  # arm delta syncs
            pool.dispatch(_tasks(caches, batch=0))  # first publish: full
            assert pool.last_sync.full_tables == pool.last_sync.n_tables
            rng = np.random.default_rng(2)
            for batch in range(1, 4):
                # The step runs between dispatch and collect.
                entity_rows = rng.choice(N_ENTITIES, size=5, replace=False)
                relation_rows = rng.choice(N_RELATIONS, size=1, replace=False)
                pool.model.params["entity"][entity_rows] += 0.5
                pool.model.params["relation"][relation_rows] -= 0.25
                pool.mark_dirty("entity", entity_rows)
                pool.mark_dirty("relation", relation_rows)
                pool.collect()
                pool.dispatch(_tasks(caches, batch=batch))
                report = pool.last_sync
                assert report.full_tables == 0
                assert report.rows_copied == len(entity_rows) + len(relation_rows)
                for name in ("entity", "relation"):
                    np.testing.assert_array_equal(
                        pool._state.model.params[name], pool.model.params[name]
                    )
            pool.collect()
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    def test_queue_wait_spans_never_overlap_a_workers_tasks(self, no_fork):
        """A worker's queue_wait span starts where its previous task
        ended, while ShardResult.queue_wait stays dispatch→start."""
        pool, caches = _make_pool(2, trace=True)
        try:
            tasks = [t for t in _tasks(caches) if t.mode == "head"]
            assert len(tasks) >= 3
            results = _refresh(pool, tasks)
            spans = [span for result in results for span in result.spans]
            by_thread = {}
            for span in spans:
                by_thread.setdefault((span["pid"], span["tid"]), []).append(span)
            for thread_spans in by_thread.values():
                thread_spans.sort(key=lambda span: span["ts"])
                for prev, nxt in zip(thread_spans, thread_spans[1:]):
                    assert prev["ts"] + prev["dur"] <= nxt["ts"] + 1e-9
            waits = span_totals(spans)[("refresh_worker", "queue_wait")]
            assert waits.calls == len(tasks)
            assert waits.self_seconds == waits.seconds
            for k, result in enumerate(results):
                earlier = sum(r.seconds for r in results[:k])
                assert result.queue_wait >= earlier - 1e-9
        finally:
            pool.close()
            for store in caches.values():
                store.close()

    @needs_fork
    def test_worker_death_mid_overlap_fails_collect(self, monkeypatch):
        """A dispatched batch whose workers die must fail the collect with
        a clear error instead of hanging training."""
        from repro.parallel import pool as pool_module

        monkeypatch.setattr(pool_module, "_RESULT_POLL_SECONDS", 0.2)
        pool, caches = _make_pool(2)
        try:
            pool.start()
            # Kill the workers first so the dispatched tasks can never be
            # answered — the deterministic version of mid-overlap death.
            for process in pool._processes:
                process.terminate()
            for process in pool._processes:
                process.join(timeout=5.0)
            pids = [process.pid for process in pool._processes]
            pool.dispatch(_tasks(caches))
            with pytest.raises(RuntimeError, match="died without answering"):
                pool.collect()
            assert pool.inflight == 0
            # The dead workers' tasks were never answered: the pool must
            # refuse to publish into the mirror or read stale results.
            for call in (lambda: pool.dispatch(_tasks(caches, batch=1)), pool.collect):
                with pytest.raises(RuntimeError, match="refuses further work") as info:
                    call()
                assert all(str(pid) in str(info.value) for pid in pids)
            names = [block._shm.name for block in pool._param_blocks.values()]
            assert names
            pool.close()  # shutdown after the failure must not hang
            for name in names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
        finally:
            for store in caches.values():
                store.close()

    @needs_fork
    def test_overlap_failure_drains_queue_for_next_dispatch(self):
        """A _TaskFailure inside an overlapped batch must leave the result
        queue empty: the next dispatch/collect gets exactly its own
        answers."""
        pool, caches = _make_pool(2)
        try:
            pool.start()
            bad = ShardTask(
                "head", 0, 0, 0,
                np.array([0]), np.array([0]), np.array([N_KEYS + 100]),
            )
            pool.dispatch(_tasks(caches) + [bad])
            with pytest.raises(RuntimeError, match="refresh worker failed"):
                pool.collect()
            follow_up = _tasks(caches, batch=1)
            pool.dispatch(follow_up)
            results = pool.collect()
            assert sorted((r.mode, r.shard) for r in results) == sorted(
                (t.mode, t.shard) for t in follow_up
            )
        finally:
            pool.close()
            for store in caches.values():
                store.close()
