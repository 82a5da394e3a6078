"""Training-level parity for shared cache storage and the parallel refresh.

Three contracts, end to end through the Trainer:

* shared storage with **any** ``n_shards`` and ``refresh_workers=1`` is
  bit-identical to heap storage with the same row map (one row per key,
  or ``n_buckets`` bucket rows) — losses, CE series and final parameters;
* with ``refresh_workers >= 2`` training is deterministic: repeated
  seeded runs, different worker counts, and the in-process fallback (run
  under the ``no_fork`` fixture) all land on identical parameters and CE
  series — and so does a sampler that collects each refresh inside its
  own ``update()`` instead of behind the step;
* the parallel run reports its phases and shard stats through the
  trainer's profiling surface.

The CI ``parallel-parity`` job runs this module with
``REPRO_REFRESH_WORKERS=2`` (the default here) so the multiprocess path
is exercised with real forked workers.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core.nscaching import NSCachingSampler
from repro.models import make_model
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

#: Worker count for the multiprocess arms (CI pins this to 2).
WORKERS = int(os.environ.get("REPRO_REFRESH_WORKERS", "2"))

FORK_AVAILABLE = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="fork start method unavailable"
)


class _CollectingSampler(NSCachingSampler):
    """Collects each pooled refresh inside its own update(), before the step."""

    def update(self, *args, **kwargs):
        super().update(*args, **kwargs)
        self.collect_refreshes()


def _train(tiny_kg, backend, *, options=None, workers=1, epochs=3,
           profile=False, overlap=True, period=1):
    model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 16, rng=0)
    sampler = (NSCachingSampler if overlap else _CollectingSampler)(
        cache_size=8,
        candidate_size=8,
        cache_backend=backend,
        **(options or {}),
        refresh_workers=workers,
        refresh_period=period,
    )
    trainer = Trainer(
        model,
        tiny_kg,
        sampler,
        TrainConfig(epochs=epochs, batch_size=64, learning_rate=0.05, seed=0),
        profile=profile,
    )
    history = trainer.run()
    return model, history, trainer


def _outcome(model, history):
    return (
        model.params["entity"].copy(),
        history["loss"].values.copy(),
        history["cache_changes"].values.copy(),
    )


def _assert_same_outcome(a, b):
    for got, expected in zip(a, b):
        np.testing.assert_array_equal(got, expected)


class TestSequentialParity:
    """refresh_workers=1: shared storage is heap storage."""

    @pytest.mark.parametrize("n_shards", (1, 4, 7))
    def test_sharded_matches_array_backend(self, tiny_kg, n_shards):
        model_a, history_a, trainer_a = _train(tiny_kg, "array")
        model_s, history_s, trainer_s = _train(
            tiny_kg, "sharded-array", options={"n_shards": n_shards}
        )
        try:
            _assert_same_outcome(
                _outcome(model_a, history_a), _outcome(model_s, history_s)
            )
        finally:
            trainer_a.close()
            trainer_s.close()

    def test_sharded_bucketed_matches_bucketed_array(self, tiny_kg):
        model_b, history_b, trainer_b = _train(
            tiny_kg, "array", options={"n_buckets": 16}
        )
        model_s, history_s, trainer_s = _train(
            tiny_kg,
            "sharded-array",
            options={"n_shards": 3, "n_buckets": 16},
        )
        try:
            _assert_same_outcome(
                _outcome(model_b, history_b), _outcome(model_s, history_s)
            )
        finally:
            trainer_b.close()
            trainer_s.close()


class TestParallelDeterminism:
    """refresh_workers>=2: per-shard streams make runs reproducible."""

    @needs_fork
    def test_repeated_runs_identical(self, tiny_kg):
        runs = []
        for _ in range(2):
            model, history, trainer = _train(
                tiny_kg, "sharded-array",
                options={"n_shards": 4}, workers=WORKERS,
            )
            runs.append(_outcome(model, history))
            trainer.close()
        _assert_same_outcome(*runs)

    @needs_fork
    def test_worker_count_does_not_change_results(self, tiny_kg):
        outcomes = []
        for workers in (WORKERS, WORKERS + 1):
            model, history, trainer = _train(
                tiny_kg, "sharded-array",
                options={"n_shards": 4}, workers=workers,
            )
            outcomes.append(_outcome(model, history))
            trainer.close()
        _assert_same_outcome(*outcomes)

    @needs_fork
    def test_processes_match_inline_fallback(self, tiny_kg, request):
        outcomes = []
        for processes in (True, False):
            if not processes:
                request.getfixturevalue("no_fork")  # later pools run inline
            model, history, trainer = _train(
                tiny_kg, "sharded-array",
                options={"n_shards": 4}, workers=WORKERS,
            )
            outcomes.append(_outcome(model, history))
            trainer.close()
        _assert_same_outcome(*outcomes)

    def test_inline_parallel_differs_from_sequential_but_trains(
        self, tiny_kg, no_fork
    ):
        """Parallel mode is a deterministic *sibling* trajectory, not a
        bit-identical twin of sequential training — but it still trains
        (finite losses, CE within the per-epoch bound)."""
        _, history_seq, trainer_seq = _train(
            tiny_kg, "sharded-array", options={"n_shards": 4}
        )
        _, history_par, trainer_par = _train(
            tiny_kg, "sharded-array",
            options={"n_shards": 4}, workers=2,
        )
        try:
            assert np.isfinite(np.asarray(history_par["loss"].values)).all()
            assert (np.asarray(history_par["cache_changes"].values) > 0).all()
            assert not np.array_equal(
                history_seq["cache_changes"].values,
                history_par["cache_changes"].values,
            )
        finally:
            trainer_seq.close()
            trainer_par.close()


class TestParallelSurface:
    @needs_fork
    def test_profile_and_cache_report_cover_parallel_refresh(self, tiny_kg):
        model, history, trainer = _train(
            tiny_kg, "sharded-array",
            options={"n_shards": 4}, workers=WORKERS, profile=True,
        )
        try:
            report = trainer.profile_report()
            assert report["parallel_refresh"] > 0
            # The sequential refresh's scoring phase never ran.
            assert report["score_candidates"] == 0.0
            stats = trainer.cache_report()
            assert stats["head_shards"] == 4
            assert stats["refresh_workers"] == WORKERS
            assert stats["refresh_mode"] == "processes"
            live = [int(n) for n in stats["head_shard_live_rows"].split("/")]
            assert len(live) == 4
            assert sum(live) > 0
        finally:
            trainer.close()

    def test_workers_require_sharded_backend(self):
        with pytest.raises(ValueError, match="sharded-array"):
            NSCachingSampler(refresh_workers=2, cache_backend="array")
        with pytest.raises(ValueError, match="refresh_workers"):
            NSCachingSampler(refresh_workers=0)

    def test_cache_report_safe_after_close(self, tiny_kg):
        """Post-close introspection degrades gracefully: the shard stats
        disappear from the report instead of crashing."""
        for options in (
            {"n_shards": 3},
            {"n_shards": 3, "n_buckets": 16},
        ):
            model, history, trainer = _train(
                tiny_kg, "sharded-array", options=options, epochs=1
            )
            assert "head_shard_live_rows" in trainer.cache_report()
            trainer.close()
            stats = trainer.cache_report()
            assert stats["backend"] == "sharded-array"
            assert "head_shard_live_rows" not in stats

    @needs_fork
    def test_lazy_epochs_with_parallel_refresh(self, tiny_kg):
        """Lazy skipping composes with the pool (counter stays aligned)."""
        runs = []
        for _ in range(2):
            model = make_model(
                "TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0
            )
            sampler = NSCachingSampler(
                cache_size=4, candidate_size=4, lazy_epochs=1,
                cache_backend="sharded-array",
                n_shards=3, refresh_workers=WORKERS,
            )
            trainer = Trainer(
                model, tiny_kg, sampler,
                TrainConfig(epochs=4, batch_size=64, learning_rate=0.05, seed=0),
            )
            history = trainer.run()
            runs.append(
                (model.params["entity"].copy(),
                 history["cache_changes"].values.copy())
            )
            trainer.close()
        _assert_same_outcome(*runs)
        # Odd epochs are lazily skipped: their CE must be zero.
        assert runs[0][1][1] == 0 and runs[0][1][3] == 0


class TestOverlapParity:
    """Overlap: bit-identical to collecting inside update().

    Algorithm 3 only needs pre-step parameters, so dispatching a batch's
    refresh before the gradient/optimizer phases (against the pool's
    pre-step snapshot) and collecting at the next batch must land on
    exactly the parameters/losses/CE of a sampler that waits for its
    refresh before the step — whatever the sync path or execution
    backend.
    """

    def test_overlap_matches_synchronous_inline(self, tiny_kg, no_fork):
        model_s, history_s, trainer_s = _train(
            tiny_kg, "sharded-array", options={"n_shards": 4},
            workers=2, overlap=False,
        )
        model_o, history_o, trainer_o = _train(
            tiny_kg, "sharded-array", options={"n_shards": 4},
            workers=2, overlap=True,
        )
        try:
            _assert_same_outcome(
                _outcome(model_s, history_s), _outcome(model_o, history_o)
            )
        finally:
            trainer_s.close()
            trainer_o.close()

    @needs_fork
    def test_overlap_matches_synchronous_processes(self, tiny_kg):
        model_s, history_s, trainer_s = _train(
            tiny_kg, "sharded-array", options={"n_shards": 4},
            workers=WORKERS, overlap=False,
        )
        model_o, history_o, trainer_o = _train(
            tiny_kg, "sharded-array", options={"n_shards": 4},
            workers=WORKERS, overlap=True,
        )
        try:
            _assert_same_outcome(
                _outcome(model_s, history_s), _outcome(model_o, history_o)
            )
        finally:
            trainer_s.close()
            trainer_o.close()

    def test_dirty_sync_matches_full_sync(self, tiny_kg, no_fork, monkeypatch):
        """Delta syncs land on the trajectory of an un-marked run, whose
        pool full-copies the parameters on every publish."""
        outcomes, armed = [], []
        for marked in (True, False):
            if not marked:
                monkeypatch.setattr(
                    NSCachingSampler, "mark_dirty_params",
                    lambda self, name, rows: None,
                )
            model, history, trainer = _train(
                tiny_kg, "sharded-array", options={"n_shards": 4}, workers=2,
            )
            outcomes.append(_outcome(model, history))
            armed.append(trainer.sampler._pool._armed)
            trainer.close()
        _assert_same_outcome(*outcomes)
        assert armed == [True, False]

    def test_overlap_profile_reports_its_phase(self, tiny_kg, no_fork):
        model, history, trainer = _train(
            tiny_kg, "sharded-array", options={"n_shards": 4},
            workers=2, profile=True,
        )
        try:
            report = trainer.profile_report()
            assert "refresh_overlap" in report
            assert report["parallel_refresh"] > 0
            stats = trainer.cache_report()
            assert stats["last_sync_bytes"] > 0
            # On this tiny KG one batch touches most of the entity table,
            # so the tracker rightly collapses to a full copy — the stat
            # just has to be a sane fraction (test_pool.py's TestDirtySync
            # shows the delta win on a batch-realistic dirty set).
            assert 0.0 < stats["last_sync_dirty_fraction"] <= 1.0
        finally:
            trainer.close()


class TestRefreshPeriod:
    """refresh_period=k: the within-epoch lazy schedule (arXiv 2010.14227)."""

    def test_period_runs_are_reproducible(self, tiny_kg, no_fork):
        runs = []
        for _ in range(2):
            model, history, trainer = _train(
                tiny_kg, "sharded-array", options={"n_shards": 4},
                workers=2, period=3,
            )
            runs.append(_outcome(model, history))
            trainer.close()
        _assert_same_outcome(*runs)

    def test_period_skips_refreshes(self, tiny_kg, no_fork):
        """k=3 refreshes a third of the batches: CE must drop, and the
        trajectory must differ from the every-batch schedule."""
        _, history_every, trainer_every = _train(
            tiny_kg, "sharded-array", options={"n_shards": 4},
            workers=2,
        )
        _, history_lazy, trainer_lazy = _train(
            tiny_kg, "sharded-array", options={"n_shards": 4},
            workers=2, period=3,
        )
        try:
            every = np.asarray(history_every["cache_changes"].values)
            lazy = np.asarray(history_lazy["cache_changes"].values)
            assert lazy.sum() < every.sum()
            assert (lazy > 0).all()  # still refreshing, just less often
        finally:
            trainer_every.close()
            trainer_lazy.close()

    def test_period_composes_with_overlap(self, tiny_kg, no_fork):
        outcomes = []
        for overlap in (True, False):
            model, history, trainer = _train(
                tiny_kg, "sharded-array", options={"n_shards": 4},
                workers=2, period=2, overlap=overlap,
            )
            outcomes.append(_outcome(model, history))
            trainer.close()
        _assert_same_outcome(*outcomes)

    def test_sequential_period_reproducible_and_lazier(self, tiny_kg):
        """The knob is not pool-only: the sequential refresh honours it."""
        runs = []
        for _ in range(2):
            model, history, trainer = _train(tiny_kg, "array", period=2)
            runs.append(_outcome(model, history))
            trainer.close()
        _assert_same_outcome(*runs)
        _, history_every, trainer_every = _train(tiny_kg, "array")
        try:
            assert np.asarray(runs[0][2]).sum() < np.asarray(
                history_every["cache_changes"].values
            ).sum()
        finally:
            trainer_every.close()

    def test_rejects_bad_period_and_overlap_without_workers(self):
        with pytest.raises(ValueError, match="refresh_period"):
            NSCachingSampler(refresh_period=0)
        with pytest.raises(ValueError, match="refresh_workers >= 2"):
            NSCachingSampler(refresh_overlap=True)

    def test_refresh_overlap_only_restates_the_pooled_path(self):
        with pytest.raises(ValueError, match="always overlaps"):
            NSCachingSampler(refresh_workers=2, refresh_overlap=False)
        for overlap in (None, True):
            NSCachingSampler(refresh_workers=2, refresh_overlap=overlap)
        NSCachingSampler(refresh_overlap=False)
