"""Trainer observability: registry wiring, run log, phase partitioning."""

import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro.models.base as base
from repro.core.nscaching import NSCachingSampler
from repro.models import make_model
from repro.obs.registry import MetricsRegistry
from repro.obs.runlog import epoch_records, read_run_log
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer


def _model(tiny_kg):
    return make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)


def _trainer(tiny_kg, *, sampler=None, epochs=2, **kwargs):
    return Trainer(
        _model(tiny_kg),
        tiny_kg,
        sampler or NSCachingSampler(cache_size=4, candidate_size=4),
        TrainConfig(epochs=epochs, batch_size=64, seed=0),
        **kwargs,
    )


class TestRegistryWiring:
    def test_trainer_mirrors_epoch_aggregates(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.run()
        assert registry.value("train_epochs_total") == 2.0
        assert registry.value("train_samples_total") == 2 * len(tiny_kg.train)
        assert registry.value("train_loss") == pytest.approx(
            trainer.history.last("loss")
        )
        assert registry.value("train_samples_per_sec") > 0

    def test_phase_seconds_mirrored_as_cumulative_counters(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.run()
        partition = trainer.phase_seconds()
        for phase, seconds in partition.items():
            assert registry.value(
                "train_phase_seconds_total", labels={"phase": phase}
            ) == pytest.approx(seconds)

    def test_sampler_reports_refresh_counters(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.run()
        for mode in ("head", "tail"):
            labels = {"mode": mode}
            batches = registry.value("cache_refresh_batches_total", labels=labels)
            rows = registry.value("cache_refresh_rows_total", labels=labels)
            candidates = registry.value(
                "cache_refresh_candidates_total", labels=labels
            )
            assert batches > 0
            assert rows == 2 * len(tiny_kg.train)  # every triple, every epoch
            assert candidates == rows * (4 + 4)  # N1 + N2

    def test_churn_counter_agrees_with_history(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.run()
        total_churn = sum(
            registry.value("cache_changed_elements_total", labels={"mode": mode})
            for mode in ("head", "tail")
        )
        history_churn = sum(trainer.history["cache_changes"].values)
        assert total_churn == history_churn

    def test_profile_report_stays_empty_without_profile_flag(self, tiny_kg):
        trainer = _trainer(tiny_kg, metrics=MetricsRegistry())
        trainer.run()
        assert trainer.profile_report() == {}
        # ... but the partition is live (spans ran for the registry).
        assert sum(trainer.phase_seconds().values()) > 0

    def test_metrics_setter_clears_handles(self, tiny_kg):
        sampler = NSCachingSampler(cache_size=4, candidate_size=4)
        trainer = _trainer(tiny_kg, sampler=sampler, metrics=MetricsRegistry())
        assert sampler.metrics is trainer.metrics
        sampler.metrics = None
        assert sampler.metrics is None
        assert sampler._mh is None


class TestNonFiniteCounter:
    """``train_nonfinite_total{source}`` counts the batch that stopped the
    run, before its ``FloatingPointError`` propagates."""

    def test_non_finite_loss_counted(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        trainer.model.params["entity"][:] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            trainer.run()
        assert registry.value("train_nonfinite_total", labels={"source": "loss"}) == 1
        assert registry.value(
            "train_nonfinite_total", labels={"source": "refresh"}
        ) == 0

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_non_finite_refresh_score_counted(self, tiny_kg, monkeypatch, split):
        monkeypatch.setattr(base, "_split", split)
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, metrics=registry)
        score = trainer.model.score_candidates

        def poisoned(anchors, r, candidates, mode="tail"):
            out = score(anchors, r, candidates, mode)
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(trainer.model, "score_candidates", poisoned)
        with pytest.raises(FloatingPointError, match="non-finite candidate scores"):
            trainer.run()
        assert registry.value(
            "train_nonfinite_total", labels={"source": "refresh"}
        ) == 1
        assert registry.value("train_nonfinite_total", labels={"source": "loss"}) == 0

    @pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
    def test_non_finite_pooled_refresh_score_counted(
        self, tiny_kg, monkeypatch, request, forked
    ):
        """A worker's non-finite score stops the run at collect as a
        ``FloatingPointError``, is counted once, and the pool and cache
        segments are still released."""
        if not forked:
            request.getfixturevalue("no_fork")
        sampler = NSCachingSampler(
            cache_size=4, candidate_size=4, n_shards=2, refresh_workers=2
        )
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, sampler=sampler, metrics=registry)

        def poison(score):
            def poisoned(*args):
                out = score(*args)
                out[0, 0] = np.nan
                return out
            return poisoned

        if forked:
            # Workers fork at pool start, so poison the class they inherit;
            # the trainer itself never scores candidates on the pooled path.
            model_type = type(trainer.model)
            monkeypatch.setattr(
                model_type, "score_candidates", poison(model_type.score_candidates)
            )
        else:
            worker_model = sampler._ensure_pool()._state.model
            monkeypatch.setattr(
                worker_model, "score_candidates", poison(worker_model.score_candidates)
            )
        try:
            with pytest.raises(FloatingPointError, match="refresh worker failed"):
                trainer.run()
            assert sampler._pool.using_processes is forked
            blocks = [
                *sampler._pool._param_blocks.values(),
                *sampler.head_cache._blocks,
                *sampler.tail_cache._blocks,
            ]
            names = [block._shm.name for block in blocks]
            assert names
        finally:
            trainer.close()
        assert registry.value(
            "train_nonfinite_total", labels={"source": "refresh"}
        ) == 1
        assert registry.value("train_nonfinite_total", labels={"source": "loss"}) == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_no_counter_without_registry(self, tiny_kg):
        trainer = _trainer(tiny_kg)
        trainer.model.params["entity"][:] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            trainer.run()
        assert trainer.metrics is None


class TestSequentialSplitPhases:
    """The sequential refresh with its two sides on two threads: the
    helper side's spans sit on the helper's own tid, and the ``train``
    phases still partition the hot loop."""

    def test_split_refresh_phases_partition_the_hot_loop(self, tiny_kg, monkeypatch):
        monkeypatch.setattr(base, "_split", True)
        trainer = _trainer(tiny_kg, profile=True, epochs=3)
        try:
            trainer.run()
            report = trainer.profile_report()
            assert report["score_candidates"] > 0
            assert report["parallel_refresh"] == 0.0
            raw = trainer.tracer.totals()[("train", "cache_update")].seconds
            assert report["cache_update"] == pytest.approx(
                raw - report["score_candidates"]
            )
            total, wall = sum(report.values()), trainer.train_seconds
            assert total <= wall
            assert total >= 0.5 * wall, (report, wall)
        finally:
            trainer.close()

    def test_helper_side_spans_on_their_own_tid(self, tiny_kg, monkeypatch):
        monkeypatch.setattr(base, "_split", True)
        trainer = _trainer(tiny_kg, profile=True, epochs=1)
        try:
            trainer.run()
            records = trainer.tracer.records()
        finally:
            trainer.close()
        caller = threading.get_native_id()
        sides = [r for r in records if r["name"] == "refresh_side"]
        tids = {
            mode: {r["tid"] for r in sides if r["args"]["mode"] == mode}
            for mode in ("head", "tail")
        }
        assert tids["head"] == {caller}
        assert tids["tail"] and caller not in tids["tail"]
        # Scoring spans: the caller's is the train phase, the helper's a
        # refresh span on the helper's tid, one of each per batch.
        scoring = [r for r in records if r["name"] == "score_candidates"]
        assert {r["tid"] for r in scoring if r["cat"] == "train"} == {caller}
        helper = {r["tid"] for r in scoring if r["cat"] == "refresh"}
        assert helper == tids["tail"]
        n_batches = -(-len(tiny_kg.train) // 64)
        totals = trainer.tracer.totals()
        assert totals[("train", "score_candidates")].calls == n_batches
        assert totals[("refresh", "score_candidates")].calls == n_batches


class TestBitIdentical:
    def test_instrumented_run_matches_uninstrumented(self, tiny_kg):
        """Attaching a registry must not perturb the training trajectory."""
        plain = _trainer(tiny_kg)
        plain.run()
        instrumented = _trainer(tiny_kg, metrics=MetricsRegistry())
        instrumented.run()
        for name, param in plain.model.params.items():
            np.testing.assert_array_equal(
                param, instrumented.model.params[name], err_msg=name
            )
        assert plain.history["loss"].values == instrumented.history["loss"].values


class TestRunLog:
    def test_metrics_out_writes_valid_records(self, tiny_kg, tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, metrics_out=str(path))
        trainer.run()
        trainer.close()
        records = read_run_log(path)  # validates every record
        assert [r["type"] for r in records] == [
            "run_meta", "epoch", "epoch", "run_end",
        ]
        meta = records[0]
        assert meta["model"] == "TransE"
        assert meta["sampler"] == "NSCaching"
        assert meta["config"]["epochs"] == 2

    def test_epoch_records_carry_cache_health(self, tiny_kg, tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, metrics_out=str(path))
        trainer.run()
        trainer.close()
        epochs = epoch_records(read_run_log(path))
        for record, churn in zip(
            epochs, trainer.history["cache_changes"].values
        ):
            cache = record["cache"]
            assert cache["churn"] == churn
            # Both cache sides refresh every triple's row each epoch.
            assert cache["refreshed_rows"] == 2 * len(tiny_kg.train)
            assert 0.0 <= cache["survivor_fraction"] <= 1.0
            assert sum(record["phase_seconds"].values()) <= record[
                "epoch_seconds"
            ] * 1.05 + 1e-6

    def test_run_log_without_cache_sampler_has_no_cache_block(
        self, tiny_kg, tmp_path
    ):
        from repro.sampling import BernoulliSampler

        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, sampler=BernoulliSampler(), metrics_out=str(path))
        trainer.run()
        trainer.close()
        epochs = epoch_records(read_run_log(path))
        assert epochs and all("cache" not in r for r in epochs)

    def test_close_without_run_leaves_partial_but_valid_log(
        self, tiny_kg, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        trainer = _trainer(tiny_kg, metrics_out=str(path))
        trainer.run(1)
        trainer.close()  # run() already ended: run_end is present
        records = read_run_log(path)
        assert records[-1]["type"] == "run_end"
        assert records[-1]["epochs"] == 1


@pytest.mark.usefixtures("no_fork")  # inline pool: deterministic, fork-free
class TestParallelRefreshObservability:
    def _parallel_trainer(self, tiny_kg, path=None, **kwargs):
        sampler = NSCachingSampler(
            cache_size=4,
            candidate_size=4,
            cache_backend="sharded-array",
            n_shards=2,
            refresh_workers=2,
        )
        return _trainer(
            tiny_kg,
            sampler=sampler,
            metrics_out=str(path) if path is not None else None,
            **kwargs,
        )

    def test_partition_invariant_with_parallel_refresh(self, tiny_kg):
        """Phases stay disjoint and sum to the hot-loop wall time when the
        pooled refresh adds its dispatch+wait phase."""
        trainer = self._parallel_trainer(tiny_kg, profile=True, epochs=3)
        try:
            trainer.run()
            report = trainer.profile_report()
            assert report["parallel_refresh"] > 0
            # Both nested train phases are carved out of cache_update's
            # inclusive span total.
            raw = trainer.tracer.totals()[("train", "cache_update")].seconds
            assert report["cache_update"] == pytest.approx(
                max(
                    0.0,
                    raw
                    - report["score_candidates"]
                    - report["parallel_refresh"],
                )
            )
            total, wall = sum(report.values()), trainer.train_seconds
            assert total <= wall
            assert total >= 0.5 * wall, (report, wall)
        finally:
            trainer.close()

    def test_run_log_carries_per_shard_timings(self, tiny_kg, tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = self._parallel_trainer(tiny_kg, path=path)
        try:
            trainer.run()
        finally:
            trainer.close()
        epochs = epoch_records(read_run_log(path))
        shards = epochs[0]["refresh_shards"]
        assert set(shards) == {"head:0", "head:1", "tail:0", "tail:1"}
        for entry in shards.values():
            assert entry["tasks"] > 0
            assert entry["seconds"] > 0
            assert entry["queue_wait_seconds"] >= 0

    def test_registry_tracks_pooled_refresh(self, tiny_kg):
        registry = MetricsRegistry()
        trainer = self._parallel_trainer(tiny_kg, metrics=registry)
        try:
            trainer.run()
        finally:
            trainer.close()
        assert registry.value(
            "refresh_tasks_total", labels={"mode": "head", "shard": 0}
        ) > 0
        hist = registry.histogram("refresh_task_seconds")
        assert hist.count > 0

    def test_registry_tracks_param_syncs(self, tiny_kg):
        """Every pooled refresh publishes parameters; the sync counters
        must account for the shipped bytes/rows and the dirty fraction."""
        registry = MetricsRegistry()
        trainer = self._parallel_trainer(tiny_kg, metrics=registry)
        try:
            trainer.run()
        finally:
            trainer.close()
        assert registry.value("param_sync_bytes_total") > 0
        assert registry.value("param_sync_rows_total") > 0
        assert registry.value("param_sync_full_tables_total") > 0
        assert 0.0 < registry.value("param_sync_dirty_fraction") <= 1.0

    def test_registry_tracks_overlap_wait(self, tiny_kg):
        sampler = NSCachingSampler(
            cache_size=4,
            candidate_size=4,
            cache_backend="sharded-array",
            n_shards=2,
            refresh_workers=2,
        )
        registry = MetricsRegistry()
        trainer = _trainer(tiny_kg, sampler=sampler, metrics=registry)
        try:
            trainer.run()
        finally:
            trainer.close()
        # The inline pool runs the tasks at dispatch, so the collect wait
        # is pure bookkeeping — but it must be counted, and the sync
        # counters must flow.
        assert registry.value("refresh_overlap_wait_seconds_total") > 0
        assert registry.value("param_sync_bytes_total") > 0


class TestForkedPoolPhases:
    """The phase partition on the forked pool: the workers' own spans are
    ingested into the trainer's tracer, and must not enter the phases."""

    def test_forked_pool_phases_partition_the_hot_loop(self, tiny_kg):
        sampler = NSCachingSampler(
            cache_size=4,
            candidate_size=4,
            n_shards=2,
            refresh_workers=2,
        )
        trainer = _trainer(tiny_kg, sampler=sampler, profile=True, epochs=3)
        try:
            trainer.run()
            assert sampler._pool is not None and sampler._pool.using_processes
            report = trainer.profile_report()
            assert report["parallel_refresh"] > 0
            raw = trainer.tracer.totals()[("train", "cache_update")].seconds
            assert report["cache_update"] == pytest.approx(
                raw - report["score_candidates"] - report["parallel_refresh"]
            )
            total, wall = sum(report.values()), trainer.train_seconds
            assert total <= wall
            assert total >= 0.5 * wall, (report, wall)
        finally:
            trainer.close()
