"""Tests for the training loop."""

import numpy as np
import pytest

from repro.core.nscaching import NSCachingSampler
from repro.models import make_model
from repro.models.losses import LogisticLoss, MarginRankingLoss
from repro.obs.trace import Tracer
from repro.sampling import BernoulliSampler, UniformSampler
from repro.train.callbacks import EvalCallback
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer


def _trainer(tiny_kg, model_name="TransE", sampler=None, **config_kwargs):
    model = make_model(model_name, tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
    config = TrainConfig(**{"epochs": 2, "batch_size": 64, **config_kwargs})
    return Trainer(model, tiny_kg, sampler or BernoulliSampler(), config)


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"epochs": -1}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"learning_rate": 0.0}, "learning_rate"),
            ({"margin": 0.0}, "margin"),
            ({"l2_weight": -1.0}, "l2_weight"),
            ({"loss": "hinge"}, "loss"),
        ],
    )
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kwargs)

    def test_with_updates_returns_copy(self):
        config = TrainConfig(epochs=5)
        updated = config.with_updates(epochs=10)
        assert config.epochs == 5 and updated.epochs == 10


class TestLossSelection:
    def test_translational_gets_margin(self, tiny_kg):
        trainer = _trainer(tiny_kg, "TransE")
        assert isinstance(trainer.loss, MarginRankingLoss)

    def test_semantic_gets_logistic(self, tiny_kg):
        trainer = _trainer(tiny_kg, "DistMult")
        assert isinstance(trainer.loss, LogisticLoss)

    def test_explicit_override(self, tiny_kg):
        trainer = _trainer(tiny_kg, "TransE", loss="logistic")
        assert isinstance(trainer.loss, LogisticLoss)


class TestTraining:
    def test_loss_decreases(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=15, learning_rate=0.05)
        history = trainer.run()
        losses = history["loss"].values
        assert losses[-1] < losses[0]

    def test_history_series_populated(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=3)
        history = trainer.run()
        for name in ("loss", "nzl", "grad_norm", "epoch_seconds"):
            assert len(history[name]) == 3

    def test_parameters_change(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=1)
        before = trainer.model.params["entity"].copy()
        trainer.run()
        assert not np.array_equal(before, trainer.model.params["entity"])

    def test_deterministic_given_seed(self, tiny_kg):
        a = _trainer(tiny_kg, epochs=2, seed=9)
        b = _trainer(tiny_kg, epochs=2, seed=9)
        a.run()
        b.run()
        np.testing.assert_array_equal(
            a.model.params["entity"], b.model.params["entity"]
        )

    def test_run_with_explicit_epochs_overrides_config(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=50)
        trainer.run(epochs=2)
        assert trainer.epochs_run == 2

    def test_resume_continues_epoch_numbering(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=2)
        trainer.run()
        trainer.run(epochs=1)
        assert trainer.epochs_run == 3
        assert trainer.history["loss"].epochs[-1] == 2

    def test_zero_epochs_is_noop(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=0)
        trainer.run()
        assert trainer.epochs_run == 0

    def test_request_stop_halts_loop(self, tiny_kg):
        class StopAfterFirst:
            def on_train_begin(self, trainer):
                pass

            def on_epoch_end(self, trainer, epoch, stats):
                trainer.request_stop()

            def on_train_end(self, trainer):
                pass

        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        trainer = Trainer(
            model, tiny_kg, UniformSampler(), TrainConfig(epochs=10),
            callbacks=[StopAfterFirst()],
        )
        trainer.run()
        assert trainer.epochs_run == 1

    def test_nscaching_cache_changes_recorded(self, tiny_kg):
        sampler = NSCachingSampler(cache_size=4, candidate_size=4)
        trainer = _trainer(tiny_kg, sampler=sampler, epochs=2)
        history = trainer.run()
        assert len(history["cache_changes"]) == 2
        assert history["cache_changes"].values[0] > 0

    def test_negative_tracking_records_repeat_ratio(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=2, track_negatives=True)
        history = trainer.run()
        assert len(history["repeat_ratio"]) == 2

    def test_l2_regularised_run(self, tiny_kg):
        trainer = _trainer(tiny_kg, "DistMult", epochs=2, l2_weight=0.01)
        history = trainer.run()
        assert np.isfinite(history.last("loss"))

    def test_train_clock_accumulates(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=2)
        trainer.run()
        assert trainer.train_seconds > 0

    def test_train_clock_sums_epochs_and_excludes_evaluation(
        self, tiny_kg, monkeypatch
    ):
        import time

        import repro.train.callbacks as callbacks

        evaluate = callbacks.evaluate
        pause = 0.05

        def slow_evaluate(*args, **kwargs):
            time.sleep(pause)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(callbacks, "evaluate", slow_evaluate)
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        evaluator = EvalCallback(every=1)
        trainer = Trainer(
            model, tiny_kg, BernoulliSampler(),
            TrainConfig(epochs=3, batch_size=64), callbacks=[evaluator],
        )
        started = time.perf_counter()
        history = trainer.run()
        wall = time.perf_counter() - started

        _, epoch_seconds = history["epoch_seconds"].as_arrays()
        assert trainer.train_seconds == pytest.approx(float(epoch_seconds.sum()))
        # Each evaluation saw the clock at the end of its epoch ...
        assert evaluator.times == pytest.approx(np.cumsum(epoch_seconds).tolist())
        # ... and none of the three sleeps was counted.
        assert len(evaluator.epochs) == 3
        assert trainer.train_seconds <= wall - 3 * pause


class TestProfiling:
    def test_profile_off_by_default(self, tiny_kg):
        trainer = _trainer(tiny_kg)
        trainer.run()
        assert trainer.profile_report() == {}
        assert trainer.tracer is None
        assert set(trainer.phase_seconds().values()) == {0.0}

    def test_profile_records_all_phases(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        trainer = Trainer(
            model,
            tiny_kg,
            NSCachingSampler(cache_size=4, candidate_size=4),
            TrainConfig(epochs=2, batch_size=64),
            profile=True,
        )
        trainer.run()
        report = trainer.profile_report()
        assert set(report) == set(Trainer.PROFILE_PHASES)
        # parallel_refresh only runs with refresh_workers >= 2 (covered in
        # tests/parallel); every sequential-path phase must have ticked.
        assert report["parallel_refresh"] == 0.0
        assert all(
            seconds > 0
            for name, seconds in report.items()
            if name != "parallel_refresh"
        )

    def test_profile_reports_score_candidates_phase(self, tiny_kg):
        """The cache-refresh scoring surfaces as its own non-zero phase."""
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        trainer = Trainer(
            model,
            tiny_kg,
            NSCachingSampler(cache_size=4, candidate_size=4),
            TrainConfig(epochs=2, batch_size=64),
            profile=True,
        )
        trainer.run()
        report = trainer.profile_report()
        assert "score_candidates" in report
        assert report["score_candidates"] > 0

    def test_profile_phases_sum_to_wall_time(self, tiny_kg):
        """Phases are disjoint and cover the hot loop: their sum matches the
        training wall clock (loop bookkeeping is the only slack)."""
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        trainer = Trainer(
            model,
            tiny_kg,
            NSCachingSampler(cache_size=8, candidate_size=8),
            TrainConfig(epochs=3, batch_size=64),
            profile=True,
        )
        trainer.run()
        report = trainer.profile_report()
        total = sum(report.values())
        wall = trainer.train_seconds
        assert total <= wall
        assert total >= 0.5 * wall, (report, wall)

    def test_profile_score_candidates_excluded_from_cache_update(self, tiny_kg):
        """The report carves the nested scoring time out of cache_update."""
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        trainer = Trainer(
            model,
            tiny_kg,
            NSCachingSampler(cache_size=4, candidate_size=4),
            TrainConfig(epochs=2, batch_size=64),
            profile=True,
        )
        trainer.run()
        report = trainer.profile_report()
        raw_update = trainer.tracer.totals()[("train", "cache_update")].seconds
        assert report["cache_update"] == pytest.approx(
            raw_update - report["score_candidates"]
        )

    def test_reused_sampler_detached_from_previous_profiler(self, tiny_kg):
        """A sampler handed to a second, non-profiled trainer must stop
        feeding the first trainer's score_candidates stopwatch."""
        sampler = NSCachingSampler(cache_size=4, candidate_size=4)
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        profiled = Trainer(
            model, tiny_kg, sampler, TrainConfig(epochs=1, batch_size=64),
            profile=True,
        )
        profiled.run()
        recorded = profiled.profile_report()["score_candidates"]
        model2 = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=1)
        Trainer(
            model2, tiny_kg, sampler, TrainConfig(epochs=1, batch_size=64)
        ).run()
        assert sampler.tracer is None
        assert profiled.profile_report()["score_candidates"] == recorded

    def test_profile_score_candidates_zero_for_stateless_sampler(self, tiny_kg):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        trainer = Trainer(
            model, tiny_kg, BernoulliSampler(),
            TrainConfig(epochs=1, batch_size=64), profile=True,
        )
        trainer.run()
        assert trainer.profile_report()["score_candidates"] == 0.0

    def test_profile_totals_survive_ring_overflow(self, tiny_kg):
        """Phase seconds come from running totals, not from the span ring:
        a ring far too small for the run still counts every batch."""
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        tracer = Tracer(capacity=4)
        epochs, batch_size = 2, 64
        trainer = Trainer(
            model, tiny_kg, NSCachingSampler(cache_size=4, candidate_size=4),
            TrainConfig(epochs=epochs, batch_size=batch_size),
            profile=True, tracer=tracer,
        )
        trainer.run()
        n_batches = epochs * -(-len(tiny_kg.train) // batch_size)
        assert tracer.dropped > 0
        totals = tracer.totals()
        assert totals[("train", "sample")].calls == n_batches
        # One scoring span per side and batch: the caller's is the
        # ``train`` phase, the helper's (split on) a ``refresh`` span.
        scored = sum(
            total.calls
            for (_, name), total in totals.items()
            if name == "score_candidates"
        )
        assert scored == 2 * n_batches
        report = trainer.profile_report()
        assert set(report) == set(Trainer.PROFILE_PHASES)
        total, wall = sum(report.values()), trainer.train_seconds
        assert total <= wall
        assert total >= 0.5 * wall, (report, wall)


    def test_profile_does_not_change_results(self, tiny_kg):
        plain = _trainer(tiny_kg, epochs=3).run()
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        profiled = Trainer(
            model, tiny_kg, BernoulliSampler(),
            TrainConfig(epochs=3, batch_size=64), profile=True,
        ).run()
        np.testing.assert_allclose(plain["loss"].values, profiled["loss"].values)


class TestNonFiniteLoss:
    """A NaN loss stops the run on the batch that produced it."""

    @pytest.mark.parametrize(
        "make_sampler",
        [BernoulliSampler, lambda: NSCachingSampler(cache_size=4, candidate_size=4)],
        ids=["Bernoulli", "NSCaching"],
    )
    def test_nan_params_raise_on_first_batch(self, tiny_kg, make_sampler):
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        trainer = Trainer(
            model, tiny_kg, make_sampler(), TrainConfig(epochs=2, batch_size=64)
        )
        for name in model.entity_params:
            model.params[name][:] = np.nan
        calls = []
        train_batch = trainer.train_batch

        def counted(batch, rows=None):
            calls.append(len(batch))
            return train_batch(batch, rows)

        trainer.train_batch = counted
        with pytest.raises(FloatingPointError, match="non-finite loss .* epoch 0"):
            trainer.run()
        assert len(calls) == 1
        assert trainer.epochs_run == 0


class TestPrecomputedRows:
    def test_trainer_precomputes_for_nscaching(self, tiny_kg):
        trainer = _trainer(
            tiny_kg, sampler=NSCachingSampler(cache_size=4, candidate_size=4)
        )
        assert trainer._train_rows is not None
        assert trainer._train_rows.head.shape == (len(tiny_kg.train),)

    def test_stateless_samplers_skip_precompute(self, tiny_kg):
        assert _trainer(tiny_kg, sampler=BernoulliSampler())._train_rows is None


class TestGradientFlow:
    def test_grad_norm_positive_during_training(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=1)
        history = trainer.run()
        assert history.last("grad_norm") > 0

    def test_nzl_between_zero_and_one(self, tiny_kg):
        trainer = _trainer(tiny_kg, epochs=2)
        history = trainer.run()
        assert 0.0 <= history.last("nzl") <= 1.0
