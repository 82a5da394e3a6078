"""Trainer tracing: bit-identity contract, span coverage, worker merge."""

import numpy as np
import pytest

from repro.core.nscaching import NSCachingSampler
from repro.models import make_model
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, chrome_trace, read_trace, validate_chrome_trace
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


def _parallel_sampler():
    """A 2-worker pooled sampler; tests run it under ``no_fork`` (inline)."""
    return NSCachingSampler(
        cache_size=4,
        candidate_size=4,
        cache_backend="sharded-array",
        n_shards=2,
        refresh_workers=2,
    )


def _params(trainer):
    return {k: v.copy() for k, v in trainer.model.params.items()}


class TestBitIdentity:
    """Tracing disabled executes the exact seed path; enabled changes
    nothing about the numbers — only observes them."""

    def test_traced_run_bit_identical_to_untraced(self, tiny_kg, tmp_path):
        baseline = _trainer(tiny_kg)
        baseline.run()
        expected = _params(baseline)
        baseline.close()

        traced = _trainer(tiny_kg, trace_out=str(tmp_path / "trace.jsonl"))
        traced.run()
        for key, value in _params(traced).items():
            np.testing.assert_array_equal(value, expected[key])
        traced.close()

    def test_traced_parallel_run_bit_identical(self, tiny_kg, tmp_path, no_fork):
        baseline = _trainer(tiny_kg, sampler=_parallel_sampler())
        try:
            baseline.run()
            expected = _params(baseline)
        finally:
            baseline.close()

        traced = _trainer(
            tiny_kg,
            sampler=_parallel_sampler(),
            trace_out=str(tmp_path / "trace.jsonl"),
        )
        try:
            traced.run()
            for key, value in _params(traced).items():
                np.testing.assert_array_equal(value, expected[key])
        finally:
            traced.close()

    def test_profiled_run_bit_identical_to_plain(self, tiny_kg):
        baseline = _trainer(tiny_kg)
        baseline.run()
        expected = _params(baseline)
        baseline.close()

        profiled = _trainer(tiny_kg, profile=True)
        profiled.run()
        for key, value in _params(profiled).items():
            np.testing.assert_array_equal(value, expected[key])
        profiled.close()

    def test_profiled_parallel_run_bit_identical(self, tiny_kg, no_fork):
        baseline = _trainer(tiny_kg, sampler=_parallel_sampler())
        try:
            baseline.run()
            expected = _params(baseline)
        finally:
            baseline.close()

        profiled = _trainer(tiny_kg, sampler=_parallel_sampler(), profile=True)
        try:
            profiled.run()
            for key, value in _params(profiled).items():
                np.testing.assert_array_equal(value, expected[key])
        finally:
            profiled.close()

    def test_no_tracer_by_default(self, tiny_kg):
        trainer = _trainer(tiny_kg)
        assert trainer.tracer is None
        assert trainer.sampler.tracer is None
        trainer.close()


class TestInstrumentationAttachesTracer:
    """Every instrumentation option times the phases through one tracer."""

    @pytest.mark.parametrize(
        "option", ["profile", "metrics", "metrics_out", "trace_out"]
    )
    def test_each_option_attaches_one_tracer(self, tiny_kg, tmp_path, option):
        value = {
            "profile": True,
            "metrics": MetricsRegistry(),
            "metrics_out": str(tmp_path / "run.jsonl"),
            "trace_out": str(tmp_path / "trace.jsonl"),
        }[option]
        trainer = _trainer(tiny_kg, **{option: value})
        try:
            assert trainer.tracer is not None
            assert trainer.sampler.tracer is trainer.tracer
            trainer.run(1)
            phases = trainer.phase_seconds()
            assert phases["score_candidates"] > 0
            assert phases["cache_update"] > 0
        finally:
            trainer.close()


class TestSequentialTrace:
    def test_phase_and_epoch_spans_recorded(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(tiny_kg, trace_out=str(path))
        trainer.run()
        trainer.close()
        records = read_trace(path)
        names = {(r["cat"], r["name"]) for r in records}
        for expected in (
            ("train", "epoch"),
            ("train", "sample"),
            ("train", "score"),
            ("train", "gradients"),
            ("train", "optimizer"),
            ("train", "cache_update"),
            ("refresh", "refresh_side"),
        ):
            assert expected in names, f"missing span {expected}"
        epochs = [r for r in records if r["name"] == "epoch"]
        assert [r["args"]["epoch"] for r in epochs] == [0, 1]

    def test_trainer_attaches_tracer_to_sampler(self, tiny_kg):
        tracer = Tracer()
        trainer = _trainer(tiny_kg, tracer=tracer)
        assert trainer.sampler.tracer is tracer
        trainer.close()

    def test_tracing_composes_with_profile_timers(self, tiny_kg):
        trainer = _trainer(tiny_kg, tracer=Tracer(), profile=True)
        trainer.run()
        # Spans and timers measure the same phases independently.
        assert trainer.profile_report()["gradients"] > 0
        assert any(
            r["name"] == "gradients" for r in trainer.tracer.records()
        )
        trainer.close()

    def test_close_flushes_trace_of_aborted_run(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(tiny_kg, trace_out=str(path))
        trainer.run(1)  # "abort" after one epoch: close() must still write
        trainer.close()
        assert any(r["name"] == "epoch" for r in read_trace(path))

    def test_spans_validate_as_chrome_trace(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(tiny_kg, trace_out=str(path))
        trainer.run()
        trainer.close()
        validate_chrome_trace(chrome_trace(read_trace(path)))


@pytest.mark.usefixtures("no_fork")
class TestParallelTrace:
    """The cross-process merge, on the deterministic inline pool."""

    def test_worker_spans_ship_back_through_results(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(
            tiny_kg, sampler=_parallel_sampler(), trace_out=str(path)
        )
        try:
            trainer.run()
        finally:
            trainer.close()
        records = read_trace(path)
        shard_tasks = [
            r for r in records
            if r["cat"] == "refresh_worker" and r["name"] == "shard_task"
        ]
        assert shard_tasks, "no worker shard_task spans shipped back"
        for record in shard_tasks:
            assert record["args"]["mode"] in ("head", "tail")
            assert record["args"]["rows"] >= 0
            assert "shard" in record["args"]
        # The pool's dispatch span marks where the trainer handed off.
        assert any(
            r["cat"] == "refresh" and r["name"] == "dispatch" for r in records
        )

    def test_queue_wait_spans_recorded_when_stamped(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(
            tiny_kg, sampler=_parallel_sampler(), trace_out=str(path)
        )
        try:
            trainer.run()
        finally:
            trainer.close()
        waits = [r for r in read_trace(path) if r["name"] == "queue_wait"]
        assert waits, "no queue_wait spans"
        assert all(r["cat"] == "refresh_worker" for r in waits)
        assert all(r["dur"] >= 0 for r in waits)

    def test_merged_timeline_exports_to_chrome(self, tiny_kg, tmp_path):
        path = tmp_path / "trace.jsonl"
        trainer = _trainer(
            tiny_kg, sampler=_parallel_sampler(), trace_out=str(path)
        )
        try:
            trainer.run()
        finally:
            trainer.close()
        exported = chrome_trace(read_trace(path))
        validate_chrome_trace(exported)
        cats = {event["cat"] for event in exported["traceEvents"]}
        assert {"train", "refresh_worker"} <= cats


class TestSamplerTracing:
    def test_sequential_refresh_span_args(self, tiny_kg):
        tracer = Tracer()
        trainer = _trainer(tiny_kg, tracer=tracer)
        trainer.run(1)
        sides = [
            r for r in tracer.records() if r["name"] == "refresh_side"
        ]
        assert sides
        modes = {r["args"]["mode"] for r in sides}
        assert modes == {"head", "tail"}
        trainer.close()

    def test_pool_inherits_trace_flag(self, tiny_kg, no_fork):
        tracer = Tracer()
        trainer = _trainer(
            tiny_kg, sampler=_parallel_sampler(), tracer=tracer
        )
        try:
            trainer.run(1)
            assert trainer.sampler._pool is not None
            assert trainer.sampler._pool.trace is True
        finally:
            trainer.close()

    def test_untraced_pool_ships_no_spans(self, tiny_kg, no_fork):
        trainer = _trainer(tiny_kg, sampler=_parallel_sampler())
        try:
            trainer.run(1)
            assert trainer.sampler._pool.trace is False
        finally:
            trainer.close()


class TestForkedWorkerTrace:
    """One real multi-process run: spans arrive from foreign pids."""

    def test_forked_workers_ship_spans_with_own_pid(self, tiny_kg, tmp_path):
        import os

        path = tmp_path / "trace.jsonl"
        sampler = NSCachingSampler(
            cache_size=4,
            candidate_size=4,
            cache_backend="sharded-array",
            n_shards=2,
            refresh_workers=2,
        )
        trainer = _trainer(tiny_kg, sampler=sampler, trace_out=str(path))
        try:
            trainer.run(1)
        finally:
            trainer.close()
        records = read_trace(path)
        worker_pids = {
            r["pid"] for r in records if r["cat"] == "refresh_worker"
        }
        assert worker_pids, "no worker spans shipped back"
        assert os.getpid() not in worker_pids
