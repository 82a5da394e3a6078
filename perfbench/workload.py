"""One benchmark workload, run in a fresh process by ``perfbench/run.py``.

Usage (the runner sets the environment and ``PYTHONPATH=src``)::

    python perfbench/workload.py --workload train-seq --seed 1 \
        --seconds 20 --trace 0 --result out.json

Builds the workload's inputs from ``--seed``, sets the program up several
times (the median is ``setup_s``), measures for ``--seconds``, checks the
outputs and writes one JSON document to ``--result``.  ``--trace 1``
wraps each layer's entry points (:mod:`layers`) and alternates traced and
untraced slices of the timed window, so the traced run reports per-layer
self times and the tracing overhead.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import replace
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from layers import LayerTracer
from repro.core.nscaching import NSCachingSampler
from repro.data.benchmarks import fb15k_like
from repro.data.synthetic import SyntheticKGConfig, generate_kg
from repro.eval.filters import head_filter_masks, tail_filter_masks
from repro.eval.protocol import evaluate
from repro.models import make_model
from repro.models.persistence import export_snapshot
from repro.parallel.pool import RefreshPool
from repro.serve.engine import PredictionEngine
from repro.serve.http import make_server
from repro.serve.snapshot import EmbeddingSnapshot
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
DIM = 64
#: The graphs stand for fixed public datasets, so they do not change with
#: ``--seed``; the seed drives model initialisation, batch order, negative
#: sampling and the query stream.  (With seeded graphs of the same size the
#: MRR spread across seeds was up to 20% and the eval rate's up to 25%.)
DATA_SEED = 0

#: ``quality_epochs``: timed epochs after which ``quality`` is taken.  The
#: window runs at least this many, so the MRR does not depend on machine
#: speed; both fit in 20 s on a 2-vCPU VM, and across ten seeds the
#: valid+test MRR then spreads by 5-13% (quartile distance over median).
TRAIN_WORKLOADS = {
    # The sequential refresh: score_candidates dominates the hot loop.
    "train-seq": {
        "model": "TransE", "quality_epochs": 5, "sampler": {"cache_backend": "array"},
    },
    # The refresh moves to 2 forked workers behind the optimizer step.
    "train-pooled": {
        "model": "ComplEx",
        "quality_epochs": 7,
        "sampler": {
            "cache_backend": "sharded-array",
            "refresh_workers": 2,
            "refresh_overlap": True,
        },
    },
}
N1 = N2 = 50
TRAIN_BATCH = 512
#: ``--smoke``: the same code paths on inputs small enough for the tests.
SMOKE_SCALE = 0.1
SMOKE_BATCH = 128
#: The final evaluate() repeats until this much time has passed, so a
#: fast model's eval rate is still a median over >= 8 s of work (4 s left
#: ComplEx's rate spreading by up to 0.23 across runs).
EVAL_MIN_SECONDS = 8.0

SERVE_GRAPH = SyntheticKGConfig(
    name="serve20k",
    n_entities=20000,
    n_relations=40,
    latent_dim=14,
    triples_per_relation=1000,
    category_mix=(0.1, 0.3, 0.3, 0.3),
    fan_out_max=6,
    range_fraction=0.3,
    diagonal_fraction=0.5,
    inverse_fraction=0.0,
    noise=0.05,
    popularity_exponent=1.0,
)
SMOKE_GRAPH = replace(SERVE_GRAPH, n_entities=2000, triples_per_relation=100)
QUERIES_PER_REQUEST = 16
#: With ~3.6k distinct test queries drawn Zipf(1.0), an LRU of 128 entries
#: answers about half the queries (simulated and measured).
CACHE_CAPACITY = 128
ZIPF_EXPONENT = 1.0
STREAM_QUERIES = 200_000
#: Distinct answers checked against the reference ranking after the window.
CHECKED_ANSWERS = 128
TOP_K = 10


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``: the 11th-largest sample, its
    percentile ``100 * (n - 10) / n`` and the sample count.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"need at least 11 latency samples, got {n}")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict[str, object]:
    blas: dict[str, object] = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# -- training workloads ------------------------------------------------------


def _wrap_pool(tracer: LayerTracer, sink: dict[str, float]) -> None:
    """RefreshPool wrappers, installed on the class before the pool forks."""

    def on_sync(args: tuple, kwargs: dict, report: object) -> None:
        sink["sync_bytes"] += report.bytes_copied
        sink["sync_total_bytes"] += report.total_bytes

    def on_collect(args: tuple, kwargs: dict, results: list) -> None:
        sink["worker_task_s"] += sum(r.seconds for r in results)
        sink["queue_wait_s"] += sum(r.queue_wait for r in results)

    tracer.wrap_class(RefreshPool, "start", "parallel.pool_start", always=True)
    tracer.wrap_class(RefreshPool, "dispatch", "parallel.dispatch")
    tracer.wrap_class(RefreshPool, "sync_params", "parallel.sync", on_sync)
    # Observed, not timed: the wait stays in collect_refreshes' self time.
    tracer.wrap_class(RefreshPool, "collect", None, on_collect)


def record_shared_memory(ledger: Path) -> None:
    """Append the name of every shared-memory segment this process tree
    creates to ``ledger``, so the runner can check that each was unlinked."""
    original = shared_memory.SharedMemory.__init__

    def init(self, *args, **kwargs) -> None:
        original(self, *args, **kwargs)
        with ledger.open("a") as out:
            out.write(self.name + "\n")

    shared_memory.SharedMemory.__init__ = init


def _fail_if_asked() -> None:
    """Test hook: ``PERFBENCH_FAIL_AFTER_SETUP=1`` raises once set up, so the
    tests can check that an error still tears everything down."""
    if os.environ.get("PERFBENCH_FAIL_AFTER_SETUP") == "1":
        raise RuntimeError("failing after set-up (PERFBENCH_FAIL_AFTER_SETUP=1)")


def run_train(
    name: str, seed: int, seconds: float, tracer: LayerTracer | None, smoke: bool
) -> dict:
    spec = TRAIN_WORKLOADS[name]
    started = time.perf_counter()
    dataset = fb15k_like(seed=DATA_SEED, scale=SMOKE_SCALE if smoke else 1.0)
    generate_s = time.perf_counter() - started
    config = TrainConfig(
        epochs=1, batch_size=SMOKE_BATCH if smoke else TRAIN_BATCH, optimizer="adam", seed=seed
    )
    pool_sink = dict.fromkeys(
        ("sync_bytes", "sync_total_bytes", "worker_task_s", "queue_wait_s"), 0.0
    )
    if tracer is not None:
        _wrap_pool(tracer, pool_sink)

    setups: list[float] = []
    inits: list[float] = []
    warmup_losses: list[float] = []
    trainer: Trainer | None = None
    try:
        for rep in range(SETUPS):
            if trainer is not None:
                trainer.close()
                trainer = None
            began = time.perf_counter()
            model = make_model(spec["model"], dataset.n_entities, dataset.n_relations, DIM, rng=seed)
            sampler = NSCachingSampler(cache_size=N1, candidate_size=N2, **spec["sampler"])
            if tracer is not None and rep == SETUPS - 1:
                # Before Trainer(): it captures collect_refreshes at construction.
                for attr, account in (
                    ("sample", "core.sample"),
                    ("update", "core.update"),
                    ("collect_refreshes", "core.collect"),
                ):
                    tracer.wrap_instance(sampler, attr, account)
            init_began = time.perf_counter()
            trainer = Trainer(model, dataset, sampler, config)
            inits.append(time.perf_counter() - init_began)
            warmup_losses.append(trainer.train_epoch(0)["loss"])
            setups.append(time.perf_counter() - began)

        assert trainer is not None
        _fail_if_asked()
        latencies: list[float] = []
        losses: list[float] = []
        if tracer is not None:
            # After the warm-up: the pool has forked and copied the model, so
            # the wrappers never reach the worker copies.
            tracer.wrap_instance(trainer, "train_batch", "train.batch")
            for attr in ("score_triples", "grad_triples", "normalize"):
                tracer.wrap_instance(model, attr, f"models.{attr}")
            tracer.wrap_instance(
                model, "score_candidates", "models.score_candidates",
                lambda args, kwargs, scores: tracer.count("candidates", scores.size),
            )
            tracer.wrap_instance(trainer.optimizer, "step", "optim.step")
        inner = trainer.train_batch

        def timed_batch(batch: np.ndarray, rows: object = None) -> dict[str, float]:
            began = time.perf_counter()
            out = inner(batch, rows)
            if tracer is None or not tracer.enabled:  # untraced batches only
                latencies.append(time.perf_counter() - began)
            losses.append(out["loss"])
            return out

        trainer.train_batch = timed_batch
        epoch_s: list[float] = []
        traced_epoch_s: list[float] = []
        changes: list[float] = []
        frozen: dict[str, np.ndarray] | None = None
        window_began = time.perf_counter()
        while True:
            traced = tracer is not None and len(traced_epoch_s) < len(epoch_s)
            if tracer is not None:
                tracer.enabled = traced
            done = len(epoch_s) + len(traced_epoch_s)
            began = time.perf_counter()
            stats = trainer.train_epoch(done + 1)  # epoch 0 was the warm-up
            elapsed = time.perf_counter() - began
            if tracer is not None:
                tracer.enabled = False
            (traced_epoch_s if traced else epoch_s).append(elapsed)
            changes.append(stats["cache_changes"])
            done += 1
            if done == spec["quality_epochs"]:
                frozen = model.state_dict()
            if done >= spec["quality_epochs"] and time.perf_counter() - window_began >= seconds:
                break
        report = trainer.cache_report()
        cache_bytes = report.get("allocated_bytes", report["memory_bytes"])
    finally:
        if trainer is not None:
            trainer.close()

    assert frozen is not None
    model.load_state_dict(frozen)
    eval_rates: list[float] = []  # queries/s of each split's evaluate()
    mrrs: list[float] = []
    eval_began = time.perf_counter()
    eval_queries = 2 * (len(dataset.valid) + len(dataset.test))
    eval_min_s = 0.0 if smoke else EVAL_MIN_SECONDS
    while not mrrs or time.perf_counter() - eval_began < eval_min_s:
        # Valid and test together: twice the queries cut the seed-to-seed
        # spread of the MRR by about a third (measured).
        reciprocal_rank_sum = 0.0
        for split in ("valid", "test"):
            queries = 2 * len(getattr(dataset, split))
            began = time.perf_counter()
            reciprocal_rank_sum += queries * evaluate(model, dataset, split)["mrr"]
            eval_rates.append(queries / (time.perf_counter() - began))
        mrrs.append(reciprocal_rank_sum / eval_queries)
    eval_s = time.perf_counter() - eval_began

    n_train = len(dataset.train)
    all_epochs = epoch_s + traced_epoch_s
    checks = {
        "loss_finite": all(math.isfinite(x) for x in losses + warmup_losses),
        "eval_repeatable": len(set(mrrs)) == 1,
        "mrr_in_range": 0.0 < mrrs[0] <= 1.0,
    }
    tail, tail_pct, tail_n = tail_latency(latencies)
    result = {
        "attempted": len(losses),
        "failed": len(losses) - sum(math.isfinite(x) for x in losses),
        "checks": checks,
        "quality": mrrs[0],
        "end_to_end": {
            "setup_s": statistics.median(setups),
            # Untraced epochs and batches only (a traced run alternates).
            "throughput_per_s": statistics.median(n_train / s for s in epoch_s),
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_tail_ms": 1000.0 * tail,
            "quality": mrrs[0],
            "eval_queries_per_s": statistics.median(eval_rates),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": sum(math.isfinite(x) for x in losses) / len(losses),
        },
        "detail": {
            "tail_percentile": tail_pct,
            "tail_samples": tail_n,
            "timed_epochs": len(all_epochs),
            "train_triples": n_train,
            "setups_s": setups,
            "epoch_s": all_epochs,
            "eval_repeats": len(mrrs),
        },
        "per_layer": {
            "data.generate_s": generate_s,
            "train.init_s": statistics.median(inits),
            "core.cache_changed_frac": sum(changes) / (len(changes) * 2 * n_train * N1),
            "core.cache_bytes": float(cache_bytes),
            "eval.rank_s": eval_s,
            "eval.queries": float(eval_queries * len(mrrs)),
        },
    }
    if tracer is not None:
        result["per_layer"].update(_train_layers(tracer, pool_sink, epoch_s, traced_epoch_s))
    return result


def _train_layers(
    tracer: LayerTracer,
    pool: dict[str, float],
    untraced_s: list[float],
    traced_s: list[float],
) -> dict[str, float]:
    batch_total = tracer.total_s("train.batch")
    collect_wait = tracer.total_s("core.collect")
    layers = {
        "trace.window_s": sum(traced_s),
        "trace.overhead_frac": statistics.mean(traced_s) / statistics.mean(untraced_s) - 1.0,
        "trace.uncovered_frac": tracer.self_s("train.batch") / batch_total,
        "train.batch_s": batch_total,
        "train.batch_calls": float(tracer.calls("train.batch")),
        "core.collect_wait_s": collect_wait,
        "parallel.pool_start_s": (
            tracer.total_s("parallel.pool_start") / max(1, tracer.calls("parallel.pool_start"))
        ),
        "parallel.sync_bytes": pool["sync_bytes"],
        "parallel.sync_dirty_frac": (
            pool["sync_bytes"] / pool["sync_total_bytes"] if pool["sync_total_bytes"] else 0.0
        ),
        "parallel.worker_task_s": pool["worker_task_s"],
        "parallel.queue_wait_s": pool["queue_wait_s"],
        "parallel.overlap_hidden_frac": (
            1.0 - collect_wait / pool["worker_task_s"] if pool["worker_task_s"] else 0.0
        ),
    }
    for account in (
        "core.sample", "core.update", "core.collect", "models.score_candidates",
        "models.score_triples", "models.grad_triples", "models.normalize",
        "optim.step", "parallel.dispatch", "parallel.sync",
    ):
        if account != "core.collect":  # its time is core.collect_wait_s
            layers[f"{account}_s"] = tracer.self_s(account)
        layers[f"{account}_calls"] = float(tracer.calls(account))
    layers["models.candidates_scored"] = float(tracer.counts.get("candidates", 0))
    return layers


# -- serving workload -------------------------------------------------------


class QueryStream:
    """Zipf-skewed head/tail queries over the distinct test queries.

    ``keys`` are ``(direction, anchor, relation)`` in popularity order,
    fixed like the graph (which queries are hot moved throughput by ~20%
    between seeds); ``draws`` indexes them in request order, drawn from
    ``seed``, and wraps around if a run outlasts it.
    """

    def __init__(self, dataset, seed: int) -> None:
        keys = sorted(
            {("tail", int(h), int(r)) for h, r, _ in dataset.test}
            | {("head", int(t), int(r)) for _, r, t in dataset.test}
        )
        popularity = np.random.default_rng(DATA_SEED).permutation(len(keys))
        self.keys = [keys[i] for i in popularity]
        weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_EXPONENT
        self.draws = np.random.default_rng(seed).choice(
            len(keys), size=STREAM_QUERIES, p=weights / weights.sum()
        )

    def request(self, cursor: int) -> tuple[bytes, list[tuple[str, int, int]], int]:
        """The JSON body and keys of the request at ``cursor``, and the next cursor."""
        picks = self.draws.take(range(cursor, cursor + QUERIES_PER_REQUEST), mode="wrap")
        batch = [self.keys[i] for i in picks.tolist()]
        queries = [
            {"head" if direction == "tail" else "tail": anchor, "relation": relation, "k": TOP_K}
            for direction, anchor, relation in batch
        ]
        return json.dumps({"queries": queries}).encode(), batch, cursor + QUERIES_PER_REQUEST


class _Server:
    """One engine behind an in-process HTTP server and one keep-alive client."""

    def __init__(self, snapshot_dir: Path, dataset) -> None:
        began = time.perf_counter()
        self.engine = PredictionEngine(
            EmbeddingSnapshot.load(snapshot_dir), dataset, cache_capacity=CACHE_CAPACITY
        )
        self.engine_init_s = time.perf_counter() - began
        self.httpd = make_server(self.engine, port=0)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.httpd.server_address[1], timeout=60
        )

    def post(self, body: bytes) -> tuple[int, dict]:
        self.conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=30)
        if self.thread.is_alive():
            raise RuntimeError("HTTP server thread did not stop")


def _reference(
    model, dataset, keys: list[tuple[str, int, int]]
) -> tuple[dict, list[float]]:
    """Filtered top-k per key from model.score_all_* plus eval.filters masks,
    ranked in request-sized batches, and each batch's queries/s."""
    ranked: dict[tuple[str, int, int], list[int]] = {}
    rates: list[float] = []
    for start in range(0, len(keys), QUERIES_PER_REQUEST):
        batch = keys[start:start + QUERIES_PER_REQUEST]
        began = time.perf_counter()
        ranked.update(_rank(model, dataset, batch))
        rates.append(len(batch) / (time.perf_counter() - began))
    return ranked, rates


def _rank(model, dataset, keys: list[tuple[str, int, int]]) -> dict:
    ranked: dict[tuple[str, int, int], list[int]] = {}
    for direction in ("tail", "head"):
        group = [key for key in keys if key[0] == direction]
        if not group:
            continue
        anchors = np.array([key[1] for key in group], dtype=np.int64)
        relations = np.array([key[2] for key in group], dtype=np.int64)
        if direction == "tail":
            scores = model.score_all_tails(anchors, relations, chunk=QUERIES_PER_REQUEST)
            masks = tail_filter_masks(dataset, anchors, relations)
        else:
            scores = model.score_all_heads(relations, anchors, chunk=QUERIES_PER_REQUEST)
            masks = head_filter_masks(dataset, relations, anchors)
        ids = np.arange(scores.shape[1])
        for row, key in enumerate(group):
            row_scores = scores[row].copy()
            row_scores[masks[row]] = -np.inf
            order = np.lexsort((ids, -row_scores))[:TOP_K]
            ranked[key] = [int(e) for e in order if np.isfinite(row_scores[e])]
    return ranked


def run_serve(
    seed: int, seconds: float, tracer: LayerTracer | None, workdir: Path, smoke: bool
) -> dict:
    began = time.perf_counter()
    dataset = generate_kg(SMOKE_GRAPH if smoke else SERVE_GRAPH, rng=DATA_SEED).dataset
    model = make_model("TransE", dataset.n_entities, dataset.n_relations, DIM, rng=seed)
    stream = QueryStream(dataset, seed)
    generate_s = time.perf_counter() - began

    setups: list[float] = []
    inits: list[float] = []
    server: _Server | None = None
    try:
        for rep in range(SETUPS):
            if server is not None:
                server.close()
                server = None
            began = time.perf_counter()
            snapshot_dir = export_snapshot(model, workdir / f"snapshot-{rep}")
            server = _Server(snapshot_dir, dataset)
            inits.append(server.engine_init_s)
            cursor = 0
            # Warm up until the query cache is full: hits then run at the
            # steady-state rate from the first timed request.
            while len(server.engine.cache) < CACHE_CAPACITY:
                body, _, cursor = stream.request(cursor)
                status, _ = server.post(body)
                if status != 200:
                    raise RuntimeError(f"warm-up request answered {status}")
            setups.append(time.perf_counter() - began)

        assert server is not None
        _fail_if_asked()
        engine = server.engine
        if tracer is not None:
            tracer.wrap_instance(engine, "predict", "serve.predict")
            for attr in ("top_tails", "top_heads"):
                tracer.wrap_instance(engine.scorer, attr, "serve.topk")
            for attr in ("score_all_tails", "score_all_heads"):
                tracer.wrap_instance(engine.scorer.model, attr, "models.score_all")
        hits0, misses0 = engine.cache.hits, engine.cache.misses
        batches0 = engine.scoring_batches
        latencies: list[float] = []
        traced_latencies: list[float] = []
        answered: dict[tuple[str, int, int], list[int]] = {}
        sent = ok = answered_queries = 0
        window_began = time.perf_counter()
        while time.perf_counter() - window_began < seconds:
            body, batch, cursor = stream.request(cursor)
            traced = tracer is not None and sent % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
            began = time.perf_counter()
            status, payload = server.post(body)
            elapsed = time.perf_counter() - began
            if tracer is not None:
                tracer.enabled = False
            sent += 1
            (traced_latencies if traced else latencies).append(elapsed)
            results = payload.get("results", [])
            if status != 200 or len(results) != len(batch):
                continue
            ok += 1
            answered_queries += len(results)
            for key, result in zip(batch, results):
                if key not in answered and len(answered) < CHECKED_ANSWERS:
                    answered[key] = result["entities"]
        window_s = time.perf_counter() - window_began
        hits = engine.cache.hits - hits0
        misses = engine.cache.misses - misses0
        scoring_batches = engine.scoring_batches - batches0
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(workdir, ignore_errors=True)

    eval_rates: list[float] = []
    passes = 0
    eval_min_s = 0.0 if smoke else EVAL_MIN_SECONDS
    eval_began = time.perf_counter()
    while not passes or time.perf_counter() - eval_began < eval_min_s:
        reference, rates = _reference(model, dataset, list(answered))
        eval_rates += rates
        passes += 1
    eval_s = time.perf_counter() - eval_began
    matching = sum(reference[key] == entities for key, entities in answered.items())
    quality = matching / len(answered) if answered else 0.0
    checks = {
        "answers_match_reference": bool(answered) and matching == len(answered),
        "all_requests_ok": ok == sent,
    }
    tail, tail_pct, tail_n = tail_latency(latencies)
    result = {
        "attempted": sent,
        "failed": sent - ok,
        "checks": checks,
        "quality": quality,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": answered_queries / window_s,
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_tail_ms": 1000.0 * tail,
            "quality": quality,
            "eval_queries_per_s": statistics.median(eval_rates),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": ok / sent,
        },
        "detail": {
            "tail_percentile": tail_pct,
            "tail_samples": tail_n,
            "requests": sent,
            "checked_answers": len(answered),
            "setups_s": setups,
            "entities": dataset.n_entities,
            "distinct_queries": len(stream.keys),
            "cache_hit_frac": hits / (hits + misses),
        },
        "per_layer": {
            "data.generate_s": generate_s,
            "serve.engine_init_s": statistics.median(inits),
            "serve.cache_hit_frac": hits / (hits + misses),
            "serve.scoring_batches": float(scoring_batches),
            "eval.rank_s": eval_s,
            "eval.queries": float(len(answered) * passes),
        },
    }
    if tracer is not None:
        request_s = sum(traced_latencies)
        predict_s = tracer.total_s("serve.predict")
        result["per_layer"].update(
            {
                "trace.window_s": request_s,
                "trace.overhead_frac": (
                    statistics.mean(traced_latencies) / statistics.mean(latencies) - 1.0
                ),
                "trace.uncovered_frac": (request_s - predict_s) / request_s,
                "serve.http_overhead_s": request_s - predict_s,
                "serve.predict_s": tracer.self_s("serve.predict"),
                "serve.predict_calls": float(tracer.calls("serve.predict")),
                "serve.topk_s": tracer.self_s("serve.topk"),
                "serve.topk_calls": float(tracer.calls("serve.topk")),
                "models.score_all_s": tracer.self_s("models.score_all"),
                "models.score_all_calls": float(tracer.calls("models.score_all")),
            }
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*TRAIN_WORKLOADS, "serve-topk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--shm-ledger", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    record_shared_memory(args.shm_ledger)
    tracer = LayerTracer() if args.trace else None
    try:
        if args.workload == "serve-topk":
            result = run_serve(args.seed, args.seconds, tracer, args.workdir, args.smoke)
        else:
            result = run_train(args.workload, args.seed, args.seconds, tracer, args.smoke)
    finally:
        if tracer is not None:
            tracer.remove()
    result["environment"] = environment()
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
