"""The sequential refresh's two cache sides on two threads, byte for byte.

``NSCachingSampler.update`` makes every draw of a batch on the caller
(head side, then tail side, on the one stream), runs the two sides'
row-local steps (scoring, selection, CE hint) as the two halves of one
``models.base.split_work`` call, and scatters head then tail after the
join.  These tests force the split on and off, so a 1-CPU runner checks
both, and pin that several trained epochs give the same parameters,
cache ids and scores, ``changed_elements``, ``initialised_entries`` and
RNG states either way: across models, cache layouts, update strategies,
score-storing sampling and the within-epoch lazy schedule.
"""

import sys
import threading

import numpy as np
import pytest

import repro.models.base as base
from repro.core.nscaching import NSCachingSampler
from repro.models import make_model
from repro.obs.trace import Tracer
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer

EPOCHS = 3

#: (model, sampler options): every model under every update strategy,
#: then the other layouts and schedules.
CASES = [
    (model, {"update_strategy": strategy})
    for model in ("TransE", "ComplEx", "RotatE")
    for strategy in ("importance", "top", "uniform")
] + [
    ("TransE", {"n_buckets": 7}),
    ("ComplEx", {"n_shards": 2}),
    ("RotatE", {"sample_strategy": "importance"}),
    ("TransE", {"refresh_period": 2}),
    (
        "ComplEx",
        {"n_buckets": 7, "sample_strategy": "importance", "refresh_period": 2},
    ),
]


def _case_id(case):
    model, options = case
    return "-".join([model] + [f"{k}={v}" for k, v in options.items()])


def _cache_state(cache):
    state = {"ids": cache._ids.copy(), "live": cache._live.copy()}
    if cache.store_scores:
        state["scores"] = cache._scores.copy()
    return state


def _train(monkeypatch, tiny_kg, split, model_name, options):
    """Train EPOCHS epochs with the split forced on or off; returns the
    end state and the threads each side scored on."""
    monkeypatch.setattr(base, "_split", split)
    model = make_model(model_name, tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
    threads = {"head": set(), "tail": set()}
    score = model.score_candidates

    def recording(anchors, r, candidates, mode="tail"):
        threads[mode].add(threading.get_ident())
        return score(anchors, r, candidates, mode)

    model.score_candidates = recording
    sampler = NSCachingSampler(cache_size=4, candidate_size=4, **options)
    trainer = Trainer(
        model, tiny_kg, sampler, TrainConfig(epochs=EPOCHS, batch_size=64, seed=0)
    )
    counters = []
    changed = sampler.changed_elements

    def counting(reset=False):
        # The trainer resets the counters every epoch: record them first.
        counters.append(
            [
                (cache.changed_elements, cache.initialised_entries)
                for cache in (sampler.head_cache, sampler.tail_cache)
            ]
        )
        return changed(reset)

    sampler.changed_elements = counting
    try:
        history = trainer.run()
        state = {
            "params": {name: p.copy() for name, p in model.params.items()},
            "head": _cache_state(sampler.head_cache),
            "tail": _cache_state(sampler.tail_cache),
            "counters": counters,
            "cache_changes": list(history["cache_changes"].values),
            "sampler_rng": sampler.rng.bit_generator.state,
            "batch_rng": trainer._rng.bit_generator.state,
        }
    finally:
        trainer.close()
    return state, threads


def _assert_same_state(serial, threaded):
    assert serial["params"].keys() == threaded["params"].keys()
    for name, array in serial["params"].items():
        assert threaded["params"][name].tobytes() == array.tobytes(), name
    for side in ("head", "tail"):
        assert serial[side].keys() == threaded[side].keys()
        for key, array in serial[side].items():
            assert threaded[side][key].tobytes() == array.tobytes(), (side, key)
    assert threaded["counters"] == serial["counters"]
    assert threaded["cache_changes"] == serial["cache_changes"]
    assert threaded["sampler_rng"] == serial["sampler_rng"]
    assert threaded["batch_rng"] == serial["batch_rng"]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_epochs_bytes_equal_split_or_serial(monkeypatch, tiny_kg, case):
    model_name, options = case
    serial, serial_threads = _train(monkeypatch, tiny_kg, False, model_name, options)
    threaded, split_threads = _train(monkeypatch, tiny_kg, True, model_name, options)
    _assert_same_state(serial, threaded)
    caller = threading.get_ident()
    # Serial: both sides score on the caller.  Split: the head side stays
    # on the caller and the tail side runs on the helper thread.
    assert serial_threads == {"head": {caller}, "tail": {caller}}
    assert split_threads["head"] == {caller}
    assert split_threads["tail"] and caller not in split_threads["tail"]
    assert serial["counters"][0][0][1] > 0  # the first epoch initialised rows


@pytest.mark.parametrize("mode", ["head", "tail"])
def test_single_mode_refresh_bytes_equal_split_or_serial(monkeypatch, tiny_kg, mode):
    """One side has no partner to split with: it runs serially on the
    caller, and its own scoring call may split its kernel."""
    results = []
    for split in (False, True):
        monkeypatch.setattr(base, "_split", split)
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4)
        sampler.bind(model, tiny_kg, rng=0)
        for start in range(0, 128, 32):
            batch = tiny_kg.train[start : start + 32]
            sampler.update(batch, batch, modes=(mode,))
        cache = sampler.head_cache if mode == "head" else sampler.tail_cache
        results.append(
            (
                cache._ids.tobytes(),
                cache.changed_elements,
                cache.initialised_entries,
                sampler.rng.bit_generator.state,
            )
        )
    assert results[0] == results[1]


def test_first_update_lazy_init_bytes_equal_split_or_serial(monkeypatch, tiny_kg):
    """Both caches start empty: the first update's gathers initialise
    every row it touches from the shared stream, head side first."""
    results = []
    for split in (False, True):
        monkeypatch.setattr(base, "_split", split)
        model = make_model("ComplEx", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4)
        sampler.bind(model, tiny_kg, rng=0)
        batch = tiny_kg.train[:64]
        sampler.update(batch, batch)
        results.append(
            [
                (c._ids.tobytes(), c.initialised_entries, c.changed_elements)
                for c in (sampler.head_cache, sampler.tail_cache)
            ]
            + [sampler.rng.bit_generator.state]
        )
    assert results[0] == results[1]
    assert all(entry[1] > 0 for entry in results[0][:2])


def test_split_side_error_raised_after_both_sides_finish(monkeypatch, tiny_kg):
    """An error on either side surfaces only once both sides are done,
    so the helper never runs on while the caller unwinds."""
    monkeypatch.setattr(base, "_split", True)
    model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
    sampler = NSCachingSampler(cache_size=4, candidate_size=4)
    sampler.bind(model, tiny_kg, rng=0)
    score = model.score_candidates
    finished = []

    def failing_head(anchors, r, candidates, mode="tail"):
        out = score(anchors, r, candidates, mode)
        if mode == "head":
            raise RuntimeError("head side failed")
        finished.append(mode)
        return out

    model.score_candidates = failing_head
    batch = tiny_kg.train[:32]
    with pytest.raises(RuntimeError, match="head side failed"):
        sampler.update(batch, batch)
    assert finished == ["tail"]
    assert np.count_nonzero(sampler.tail_cache._live) > 0  # gathered, not written
    assert sampler.tail_cache.changed_elements == 0


def test_traced_split_under_frequent_thread_switches(monkeypatch, tiny_kg):
    """Both sides record spans into one tracer while the interpreter
    switches threads as often as it can: the bytes still match the serial
    run, and every side's spans are counted once."""
    serial, _ = _train(monkeypatch, tiny_kg, False, "TransE", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(base, "_split", True)
        model = make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)
        sampler = NSCachingSampler(cache_size=4, candidate_size=4)
        tracer = Tracer()
        trainer = Trainer(
            model, tiny_kg, sampler,
            TrainConfig(epochs=EPOCHS, batch_size=64, seed=0), tracer=tracer,
        )
        try:
            trainer.run()
            threaded = {name: p.copy() for name, p in model.params.items()}
            caches = [
                (c._ids.tobytes(), c.changed_elements)
                for c in (sampler.head_cache, sampler.tail_cache)
            ]
        finally:
            trainer.close()
    finally:
        sys.setswitchinterval(interval)
    for name, array in serial["params"].items():
        assert threaded[name].tobytes() == array.tobytes(), name
    assert [ids for ids, _ in caches] == [
        serial["head"]["ids"].tobytes(), serial["tail"]["ids"].tobytes()
    ]
    n_batches = EPOCHS * -(-len(tiny_kg.train) // 64)
    totals = tracer.totals()
    assert totals[("refresh", "refresh_side")].calls == 2 * n_batches
    assert totals[("train", "score_candidates")].calls == n_batches
    assert totals[("refresh", "score_candidates")].calls == n_batches
