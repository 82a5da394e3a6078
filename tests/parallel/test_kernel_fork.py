"""Fork safety of the two-thread kernel split.

The shared scoring kernels hand half of their blocks to one helper thread
(``models.base.split_work``).  A ``before`` fork hook waits out the calls
in progress, stops that thread and holds off new splits until the fork
is done, so no fork copies it, and a forked child (a refresh-pool worker) scores
serially for good: the pool already gives each worker its own core.
"""

import multiprocessing as mp
import threading

import numpy as np
import pytest

import repro.models.base as base
from repro.models import make_model

FORK_AVAILABLE = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="fork start method unavailable"
)
#: Seconds the parent waits for the child's answer; a child stuck on a
#: lock copied from a live helper thread would never send one.
CHILD_TIMEOUT_S = 60


def _helper_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-kernel")]


def _inputs():
    rng = np.random.default_rng(3)
    model = make_model("TransE", 3000, 5, 64, rng=4)
    return (
        model,
        rng.integers(0, 3000, 512),
        rng.integers(0, 5, 512),
        rng.integers(0, 3000, (512, 100)),
    )


def _score_in_child(results):
    model, anchors, r, cand = _inputs()
    scores = model.score_candidates(anchors, r, cand, "tail")
    results.put((scores.tobytes(), base._split, base._helper, _helper_threads()))


def _child_answer():
    """Fork a child that scores :func:`_inputs`; returns what it sent."""
    ctx = mp.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_score_in_child, args=(results,))
    child.start()
    try:
        answer = results.get(timeout=CHILD_TIMEOUT_S)
    finally:
        child.join(timeout=CHILD_TIMEOUT_S)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    return answer


@needs_fork
def test_forked_child_scores_serially_with_no_helper(monkeypatch):
    monkeypatch.setattr(base, "_split", True)
    model, anchors, r, cand = _inputs()
    expected = model.score_candidates(anchors, r, cand, "tail").tobytes()
    assert _helper_threads(), "the parent's split should have started the helper"

    got, child_split, child_helper, child_threads = _child_answer()
    assert got == expected
    assert child_split is False
    assert child_helper is None and child_threads == []

    # The parent's helper was stopped before the fork and starts again on
    # the next split, with the same bytes.
    assert base._helper is None
    again = model.score_candidates(anchors, r, cand, "tail").tobytes()
    assert again == expected
    assert len(_helper_threads()) == 1


def test_fork_hook_holds_off_splits_until_the_fork_is_done(monkeypatch):
    """Between the ``before`` hook and the fork, a split started by another
    thread waits, so it cannot start a helper for the fork to copy."""
    monkeypatch.setattr(base, "_split", True)
    base.split_work(2, lambda start, stop: None)
    assert _helper_threads()
    ran = []
    other = threading.Thread(
        target=base.split_work, args=(4, lambda *span: ran.append(span))
    )
    base._before_fork()
    try:
        assert base._helper is None and _helper_threads() == []
        other.start()
        other.join(timeout=0.2)
        assert other.is_alive() and ran == []
        assert base._helper is None and _helper_threads() == []
    finally:
        base._after_fork_in_parent()
    other.join(timeout=CHILD_TIMEOUT_S)
    assert sorted(ran) == [(0, 2), (2, 4)]
    assert len(_helper_threads()) == 1


@needs_fork
def test_fork_while_another_thread_scores(monkeypatch):
    """A parent thread keeps splitting while the main thread forks: every
    child still answers with the parent's bytes and no helper thread."""
    monkeypatch.setattr(base, "_split", True)
    model, anchors, r, cand = _inputs()
    expected = model.score_candidates(anchors, r, cand, "tail").tobytes()
    stop = threading.Event()
    scored = []

    def keep_scoring():
        while not stop.is_set():
            scores = model.score_candidates(anchors, r, cand, "tail")
            scored.append(scores.tobytes() == expected)

    scorer = threading.Thread(target=keep_scoring)
    scorer.start()
    try:
        answers = [_child_answer() for _ in range(3)]
    finally:
        stop.set()
        scorer.join(timeout=CHILD_TIMEOUT_S)
    assert scored and all(scored)
    for got, child_split, child_helper, child_threads in answers:
        assert got == expected
        assert child_split is False
        assert child_helper is None and child_threads == []
