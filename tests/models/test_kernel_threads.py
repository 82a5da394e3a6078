"""The two-thread split of the shared scoring kernels.

``models.base.split_work`` hands half of the row blocks of one candidate
call, or half of the entity ranges of one ``score_all_*`` call, to one
helper thread when at least two CPUs are usable.  These tests force the
split on and off (so a 1-CPU runner checks both) and pin:

* bytes: every ``MODEL_REGISTRY`` model scores the same bytes either way,
  for one row, one block and an odd number of blocks, and for
  ``score_all_*`` at B in {1, 4, 128};
* the busy guard: the kernel calls inside a split run serially, so one
  top-level ``score_all`` call submits exactly one task to the helper,
  and a call from another thread while one is in progress does all its
  work itself instead of queuing behind the helper;
* one helper: concurrent callers get serial bytes, and at most one helper
  thread is ever alive;
* errors: the caller's own error wins, once both halves are done;
* memory: ``score_all_*`` stays within the conformance bound with the
  split on.

The fork rule (a forked child scores serially, with no helper thread) is
tested with a real forked process in ``tests/parallel/test_kernel_fork.py``.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.models.base as base
from repro.models import MODEL_REGISTRY, make_model
from repro.models.base import CANDIDATE_MODES, entity_range_width

from conformance_fixtures import (
    CONF_N_RELATIONS,
    assert_score_all_memory_bounded,
    block_rows,
)

MODES = sorted(CANDIDATE_MODES)
N_ENTITIES = 5000
DIM = 64
#: Candidates per row: the refresh shape (N1 + N2 = 100).
WIDTH = 100


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-kernel")]


def _both_ways(split, score):
    split(False)
    serial = score()
    split(True)
    return serial, score()


def _model(name):
    return make_model(name, N_ENTITIES, CONF_N_RELATIONS, DIM, rng=7)


def _batch_sizes(name):
    """One row, exactly one block, and an odd number of blocks (the
    caller's half is one block longer than the helper's)."""
    block = block_rows(name, WIDTH, DIM)
    return [1, block, 5 * block - 1]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_score_candidates_bytes_equal_split_or_serial(split, model_name, mode, rng):
    model = _model(model_name)
    for b in _batch_sizes(model_name):
        anchors = rng.integers(0, N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        cand = rng.integers(0, N_ENTITIES, (b, WIDTH))
        serial, threaded = _both_ways(
            split, lambda: model.score_candidates(anchors, r, cand, mode)
        )
        assert threaded.tobytes() == serial.tobytes(), f"B={b}"


def _score_all(model, anchors, r, mode):
    if mode == "tail":
        return model.score_all_tails(anchors, r)
    return model.score_all_heads(r, anchors)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_score_all_bytes_equal_split_or_serial(split, model_name, mode, rng):
    model = _model(model_name)
    for b in (1, 4, 128):
        assert N_ENTITIES // entity_range_width(b, DIM) >= 2  # ranges to split
        anchors = rng.integers(0, N_ENTITIES, b)
        r = rng.integers(0, CONF_N_RELATIONS, b)
        serial, threaded = _both_ways(split, lambda: _score_all(model, anchors, r, mode))
        assert threaded.tobytes() == serial.tobytes(), f"B={b}"


class _CountingExecutor(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(1, thread_name_prefix="repro-kernel")
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def counting_helper(monkeypatch):
    with base._idle:
        base._stop_helper()
    helper = _CountingExecutor()
    monkeypatch.setattr(base, "_helper", helper)
    monkeypatch.setattr(base, "_split", True)
    yield helper
    helper.shutdown()


#: Seconds a test waits for a scoring call that a broken nested guard
#: would deadlock.
CALL_TIMEOUT_S = 60


@pytest.mark.parametrize("mode", MODES)
def test_one_score_all_call_submits_one_helper_task(counting_helper, mode, rng):
    """Regression for the nested guard.  At B=128 every entity range is a
    multi-block candidate call; were those calls split again, the caller's
    would queue behind its sibling on the one helper, and the helper's
    would wait on itself, so the call runs on a thread with a timeout."""
    b = 128
    model = make_model("TransE", 2000, CONF_N_RELATIONS, DIM, rng=7)
    width = entity_range_width(b, DIM)
    assert model.n_entities // width >= 2
    assert block_rows("TransE", width, DIM) < b  # each range has >= 2 blocks
    anchors = rng.integers(0, model.n_entities, b)
    r = rng.integers(0, CONF_N_RELATIONS, b)
    call = threading.Thread(
        target=_score_all, args=(model, anchors, r, mode), daemon=True
    )
    call.start()
    call.join(timeout=CALL_TIMEOUT_S)
    assert not call.is_alive(), "score_all deadlocked on the helper"
    assert counting_helper.submitted == 1
    model.score_candidates(anchors, r, rng.integers(0, 2000, (b, WIDTH)), mode)
    assert counting_helper.submitted == 2


def test_small_calls_stay_on_the_caller(counting_helper, rng):
    """One block, or one entity range of one block, is never split."""
    b, n = 2, 300
    model = make_model("TransE", n, CONF_N_RELATIONS, DIM, rng=7)
    assert block_rows("TransE", n, DIM) >= b and entity_range_width(b, DIM) > n
    anchors = rng.integers(0, n, b)
    r = rng.integers(0, CONF_N_RELATIONS, b)
    model.score_candidates(anchors, r, rng.integers(0, n, (b, WIDTH)), "tail")
    model.score_all_tails(anchors, r)
    assert counting_helper.submitted == 0


def test_concurrent_callers_share_one_helper(split, rng):
    """Threaded callers (the serve path), more of them than cores and with
    a short switch interval, each get serial-equal bytes every time, and
    no more than one helper thread is ever started."""
    model = _model("TransE")
    queries = [
        (rng.integers(0, N_ENTITIES, 16), rng.integers(0, CONF_N_RELATIONS, 16))
        for _ in range(4)
    ]
    split(False)
    expected = [model.score_all_tails(a, r).tobytes() for a, r in queries]
    split(True)
    got = [[] for _ in queries]
    helpers = []

    def call(i):
        for _ in range(3):
            got[i].append(model.score_all_tails(*queries[i]).tobytes())
            helpers.append(len(_helper_threads()))

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(queries))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [[e] * 3 for e in expected]
    assert max(helpers) == 1


def _blocking_work(log):
    """``work`` for ``split_work`` whose first item blocks until released;
    returns it with its "inside" and "release" events."""
    inside, release = threading.Event(), threading.Event()

    def work(start, stop):
        log.append((start, stop, threading.current_thread().name))
        if start == 0:
            inside.set()
            assert release.wait(CALL_TIMEOUT_S)

    return work, inside, release


def test_calls_made_while_another_runs_are_serial(counting_helper):
    """A call from another thread while a split runs (another serve
    request) does all its work itself instead of queuing behind the
    helper, and while it runs, the first thread's next call is serial
    too: concurrent callers each keep one core."""
    first_log, second_log, third_log = [], [], []
    first, first_inside, first_release = _blocking_work(first_log)
    second, second_inside, second_release = _blocking_work(second_log)
    caller = threading.Thread(target=base.split_work, args=(4, first))
    other = threading.Thread(target=base.split_work, args=(4, second))
    try:
        caller.start()
        assert first_inside.wait(CALL_TIMEOUT_S)
        other.start()
        assert second_inside.wait(CALL_TIMEOUT_S), "the second call queued"
        first_release.set()
        caller.join(timeout=CALL_TIMEOUT_S)
        assert not caller.is_alive()
        base.split_work(4, lambda start, stop: third_log.append((start, stop)))
    finally:
        first_release.set()
        second_release.set()
        caller.join(timeout=CALL_TIMEOUT_S)
        other.join(timeout=CALL_TIMEOUT_S)
    assert sorted(first_log)[0] == (0, 2, caller.name)
    assert second_log == [(0, 4, other.name)]
    assert third_log == [(0, 4)]
    assert counting_helper.submitted == 1
    base.split_work(4, lambda start, stop: None)  # nothing in progress now
    assert counting_helper.submitted == 2


@pytest.mark.parametrize("failing", [["helper"], ["caller"], ["caller", "helper"]])
def test_errors_reach_the_caller_after_both_halves(split, failing):
    """The caller's own error wins over the helper's, and neither is
    raised before both halves have run."""
    split(True)
    done = []

    def work(start, stop):
        done.append((start, stop))
        side = "helper" if start > 0 else "caller"
        if side == "caller":
            time.sleep(0.05)  # the helper's half finishes first
        if side in failing:
            raise ValueError(f"{side} half failed")

    with pytest.raises(ValueError, match=f"{failing[0]} half failed") as raised:
        base.split_work(5, work)
    assert sorted(done) == [(0, 3), (3, 5)]
    assert raised.value.__context__ is None
    assert base._calls == 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_score_all_memory_is_bounded_with_split(split, model_name, mode, rng):
    """``test_score_all_memory_is_bounded`` with the split forced on: both
    threads' gather buffers and range outputs fit the same bound."""
    split(True)
    assert_score_all_memory_bounded(model_name, mode, rng)
