"""Unit tests for span tracing: ring, serialisation, export, analysis."""

import json
import os
import threading

import pytest

from repro.obs import clock
from repro.obs.runlog import RUN_LOG_VERSION, RunLogError, RunLogWriter
from repro.obs.trace import (
    Span,
    SpanTotal,
    Tracer,
    category_summary,
    chrome_trace,
    overlap_report,
    read_trace,
    span_totals,
    validate_chrome_trace,
    write_trace,
)


def _span_record(name="s", cat="c", ts=0.0, dur=1.0, pid=1, tid=1, **extra):
    record = {
        "type": "span", "version": RUN_LOG_VERSION,
        "name": name, "cat": cat, "ts": ts, "dur": dur, "pid": pid, "tid": tid,
    }
    record.update(extra)
    return record


class TestSpan:
    def test_start_end_records_into_tracer(self):
        tracer = Tracer(capacity=8)
        span = tracer.start_span("work", "test", args={"k": 1})
        assert len(tracer) == 0  # open spans are not in the ring yet
        duration = span.end()
        assert duration >= 0.0
        (record,) = tracer.records()
        assert record["name"] == "work"
        assert record["cat"] == "test"
        assert record["args"] == {"k": 1}
        assert record["pid"] == os.getpid()
        assert record["tid"] == threading.get_native_id()

    def test_end_is_idempotent(self):
        tracer = Tracer(capacity=8)
        span = tracer.start_span("once")
        first = span.end()
        assert span.end() == first
        assert len(tracer) == 1

    def test_context_manager_ends(self):
        tracer = Tracer(capacity=8)
        with tracer.start_span("ctx"):
            pass
        assert len(tracer) == 1

    def test_as_record_validates(self):
        tracer = Tracer(capacity=8)
        span = tracer.start_span("valid", "cat")
        span.end()
        from repro.obs.runlog import validate_record

        validate_record(span.as_record())

    def test_unfinished_span_records_zero_duration(self):
        span = Span("open", "", 1.0, 1, 1, None, None)
        assert span.as_record()["dur"] == 0.0


class TestTracerRing:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_overwrites_oldest_and_counts_drops(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.ingest((_span_record(name=f"s{i}", ts=float(i)),))
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [r["name"] for r in tracer.records()] == ["s2", "s3", "s4"]

    def test_records_preserves_drain_resets(self):
        tracer = Tracer(capacity=4)
        tracer.ingest((_span_record(), _span_record(name="t")))
        assert len(tracer.records()) == 2
        assert len(tracer) == 2  # records() is non-destructive
        drained = tracer.drain()
        assert [r["name"] for r in drained] == ["s", "t"]
        assert len(tracer) == 0
        assert tracer.records() == []

    def test_ingest_roundtrips_worker_records(self):
        worker = Tracer(capacity=8)
        with worker.start_span("shard_task", "refresh_worker", args={"shard": 1}):
            pass
        shipped = worker.drain()
        parent = Tracer(capacity=8)
        assert parent.ingest(shipped) == 1
        (record,) = parent.records()
        assert record["name"] == "shard_task"
        assert record["args"] == {"shard": 1}

    def test_thread_safety_under_concurrent_recording(self):
        tracer = Tracer(capacity=4096)
        n_threads, per_thread = 8, 200

        def work():
            for _ in range(per_thread):
                tracer.start_span("t").end()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == n_threads * per_thread
        assert tracer.dropped == 0


@pytest.fixture
def fake_clock(monkeypatch):
    """Make every clock read return the next scripted time."""

    def script(*times):
        reads = iter(times)
        monkeypatch.setattr(clock, "monotonic", lambda: next(reads))

    return script


class TestTracerTotals:
    def test_same_category_nesting_charges_the_nearest_open_span(self, fake_clock):
        # epoch [0, 10] > cache_update [1, 6] > refresh_side [1.5, 5.5]
        # > score_candidates [2, 4]; then gradients [6.5, 8.5] in epoch.
        fake_clock(0.0, 1.0, 1.5, 2.0, 4.0, 5.5, 6.0, 6.5, 8.5, 10.0)
        tracer = Tracer(capacity=16)
        epoch = tracer.start_span("epoch", "train")
        update = tracer.start_span("cache_update", "train")
        side = tracer.start_span("refresh_side", "refresh")
        tracer.start_span("score_candidates", "train").end()
        side.end()
        update.end()
        tracer.start_span("gradients", "train").end()
        epoch.end()
        assert tracer.totals() == {
            ("train", "epoch"): SpanTotal(1, 10.0, 3.0),
            ("train", "cache_update"): SpanTotal(1, 5.0, 3.0),
            ("train", "score_candidates"): SpanTotal(1, 2.0, 2.0),
            ("train", "gradients"): SpanTotal(1, 2.0, 2.0),
            ("refresh", "refresh_side"): SpanTotal(1, 4.0, 4.0),
        }

    def test_offline_totals_match_live_totals(self, fake_clock):
        fake_clock(0.0, 1.0, 1.5, 2.0, 4.0, 5.5, 6.0, 6.5, 8.5, 10.0)
        tracer = Tracer(capacity=16)
        epoch = tracer.start_span("epoch", "train")
        update = tracer.start_span("cache_update", "train")
        side = tracer.start_span("refresh_side", "refresh")
        tracer.start_span("score_candidates", "train").end()
        side.end()
        update.end()
        tracer.start_span("gradients", "train").end()
        epoch.end()
        assert span_totals(tracer.records()) == tracer.totals()

    def test_totals_survive_ring_overflow(self):
        tracer = Tracer(capacity=2)
        for _ in range(5):
            tracer.start_span("step", "train").end()
        assert tracer.dropped == 3
        assert len(tracer.records()) == 2
        total = tracer.totals()[("train", "step")]
        assert total.calls == 5
        assert total.self_seconds == total.seconds

    def test_entering_restarts_the_clock(self, fake_clock):
        fake_clock(0.0, 3.0, 4.0)
        tracer = Tracer(capacity=4)
        span = tracer.start_span("score_candidates", "train")
        with span:  # entered at 3.0, ended at 4.0
            pass
        assert span.duration == 1.0
        assert tracer.totals()[("train", "score_candidates")].seconds == 1.0

    def test_other_threads_never_nest(self):
        tracer = Tracer(capacity=8)
        outer = tracer.start_span("outer", "c")
        worker = threading.Thread(
            target=lambda: tracer.start_span("inner", "c").end()
        )
        worker.start()
        worker.join()
        outer.end()
        total = tracer.totals()[("c", "outer")]
        assert total.self_seconds == total.seconds
        assert tracer.totals()[("c", "inner")].calls == 1

    def test_concurrent_nesting_stays_per_thread(self):
        """Threads share one tracer: each thread's spans nest only in its
        own open spans, and no total loses an update."""
        import sys

        tracer = Tracer(capacity=64)
        n_threads, per_thread = 8, 200

        def work():
            for _ in range(per_thread):
                outer = tracer.start_span("outer", "c")
                tracer.start_span("inner", "c").end()
                outer.end()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        totals = tracer.totals()
        outer, inner = totals[("c", "outer")], totals[("c", "inner")]
        assert outer.calls == inner.calls == n_threads * per_thread
        assert inner.self_seconds == pytest.approx(inner.seconds)
        assert outer.self_seconds == pytest.approx(outer.seconds - inner.seconds)
        assert tracer._open == {}

    def test_ingest_nests_within_the_batch(self):
        tracer = Tracer(capacity=8)
        tracer.ingest((
            _span_record(name="shard_task", cat="w", ts=0.0, dur=5.0),
            _span_record(name="select", cat="w", ts=1.0, dur=2.0),
            _span_record(name="other_cat", cat="x", ts=3.5, dur=1.0),
        ))
        totals = tracer.totals()
        assert totals[("w", "shard_task")] == SpanTotal(1, 5.0, 3.0)
        assert totals[("w", "select")] == SpanTotal(1, 2.0, 2.0)
        assert totals[("x", "other_cat")] == SpanTotal(1, 1.0, 1.0)


class TestTraceFiles:
    def test_write_read_roundtrip_sorted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [
            _span_record(name="b", ts=2.0),
            _span_record(name="a", ts=1.0),
        ]
        write_trace(path, records)
        back = read_trace(path)
        assert [r["name"] for r in back] == ["a", "b"]

    def test_write_validates_before_touching_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RunLogError):
            write_trace(path, [_span_record(), {"type": "span"}])
        assert not path.exists()

    def test_read_rejects_non_span_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogWriter(path) as writer:
            writer.write(_span_record())
            writer.write({
                "type": "run_end", "version": RUN_LOG_VERSION,
                "epochs": 1, "train_seconds": 1.0,
            })
        with pytest.raises(RunLogError, match="not a trace file"):
            read_trace(path)


class TestChromeExport:
    def test_rebases_and_converts_to_microseconds(self):
        obj = chrome_trace([
            _span_record(name="late", ts=10.5, dur=0.25),
            _span_record(name="early", ts=10.0, dur=1.0),
        ])
        validate_chrome_trace(obj)
        assert obj["displayTimeUnit"] == "ms"
        early, late = obj["traceEvents"]
        assert early["name"] == "early"
        assert early["ts"] == 0.0
        assert early["dur"] == pytest.approx(1e6)
        assert late["ts"] == pytest.approx(0.5e6)
        assert late["dur"] == pytest.approx(0.25e6)

    def test_empty_category_becomes_default(self):
        obj = chrome_trace([_span_record(cat="")])
        assert obj["traceEvents"][0]["cat"] == "default"

    def test_args_pass_through(self):
        obj = chrome_trace([_span_record(args={"epoch": 3})])
        assert obj["traceEvents"][0]["args"] == {"epoch": 3}

    def test_export_is_json_serialisable(self):
        obj = chrome_trace([_span_record()])
        validate_chrome_trace(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda e: e.pop("name"), "name"),
            (lambda e: e.update(ph="B"), "ph"),
            (lambda e: e.update(ts=-1.0), "ts"),
            (lambda e: e.update(dur="x"), "dur"),
            (lambda e: e.update(pid=True), "pid"),
            (lambda e: e.update(tid=1.5), "tid"),
        ],
    )
    def test_validate_rejects_malformed_events(self, mutate, match):
        obj = chrome_trace([_span_record()])
        mutate(obj["traceEvents"][0])
        with pytest.raises(ValueError, match=match):
            validate_chrome_trace(obj)

    def test_validate_rejects_non_object(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace([])


class TestCategorySummary:
    def test_self_time_carves_out_direct_children(self):
        records = [
            _span_record(name="parent", cat="train", ts=0.0, dur=10.0),
            _span_record(name="child", cat="refresh", ts=1.0, dur=4.0),
            _span_record(name="grandchild", cat="refresh", ts=2.0, dur=1.0),
        ]
        rows = {r["category"]: r for r in category_summary(records)}
        # parent loses only its direct child's 4s (grandchild nests in child)
        assert rows["train"]["self_seconds"] == pytest.approx(6.0)
        assert rows["refresh"]["seconds"] == pytest.approx(5.0)
        assert rows["refresh"]["self_seconds"] == pytest.approx(4.0)

    def test_different_threads_never_nest(self):
        records = [
            _span_record(name="a", cat="x", ts=0.0, dur=10.0, tid=1),
            _span_record(name="b", cat="y", ts=1.0, dur=4.0, tid=2),
        ]
        rows = {r["category"]: r for r in category_summary(records)}
        assert rows["x"]["self_seconds"] == pytest.approx(10.0)
        assert rows["y"]["self_seconds"] == pytest.approx(4.0)

    def test_sorted_by_self_seconds_descending(self):
        records = [
            _span_record(cat="small", dur=1.0),
            _span_record(cat="big", ts=10.0, dur=5.0),
        ]
        assert [r["category"] for r in category_summary(records)] == [
            "big", "small",
        ]


class TestOverlapReport:
    def test_half_hidden_worker(self):
        records = [
            _span_record(
                name="shard_task", cat="refresh_worker", ts=0.0, dur=2.0, pid=2
            ),
            _span_record(name="gradients", cat="train", ts=1.0, dur=1.5, pid=1),
            _span_record(name="optimizer", cat="train", ts=2.5, dur=0.5, pid=1),
        ]
        report = overlap_report(records)
        assert report == {
            "worker_seconds": pytest.approx(2.0),
            "step_seconds": pytest.approx(2.0),
            "hidden_seconds": pytest.approx(1.0),
            "hidden_pct": pytest.approx(50.0),
        }

    def test_none_when_either_side_absent(self):
        worker_only = [_span_record(name="shard_task", cat="refresh_worker")]
        step_only = [_span_record(name="gradients", cat="train")]
        assert overlap_report(worker_only) is None
        assert overlap_report(step_only) is None
        assert overlap_report([]) is None

    def test_step_intervals_merge_before_intersection(self):
        # Two overlapping step spans must not double-count hidden time.
        records = [
            _span_record(
                name="shard_task", cat="refresh_worker", ts=0.0, dur=4.0, pid=2
            ),
            _span_record(name="gradients", cat="train", ts=0.0, dur=3.0, pid=1),
            _span_record(name="optimizer", cat="train", ts=1.0, dur=2.0, pid=1),
        ]
        report = overlap_report(records)
        assert report["hidden_seconds"] == pytest.approx(3.0)
        assert report["hidden_pct"] == pytest.approx(75.0)
