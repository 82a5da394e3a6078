"""Span tracing: a cross-process timeline for the refresh pipeline.

The counters of :mod:`repro.obs.registry` say *how much*; spans say
*when*.  A :class:`Span` is one named interval —
``(name, category, start, duration, pid, tid, args)`` — and a
:class:`Tracer` is a preallocated in-process ring buffer of finished
spans.  The design constraints mirror the registry's:

* **Disabled means absent.**  Hot paths hold ``tracer = None`` unless a
  caller opted in; every instrumentation site is a ``None`` check, so an
  untraced run executes the exact seed code path (asserted bit-identical
  by ``tests/train/test_trainer_trace.py``).
* **Enabled means cheap.**  ``start_span`` allocates one slotted object
  and reads one clock; ``end`` reads the clock again and appends under a
  lock (the serve layer traces from handler threads).  Bench X8's
  tracer arm pins the whole thing ≤ 3% on the update() hot loop.
* **One time axis.**  Timestamps come from
  :func:`repro.obs.clock.monotonic`, which is system-wide on Linux —
  spans recorded inside ``fork``-ed :class:`~repro.parallel.pool`
  workers land on the same axis as the parent's, so the merged timeline
  (worker spans ship back piggybacked on ``ShardResult`` and are folded
  in via :meth:`Tracer.ingest`) shows refresh/step overlap directly.

Finished spans serialise as run-log ``span`` records (JSONL, one per
line — :func:`write_trace` / :func:`read_trace`) and export as Chrome
trace-event JSON (:func:`chrome_trace`), loadable in Perfetto or
``chrome://tracing``.  :func:`category_summary`, :func:`span_totals`
and :func:`overlap_report` are the analysis behind ``repro trace
summary``: per-category totals with self-time (child spans carved out of
their parents), per-``(category, name)`` totals, and the fraction of
worker refresh time hidden behind the trainer's gradient/optimizer
phases.

A tracer is also the trainer's stopwatch.  It keeps running
per-``(category, name)`` totals (:meth:`Tracer.totals`: calls, seconds,
self seconds), updated as each span ends or is ingested, so they stay
exact after the ring wraps.  Self time follows one nesting rule: a
span's duration is charged to the nearest open span of the *same
category* on the same thread.  The ``train`` phases therefore form one
tree whose self times partition the hot loop, and ``refresh`` spans
running inside ``cache_update`` do not split it.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.obs import clock
from repro.obs.runlog import RUN_LOG_VERSION, RunLogError, read_run_log, validate_record

__all__ = [
    "Span",
    "SpanTotal",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
    "write_trace",
    "read_trace",
    "category_summary",
    "overlap_report",
    "span_totals",
]

#: Default ring capacity: ~2 spans per update() at paper batch sizes keeps
#: hours of training; the serve layer recycles long before this fills.
DEFAULT_CAPACITY = 65536

#: Sentinel duration of a span that has not ended yet.
_OPEN = -1.0


class Span:
    """One named interval; finishes into its tracer's ring on :meth:`end`.

    Usable both explicitly (``span = tracer.start_span(...); ...;
    span.end()`` — the shape the trainer's phase plumbing needs) and as a
    context manager (``with tracer.start_span(...):``).  Entering restarts
    the clock, so a span can be made ahead of the block it times and
    handed down as a context (the sampler passes one to
    :func:`~repro.core.strategies.score_and_select`).  ``end`` is
    idempotent: the first call stamps the duration and records the span,
    later calls return the same duration.
    """

    __slots__ = (
        "name", "category", "start", "duration", "pid", "tid", "args",
        "_tracer", "_parent", "_nested",
    )

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        pid: int,
        tid: int,
        args: Mapping[str, Any] | None,
        tracer: "Tracer | None",
    ) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.duration = _OPEN
        self.pid = pid
        self.tid = tid
        self.args = args
        self._tracer = tracer
        #: The enclosing open span of the same category on this thread.
        self._parent: Span | None = None
        #: Seconds of same-category spans that ended inside this one.
        self._nested = 0.0

    def end(self) -> float:
        """Stamp the duration, record the span, return the duration."""
        if self.duration == _OPEN:
            self.duration = clock.monotonic() - self.start
            tracer, self._tracer = self._tracer, None
            if tracer is not None:
                tracer._close(self)
        return self.duration

    def __enter__(self) -> "Span":
        self.start = clock.monotonic()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end()

    def as_record(self) -> dict[str, Any]:
        """The span as a schema-v2 run-log ``span`` record."""
        record: dict[str, Any] = {
            "type": "span",
            "version": RUN_LOG_VERSION,
            "name": self.name,
            "cat": self.category,
            "ts": self.start,
            "dur": max(0.0, self.duration),
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            record["args"] = dict(self.args)
        return record

    def __repr__(self) -> str:
        state = "open" if self.duration == _OPEN else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, cat={self.category!r}, {state})"


class SpanTotal(NamedTuple):
    """Running totals of one ``(category, name)``."""

    calls: int
    seconds: float
    self_seconds: float


class Tracer:
    """A preallocated ring buffer of finished spans, plus running totals.

    ``capacity`` bounds memory up front; once full, the oldest span is
    overwritten and :attr:`dropped` counts the loss (a truncated-head
    timeline is still a valid timeline — the alternative, unbounded
    growth, is not an option inside forked workers).  The per-name
    totals of :meth:`totals` never drop anything.  Thread-safe on the
    recording side: the serve handler traces from worker threads.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: list[Span | None] = [None] * self.capacity
        self._next = 0
        self._count = 0
        self._lock = threading.Lock()
        #: Innermost open span per (thread, category): the nesting stack's top.
        self._open: dict[tuple[int, str], Span] = {}
        #: (category, name) -> [calls, seconds, self seconds].
        self._totals: dict[tuple[str, str], list[float]] = {}
        #: Spans overwritten because the ring was full.
        self.dropped = 0

    def start_span(
        self,
        name: str,
        category: str = "",
        args: Mapping[str, Any] | None = None,
    ) -> Span:
        """An open span starting now; finish it with ``end()``/``with``."""
        tid = threading.get_native_id()
        span = Span(name, category, clock.monotonic(), os.getpid(), tid, args, self)
        key = (tid, category)
        span._parent = self._open.get(key)
        self._open[key] = span
        return span

    def _close(self, span: Span) -> None:
        """Pop an ended span off its nesting stack and record it."""
        key = (span.tid, span.category)
        parent, span._parent = span._parent, None
        if self._open.get(key) is span:
            if parent is None:
                del self._open[key]
            else:
                self._open[key] = parent
        if parent is not None:
            parent._nested += span.duration
        self._record(span, span.duration - span._nested)

    def _record(self, span: Span, self_seconds: float) -> None:
        with self._lock:
            if self._count == self.capacity:
                self.dropped += 1
            else:
                self._count += 1
            self._ring[self._next] = span
            self._next = (self._next + 1) % self.capacity
            total = self._totals.get((span.category, span.name))
            if total is None:
                total = self._totals[(span.category, span.name)] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += span.duration
            total[2] += self_seconds

    def ingest(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Fold already-finished span records into the ring.

        The cross-process merge: refresh workers drain their local rings
        into ``ShardResult.spans`` and the parent's sampler calls this.
        Self time nests within the ingested batch only.  Returns the
        number of spans folded in.
        """
        batch = list(records)
        for record, self_seconds in zip(
            batch, _self_seconds(batch, by_category=True)
        ):
            span = Span(
                str(record["name"]),
                str(record.get("cat", "")),
                float(record["ts"]),
                int(record.get("pid", 0)),
                int(record.get("tid", 0)),
                record.get("args"),
                None,
            )
            span.duration = float(record["dur"])
            self._record(span, self_seconds)
        return len(batch)

    def __len__(self) -> int:
        return self._count

    def totals(self) -> dict[tuple[str, str], SpanTotal]:
        """Every ``(category, name)``'s calls, seconds and self seconds.

        Counts every span that ended or was ingested since construction,
        including those the ring has since dropped.
        """
        with self._lock:
            return {
                key: SpanTotal(int(calls), seconds, self_seconds)
                for key, (calls, seconds, self_seconds) in self._totals.items()
            }

    def records(self) -> list[dict[str, Any]]:
        """Finished spans as record dicts, oldest first (ring preserved)."""
        with self._lock:
            if self._count < self.capacity:
                spans = self._ring[: self._count]
            else:
                spans = self._ring[self._next :] + self._ring[: self._next]
        return [span.as_record() for span in spans if span is not None]

    def drain(self) -> list[dict[str, Any]]:
        """:meth:`records`, then reset the ring (the worker ship path)."""
        with self._lock:
            if self._count < self.capacity:
                spans = self._ring[: self._count]
            else:
                spans = self._ring[self._next :] + self._ring[: self._next]
            self._ring = [None] * self.capacity
            self._next = 0
            self._count = 0
        return [span.as_record() for span in spans if span is not None]

    def __repr__(self) -> str:
        return (
            f"Tracer(capacity={self.capacity}, spans={self._count}, "
            f"dropped={self.dropped})"
        )


# -- trace files (JSONL span records) ------------------------------------------
def write_trace(path: str | Path, records: Iterable[Mapping[str, Any]]) -> Path:
    """Write span records as a JSONL trace file, ordered by start time.

    Every record is validated against the run-log schema before anything
    is written, so a trace file is always fully ``repro trace``-readable.
    """
    ordered = sorted(
        (validate_record(dict(record)) for record in records),
        key=lambda r: (r["ts"], -r["dur"]),
    )
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        for record in ordered:
            json.dump(record, handle, separators=(",", ":"), sort_keys=True)
            handle.write("\n")
    return out


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a trace file's span records (raises on non-span records).

    A trace file is a run log holding only ``span`` records; reading one
    through :func:`~repro.obs.runlog.read_run_log` keeps the validation
    in one place.
    """
    records = read_run_log(path)
    wrong = [r["type"] for r in records if r.get("type") != "span"]
    if wrong:
        raise RunLogError(
            f"{path}: expected only span records, found {sorted(set(wrong))} "
            "(a run log is not a trace file — pass train --trace-out output)"
        )
    return records


# -- Chrome trace-event export -------------------------------------------------
def chrome_trace(records: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Span records as a Chrome trace-event JSON object.

    Complete ("ph": "X") events with microsecond timestamps rebased to
    the earliest span, loadable in Perfetto / ``chrome://tracing``.
    Process/thread ids pass through, so worker shard tasks appear on
    their own rows under their own pid — overlap with the trainer's
    gradient/optimizer spans is directly visible.
    """
    origin = min((float(r["ts"]) for r in records), default=0.0)
    events = []
    for record in sorted(records, key=lambda r: (r["ts"], -r["dur"])):
        event: dict[str, Any] = {
            "name": record["name"],
            "cat": record.get("cat") or "default",
            "ph": "X",
            "ts": (float(record["ts"]) - origin) * 1e6,
            "dur": float(record["dur"]) * 1e6,
            "pid": int(record.get("pid", 0)),
            "tid": int(record.get("tid", 0)),
        }
        args = record.get("args")
        if args:
            event["args"] = dict(args)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj: object) -> None:
    """Check an object against the trace-event schema; raises ValueError.

    Covers what Perfetto actually requires of complete events: the
    ``traceEvents`` array, and per event — name/cat strings, phase
    ``"X"``, non-negative numeric ``ts``/``dur``, integer ``pid``/``tid``.
    The CI obs-smoke job runs this over the exported file.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        raise ValueError("chrome trace must be {'traceEvents': [...], ...}")
    for i, event in enumerate(obj["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} must be an object")
        for field in ("name", "cat"):
            if not isinstance(event.get(field), str):
                raise ValueError(f"{where}.{field} must be a string")
        if event.get("ph") != "X":
            raise ValueError(f"{where}.ph must be 'X' (complete event)")
        for field in ("ts", "dur"):
            value = event.get(field)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{where}.{field} must be a number")
            if value < 0:
                raise ValueError(f"{where}.{field} must be >= 0, got {value}")
        for field in ("pid", "tid"):
            if isinstance(event.get(field), bool) or not isinstance(
                event.get(field), int
            ):
                raise ValueError(f"{where}.{field} must be an integer")


# -- summary analysis ----------------------------------------------------------
def category_summary(
    records: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Per-category span counts, total seconds and *self* seconds.

    Self time carves each span's direct children (same pid/tid, nested
    inside it) out of its own duration — so ``cache_update`` does not
    double-count the ``refresh_side`` spans running inside it.  Rows are
    sorted by self seconds, descending.
    """
    self_seconds = _self_seconds(records)
    totals: dict[str, dict[str, float]] = {}
    for record, self_dur in zip(records, self_seconds):
        cat = str(record.get("cat") or "default")
        row = totals.setdefault(cat, {"spans": 0, "seconds": 0.0, "self_seconds": 0.0})
        row["spans"] += 1
        row["seconds"] += float(record["dur"])
        row["self_seconds"] += self_dur
    return [
        {"category": cat, **row}
        for cat, row in sorted(
            totals.items(), key=lambda kv: -kv[1]["self_seconds"]
        )
    ]


def span_totals(
    records: Sequence[Mapping[str, Any]],
) -> dict[tuple[str, str], SpanTotal]:
    """Per-``(category, name)`` calls, seconds and self seconds.

    The offline twin of :meth:`Tracer.totals`, with the same nesting
    rule: a span's duration is carved out of the nearest enclosing span
    of its own category on its thread.  Within one category the self
    seconds partition that category's outermost spans.
    """
    totals: dict[tuple[str, str], SpanTotal] = {}
    for record, self_dur in zip(records, _self_seconds(records, by_category=True)):
        key = (str(record.get("cat", "")), str(record["name"]))
        calls, seconds, self_seconds = totals.get(key, (0, 0.0, 0.0))
        totals[key] = SpanTotal(
            calls + 1, seconds + float(record["dur"]), self_seconds + self_dur
        )
    return totals


def _self_seconds(
    records: Sequence[Mapping[str, Any]], *, by_category: bool = False
) -> list[float]:
    """Each record's duration minus its direct children's, input order.

    Children nest on the same pid/tid, and with ``by_category`` also in
    the same category only.
    """
    self_dur = [float(r["dur"]) for r in records]
    by_thread: dict[tuple[object, ...], list[int]] = {}
    for i, record in enumerate(records):
        key: tuple[object, ...] = (
            int(record.get("pid", 0)), int(record.get("tid", 0))
        )
        if by_category:
            key += (record.get("cat", ""),)
        by_thread.setdefault(key, []).append(i)
    for indices in by_thread.values():
        # Sort by start, longest first on ties, and keep a stack of the
        # currently-open ancestry: each span's duration is charged to its
        # *direct* parent only, so grandchildren never double-subtract.
        indices.sort(key=lambda i: (records[i]["ts"], -records[i]["dur"]))
        stack: list[int] = []
        for i in indices:
            start = float(records[i]["ts"])
            end = start + float(records[i]["dur"])
            while stack and _end_of(records[stack[-1]]) <= start:
                stack.pop()
            if stack and end <= _end_of(records[stack[-1]]) + 1e-9:
                self_dur[stack[-1]] -= float(records[i]["dur"])
            stack.append(i)
    return [max(0.0, d) for d in self_dur]


def _end_of(record: Mapping[str, Any]) -> float:
    return float(record["ts"]) + float(record["dur"])


def _merge_intervals(
    intervals: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def overlap_report(
    records: Sequence[Mapping[str, Any]],
    *,
    worker_category: str = "refresh_worker",
    worker_name: str = "shard_task",
    behind: tuple[str, ...] = ("gradients", "optimizer"),
) -> dict[str, float] | None:
    """How much worker refresh time ran *behind* the trainer's step.

    Intersects every worker ``shard_task`` span with the union of the
    trainer's ``gradients``/``optimizer`` intervals: time inside the
    union is refresh latency the overlap pipeline hid; time outside is
    latency the trainer (potentially) waited on.  Returns ``None`` when
    either side of the comparison is absent (no workers traced, or no
    step spans), else::

        {"worker_seconds", "step_seconds", "hidden_seconds", "hidden_pct"}

    Deterministic interval arithmetic — unit-tested on synthetic spans,
    demonstrated on real ``--refresh-workers 2`` runs by the CI smoke
    job.
    """
    workers = [
        (float(r["ts"]), _end_of(r))
        for r in records
        if r.get("cat") == worker_category and r.get("name") == worker_name
    ]
    step = _merge_intervals(
        [
            (float(r["ts"]), _end_of(r))
            for r in records
            if r.get("cat") == "train" and r.get("name") in behind
        ]
    )
    if not workers or not step:
        return None
    worker_seconds = sum(end - start for start, end in workers)
    hidden = 0.0
    for w_start, w_end in workers:
        for s_start, s_end in step:
            lo, hi = max(w_start, s_start), min(w_end, s_end)
            if hi > lo:
                hidden += hi - lo
    return {
        "worker_seconds": worker_seconds,
        "step_seconds": sum(end - start for start, end in step),
        "hidden_seconds": hidden,
        "hidden_pct": 100.0 * hidden / worker_seconds if worker_seconds else 0.0,
    }
