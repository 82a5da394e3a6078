"""Unified observability: live metrics, run telemetry, exposition.

Three pieces, designed to be threaded through every hot layer of the
reproduction without touching its semantics:

* :class:`~repro.obs.registry.MetricsRegistry` — numpy-backed counters,
  gauges and fixed-bucket histograms with Prometheus text and JSON
  exporters.  Disabled-by-default: hot paths hold no registry unless one
  is attached, so an uninstrumented run executes the exact seed code
  path.
* :mod:`~repro.obs.runlog` — a JSONL run log (one validated record per
  epoch) written by the trainer's ``metrics_out`` hook and consumed by
  ``repro metrics`` and the CI schema check.
* :mod:`~repro.obs.summary` — the run-log summariser behind
  ``repro metrics``.
* :mod:`~repro.obs.trace` — disabled-by-default span tracing with
  cross-process collection (forked refresh workers ship spans back on
  their results), running per-name totals (the trainer's phase
  seconds), Chrome trace-event export and the ``repro trace`` summary
  analysis; all clock reads route through
  :mod:`~repro.obs.clock`, the single sanctioned reader RPL005 enforces.
"""

from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)
from repro.obs.runlog import (
    EPOCH_REQUIRED_FIELDS,
    RUN_LOG_VERSION,
    RunLogError,
    RunLogWriter,
    read_run_log,
    read_run_log_lenient,
    validate_record,
)
from repro.obs.summary import epoch_rows, phase_totals, run_overview
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

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "EPOCH_REQUIRED_FIELDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RUN_LOG_VERSION",
    "RunLogError",
    "RunLogWriter",
    "Sample",
    "Span",
    "SpanTotal",
    "Tracer",
    "category_summary",
    "chrome_trace",
    "epoch_rows",
    "overlap_report",
    "phase_totals",
    "read_run_log",
    "read_run_log_lenient",
    "read_trace",
    "run_overview",
    "span_totals",
    "validate_chrome_trace",
    "validate_record",
    "write_trace",
]
