"""Extension (X8) — observability overhead on the update() hot loop.

The metrics registry and the span tracer are disabled by default and
every hot-path call site is ``None``-guarded; :mod:`repro.obs` must
therefore be free when off and near-free when on.  This benchmark
measures full ``NSCachingSampler`` ``update()`` throughput at the paper
defaults (N1 = N2 = 50, batch 1024) in four configurations:

1. **off** — nothing attached (the seed configuration, bit-identical to
   it by the ``tests/train/test_trainer_trace.py`` contract);
2. **metrics** — a :class:`~repro.obs.registry.MetricsRegistry`
   attached to the sampler, folding per-refresh counters on every batch;
3. **tracer** — a :class:`~repro.obs.trace.Tracer` attached to the
   sampler, recording a ``refresh_side`` span per cache refresh;
4. **metrics + tracer + span** — both, plus a trainer-style ``train``
   span around each update (what ``--metrics-out`` costs, since it
   attaches a tracer).

The passes are interleaved (off, metrics, tracer, all, off, ...) so
thermal drift and allocator state hit every arm equally, and the median
pass is compared.  The metrics arm and the tracer arm must each stay
within ``MAX_OVERHEAD`` (3%) of off; the off arm is the seed path
itself, so no separate seed assertion is needed.  Run under pytest
(records wall time, writes benchmarks/out/X8.txt)::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py --benchmark-only

or as a plain script (CI smoke: tiny dataset, report-only)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke
"""

import argparse
import statistics
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import build_model
from repro.bench.tables import format_table
from repro.core.nscaching import NSCachingSampler
from repro.data.benchmarks import fb15k_like
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer

SEED = 0
SCALE = 0.3
DIM = 32
PAPER_N1 = PAPER_N2 = 50
PAPER_BATCH = 1024
#: Interleaved pass rounds (one pass per arm each); the median per-arm
#: pass is compared.
PASS_PAIRS = 5
#: The metrics arm and the tracer arm may each cost at most this
#: fraction over off.
MAX_OVERHEAD = 0.03
GATED_ARMS = ("metrics", "tracer")

OUT_PATH = Path(__file__).parent / "out" / "X8.txt"


def _make_sampler(dataset, n1, n2):
    model = build_model("TransE", dataset, dim=DIM, seed=SEED)
    sampler = NSCachingSampler(cache_size=n1, candidate_size=n2)
    sampler.bind(model, dataset, rng=SEED)
    return sampler


def _one_pass(sampler, dataset, rows, batch_size, *, tracer=None):
    """Seconds for one full pass of update() over the training set."""
    n_batches = 0
    start_time = time.perf_counter()
    for start in range(0, len(dataset.train) - batch_size + 1, batch_size):
        indices = np.arange(start, start + batch_size)
        batch = dataset.train[indices]
        if tracer is not None:
            with tracer.start_span("cache_update", "train"):
                sampler.update(batch, batch, rows.take(indices))
        else:
            sampler.update(batch, batch, rows.take(indices))
        n_batches += 1
    return time.perf_counter() - start_time, n_batches * batch_size


def run_benchmark(scale=SCALE, batch_size=PAPER_BATCH, n1=PAPER_N1,
                  n2=PAPER_N2, pass_pairs=PASS_PAIRS):
    """Returns (table rows, {arm: overhead fraction vs off})."""
    dataset = fb15k_like(seed=SEED, scale=scale)
    batch_size = min(batch_size, len(dataset.train))
    registry = MetricsRegistry()
    tracer = Tracer()
    # arm -> (sampler.metrics, sampler.tracer, trainer-style span tracer)
    arms = {
        "off": (None, None, None),
        "metrics": (registry, None, None),
        "tracer": (None, tracer, None),
        "metrics + tracer + span": (registry, tracer, tracer),
    }
    passes: dict[str, list[float]] = {name: [] for name in arms}

    sampler = _make_sampler(dataset, n1, n2)
    rows = sampler.precompute_rows(dataset.train)
    try:
        # Warm-up: initialise both cache sides before any timed pass.
        first = np.arange(min(batch_size, len(dataset.train)))
        sampler.update(dataset.train[first], dataset.train[first],
                       rows.take(first))
        for _ in range(pass_pairs):
            for name, (metrics, sampler_tracer, span_tracer) in arms.items():
                sampler.metrics = metrics
                sampler.tracer = sampler_tracer
                seconds, n = _one_pass(sampler, dataset, rows, batch_size,
                                       tracer=span_tracer)
                passes[name].append(n / seconds)
    finally:
        sampler.close()

    off = statistics.median(passes["off"])
    table_rows, overheads = [], {}
    for name, throughputs in passes.items():
        throughput = statistics.median(throughputs)
        overheads[name] = off / throughput - 1.0
        table_rows.append(
            (name, round(throughput), f"{100 * overheads[name]:+.2f}%")
        )
    return table_rows, overheads


def render(table_rows, batch_size=PAPER_BATCH, pass_pairs=PASS_PAIRS) -> str:
    return format_table(
        ("instrumentation", "update() triples/s", "overhead vs off"),
        table_rows,
        title=(
            "X8: observability overhead on the update() hot loop "
            f"(TransE d{DIM}, N1=N2={PAPER_N1}, batch {batch_size}, "
            f"median of {pass_pairs} interleaved passes per arm)"
        ),
    )


def check_overheads(overheads) -> None:
    """The metrics and tracer arms each stay within the budget of off."""
    for arm in GATED_ARMS:
        assert overheads[arm] <= MAX_OVERHEAD, (
            f"{arm}-on costs {100 * overheads[arm]:.2f}% on update() "
            f"(budget {100 * MAX_OVERHEAD:.0f}%)"
        )


def test_obs_overhead(benchmark, report):
    from conftest import run_once

    table_rows, overheads = run_once(benchmark, lambda: run_benchmark())
    report("X8", render(table_rows))
    check_overheads(overheads)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dataset, report-only (CI-friendly: tiny workloads make "
             "percent overheads pure noise)",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke = {"batch_size": 256, "pass_pairs": 2}
        table_rows, overheads = run_benchmark(scale=0.1, **smoke)
        print(render(table_rows, **smoke))
        measured = ", ".join(
            f"{arm}-on {100 * overheads[arm]:+.2f}%" for arm in GATED_ARMS
        )
        print(f"smoke ok: {measured} (report-only at smoke scale)")
        return 0
    table_rows, overheads = run_benchmark()
    text = render(table_rows)
    print(text)
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"written to {OUT_PATH}")
    check_overheads(overheads)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
