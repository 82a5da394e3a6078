"""Extension (X9) — dirty-row parameter sync + overlapped refresh pipeline.

The pooled refresh (X7) keeps workers on current embeddings with one
parameter publish per batch; at million-entity scale a *full* publish is
the dominant cost and worker counts stop paying.  This benchmark pins
the two mechanisms that remove it from the critical path:

1. **X9a — sync bytes/time at growing entity counts**: a full-copy
   publish (a pool nobody marks) vs the dirty-row delta publish
   (:class:`~repro.parallel.dirty.DirtyRowTracker`) into the pool's one
   parameter mirror, with a realistic per-batch dirty set.  Per-sync
   bytes must scale with the dirty fraction — a sliver of the table at
   scale — not the table size (``tests/parallel/test_pool.py`` pins the
   byte ratio in tier-1).
2. **X9b — overlap hiding**: trainer phase seconds of the pooled
   refresh, which dispatches before the step and collects at the next
   batch, vs a synchronous arm that calls ``collect_refreshes()`` right
   after each ``update()``.  The visible refresh cost under overlap
   (dispatch + un-hidden collect wait) must be <= 50% of the
   synchronous refresh on multi-core hosts; a single-core container
   cannot hide work behind the step, so there the honest numbers are
   reported and the assertion is skipped (same gating as X7).
3. **X9c — refresh_period compounding**: ``update()`` throughput and
   per-batch sync bytes at ``refresh_period`` 1/2/4 — the lazy
   within-epoch schedule (arXiv 2010.14227) divides both by ~k on top
   of the dirty-sync win.

Run under pytest (records wall time, writes benchmarks/out/X9.txt)::

    PYTHONPATH=src python -m pytest benchmarks/bench_async_refresh.py --benchmark-only

or as a plain script (CI smoke: tiny sizes, relaxed assertions)::

    PYTHONPATH=src python benchmarks/bench_async_refresh.py --smoke
"""

import argparse
import multiprocessing as mp
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import build_model
from repro.bench.tables import format_table
from repro.core.nscaching import NSCachingSampler
from repro.data.benchmarks import fb15k_like
from repro.models import make_model
from repro.obs.registry import MetricsRegistry
from repro.parallel.pool import RefreshPool
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer
from repro.utils import usable_cpu_count

SEED = 0
SCALE = 0.3
DIM = 32
#: Embedding width of the X9a sync-cost arm (kept lean so the 1M-entity
#: table fits shared memory comfortably: 1M x 16 x 8B = 128 MiB).
SYNC_DIM = 16
#: Entity-count grid of the sync-cost arm (the ISSUE's million-entity point).
ENTITY_GRID = (50_000, 250_000, 1_000_000)
#: Rows dirtied per sync — a 1024-triple batch touches ~4 entity slots each.
DIRTY_ROWS = 4096
SYNCS = 5
PAPER_N1 = PAPER_N2 = 50
PAPER_BATCH = 1024
PERIOD_GRID = (1, 2, 4)
#: Cores needed before the >= 50% overlap-hiding assertion is meaningful.
MIN_CPUS_FOR_ASSERT = 4

OUT_PATH = Path(__file__).parent / "out" / "X9.txt"


# -- X9a: full-copy vs dirty-row publish cost ---------------------------------
def sync_cost(n_entities, *, marked, dim=SYNC_DIM, dirty_rows=DIRTY_ROWS,
              syncs=SYNCS):
    """(bytes/sync, ms/sync) of steady-state parameter publishes.

    A cache-less pool isolates the publish itself: the first (always
    full) sync is taken out of band, then each measured sync draws a
    batch-realistic dirty set and publishes.  With ``marked`` the set is
    reported through ``mark_dirty`` and the delta path ships its slices;
    a pool that is never marked re-copies every table.
    """
    model = make_model("TransE", n_entities, 16, dim, rng=SEED)
    pool = RefreshPool(
        model, {}, n_entities=n_entities, candidate_size=1,
        update_strategy="importance", seed=SEED, n_workers=1,
    )
    try:
        pool.start()
        pool.sync_params()  # first publish is full by contract
        rng = np.random.default_rng(1)

        def publish():
            entity_rows = rng.integers(0, n_entities, size=dirty_rows)
            relation_rows = rng.integers(0, 16, size=64)
            if marked:
                pool.mark_dirty("entity", entity_rows)
                pool.mark_dirty("relation", relation_rows)
            return pool.sync_params().bytes_copied

        # Untimed warm-up: a process's first np.unique call (the tracker's
        # dedup) pays a one-off lazy import worth ~100 small syncs.
        publish()
        started = time.perf_counter()
        total_bytes = sum(publish() for _ in range(syncs))
        elapsed = time.perf_counter() - started
        return total_bytes / syncs, elapsed / syncs * 1e3
    finally:
        pool.close()


def run_sync_benchmark(entity_grid=ENTITY_GRID, dim=SYNC_DIM,
                       dirty_rows=DIRTY_ROWS, syncs=SYNCS):
    """Returns (rows, worst byte ratio dirty/full across the grid)."""
    rows = []
    worst_ratio = 0.0
    for n_entities in entity_grid:
        full_bytes, full_ms = sync_cost(
            n_entities, marked=False, dim=dim,
            dirty_rows=dirty_rows, syncs=syncs,
        )
        dirty_bytes, dirty_ms = sync_cost(
            n_entities, marked=True, dim=dim,
            dirty_rows=dirty_rows, syncs=syncs,
        )
        ratio = dirty_bytes / full_bytes
        worst_ratio = max(worst_ratio, ratio)
        rows.append((
            f"{n_entities:,}",
            f"{full_bytes / 1e6:.1f}",
            f"{full_ms:.2f}",
            f"{dirty_bytes / 1e6:.3f}",
            f"{dirty_ms:.2f}",
            f"{ratio:.4f}",
        ))
    return rows, worst_ratio


# -- X9b: overlap hiding -------------------------------------------------------
class SynchronousSampler(NSCachingSampler):
    """Waits for each pooled refresh inside its own ``update()``.

    The collect wait is timed as part of the ``parallel_refresh`` phase,
    so that phase covers the whole dispatch + refresh, as a pool without
    overlap would spend it before the step.
    """

    def update(self, *args, **kwargs):
        super().update(*args, **kwargs)
        with self.tracer.start_span("parallel_refresh", "train"):
            self.collect_refreshes()


def overlap_phases(dataset, *, overlap, workers=2, epochs=2,
                   batch_size=512, n1=8, n2=8):
    """Disjoint trainer phase seconds for one pooled-refresh run."""
    model = build_model("TransE", dataset, dim=DIM, seed=SEED)
    sampler = (NSCachingSampler if overlap else SynchronousSampler)(
        cache_size=n1, candidate_size=n2, n_shards=4,
        refresh_workers=workers,
    )
    trainer = Trainer(
        model, dataset, sampler,
        TrainConfig(epochs=epochs, batch_size=batch_size, seed=SEED),
        profile=True,
    )
    try:
        trainer.run()
        return trainer.profile_report()
    finally:
        trainer.close()


def run_overlap_benchmark(scale=SCALE, epochs=2, batch_size=512):
    """Returns (rows, hidden fraction of the refresh wall time)."""
    dataset = fb15k_like(seed=SEED, scale=scale)
    batch_size = min(batch_size, len(dataset.train))
    sync = overlap_phases(
        dataset, overlap=False, epochs=epochs, batch_size=batch_size
    )
    over = overlap_phases(
        dataset, overlap=True, epochs=epochs, batch_size=batch_size
    )
    sync_refresh = sync["parallel_refresh"]
    visible = over["parallel_refresh"] + over["refresh_overlap"]
    hidden = 1.0 - visible / sync_refresh if sync_refresh > 0 else 0.0
    rows = [
        ("synchronous", f"{sync_refresh:.3f}", "0.000", "-"),
        ("overlapped", f"{over['parallel_refresh']:.3f}",
         f"{over['refresh_overlap']:.3f}", f"{hidden:.3f}"),
    ]
    return rows, hidden


# -- X9c: refresh_period compounding ------------------------------------------
def period_throughput(dataset, *, period, batch_size, n1=PAPER_N1,
                      n2=PAPER_N2, passes=2):
    """(update() triples/s, sync bytes per batch) at one refresh period."""
    model = build_model("TransE", dataset, dim=DIM, seed=SEED)
    sampler = NSCachingSampler(
        cache_size=n1, candidate_size=n2, n_shards=4, refresh_workers=2,
        refresh_period=period,
    )
    sampler.bind(model, dataset, rng=SEED)
    registry = MetricsRegistry()
    sampler.metrics = registry
    rows = sampler.precompute_rows(dataset.train)
    try:
        first = np.arange(min(batch_size, len(dataset.train)))
        sampler.update(dataset.train[first], dataset.train[first], rows.take(first))
        sampler.collect_refreshes()  # warm-up stays out of the clock
        sampler.on_epoch_start(0)

        n_triples = 0
        n_batches = 0
        start_time = time.perf_counter()
        for _ in range(passes):
            for start in range(0, len(dataset.train) - batch_size + 1, batch_size):
                indices = np.arange(start, start + batch_size)
                batch = dataset.train[indices]
                sampler.update(batch, batch, rows.take(indices))
                n_triples += batch_size
                n_batches += 1
        sampler.collect_refreshes()  # the last dispatch is part of the work
        elapsed = time.perf_counter() - start_time
        sync_bytes = registry.value("param_sync_bytes_total") or 0
        return n_triples / elapsed, sync_bytes / n_batches
    finally:
        sampler.close()


def run_period_benchmark(scale=SCALE, batch_size=PAPER_BATCH,
                         period_grid=PERIOD_GRID, n1=PAPER_N1, n2=PAPER_N2,
                         passes=2):
    """Returns (rows, throughput speedup of the largest period over k=1)."""
    dataset = fb15k_like(seed=SEED, scale=scale)
    batch_size = min(batch_size, len(dataset.train))
    rows = []
    base = None
    speedup = 0.0
    for period in period_grid:
        throughput, bytes_per_batch = period_throughput(
            dataset, period=period, batch_size=batch_size,
            n1=n1, n2=n2, passes=passes,
        )
        if base is None:
            base = throughput
        speedup = throughput / base
        rows.append((
            f"k={period}", round(throughput),
            f"{bytes_per_batch / 1e6:.3f}", round(speedup, 3),
        ))
    return rows, speedup


def render(sync_rows, overlap_rows, period_rows) -> str:
    cpus = usable_cpu_count()
    sync_table = format_table(
        ("entities", "full MB/sync", "full ms", "dirty MB/sync",
         "dirty ms", "bytes ratio"),
        sync_rows,
        title=(
            "X9a: parameter publish cost into the pool's one shared mirror, "
            "full copy vs dirty-row delta "
            f"(TransE d{SYNC_DIM}, {DIRTY_ROWS} rows dirtied per sync)"
        ),
    )
    overlap_table = format_table(
        ("pipeline", "dispatch+wait s", "collect wait s", "hidden fraction"),
        overlap_rows,
        title=(
            "X9b: refresh wall time visible to the hot loop, synchronous "
            f"vs overlapped (2 workers; host has {cpus} CPU(s) — hiding "
            "requires free cores)"
        ),
    )
    period_table = format_table(
        ("refresh period", "update() triples/s", "sync MB/batch", "speedup"),
        period_rows,
        title=(
            "X9c: lazy within-epoch refresh schedule — period k divides "
            "refresh and sync cost (dirty sync on, forked 2-worker pool)"
        ),
    )
    return sync_table + "\n\n" + overlap_table + "\n\n" + period_table


def test_async_refresh(benchmark, report):
    from conftest import run_once

    def run():
        sync_rows, ratio = run_sync_benchmark()
        overlap_rows, hidden = run_overlap_benchmark()
        period_rows, period_speedup = run_period_benchmark()
        return sync_rows, ratio, overlap_rows, hidden, period_rows, period_speedup

    sync_rows, ratio, overlap_rows, hidden, period_rows, period_speedup = (
        run_once(benchmark, run)
    )
    report("X9", render(sync_rows, overlap_rows, period_rows))
    # Delta publishes must ship a sliver of the table at scale.
    assert ratio <= 0.10, f"dirty sync ships {ratio:.1%} of full bytes"
    # Lazier schedules must not get slower.
    assert period_speedup >= 1.2, f"period {PERIOD_GRID[-1]} only {period_speedup:.2f}x"
    if usable_cpu_count() >= MIN_CPUS_FOR_ASSERT and "fork" in mp.get_all_start_methods():
        assert hidden >= 0.5, f"overlap hid only {hidden:.1%} of the refresh"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, relaxed assertions (CI-friendly)",
    )
    args = parser.parse_args()
    if args.smoke:
        sync_rows, ratio = run_sync_benchmark(
            entity_grid=(5_000, 20_000), dim=8, dirty_rows=512, syncs=2
        )
        overlap_rows, hidden = run_overlap_benchmark(
            scale=0.1, epochs=1, batch_size=256
        )
        period_rows, period_speedup = run_period_benchmark(
            scale=0.1, batch_size=256, period_grid=(1, 2), n1=8, n2=8, passes=1
        )
        print(render(sync_rows, overlap_rows, period_rows))
        assert ratio < 1.0, f"dirty sync did not reduce bytes: {ratio:.2f}"
        assert period_speedup >= 1.0, f"period slowdown: {period_speedup:.2f}x"
        print(
            f"smoke ok: dirty sync ships {ratio:.1%} of full bytes, "
            f"period 2 at {period_speedup:.2f}x, overlap hid {hidden:.1%}"
        )
        return 0
    sync_rows, ratio = run_sync_benchmark()
    overlap_rows, hidden = run_overlap_benchmark()
    period_rows, period_speedup = run_period_benchmark()
    cpus = usable_cpu_count()
    multicore = cpus >= MIN_CPUS_FOR_ASSERT and "fork" in mp.get_all_start_methods()
    if multicore:
        note = f"overlap hid {hidden:.1%} of the refresh wall time (threshold 50%)."
    else:
        note = (
            f"note: host has {cpus} CPU(s); the >= 50% overlap-hiding "
            f"assertion needs >= {MIN_CPUS_FOR_ASSERT} free cores and was "
            "skipped — with every process sharing one core the overlapped "
            "pipeline cannot run the refresh concurrently with the step, "
            "so the table above is the honest single-core measurement "
            "(the dirty-sync and period rows do not depend on cores)."
        )
    text = render(sync_rows, overlap_rows, period_rows) + "\n" + note
    print(text)
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"written to {OUT_PATH}")
    assert ratio <= 0.10, f"dirty sync ships {ratio:.1%} of full bytes"
    assert period_speedup >= 1.2, f"period only {period_speedup:.2f}x"
    if multicore:
        assert hidden >= 0.5, f"overlap hid only {hidden:.1%}"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
