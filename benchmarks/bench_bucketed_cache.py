"""Extension (X6) — memory-bounded bucketed array cache trade-offs.

The paper's §VI names hashing as the answer to cache memory at
million-scale KGs.  ``ArrayNegativeCache(n_buckets=...)`` runs that bucket
scheme on the preallocated array engine; this benchmark measures what bounding the
memory costs and buys at the paper's defaults (N1 = N2 = 50, batch 1024):

1. **memory vs precision** — allocated bytes, load factor and the
   fraction of colliding keys across bucket budgets, against the
   one-row-per-key layout's ``O(n_keys * N1)`` allocation.  The
   allocation is asserted to depend only on ``n_buckets``, never on the
   number of distinct keys.
2. **update() throughput** — full ``NSCachingSampler.update()`` (fused
   refresh, TransE scoring) with bucket rows vs one row per key.  The
   bucket translation adds one fancy index per batch,
   so throughput must stay within ~1.2x of unbounded.

Run under pytest (records wall time, writes benchmarks/out/X6.txt)::

    PYTHONPATH=src python -m pytest benchmarks/bench_bucketed_cache.py --benchmark-only

or as a plain script (CI smoke: tiny dataset, relaxed assertion)::

    PYTHONPATH=src python benchmarks/bench_bucketed_cache.py --smoke
"""

import argparse
import time

import numpy as np

from repro.bench.harness import build_model
from repro.bench.tables import format_table
from repro.core.array_cache import ArrayNegativeCache
from repro.core.nscaching import NSCachingSampler
from repro.data.benchmarks import fb15k_like
from repro.data.keyindex import BucketIndex, TripleKeyIndex

SEED = 0
SCALE = 0.3
DIM = 32
#: The paper-default setting the throughput assertion is pinned to.
PAPER_N1 = PAPER_N2 = 50
PAPER_BATCH = 1024
#: Bucket budgets as fractions of the number of distinct keys.
BUCKET_FRACTIONS = (0.125, 0.25, 0.5, 1.0)
#: Budget used for the throughput arm (a realistic memory saving).
THROUGHPUT_FRACTION = 0.25
PASSES = 3


def _batches(n_triples: int, batch_size: int, passes: int):
    """Full contiguous batches over the split, ``passes`` times."""
    for _ in range(passes):
        for start in range(0, n_triples - batch_size + 1, batch_size):
            yield start


def memory_precision_rows(dataset, n1, fractions=BUCKET_FRACTIONS):
    """Allocation / collision table across bucket budgets."""
    index = TripleKeyIndex.from_triples(
        dataset.train, dataset.n_entities, dataset.n_relations
    )
    n_keys = index.head.n_keys
    rows = [("array (unbounded)", n_keys, n_keys * n1 * 8 / 1024, 0.0, 0.0)]
    for fraction in fractions:
        n_buckets = max(1, int(n_keys * fraction))
        buckets = BucketIndex(index.head, n_buckets)
        cache = ArrayNegativeCache(
            n1, dataset.n_entities, SEED, n_buckets=n_buckets
        )
        cache.attach_index(index.head)
        rows.append(
            (
                f"bucketed ({fraction:g}x keys)",
                n_buckets,
                cache.allocated_bytes() / 1024,
                round(buckets.load_factor(), 2),
                round(100.0 * buckets.n_colliding_keys() / max(n_keys, 1), 1),
            )
        )
    return rows


def assert_allocation_independent_of_keys(n1=8, n_buckets=64):
    """The memory bound: same budget, different key counts, same bytes."""
    small = fb15k_like(seed=SEED, scale=0.05)
    large = fb15k_like(seed=SEED, scale=0.2)
    allocated = []
    for dataset in (small, large):
        index = TripleKeyIndex.from_triples(
            dataset.train, dataset.n_entities, dataset.n_relations
        )
        cache = ArrayNegativeCache(
            n1, dataset.n_entities, SEED, n_buckets=n_buckets
        )
        cache.attach_index(index.head)
        allocated.append(cache.allocated_bytes())
    assert allocated[0] == allocated[1], allocated
    return allocated[0]


def update_throughput(dataset, n1, n2, batch_size, passes=PASSES,
                      n_buckets=None):
    """Triples/sec through the full fused ``update()`` with TransE."""
    model = build_model("TransE", dataset, dim=DIM, seed=SEED)
    sampler = NSCachingSampler(
        cache_size=n1, candidate_size=n2, n_buckets=n_buckets
    )
    sampler.bind(model, dataset, rng=SEED)
    rows = sampler.precompute_rows(dataset.train)
    first = np.arange(min(batch_size, len(dataset.train)))
    sampler.update(dataset.train[first], dataset.train[first], rows.take(first))

    n_triples = 0
    start_time = time.perf_counter()
    for start in _batches(len(dataset.train), batch_size, passes):
        indices = np.arange(start, start + batch_size)
        batch = dataset.train[indices]
        sampler.update(batch, batch, rows.take(indices))
        n_triples += batch_size
    return n_triples / (time.perf_counter() - start_time)


def run_benchmark(scale=SCALE, batch_size=PAPER_BATCH, n1=PAPER_N1,
                  n2=PAPER_N2, passes=PASSES):
    """Both tables; returns (memory rows, throughput rows, slowdown)."""
    dataset = fb15k_like(seed=SEED, scale=scale)
    batch_size = min(batch_size, len(dataset.train))
    memory_rows = memory_precision_rows(dataset, n1)

    index = TripleKeyIndex.from_triples(
        dataset.train, dataset.n_entities, dataset.n_relations
    )
    n_buckets = max(1, int(index.head.n_keys * THROUGHPUT_FRACTION))
    per_backend = {
        "array": update_throughput(dataset, n1, n2, batch_size, passes),
        "bucketed-array": update_throughput(
            dataset, n1, n2, batch_size, passes, n_buckets=n_buckets
        ),
    }
    slowdown = per_backend["array"] / per_backend["bucketed-array"]
    throughput_rows = [
        ("array (unbounded)", batch_size, round(per_backend["array"]), 1.0),
        (
            f"bucketed-array ({n_buckets} buckets)",
            batch_size,
            round(per_backend["bucketed-array"]),
            round(slowdown, 3),
        ),
    ]
    return memory_rows, throughput_rows, slowdown


def render(memory_rows, throughput_rows) -> str:
    memory_table = format_table(
        ("variant", "rows", "allocated (KiB)", "load factor", "colliding keys %"),
        memory_rows,
        title=(
            "X6a: bucketed-array memory vs precision (FB15K-like head cache, "
            f"N1={PAPER_N1}; allocation is O(n_buckets * N1), key-count free)"
        ),
    )
    throughput_table = format_table(
        ("backend", "batch", "update() triples/s", "slowdown vs array"),
        throughput_rows,
        title=(
            "X6b: fused update() throughput, bounded vs unbounded storage "
            f"(TransE d{DIM}, N1=N2={PAPER_N1})"
        ),
    )
    return memory_table + "\n\n" + throughput_table


def test_bucketed_cache_tradeoff(benchmark, report):
    from conftest import run_once

    def run():
        allocated = assert_allocation_independent_of_keys()
        memory_rows, throughput_rows, slowdown = run_benchmark()
        return memory_rows, throughput_rows, slowdown, allocated

    memory_rows, throughput_rows, slowdown, _ = run_once(benchmark, run)
    report("X6", render(memory_rows, throughput_rows))
    # Bounding memory must not cost the vectorised hot path: the bucket
    # translation is one fancy index per batch, everything else is the
    # shared fused-refresh machinery.
    assert slowdown <= 1.2, f"bucketed update() {slowdown:.2f}x slower than array"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dataset, relaxed assertion (CI-friendly)",
    )
    args = parser.parse_args()
    allocated = assert_allocation_independent_of_keys()
    print(f"allocation independent of key count ok ({allocated} bytes)")
    if args.smoke:
        memory_rows, throughput_rows, slowdown = run_benchmark(
            scale=0.1, batch_size=256, n1=PAPER_N1, n2=PAPER_N2, passes=2
        )
        print(render(memory_rows, throughput_rows))
        assert slowdown <= 2.0, f"bucketed update() collapsed: {slowdown:.2f}x"
        print(f"smoke ok: bucketed update() {slowdown:.2f}x of array (threshold 2x)")
        return 0
    memory_rows, throughput_rows, slowdown = run_benchmark()
    print(render(memory_rows, throughput_rows))
    assert slowdown <= 1.2, f"bucketed update() {slowdown:.2f}x slower than array"
    print(f"ok: bucketed update() within {slowdown:.2f}x of unbounded array")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
