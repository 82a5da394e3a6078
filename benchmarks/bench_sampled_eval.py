"""Extension (X10) — sampled ranking evaluation on million-entity graphs.

Full filtered ranking scores every query against all ``E`` entities —
O(E) per query, which is why `repro evaluate` and per-epoch validation
die at the million-entity scale the parallel-refresh work trains at.
The sampled evaluator (:mod:`repro.eval.sampled`) ranks each query
against ``K`` filtered random negatives plus the true entity instead.
This benchmark pins both halves of that trade:

1. **X10a — agreement at growing K** (small graph, full ranking still
   feasible): sampled MRR/Hits@10 against the full filtered protocol.
   At ``K >= E - 1`` the sampled evaluator must reproduce the full
   ranks *bit-identically* (the pool-enumeration path); at smaller K
   the metrics sit above the full values and converge from above.
2. **X10b — throughput at E = 1M, K = 500** (full ranking intractable):
   wall time of the sampled evaluation over the whole test split vs the
   *extrapolated* cost of full ranking, measured on a few probe queries.
   The sampled protocol must be >= 20x faster than the extrapolated full
   cost.

Run under pytest (records wall time, writes benchmarks/out/X10.txt)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sampled_eval.py --benchmark-only

or as a plain script (CI smoke: smaller graph, relaxed assertions)::

    PYTHONPATH=src python benchmarks/bench_sampled_eval.py --smoke
"""

import argparse
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bench.tables import format_table
from repro.data.dataset import KGDataset
from repro.eval.ranking import link_prediction, rank_scores
from repro.eval.sampled import sampled_link_prediction
from repro.models import make_model
from repro.utils.rng import ensure_rng

SEED = 0
DIM = 16
#: The ISSUE's headline operating point.
N_ENTITIES = 1_000_000
N_TRAIN = 500_000
N_TEST = 2_000
N_RELATIONS = 32
NUM_NEGATIVES = 500
#: Queries used to extrapolate the full-ranking cost (each one scores
#: the full [1, E] row twice — tail side and head side).
PROBE_QUERIES = 4
#: Acceptance floor for the sampled-vs-full speedup at the headline point.
MIN_SPEEDUP = 20.0

#: Small-graph operating point for the agreement arm.
AGREE_ENTITIES = 2_000
AGREE_TRAIN = 8_000
AGREE_TEST = 500

OUT_PATH = Path(__file__).parent / "out" / "X10.txt"


@dataclass(frozen=True)
class _AnonVocab:
    """Entity/relation counts without the label machinery.

    :meth:`Vocabulary.anonymous` materialises a million label strings and
    two lookup dicts; the evaluator only ever asks the vocabulary for its
    sizes, so the benchmark skips that cost.
    """

    n_entities: int
    n_relations: int


def synthetic_graph(n_entities, n_train, n_test, n_relations=N_RELATIONS,
                    seed=SEED):
    """A uniform-random KG sized for timing (not for model quality)."""
    rng = ensure_rng(seed)

    def draw(n):
        triples = np.empty((n, 3), dtype=np.int64)
        triples[:, 0] = rng.integers(0, n_entities, size=n)
        triples[:, 1] = rng.integers(0, n_relations, size=n)
        triples[:, 2] = rng.integers(0, n_entities, size=n)
        return triples

    return KGDataset(
        f"synthetic-{n_entities}",
        _AnonVocab(n_entities, n_relations),
        draw(n_train),
        np.empty((0, 3), dtype=np.int64),
        draw(n_test),
    )


# -- X10a: agreement with full ranking at growing K ----------------------------
def run_agreement_benchmark(n_entities=AGREE_ENTITIES, n_train=AGREE_TRAIN,
                            n_test=AGREE_TEST):
    """Returns (rows, exact-at-full-pool flag)."""
    dataset = synthetic_graph(n_entities, n_train, n_test)
    model = make_model(
        "TransE", dataset.n_entities, dataset.n_relations, DIM, rng=SEED
    )
    full = link_prediction(model, dataset, "test")
    rows = []
    exact = False
    for k in (10, 100, n_entities - 1):
        result = sampled_link_prediction(
            model, dataset, "test", num_negatives=k, seed=SEED
        )
        is_exact = np.array_equal(result.ranks, full.ranks)
        exact = exact or (k == n_entities - 1 and is_exact)
        rows.append((
            f"sampled K={k}",
            f"{result.mrr:.4f}",
            f"{result.hits(10):.4f}",
            "bit-identical" if is_exact else f"+{result.mrr - full.mrr:.4f}",
        ))
    rows.append(("full ranking", f"{full.mrr:.4f}", f"{full.hits(10):.4f}", "-"))
    return rows, exact


# -- X10b: throughput at the million-entity point ------------------------------
def probe_full_ranking_cost(model, dataset, probes=PROBE_QUERIES):
    """Extrapolated seconds for full ranking of the whole split.

    Scores ``probes`` queries on each side against all entities and
    scales the per-query cost to ``2 * len(test)`` queries.  Filter-mask
    lookup cost is excluded, which only flatters the full protocol — the
    speedup floor stays honest.
    """
    triples = dataset.test[:probes]
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    started = time.perf_counter()
    rank_scores(model.score_all_tails(h, r), t, None)
    rank_scores(model.score_all_heads(r, t), h, None)
    per_query = (time.perf_counter() - started) / (2 * probes)
    return per_query * 2 * len(dataset.test)


def run_scale_benchmark(n_entities=N_ENTITIES, n_train=N_TRAIN, n_test=N_TEST,
                        num_negatives=NUM_NEGATIVES, probes=PROBE_QUERIES):
    """Returns (rows, sampled-vs-extrapolated-full speedup)."""
    dataset = synthetic_graph(n_entities, n_train, n_test)
    model = make_model(
        "TransE", dataset.n_entities, dataset.n_relations, DIM, rng=SEED
    )
    n_queries = 2 * n_test

    started = time.perf_counter()
    sampled_link_prediction(
        model, dataset, "test", num_negatives=num_negatives, seed=SEED
    )
    sampled_seconds = time.perf_counter() - started

    full_seconds = probe_full_ranking_cost(model, dataset, probes=probes)
    speedup = full_seconds / sampled_seconds
    rows = [
        (
            f"sampled K={num_negatives}",
            f"{n_queries:,}",
            f"{sampled_seconds:.2f}",
            f"{n_queries / sampled_seconds:,.0f}",
            f"{speedup:.1f}x",
        ),
        (
            "full (extrapolated)",
            f"{n_queries:,}",
            f"{full_seconds:.2f}",
            f"{n_queries / full_seconds:,.1f}",
            "1.0x",
        ),
    ]
    return rows, speedup


def render(agree_rows, scale_rows, n_entities=N_ENTITIES,
           agree_entities=AGREE_ENTITIES) -> str:
    agree_table = format_table(
        ("protocol", "MRR", "Hits@10", "vs full"),
        agree_rows,
        title=(
            f"X10a: sampled vs full filtered ranking "
            f"(TransE d{DIM}, E={agree_entities:,}; K >= E-1 must be exact)"
        ),
    )
    scale_table = format_table(
        ("protocol", "queries", "seconds", "queries/s", "speedup"),
        scale_rows,
        title=(
            f"X10b: evaluation cost at E={n_entities:,} "
            f"(TransE d{DIM}; full ranking extrapolated from "
            f"{PROBE_QUERIES} probe queries per side)"
        ),
    )
    return agree_table + "\n\n" + scale_table


def test_sampled_eval(benchmark, report):
    from conftest import run_once

    def run():
        agree_rows, exact = run_agreement_benchmark()
        scale_rows, speedup = run_scale_benchmark()
        return agree_rows, exact, scale_rows, speedup

    agree_rows, exact, scale_rows, speedup = run_once(benchmark, run)
    report("X10", render(agree_rows, scale_rows))
    assert exact, "K >= E-1 did not reproduce full ranking bit-identically"
    assert speedup >= MIN_SPEEDUP, (
        f"sampled eval only {speedup:.1f}x vs extrapolated full ranking "
        f"(need >= {MIN_SPEEDUP}x)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller graph, relaxed assertions (CI-friendly)",
    )
    args = parser.parse_args()
    if args.smoke:
        agree_rows, exact = run_agreement_benchmark(
            n_entities=500, n_train=2_000, n_test=200
        )
        scale_rows, speedup = run_scale_benchmark(
            n_entities=100_000, n_train=50_000, n_test=500,
            num_negatives=200, probes=2,
        )
        print(render(agree_rows, scale_rows, n_entities=100_000,
                     agree_entities=500))
        assert exact, "K >= E-1 did not reproduce full ranking bit-identically"
        assert speedup >= 5.0, f"sampled eval only {speedup:.1f}x in smoke mode"
        print(f"smoke ok: exact at full pool, {speedup:.1f}x at E=100k")
        return 0
    agree_rows, exact = run_agreement_benchmark()
    scale_rows, speedup = run_scale_benchmark()
    text = render(agree_rows, scale_rows)
    print(text)
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"written to {OUT_PATH}")
    assert exact, "K >= E-1 did not reproduce full ranking bit-identically"
    assert speedup >= MIN_SPEEDUP, f"only {speedup:.1f}x (need >= {MIN_SPEEDUP}x)"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
