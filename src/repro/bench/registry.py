"""The per-experiment index of DESIGN.md, as code.

Maps every paper table/figure to the benchmark file that regenerates it and
the modules it exercises, so `describe_experiments()` can print the full
reproduction map (and tests can assert the map is complete).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.tables import format_table

__all__ = ["Experiment", "EXPERIMENTS", "describe_experiments"]


@dataclass(frozen=True)
class Experiment:
    """One paper artefact and how this repository regenerates it."""

    exp_id: str
    artefact: str
    workload: str
    modules: tuple[str, ...]
    bench: str


EXPERIMENTS: dict[str, Experiment] = {
    exp.exp_id: exp
    for exp in (
        Experiment(
            "T1",
            "Table I: complexity comparison",
            "TransE; measured per-batch sampling cost and extra parameters/memory",
            ("repro.sampling", "repro.core.nscaching"),
            "benchmarks/bench_table1_complexity.py",
        ),
        Experiment(
            "T2",
            "Table II: dataset statistics",
            "the four synthetic benchmark analogues",
            ("repro.data.benchmarks",),
            "benchmarks/bench_table2_datasets.py",
        ),
        Experiment(
            "T4",
            "Table IV: link prediction, 5 scoring functions x 4 datasets",
            "Bernoulli / KBGAN(+-pretrain) / NSCaching(+-pretrain); filtered MRR/MR/Hits@10",
            ("repro.train", "repro.eval.ranking", "repro.core"),
            "benchmarks/bench_table4_link_prediction.py",
        ),
        Experiment(
            "T5",
            "Table V: triplet classification",
            "TransD & ComplEx on WN18RR-like / FB15K237-like",
            ("repro.eval.classification",),
            "benchmarks/bench_table5_triplet_classification.py",
        ),
        Experiment(
            "T6",
            "Table VI: cache contents drift (self-paced learning)",
            "FB13-like typed KG; tail-cache snapshots across epochs",
            ("repro.data.fb13", "repro.train.callbacks"),
            "benchmarks/bench_table6_selfpaced.py",
        ),
        Experiment(
            "F1",
            "Figure 1: CCDF of negative score distances",
            "Bernoulli-TransD on WN18-like; across epochs and across triples",
            ("repro.eval.ccdf",),
            "benchmarks/bench_fig1_score_distribution.py",
        ),
        Experiment(
            "F2",
            "Figures 2-3: convergence (MRR / Hits@10 vs clock time), TransD",
            "Bernoulli vs KBGAN vs NSCaching on the four datasets",
            ("repro.train.callbacks",),
            "benchmarks/bench_fig2_3_convergence_transd.py",
        ),
        Experiment(
            "F4",
            "Figures 4-5: convergence (MRR / Hits@10 vs clock time), ComplEx",
            "Bernoulli vs KBGAN vs NSCaching on the four datasets",
            ("repro.train.callbacks",),
            "benchmarks/bench_fig4_5_convergence_complex.py",
        ),
        Experiment(
            "F6",
            "Figure 6: sampling / update strategy ablations",
            "TransD on WN18-like; uniform/IS/top sampling; IS/top update",
            ("repro.core.strategies",),
            "benchmarks/bench_fig6_strategies.py",
        ),
        Experiment(
            "F7",
            "Figure 7: repeat ratio and non-zero-loss ratio vs epoch",
            "sampling-strategy exploration/exploitation balance",
            ("repro.core.stats",),
            "benchmarks/bench_fig7_exploration.py",
        ),
        Experiment(
            "F8",
            "Figure 8: changed cache elements and NZL vs epoch",
            "update-strategy exploration/exploitation balance",
            ("repro.core.stats", "repro.core.cache"),
            "benchmarks/bench_fig8_cache_updates.py",
        ),
        Experiment(
            "F9",
            "Figure 9: sensitivity to N1 and N2",
            "N1 sweep at N2 fixed; N2 sweep at N1 fixed (TransD, WN18-like)",
            ("repro.core.nscaching",),
            "benchmarks/bench_fig9_sensitivity.py",
        ),
        Experiment(
            "F10",
            "Figure 10: gradient l2 norms vs epoch",
            "Bernoulli vs NSCaching on WN18RR-like (TransD & ComplEx)",
            ("repro.train.trainer",),
            "benchmarks/bench_fig10_gradient_norms.py",
        ),
        Experiment(
            "X1",
            "Extension: memory-bounded hashed cache (paper SVI future work)",
            "quality vs bucket budget",
            ("repro.core.hashed",),
            "benchmarks/bench_ext_hashed_cache.py",
        ),
        Experiment(
            "X2",
            "Extension: self-adversarial sampling comparison",
            "RotatE-style score-weighted sampling vs NSCaching",
            ("repro.sampling.self_adversarial",),
            "benchmarks/bench_ext_self_adversarial.py",
        ),
        Experiment(
            "X3",
            "Extension: serving throughput (batched vs one-at-a-time)",
            "queries/sec and p50/p99 latency across batch sizes via repro.serve",
            ("repro.serve.engine", "repro.serve.topk"),
            "benchmarks/bench_serve_throughput.py",
        ),
        Experiment(
            "X4",
            "Extension: cache-engine throughput (array vs dict backend)",
            "gather/CE-scatter op mix and full sample+update across batch sizes and N1/N2",
            ("repro.core.array_cache", "repro.core.cache", "repro.data.keyindex"),
            "benchmarks/bench_cache_engine.py",
        ),
        Experiment(
            "X5",
            "Extension: fused score-and-select cache refresh",
            "update() ms/batch per scoring family: generic reference vs fused "
            "score_candidates kernels at N1=N2=50, batch 1024",
            ("repro.models.base", "repro.core.nscaching", "repro.core.strategies"),
            "benchmarks/bench_fused_refresh.py",
        ),
        Experiment(
            "X6",
            "Extension: memory-bounded bucketed array cache (SVI on the fast path)",
            "allocation/collision trade-off across bucket budgets and fused "
            "update() throughput vs the unbounded array backend at N1=N2=50",
            ("repro.core.bucketed", "repro.data.keyindex", "repro.core.store"),
            "benchmarks/bench_bucketed_cache.py",
        ),
        Experiment(
            "X7",
            "Extension: sharded cache row-space + multiprocess epoch refresh",
            "update() throughput over an n_shards x refresh_workers grid, "
            "including the 1-worker overhead floor of shared-memory storage",
            ("repro.parallel.plan", "repro.parallel.sharded",
             "repro.parallel.pool"),
            "benchmarks/bench_sharded_refresh.py",
        ),
        Experiment(
            "X8",
            "Extension: observability overhead on the update() hot loop",
            "update() throughput with metrics off / on / on + phase spans, "
            "interleaved passes; instrumented-on must stay within 3% of off",
            ("repro.obs.registry", "repro.core.nscaching", "repro.utils.timer"),
            "benchmarks/bench_obs_overhead.py",
        ),
        Experiment(
            "X9",
            "Extension: dirty-row parameter sync + overlapped refresh pipeline",
            "full-copy vs dirty-row publish bytes/time at growing entity "
            "counts, overlap-hidden refresh wall time, refresh_period grid",
            ("repro.parallel.dirty", "repro.parallel.pool",
             "repro.train.trainer"),
            "benchmarks/bench_async_refresh.py",
        ),
        Experiment(
            "X10",
            "Extension: sampled ranking evaluation on million-entity graphs",
            "sampled vs full filtered ranking: agreement at growing K on a "
            "small graph, eval queries/sec and speedup vs the extrapolated "
            "full-ranking cost at E=1M, K=500",
            ("repro.eval.sampled", "repro.eval.filters", "repro.models.base"),
            "benchmarks/bench_sampled_eval.py",
        ),
        Experiment(
            "X11",
            "Extension: span-tracing overhead on the update() hot loop",
            "update() throughput with tracing off / on / on + update spans, "
            "interleaved passes; tracing-on must stay within 3% of off",
            ("repro.obs.trace", "repro.core.nscaching"),
            "benchmarks/bench_trace_overhead.py",
        ),
    )
}


def describe_experiments() -> str:
    """The reproduction map as an ASCII table."""
    rows = [
        (exp.exp_id, exp.artefact, exp.bench) for exp in EXPERIMENTS.values()
    ]
    return format_table(
        ("id", "paper artefact", "regenerated by"),
        rows,
        title="NSCaching reproduction: experiment index",
    )
