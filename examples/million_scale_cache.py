"""Memory-bounded caching: the paper's future-work direction, runnable.

Section VI of the paper flags cache memory as the blocker at million-scale
and names hashing as future work.  This example compares the exact-key
cache against hashed caches with shrinking bucket budgets on the FB15K
analogue, reporting cache memory alongside link-prediction quality — the
trade-off a million-scale deployment would tune.

Run with:  python examples/million_scale_cache.py
"""

from repro import TrainConfig, Trainer, TransE, evaluate, fb15k_like
from repro.core.nscaching import NSCachingSampler


def main() -> None:
    dataset = fb15k_like(seed=0, scale=0.3)
    print(f"dataset {dataset.name}: {dataset.summary()}\n")
    config = TrainConfig(
        epochs=25, batch_size=256, learning_rate=0.01, margin=2.0, seed=0
    )

    settings = [("exact keys", None)] + [
        (f"hashed {buckets} buckets", buckets)
        for buckets in (1024, 128, 16)
    ]
    print(f"{'cache variant':22s} {'memory (KiB)':>12s} {'MRR':>8s} {'Hits@10':>8s}")
    for label, n_buckets in settings:
        model = TransE(dataset.n_entities, dataset.n_relations, dim=32, rng=0)
        sampler = NSCachingSampler(
            cache_size=30, candidate_size=30, n_buckets=n_buckets
        )
        Trainer(model, dataset, sampler, config).run()
        metrics = evaluate(model, dataset, "test")
        memory_kib = sampler.cache_memory_bytes() / 1024
        print(
            f"{label:22s} {memory_kib:12.0f} {metrics['mrr']:8.4f} "
            f"{metrics['hits@10']:8.4f}"
        )


if __name__ == "__main__":
    main()
