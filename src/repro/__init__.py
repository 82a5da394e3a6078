"""repro — a full reproduction of *NSCaching: Simple and Efficient Negative
Sampling for Knowledge Graph Embedding* (Zhang et al., ICDE 2019).

The package is organised around the paper's stack (see DESIGN.md):

* :mod:`repro.data` — KG datasets: containers, IO, relation statistics,
  and synthetic benchmark analogues of WN18 / WN18RR / FB15K / FB15K237;
* :mod:`repro.models` — nine scoring functions with hand-derived analytic
  gradients (TransE/H/D/R, DistMult, ComplEx, RESCAL, HolE, SimplE);
* :mod:`repro.optim` — sparse SGD / AdaGrad / Adam;
* :mod:`repro.sampling` — negative-sampling baselines (uniform, Bernoulli,
  KBGAN, IGAN, self-adversarial);
* :mod:`repro.core` — **the contribution**: NSCaching's head/tail caches
  (one array engine with an optional §VI bucket row map and an optional
  shared-memory allocator), sampling and update strategies,
  instrumentation;
* :mod:`repro.parallel` — scaling: shard plans over shared cache storage
  and epoch refreshes run on a multiprocess
  :class:`~repro.parallel.pool.RefreshPool`;
* :mod:`repro.train` — the mini-batch trainer, callbacks, pretraining and
  grid search;
* :mod:`repro.eval` — filtered link prediction (full and sampled
  protocols), triplet classification and negative-score CCDF analysis;
* :mod:`repro.bench` — the experiment registry and reporting harness that
  regenerates every table and figure;
* :mod:`repro.obs` — observability: a near-zero-overhead metrics registry
  (counters/gauges/histograms, Prometheus + JSON exposition) and the
  JSONL run log behind ``--metrics-out`` / ``repro metrics``;
* :mod:`repro.serve` — online serving: embedding snapshots, a batched
  filtered top-k engine with an LRU query cache, and a JSON HTTP API
  (``/predict``, ``/healthz``, ``/stats``, ``/metrics``) behind
  ``repro serve``.

Quickstart::

    from repro import (NSCachingSampler, TrainConfig, Trainer, TransE,
                       evaluate, wn18rr_like)

    dataset = wn18rr_like(seed=0, scale=0.5)
    model = TransE(dataset.n_entities, dataset.n_relations, dim=32, rng=0)
    sampler = NSCachingSampler(cache_size=50, candidate_size=50)
    Trainer(model, dataset, sampler, TrainConfig(epochs=40)).run()
    print(evaluate(model, dataset, "test"))
"""

from repro.core import (
    ArrayNegativeCache,
    NSCachingSampler,
    SampleStrategy,
    UpdateStrategy,
)
from repro.data import (
    BucketIndex,
    KeyIndex,
    KGDataset,
    TripleKeyIndex,
    SyntheticKGConfig,
    Vocabulary,
    fb13_like,
    fb15k237_like,
    fb15k_like,
    generate_kg,
    load_benchmark,
    wn18_like,
    wn18rr_like,
)
from repro.eval import (
    evaluate,
    link_prediction,
    per_category_link_prediction,
    sampled_link_prediction,
    triplet_classification,
)
from repro.models import (
    ComplEx,
    DistMult,
    HolE,
    KGEModel,
    RESCAL,
    RotatE,
    SimplE,
    TransD,
    TransE,
    TransH,
    TransR,
    make_model,
)
from repro.models.persistence import (
    export_snapshot,
    load_model,
    load_snapshot,
    save_model,
)
from repro.obs import MetricsRegistry, RunLogWriter, read_run_log
from repro.parallel import RefreshPool, ShardPlan
from repro.sampling import (
    BernoulliSampler,
    IGANSampler,
    KBGANSampler,
    NegativeSampler,
    SelfAdversarialSampler,
    UniformSampler,
    make_sampler,
)
from repro.serve import (
    EmbeddingSnapshot,
    PredictionEngine,
    QueryCache,
    TopKScorer,
)
from repro.train import TrainConfig, Trainer, pretrain, warm_start

__version__ = "1.0.0"

__all__ = [
    "ArrayNegativeCache",
    "BernoulliSampler",
    "BucketIndex",
    "ComplEx",
    "DistMult",
    "EmbeddingSnapshot",
    "HolE",
    "IGANSampler",
    "KBGANSampler",
    "KGDataset",
    "KGEModel",
    "KeyIndex",
    "MetricsRegistry",
    "NSCachingSampler",
    "NegativeSampler",
    "PredictionEngine",
    "QueryCache",
    "RESCAL",
    "RefreshPool",
    "RotatE",
    "RunLogWriter",
    "SampleStrategy",
    "ShardPlan",
    "SelfAdversarialSampler",
    "SimplE",
    "SyntheticKGConfig",
    "TopKScorer",
    "TrainConfig",
    "Trainer",
    "TransD",
    "TransE",
    "TransH",
    "TransR",
    "TripleKeyIndex",
    "UniformSampler",
    "UpdateStrategy",
    "Vocabulary",
    "evaluate",
    "export_snapshot",
    "fb13_like",
    "fb15k237_like",
    "fb15k_like",
    "generate_kg",
    "link_prediction",
    "load_model",
    "load_benchmark",
    "load_snapshot",
    "make_model",
    "make_sampler",
    "per_category_link_prediction",
    "pretrain",
    "read_run_log",
    "sampled_link_prediction",
    "save_model",
    "triplet_classification",
    "warm_start",
    "wn18_like",
    "wn18rr_like",
]
