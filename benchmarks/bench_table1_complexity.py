"""Table I — complexity comparison of negative sampling strategies.

The paper's Table I is analytic; here every column is *measured* on the
same TransE discriminator: extra trainable parameters, per-batch sampling
cost (sample + strategy-specific update) at two entity-set sizes, and
extra memory.  Shapes to reproduce:

* NSCaching adds zero trainable parameters; KBGAN/IGAN add a generator;
* IGAN's per-batch cost is O(|E| d): it must grow with |E| markedly
  faster than KBGAN's / NSCaching's O(N d) costs;
* lazy update (n=1) divides NSCaching's refresh cost on off-epochs.
"""

import time

import numpy as np

from repro.bench.harness import build_model
from repro.bench.tables import format_table
from repro.core.nscaching import NSCachingSampler
from repro.data.benchmarks import wn18rr_like
from repro.sampling import BernoulliSampler, IGANSampler, KBGANSampler

from conftest import BENCH_SEED, run_once

N1 = N2 = 50
BATCHES = 6
BATCH_SIZE = 256
SMALL_SCALE, LARGE_SCALE = 0.3, 1.5


def _time_sampler(make_sampler, dataset, lazy_epoch=0):
    model = build_model("TransE", dataset, dim=32, seed=BENCH_SEED)
    sampler = make_sampler()
    sampler.bind(model, dataset, rng=BENCH_SEED)
    sampler.on_epoch_start(lazy_epoch)
    rng = np.random.default_rng(0)
    # Warm-up batch excluded from timing (lazy allocations).
    batch = dataset.train[rng.integers(0, len(dataset.train), BATCH_SIZE)]
    sampler.update(batch, sampler.sample(batch))
    seconds = 0.0
    for _ in range(BATCHES):
        batch = dataset.train[rng.integers(0, len(dataset.train), BATCH_SIZE)]
        started = time.perf_counter()
        negatives = sampler.sample(batch)
        sampler.update(batch, negatives)
        seconds += time.perf_counter() - started
    per_batch_ms = seconds / BATCHES * 1000
    extra_params = (
        sampler.generator.n_parameters() if getattr(sampler, "generator", None) else 0
    )
    extra_memory = (
        sampler.cache_memory_bytes()
        if isinstance(sampler, NSCachingSampler)
        else extra_params * 8
    )
    return per_batch_ms, extra_params, extra_memory


def test_table1_complexity(benchmark, report):
    small = wn18rr_like(seed=BENCH_SEED, scale=SMALL_SCALE)
    large = wn18rr_like(seed=BENCH_SEED, scale=LARGE_SCALE)

    settings = [
        ("Bernoulli (baseline)", lambda: BernoulliSampler(), 0),
        ("KBGAN", lambda: KBGANSampler(candidate_size=N1), 0),
        ("IGAN", lambda: IGANSampler(expectation_samples=16), 0),
        (
            "NSCaching",
            lambda: NSCachingSampler(cache_size=N1, candidate_size=N2),
            0,
        ),
        (
            "NSCaching lazy n=1 (off-epoch)",
            lambda: NSCachingSampler(cache_size=N1, candidate_size=N2, lazy_epochs=1),
            1,
        ),
    ]

    def run():
        rows = []
        for label, factory, lazy_epoch in settings:
            ms_small, params, memory = _time_sampler(factory, small, lazy_epoch)
            ms_large, _, _ = _time_sampler(factory, large, lazy_epoch)
            growth = ms_large / max(ms_small, 1e-9)
            rows.append(
                (label, f"{ms_small:.2f}", f"{ms_large:.2f}", f"{growth:.2f}",
                 params, memory // 1024)
            )
        return rows

    rows = run_once(benchmark, run)
    report(
        "table1_complexity",
        format_table(
            (
                "strategy",
                f"ms/batch |E|={small.n_entities}",
                f"ms/batch |E|={large.n_entities}",
                "growth",
                "extra trainable params",
                "extra memory (KiB)",
            ),
            rows,
            title=(
                "Table I analogue: measured sampling complexity "
                f"(TransE d=32, m={BATCH_SIZE}, N1=N2={N1})"
            ),
        ),
    )
    by_label = {r[0]: r for r in rows}
    # NSCaching adds no trainable parameters; GAN methods do (Table I).
    assert by_label["NSCaching"][4] == 0
    assert by_label["KBGAN"][4] > 0
    assert by_label["IGAN"][4] > 0
    # IGAN's O(|E| d) generator cost grows with |E| faster than the
    # O(N1 d) methods (the Table I asymptotics).
    igan_growth = float(by_label["IGAN"][3])
    assert igan_growth > float(by_label["KBGAN"][3])
    assert igan_growth > float(by_label["NSCaching"][3])
    # Lazy update skips Alg. 3 on off-epochs -> cheaper than eager.
    assert float(by_label["NSCaching lazy n=1 (off-epoch)"][1]) < float(
        by_label["NSCaching"][1]
    )
