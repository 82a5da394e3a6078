"""Shared experiment runners used by every benchmark.

The paper tunes hyper-parameters once per (scoring function, dataset) under
Bernoulli sampling and then holds them fixed across samplers (§IV-B2).
``MODEL_DEFAULTS`` records the grid winners found for the synthetic
benchmark analogues; :func:`run_setting` reproduces one Table IV cell
(dataset x model x sampler x {scratch, pretrain}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.data.benchmarks import load_benchmark
from repro.data.dataset import KGDataset
from repro.eval.protocol import evaluate
from repro.models import make_model
from repro.models.base import KGEModel
from repro.sampling import make_sampler
from repro.sampling.base import NegativeSampler
from repro.sampling.kbgan import KBGANSampler
from repro.train.config import TrainConfig
from repro.train.pretrain import pretrain
from repro.train.trainer import Trainer

__all__ = [
    "MODEL_DEFAULTS",
    "SettingResult",
    "build_model",
    "build_sampler",
    "run_setting",
    "train_and_eval",
]

#: Tuned per-model training defaults (validation-MRR grid winners on the
#: synthetic analogues; the paper's §IV-B2 protocol).
MODEL_DEFAULTS: dict[str, dict[str, Any]] = {
    "TransE": {"learning_rate": 0.01, "margin": 2.0},
    "TransH": {"learning_rate": 0.01, "margin": 2.0},
    "TransD": {"learning_rate": 0.01, "margin": 2.0},
    "TransR": {"learning_rate": 0.01, "margin": 2.0},
    "DistMult": {"learning_rate": 0.1, "l2_weight": 0.001},
    "ComplEx": {"learning_rate": 0.1, "l2_weight": 0.01},
    "RESCAL": {"learning_rate": 0.05, "l2_weight": 0.01},
    "HolE": {"learning_rate": 0.1, "l2_weight": 0.001},
    "SimplE": {"learning_rate": 0.1, "l2_weight": 0.001},
}

#: Default embedding dimension for benchmark runs (paper grid: 20..200).
DEFAULT_DIM = 32


def build_model(
    model_name: str, dataset: KGDataset, dim: int = DEFAULT_DIM, seed: int = 0
) -> KGEModel:
    """Instantiate a registry model sized for ``dataset``."""
    return make_model(model_name, dataset.n_entities, dataset.n_relations, dim, rng=seed)


def build_sampler(sampler_name: str, **kwargs: Any) -> NegativeSampler:
    """Instantiate a registry sampler (thin wrapper for symmetry)."""
    return make_sampler(sampler_name, **kwargs)


def make_config(
    model_name: str, epochs: int, seed: int = 0, **overrides: Any
) -> TrainConfig:
    """The tuned config for ``model_name``, with per-experiment overrides."""
    defaults = dict(MODEL_DEFAULTS.get(model_name, {}))
    defaults.update(overrides)
    return TrainConfig(epochs=epochs, seed=seed, **defaults)


@dataclass
class SettingResult:
    """Outcome of one (dataset, model, sampler, regime) setting."""

    dataset: str
    model: str
    sampler: str
    regime: str  # "scratch" | "pretrain" | "baseline"
    metrics: dict[str, float]
    train_seconds: float
    extras: dict[str, Any] = field(default_factory=dict)

    def row(self, keys: Sequence[str] = ("mrr", "mr", "hits@10")) -> list[object]:
        """A report row: sampler+regime label then the chosen metrics."""
        label = self.sampler if self.regime == "baseline" else f"{self.sampler}+{self.regime}"
        return [label, *(self.metrics.get(k, float("nan")) for k in keys)]


def train_and_eval(
    model: KGEModel,
    dataset: KGDataset,
    sampler: NegativeSampler,
    config: TrainConfig,
    *,
    callbacks: Sequence[object] = (),
    split: str = "test",
) -> tuple[dict[str, float], Trainer]:
    """Train and return (filtered link-prediction metrics, trainer).

    The trainer is returned live for introspection; callers that hand in
    pool-backed samplers (shared caches + refresh workers) own the
    matching ``trainer.close()``.
    """
    trainer = Trainer(model, dataset, sampler, config, callbacks=callbacks)
    trainer.run()
    return evaluate(model, dataset, split, hits_at=(1, 3, 10)), trainer


def run_setting(
    dataset: KGDataset | str,
    model_name: str,
    sampler_name: str,
    *,
    regime: str = "scratch",
    epochs: int = 40,
    pretrain_epochs: int = 10,
    dim: int = DEFAULT_DIM,
    seed: int = 0,
    sampler_kwargs: dict[str, Any] | None = None,
    config_overrides: dict[str, Any] | None = None,
    pretrained_state: dict[str, np.ndarray] | None = None,
    callbacks: Sequence[object] = (),
) -> SettingResult:
    """Reproduce one Table IV cell.

    ``regime``:

    * ``"baseline"`` — the sampler is the Bernoulli reference; trained for
      ``epochs`` from scratch;
    * ``"scratch"`` — sampler trained from Xavier initialisation;
    * ``"pretrain"`` — model warm-started from ``pretrained_state`` (or a
      fresh Bernoulli pretrain of ``pretrain_epochs``), then trained with
      the sampler; KBGAN's generator is warm-started too (§IV-B1).
    """
    if isinstance(dataset, str):
        dataset = load_benchmark(dataset, seed=seed)
    if regime not in ("baseline", "scratch", "pretrain"):
        raise ValueError(f"unknown regime {regime!r}")

    model = build_model(model_name, dataset, dim=dim, seed=seed)
    config = make_config(model_name, epochs, seed=seed, **(config_overrides or {}))

    if regime == "pretrain":
        if pretrained_state is not None:
            model.load_state_dict(pretrained_state)
        else:
            pretrain(model, dataset, pretrain_epochs, config)

    sampler = build_sampler(sampler_name, **(sampler_kwargs or {}))
    if regime == "pretrain" and isinstance(sampler, KBGANSampler):
        # The generator is warm-started with the pretrained TransE-shaped
        # tables when shapes allow (paper warm-starts it with TransE); the
        # request is applied when the trainer binds the sampler.
        sampler.warm_start_generator(model)

    metrics, trainer = train_and_eval(
        model, dataset, sampler, config, callbacks=callbacks
    )
    # The trainer is kept in extras for introspection only; release any
    # sampler-held resources (refresh pools, shared-memory caches) now.
    trainer.close()
    return SettingResult(
        dataset=dataset.name,
        model=model_name,
        sampler=sampler.name,
        regime=regime,
        metrics=metrics,
        train_seconds=trainer.train_seconds,
        extras={"model_obj": model, "trainer": trainer},
    )
