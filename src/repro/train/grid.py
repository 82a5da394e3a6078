"""Grid search over training hyper-parameters (paper §IV-B2).

The paper tunes ``d``, ``eta``, ``gamma`` (translational) and ``lambda``
(semantic matching) under Bernoulli sampling by validation MRR, then keeps
the winner fixed for every sampler.  :func:`grid_search` reproduces that
protocol for arbitrary grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Sequence

from repro.data.dataset import KGDataset
from repro.eval.protocol import evaluate
from repro.models.base import KGEModel
from repro.sampling.base import NegativeSampler
from repro.sampling.bernoulli import BernoulliSampler
from repro.train.config import TrainConfig
from repro.train.trainer import Trainer
from repro.utils.logging import get_logger

__all__ = ["GridResult", "grid_search", "expand_grid"]

_LOG = get_logger("train.grid")

#: Builds a fresh model given (dim, seed) — grids may vary the dimension.
ModelFactory = Callable[[int, int], KGEModel]


@dataclass
class GridResult:
    """One grid point's outcome."""

    point: dict[str, object]
    metric: float
    metrics: dict[str, float]


def expand_grid(grid: Mapping[str, Sequence[object]]) -> list[dict[str, object]]:
    """Cartesian product of a ``{name: values}`` grid, as dicts."""
    if not grid:
        return [{}]
    names = sorted(grid)
    points = []
    for combo in product(*(grid[name] for name in names)):
        points.append(dict(zip(names, combo)))
    return points


def grid_search(
    model_factory: ModelFactory,
    dataset: KGDataset,
    grid: Mapping[str, Sequence[object]],
    *,
    base_config: TrainConfig | None = None,
    sampler_factory: Callable[[], NegativeSampler] = BernoulliSampler,
    metric: str = "mrr",
    split: str = "valid",
    seed: int = 0,
) -> tuple[GridResult, list[GridResult]]:
    """Evaluate every grid point; returns ``(best, all_results)``.

    Grid keys matching :class:`TrainConfig` fields override the config;
    the special key ``"dim"`` is passed to ``model_factory`` instead.
    """
    base_config = base_config or TrainConfig()
    results: list[GridResult] = []
    for point in expand_grid(grid):
        point = dict(point)
        dim = int(point.pop("dim", 0))
        config = base_config.with_updates(**point) if point else base_config
        model = model_factory(dim, seed)
        trainer = Trainer(model, dataset, sampler_factory(), config)
        try:
            trainer.run()
        finally:
            # Pool-backed samplers (shared caches + refresh workers) hold
            # processes and shared memory per grid point; release them.
            trainer.close()
        metrics = evaluate(model, dataset, split)
        full_point = {**point, **({"dim": dim} if dim else {})}
        results.append(GridResult(point=full_point, metric=metrics[metric], metrics=metrics))
        _LOG.info("grid point %s -> %s=%.4f", full_point, metric, metrics[metric])
    best = max(results, key=lambda r: r.metric)
    return best, results
