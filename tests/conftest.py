"""Shared fixtures: small, fast, deterministic datasets and models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import KGDataset
from repro.data.synthetic import SyntheticKGConfig, generate_kg
from repro.models import make_model


@pytest.fixture(scope="session")
def tiny_kg() -> KGDataset:
    """A ~300-triple synthetic KG shared (read-only) across the suite."""
    config = SyntheticKGConfig(
        name="tiny",
        n_entities=80,
        n_relations=6,
        latent_dim=8,
        triples_per_relation=60,
        diagonal_fraction=0.3,
        range_fraction=0.5,
    )
    return generate_kg(config, rng=0).dataset


@pytest.fixture(scope="session")
def leaky_kg() -> KGDataset:
    """A KG with inverse-duplicate relations (WN18-style leakage)."""
    config = SyntheticKGConfig(
        name="leaky",
        n_entities=80,
        n_relations=6,
        latent_dim=8,
        triples_per_relation=60,
        inverse_fraction=0.5,
    )
    return generate_kg(config, rng=1).dataset


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_transe(tiny_kg):
    """A small TransE sized for ``tiny_kg``."""
    return make_model("TransE", tiny_kg.n_entities, tiny_kg.n_relations, 8, rng=0)


@pytest.fixture
def no_fork(monkeypatch):
    """Make the refresh pool's ``fork`` lookup fail, as on platforms without it.

    A pool started while this fixture is active falls back to running its
    tasks inline in the test process, bit-identical to forked workers.
    Tests that compare both modes request it mid-test with
    ``request.getfixturevalue("no_fork")`` after their forked arm.
    """
    from repro.parallel import pool

    def missing_fork():
        raise ValueError("cannot find context for 'fork'")

    monkeypatch.setattr(pool, "_fork_context", missing_fork)
