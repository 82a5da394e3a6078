"""Shared fixtures for the model test suites.

The conformance harness (``test_conformance.py``) runs every entry in
``MODEL_REGISTRY`` through one scoring contract; the fixtures here supply
the per-model instances and candidate blocks so each contract test stays a
few lines.  Constants and the looped-score oracle live in
``conformance_fixtures.py`` so test modules can import them directly.
"""

from __future__ import annotations

import pytest

import repro.models.base as base
from repro.models import MODEL_REGISTRY

from conformance_fixtures import (
    CONF_N_ENTITIES,
    CONF_N_RELATIONS,
    build_conformance_model,
)


@pytest.fixture(params=sorted(MODEL_REGISTRY), ids=sorted(MODEL_REGISTRY))
def conformance_model(request):
    """One registry model per parametrised run, freshly built and seeded."""
    return build_conformance_model(request.param)


@pytest.fixture
def split(monkeypatch):
    """Returns a setter that forces the kernels' two-thread split
    (``models.base.split_work``) on or off for this test."""

    def force(on):
        monkeypatch.setattr(base, "_split", on)

    return force


@pytest.fixture
def candidate_block(rng):
    """A deterministic ``(anchors, r, candidates)`` block sized [B=5, C=9]."""
    b, c = 5, 9
    return (
        rng.integers(0, CONF_N_ENTITIES, b),
        rng.integers(0, CONF_N_RELATIONS, b),
        rng.integers(0, CONF_N_ENTITIES, (b, c)),
    )
