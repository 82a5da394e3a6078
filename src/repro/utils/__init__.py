"""Shared utilities: RNG handling, validation, CPU counting and
lightweight logging.

These helpers are intentionally tiny and dependency-free.  Every stochastic
component in the library accepts a :class:`numpy.random.Generator` and routes
it through :func:`repro.utils.rng.ensure_rng`, which is what makes whole
experiments reproducible from a single integer seed.
"""

from repro.utils.cpus import usable_cpu_count
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_shape,
    require,
)

__all__ = [
    "check_positive",
    "check_probability",
    "check_shape",
    "ensure_rng",
    "get_logger",
    "require",
    "spawn_rngs",
    "usable_cpu_count",
]
