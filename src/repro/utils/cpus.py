"""How many CPUs this process may run on."""

from __future__ import annotations

import os

__all__ = ["usable_cpu_count"]


def usable_cpu_count() -> int:
    """CPUs in this process's affinity mask (``os.cpu_count()`` where the
    platform has no affinity call), at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1
