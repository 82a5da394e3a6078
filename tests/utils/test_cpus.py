import os

import pytest

from repro.utils import usable_cpu_count


def test_counts_the_affinity_mask():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    assert usable_cpu_count() == len(os.sched_getaffinity(0)) >= 1


def test_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpu_count() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpu_count() == 3
