"""Smoke tests of the benchmark: the runner, each workload, and teardown.

Each workload runs at smoke size (``--smoke``: tiny inputs, same code
paths) through ``perfbench/run.py`` exactly as the benchmark command does.
Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workload import tail_latency

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def bench(workload: str, trace: int, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, **env},
    )


def parse(out: str) -> tuple[dict, dict]:
    lines = out.strip().splitlines()
    checks = next(json.loads(line[len("checks "):]) for line in lines if line.startswith("checks "))
    return json.loads(lines[-1]), checks


def test_spec_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(set(name) <= NAME_CHARS and len(name) <= 64 for name in names)
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(metric_names) == len(set(metric_names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    runs = 4 + 22 * len(SPEC["workloads"])
    # Each run is about run_seconds of measuring plus ~15 s of set-up.
    assert runs * (SPEC["run_seconds"] + 15) < 3420


def test_one_command_runs_every_workload_untraced():
    proc = bench("all", trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 3 and result["failed"] == 0
    checks = [json.loads(line[len("checks "):]) for line in lines if line.startswith("checks ")]
    assert len(checks) == 3 and all(all(c.values()) for c in checks), checks
    expected = {
        f"{workload}/{m['name']}": m["unit"]
        for workload in run.WORKLOADS for m in SPEC["end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "left behind" not in proc.stderr


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_layers_and_covers_most_wall_time(workload):
    proc = bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result, checks = parse(proc.stdout)
    # The untraced run of the same seed came first: quality must repeat.
    assert result["correct"] is True and checks["quality_repeats"], checks
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    # Wrapped layers account for most of train_batch / request wall time;
    # the rest is reported as the uncovered share.
    assert 0.0 <= metrics["trace.uncovered_frac"]["value"] < 0.5
    assert metrics["trace.window_s"]["value"] > 0
    if workload == "serve-topk":
        assert metrics["serve.predict_calls"]["value"] > 0
        assert 0 < metrics["serve.cache_hit_frac"]["value"] < 1
    else:
        assert metrics["core.update_calls"]["value"] > 0
        assert metrics["optim.step_calls"]["value"] > 0
    if workload == "train-pooled":
        assert metrics["parallel.dispatch_calls"]["value"] > 0
        assert metrics["parallel.worker_task_s"]["value"] > 0
    if workload == "train-seq":
        assert metrics["models.candidates_scored"]["value"] > 0


@pytest.mark.parametrize("workload", ["train-pooled", "serve-topk"])
def test_an_error_still_tears_everything_down(workload):
    before = set(os.listdir(run.SHM))
    proc = bench(workload, trace=1, PERFBENCH_FAIL_AFTER_SETUP="1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "failing after set-up" in proc.stderr
    assert "left behind" not in proc.stderr
    assert not {s for s in set(os.listdir(run.SHM)) - before if s.startswith("psm_")}


def test_orphans_in_the_session_are_reported_and_killed():
    proc = subprocess.Popen(["sh", "-c", "sleep 60 & exit 0"], start_new_session=True)
    proc.wait(timeout=10)
    leftovers = run.stop_session(proc.pid, linger=0.2)
    assert len(leftovers) == 1 and "sleep 60" in leftovers[0]
    assert run.session_members(proc.pid) == []


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_latency_keeps_ten_samples_beyond():
    value, percentile, n = tail_latency([float(i) for i in range(100)])
    assert (value, percentile, n) == (89.0, 90.0, 100)
    with pytest.raises(ValueError):
        tail_latency([1.0] * 10)
