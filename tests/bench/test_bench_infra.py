"""Tests for the benchmark harness, tables and experiment registry."""

import re
from pathlib import Path

import pytest

from repro.bench.harness import (
    MODEL_DEFAULTS,
    build_model,
    build_sampler,
    make_config,
    run_setting,
)
from repro.bench.registry import EXPERIMENTS, describe_experiments
from repro.bench.tables import format_float, format_table, render_metrics_row
from repro.models import PAPER_MODELS

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestTables:
    def test_basic_rendering(self):
        table = format_table(("a", "bb"), [(1, 2.5), ("x", 3.25)])
        lines = table.splitlines()
        assert lines[0].startswith("+")
        assert "| a" in lines[1]
        assert any("2.5000" in line for line in lines)

    def test_title_included(self):
        assert format_table(("a",), [(1,)], title="My Title").startswith("My Title")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(("a", "b"), [(1,)])

    def test_format_float_nan(self):
        assert format_float(float("nan")) == "--"

    def test_format_float_integerish(self):
        assert format_float(249.0) == "249"

    def test_render_metrics_row_missing_key_is_nan(self):
        row = render_metrics_row("x", {"mrr": 0.5}, keys=("mrr", "mr"))
        assert row[0] == "x"
        assert row[1] == 0.5
        assert row[2] != row[2]  # NaN


class TestRegistry:
    def test_all_paper_tables_and_figures_covered(self):
        # Table I, II, IV, V, VI + Figures 1-10 (grouped) + extensions.
        required = {"T1", "T2", "T4", "T5", "T6", "F1", "F2", "F4", "F6",
                    "F7", "F8", "F9", "F10", "X1", "X2"}
        assert required <= set(EXPERIMENTS)

    def test_every_experiment_names_a_bench_file(self):
        for exp in EXPERIMENTS.values():
            assert exp.bench.startswith("benchmarks/bench_")
            assert (REPO_ROOT / exp.bench).is_file(), exp.bench
        # ...and the other direction: every bench script the CI smoke job
        # runs is registered.
        ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        smoked = set(re.findall(r"(benchmarks/bench_\w+\.py) --smoke", ci))
        assert smoked, "no bench-smoke steps found in ci.yml"
        registered = {exp.bench for exp in EXPERIMENTS.values()}
        assert smoked <= registered, sorted(smoked - registered)

    def test_describe_renders(self):
        text = describe_experiments()
        assert "Table IV" in text or "Table IV".lower() in text.lower()


class TestHarness:
    def test_defaults_cover_paper_models(self):
        assert set(PAPER_MODELS) <= set(MODEL_DEFAULTS)

    def test_make_config_merges_overrides(self):
        config = make_config("TransE", epochs=7, margin=4.0)
        assert config.epochs == 7
        assert config.margin == 4.0
        assert config.learning_rate == MODEL_DEFAULTS["TransE"]["learning_rate"]

    def test_build_model_and_sampler(self, tiny_kg):
        model = build_model("TransE", tiny_kg, dim=8)
        assert model.n_entities == tiny_kg.n_entities
        sampler = build_sampler("NSCaching", cache_size=5)
        assert sampler.cache_size == 5

    def test_run_setting_smoke(self, tiny_kg):
        result = run_setting(
            tiny_kg,
            "TransE",
            "Bernoulli",
            regime="baseline",
            epochs=2,
            dim=8,
        )
        assert result.regime == "baseline"
        assert "mrr" in result.metrics
        assert result.train_seconds > 0

    def test_run_setting_pretrain_regime(self, tiny_kg):
        result = run_setting(
            tiny_kg,
            "TransE",
            "NSCaching",
            regime="pretrain",
            epochs=1,
            pretrain_epochs=1,
            dim=8,
            sampler_kwargs={"cache_size": 4, "candidate_size": 4},
        )
        assert result.sampler == "NSCaching"
        assert result.regime == "pretrain"

    def test_run_setting_invalid_regime(self, tiny_kg):
        with pytest.raises(ValueError, match="regime"):
            run_setting(tiny_kg, "TransE", "Bernoulli", regime="finetune")

    def test_setting_result_row_labels(self, tiny_kg):
        result = run_setting(
            tiny_kg, "TransE", "Bernoulli", regime="baseline", epochs=1, dim=8
        )
        assert result.row()[0] == "Bernoulli"
