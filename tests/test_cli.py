"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_requires_dataset_and_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "TransE"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--dataset", "WN18RR", "--model", "GPT"]
            )

    def test_serve_requires_checkpoint_and_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--checkpoint", "m.npz"])

    def test_train_cache_backend_default_and_choices(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE"]
        )
        assert args.cache_backend == "array"
        assert args.profile is False
        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--cache-backend", "dict", "--profile"]
        )
        assert args.cache_backend == "dict"
        assert args.profile is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--dataset", "WN18RR", "--model", "TransE",
                 "--cache-backend", "sqlite"]
            )

    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--checkpoint", "m.npz", "--dataset", "WN18RR"]
        )
        assert args.port == 8080 and args.host == "127.0.0.1"
        assert args.top_k == 10 and args.cache_capacity == 1024

    def test_evaluate_top_k_option(self):
        args = build_parser().parse_args(
            ["evaluate", "--checkpoint", "m.npz", "--dataset", "WN18RR",
             "--top-k", "7"]
        )
        assert args.top_k == 7


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "WN18RR" in out and "#train" in out

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "cache-engine throughput" in out

    def test_train_profile_and_dict_backend(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--sampler", "NSCaching",
                "--epochs", "1",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-size", "4",
                "--candidate-size", "4",
                "--cache-backend", "dict",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-phase timing" in out
        for phase in ("sample", "cache_update", "optimizer"):
            assert phase in out

    def test_train_evaluate_roundtrip(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--sampler", "NSCaching",
                "--epochs", "2",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-size", "5",
                "--candidate-size", "5",
                "--out", str(checkpoint),
                "--per-category",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mrr" in out
        assert "per-relation-category breakdown" in out
        assert checkpoint.exists()

        code = main(
            [
                "evaluate",
                "--checkpoint", str(checkpoint),
                "--dataset", "WN18RR",
                "--scale", "0.05",
                "--top-k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mrr" in out
        assert "sample tail predictions" in out
        assert "top-3 filtered predictions" in out

    def test_serve_scale_mismatch_fails_cleanly(self, tmp_path, capsys):
        from repro.models import make_model
        from repro.models.persistence import save_model

        # 3 entities can never match a loaded benchmark: serve must exit 2
        # before binding a socket.
        checkpoint = save_model(make_model("TransE", 3, 2, 4), tmp_path / "m")
        code = main(
            [
                "serve", "--checkpoint", str(checkpoint),
                "--dataset", "WN18RR", "--scale", "0.05",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_evaluate_scale_mismatch_fails_cleanly(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        main(
            [
                "train", "--dataset", "WN18RR", "--model", "TransE",
                "--epochs", "1", "--dim", "8", "--scale", "0.05",
                "--sampler", "Bernoulli", "--out", str(checkpoint),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "evaluate", "--checkpoint", str(checkpoint),
                "--dataset", "WN18RR", "--scale", "0.1",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestMemoryBoundedBackends:
    def test_parser_accepts_bounded_backends_and_buckets(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--cache-backend", "bucketed-array", "--n-buckets", "64"]
        )
        assert args.cache_backend == "bucketed-array"
        assert args.n_buckets == 64
        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--cache-backend", "hashed"]
        )
        assert args.cache_backend == "hashed"
        assert args.n_buckets is None

    def test_train_bucketed_array_end_to_end(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-size", "4",
                "--candidate-size", "4",
                "--cache-backend", "bucketed-array",
                "--n-buckets", "16",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mrr" in out
        # --profile surfaces the bucket introspection.
        assert "cache introspection" in out
        assert "allocated_bytes" in out
        assert "head_load_factor" in out

    def test_train_hashed_backend_reachable(self, capsys):
        """Regression: `hashed` used to be missing from the registry, so
        the paper's SVI extension was unreachable from the CLI."""
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-size", "4",
                "--candidate-size", "4",
                "--cache-backend", "hashed",
                "--n-buckets", "8",
            ]
        )
        assert code == 0
        assert "mrr" in capsys.readouterr().out

    def test_n_buckets_with_plain_backend_fails_cleanly(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-backend", "array",
                "--n-buckets", "16",
            ]
        )
        assert code == 2
        assert "does not accept option" in capsys.readouterr().err

    def test_non_positive_n_buckets_rejected_at_parse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["train", "--dataset", "WN18RR", "--model", "TransE",
                 "--cache-backend", "bucketed-array", "--n-buckets", "0"]
            )
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestParallelRefreshCLI:
    def test_parser_accepts_shards_and_workers(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--cache-backend", "sharded-array",
             "--n-shards", "4", "--refresh-workers", "2"]
        )
        assert args.cache_backend == "sharded-array"
        assert args.n_shards == 4
        assert args.refresh_workers == 2

    def test_shards_default_to_worker_count(self):
        from repro.cli import _sampler_kwargs

        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--sampler", "NSCaching",
             "--cache-backend", "sharded-array", "--refresh-workers", "3"]
        )
        kwargs = _sampler_kwargs(args)
        assert kwargs["cache_options"] == {"n_shards": 3}
        assert kwargs["refresh_workers"] == 3

    def test_n_buckets_selects_bucketed_inner_scheme(self):
        from repro.cli import _sampler_kwargs

        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--cache-backend", "sharded-array",
             "--n-shards", "2", "--n-buckets", "32"]
        )
        kwargs = _sampler_kwargs(args)
        assert kwargs["cache_options"] == {
            "n_shards": 2, "n_buckets": 32, "inner": "bucketed-array"
        }

    def test_train_sharded_backend_end_to_end(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-size", "4",
                "--candidate-size", "4",
                "--cache-backend", "sharded-array",
                "--n-shards", "2",
                "--refresh-workers", "2",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mrr" in out
        assert "parallel_refresh" in out
        assert "head_shard_live_rows" in out
        assert "refresh_workers" in out

    def test_n_shards_with_plain_backend_fails_cleanly(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--scale", "0.05",
                "--cache-backend", "array",
                "--n-shards", "4",
            ]
        )
        assert code == 2
        assert "does not accept option" in capsys.readouterr().err

    def test_workers_without_sharded_backend_fails_cleanly(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--scale", "0.05",
                "--refresh-workers", "2",
            ]
        )
        assert code == 2
        assert "sharded-array" in capsys.readouterr().err

    def test_parallel_flags_with_other_sampler_fail_cleanly(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--scale", "0.05",
                "--sampler", "Bernoulli",
                "--refresh-workers", "2",
            ]
        )
        assert code == 2
        assert "only apply to the NSCaching sampler" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ("--n-shards", "--refresh-workers", "--refresh-period")
    )
    def test_non_positive_counts_rejected_at_parse(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["train", "--dataset", "WN18RR", "--model", "TransE",
                 "--cache-backend", "sharded-array", flag, "0"]
            )
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestOverlapRefreshCLI:
    def test_overlap_flags_reach_sampler_kwargs(self):
        from repro.cli import _sampler_kwargs

        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--cache-backend", "sharded-array", "--refresh-workers", "2",
             "--refresh-overlap", "--refresh-period", "4", "--no-dirty-sync"]
        )
        kwargs = _sampler_kwargs(args)
        assert kwargs["refresh_overlap"] is True
        assert kwargs["refresh_period"] == 4
        assert kwargs["dirty_sync"] is False

    def test_defaults_keep_synchronous_full_sync_semantics(self):
        from repro.cli import _sampler_kwargs

        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE"]
        )
        kwargs = _sampler_kwargs(args)
        assert kwargs["refresh_overlap"] is False
        assert kwargs["refresh_period"] == 1
        assert kwargs["dirty_sync"] is True

    def test_overlap_without_workers_fails_cleanly(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--scale", "0.05",
                "--cache-backend", "sharded-array",
                "--refresh-overlap",
            ]
        )
        assert code == 2
        assert "refresh_workers >= 2" in capsys.readouterr().err

    def test_overlap_flags_with_other_sampler_fail_cleanly(self, capsys):
        for flags in (["--refresh-overlap"], ["--refresh-period", "2"]):
            code = main(
                [
                    "train",
                    "--dataset", "WN18RR",
                    "--model", "TransE",
                    "--epochs", "1",
                    "--scale", "0.05",
                    "--sampler", "Bernoulli",
                    *flags,
                ]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert "only apply to the NSCaching sampler" in err

    def test_end_to_end_overlap_training(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "1",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-size", "4",
                "--candidate-size", "4",
                "--cache-backend", "sharded-array",
                "--n-shards", "2",
                "--refresh-workers", "2",
                "--refresh-overlap",
                "--refresh-period", "2",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mrr" in out
        assert "refresh_overlap" in out
        assert "refresh_period" in out
        assert "dirty_sync" in out


class TestObservabilityCLI:
    def _train_with_metrics(self, path):
        return main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--sampler", "NSCaching",
                "--epochs", "2",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-size", "4",
                "--candidate-size", "4",
                "--metrics-out", str(path),
            ]
        )

    def test_parser_accepts_metrics_out_and_tail(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--metrics-out", "run.jsonl"]
        )
        assert args.metrics_out == "run.jsonl"
        args = build_parser().parse_args(["metrics", "run.jsonl", "--tail", "5"])
        assert args.run_log == "run.jsonl"
        assert args.tail == 5

    def test_non_positive_tail_rejected_at_parse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["metrics", "run.jsonl", "--tail", "0"])
        assert excinfo.value.code == 2

    def test_train_writes_run_log_and_metrics_summarises(
        self, tmp_path, capsys
    ):
        from repro.obs.runlog import read_run_log

        path = tmp_path / "run.jsonl"
        assert self._train_with_metrics(path) == 0
        out = capsys.readouterr().out
        assert "run log written to" in out

        records = read_run_log(path)
        assert records[0]["type"] == "run_meta"
        assert records[-1]["type"] == "run_end"
        assert sum(r["type"] == "epoch" for r in records) == 2

        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run overview" in out
        assert "per-epoch telemetry" in out
        assert "per-phase seconds" in out
        assert "churn" in out

    def test_metrics_tail_limits_epoch_rows(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert self._train_with_metrics(path) == 0
        capsys.readouterr()
        assert main(["metrics", str(path), "--tail", "1"]) == 0
        out = capsys.readouterr().out
        # Exactly one epoch row: epoch 1 present, epoch 0 elided.
        assert "(last 1 of 2 epochs)" in out

    def test_metrics_missing_file_fails_cleanly(self, capsys):
        code = main(["metrics", "/nonexistent/run.jsonl"])
        assert code == 2
        assert "run.jsonl" in capsys.readouterr().err

    def test_metrics_invalid_log_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mystery"}\n')
        assert main(["metrics", str(path)]) == 2
        assert "record type" in capsys.readouterr().err

    def test_metrics_empty_log_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["metrics", str(path)]) == 2
        assert "empty" in capsys.readouterr().err.lower()


class TestSampledEvaluateCLI:
    def test_sampled_flag_parses(self):
        args = build_parser().parse_args(
            ["evaluate", "--checkpoint", "m.npz", "--dataset", "WN18RR",
             "--sampled", "100", "--eval-seed", "7"]
        )
        assert args.sampled == 100
        assert args.eval_seed == 7

    def test_sampled_defaults_to_full_protocol(self):
        args = build_parser().parse_args(
            ["evaluate", "--checkpoint", "m.npz", "--dataset", "WN18RR"]
        )
        assert args.sampled is None
        assert args.eval_seed == 0

    def test_sampled_rejects_nonpositive_k(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--checkpoint", "m.npz", "--dataset", "WN18RR",
                 "--sampled", "0"]
            )

    def test_sampled_evaluate_runs(self, tmp_path, capsys):
        from repro.data.benchmarks import load_benchmark
        from repro.models import make_model
        from repro.models.persistence import save_model

        ds = load_benchmark("WN18RR", seed=0, scale=0.05)
        checkpoint = save_model(
            make_model("TransE", ds.n_entities, ds.n_relations, 8, rng=0),
            tmp_path / "m",
        )
        argv = [
            "evaluate", "--checkpoint", str(checkpoint),
            "--dataset", "WN18RR", "--scale", "0.05",
            "--sampled", "10", "--eval-seed", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "mrr" in first
        # Same K and seed -> identical metrics on a second run.
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestLenientMetricsCLI:
    """`repro metrics` on truncated/partial logs: summarise, don't raise."""

    def _valid_lines(self):
        import json

        from repro.obs.runlog import RUN_LOG_VERSION

        meta = {
            "type": "run_meta", "version": RUN_LOG_VERSION,
            "model": "TransE", "dataset": "tiny", "sampler": "NSCaching",
            "config": {},
        }
        epoch = {
            "type": "epoch", "version": RUN_LOG_VERSION, "epoch": 0,
            "loss": 1.0, "nzl": 0.5, "grad_norm": 2.0,
            "epoch_seconds": 0.1, "samples_per_sec": 100.0,
        }
        return json.dumps(meta), json.dumps(epoch)

    def test_half_written_last_line_summarised_with_warning(
        self, tmp_path, capsys
    ):
        meta, epoch = self._valid_lines()
        path = tmp_path / "crashed.jsonl"
        path.write_text(meta + "\n" + epoch + "\n" + epoch[:25] + "\n")
        assert main(["metrics", str(path)]) == 0
        captured = capsys.readouterr()
        assert "run overview" in captured.out
        assert "warning" in captured.err
        assert "prefix" in captured.err

    def test_missing_run_end_summarised_with_warning(self, tmp_path, capsys):
        meta, epoch = self._valid_lines()
        path = tmp_path / "inflight.jsonl"
        path.write_text(meta + "\n" + epoch + "\n")
        assert main(["metrics", str(path)]) == 0
        captured = capsys.readouterr()
        assert "per-epoch telemetry" in captured.out
        assert "no run_end" in captured.err

    def test_complete_log_stays_warning_free(self, tmp_path, capsys):
        import json

        from repro.obs.runlog import RUN_LOG_VERSION

        meta, epoch = self._valid_lines()
        end = json.dumps({
            "type": "run_end", "version": RUN_LOG_VERSION,
            "epochs": 1, "train_seconds": 0.1,
        })
        path = tmp_path / "ok.jsonl"
        path.write_text(meta + "\n" + epoch + "\n" + end + "\n")
        assert main(["metrics", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestTraceCLI:
    def _train_with_trace(self, path, *extra):
        return main(
            [
                "train",
                "--dataset", "WN18RR",
                "--model", "TransE",
                "--epochs", "2",
                "--dim", "8",
                "--scale", "0.05",
                "--cache-size", "4",
                "--candidate-size", "4",
                "--trace-out", str(path),
                *extra,
            ]
        )

    def test_parser_accepts_trace_flags(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "WN18RR", "--model", "TransE",
             "--trace-out", "t.jsonl"]
        )
        assert args.trace_out == "t.jsonl"
        args = build_parser().parse_args(["trace", "summary", "t.jsonl"])
        assert args.trace_command == "summary"
        args = build_parser().parse_args(
            ["trace", "export", "t.jsonl", "--chrome", "t.json"]
        )
        assert args.chrome == "t.json"
        args = build_parser().parse_args(
            ["serve", "--checkpoint", "m.npz", "--dataset", "WN18RR",
             "--trace-out", "t.jsonl", "--slow-request-ms", "250"]
        )
        assert args.trace_out == "t.jsonl"
        assert args.slow_request_ms == 250.0

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_train_trace_then_summary_and_export(self, tmp_path, capsys):
        import json

        from repro.obs.trace import validate_chrome_trace

        trace_path = tmp_path / "trace.jsonl"
        assert self._train_with_trace(trace_path) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert trace_path.exists()

        assert main(["trace", "summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "span summary" in out
        assert "train" in out

        chrome_path = tmp_path / "trace.json"
        assert main(
            ["trace", "export", str(trace_path), "--chrome", str(chrome_path)]
        ) == 0
        assert "chrome trace written" in capsys.readouterr().out
        validate_chrome_trace(json.loads(chrome_path.read_text()))

    def test_overlap_trace_reports_hiding_percentage(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = self._train_with_trace(
            trace_path,
            "--cache-backend", "sharded-array",
            "--refresh-workers", "2",
            "--refresh-overlap",
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "refresh/step overlap" in out
        assert "hidden behind step (%)" in out
        assert "refresh_worker" in out

    def test_summary_self_percentages_sum_to_100_on_nested_trace(
        self, tmp_path, capsys
    ):
        from repro.obs.runlog import RUN_LOG_VERSION
        from repro.obs.trace import write_trace

        def span(name, cat, ts, dur):
            return {"type": "span", "version": RUN_LOG_VERSION, "name": name,
                    "cat": cat, "ts": ts, "dur": dur, "pid": 1, "tid": 1}

        # train 10s > core 6s > models 2s, then a sibling optim 3s inside
        # train: self seconds are train 1, core 4, models 2, optim 3.
        path = write_trace(tmp_path / "nested.jsonl", [
            span("train_batch", "train", 0.0, 10.0),
            span("update", "core", 0.5, 6.0),
            span("score_candidates", "models", 1.0, 2.0),
            span("step", "optim", 6.8, 3.0),
        ])
        assert main(["trace", "summary", str(path)]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) == 5 and cells[0] in {"train", "core", "models", "optim"}:
                rows[cells[0]] = float(cells[4])
        assert rows == {"core": 40.0, "optim": 30.0, "models": 20.0, "train": 10.0}
        assert sum(rows.values()) == pytest.approx(100.0)

    def test_trace_missing_file_fails_cleanly(self, capsys):
        assert main(["trace", "summary", "/nonexistent/t.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_on_run_log_fails_with_guidance(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(
            [
                "train", "--dataset", "WN18RR", "--model", "TransE",
                "--epochs", "1", "--dim", "8", "--scale", "0.05",
                "--cache-size", "4", "--candidate-size", "4",
                "--metrics-out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 2
        assert "not a trace file" in capsys.readouterr().err

    def test_trace_empty_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "summary", str(path)]) == 2
        assert "no spans" in capsys.readouterr().err
