"""Command-line interface.

The subcommands cover the workflow end to end, from data to serving::

    python -m repro datasets
    python -m repro train --dataset WN18RR --model TransE --sampler NSCaching \
        --epochs 40 --metrics-out run.jsonl --trace-out trace.jsonl --out transe.npz
    python -m repro evaluate --checkpoint transe.npz --dataset WN18RR --top-k 5
    python -m repro serve --checkpoint transe.npz --dataset WN18RR --port 8080
    python -m repro metrics run.jsonl
    python -m repro trace summary trace.jsonl
    python -m repro trace export trace.jsonl --chrome trace.json
    python -m repro experiments

Dataset names are the paper's (``WN18``, ``WN18RR``, ``FB15K``,
``FB15K237``); they resolve to the seeded synthetic analogues.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench.harness import build_model, make_config
from repro.bench.registry import describe_experiments
from repro.bench.tables import format_table
from repro.core.store import cache_backend_names
from repro.data.benchmarks import BENCHMARKS, load_benchmark
from repro.eval.per_relation import per_category_link_prediction
from repro.eval.protocol import evaluate
from repro.models import MODEL_REGISTRY
from repro.models.persistence import load_model, save_model
from repro.sampling import SAMPLER_NAMES, make_sampler
from repro.train.trainer import Trainer

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NSCaching (ICDE 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="print Table II analogue statistics")
    datasets.add_argument("--scale", type=float, default=0.3)
    datasets.add_argument("--seed", type=int, default=0)

    train = sub.add_parser("train", help="train a model and report test metrics")
    train.add_argument("--dataset", required=True, choices=sorted(BENCHMARKS))
    train.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    train.add_argument("--sampler", default="NSCaching", choices=SAMPLER_NAMES)
    train.add_argument("--epochs", type=int, default=40)
    train.add_argument("--dim", type=int, default=32)
    train.add_argument("--scale", type=float, default=0.3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--learning-rate", type=float, default=None)
    train.add_argument("--margin", type=float, default=None)
    train.add_argument("--l2-weight", type=float, default=None)
    train.add_argument("--cache-size", type=int, default=50, help="N1")
    train.add_argument("--candidate-size", type=int, default=50, help="N2")
    train.add_argument("--lazy-epochs", type=int, default=0, help="lazy-update n")
    train.add_argument(
        "--cache-backend", default="array", choices=cache_backend_names(),
        help="NSCaching cache storage: vectorised array (default), dict, "
             "the memory-bounded bucketed-array / hashed backends, or "
             "sharded-array (shared memory, enables --refresh-workers)",
    )
    train.add_argument(
        "--n-buckets", type=_positive_int, default=None, metavar="K",
        help="bucket rows for the memory-bounded backends (bucketed-array/"
             "hashed, or sharded-array which then uses the bucketed inner "
             "scheme); cache memory becomes O(K * N1) regardless of the "
             "number of distinct keys",
    )
    train.add_argument(
        "--n-shards", type=_positive_int, default=None, metavar="S",
        help="contiguous shards the sharded-array backend splits the cache "
             "row-space into (default: the worker count); shards refresh "
             "concurrently without locking",
    )
    train.add_argument(
        "--refresh-workers", type=_positive_int, default=1, metavar="W",
        help="worker processes for cache refreshes (requires "
             "--cache-backend sharded-array); 1 keeps the sequential "
             "refresh, bit-identical to the array backend",
    )
    train.add_argument(
        "--refresh-period", type=_positive_int, default=1, metavar="K",
        help="refresh caches only every K-th batch of an epoch (default 1 "
             "= every batch); the lazy within-epoch schedule — divides "
             "refresh and parameter-sync cost by K while caches go at "
             "most K-1 batches stale",
    )
    train.add_argument(
        "--refresh-overlap", action="store_true",
        help="overlap the pooled cache refresh with the gradient/optimizer "
             "step (dispatch against a double-buffered pre-step parameter "
             "snapshot, collect at the next batch); requires "
             "--refresh-workers >= 2, results stay bit-identical",
    )
    train.add_argument(
        "--no-dirty-sync", action="store_true",
        help="ship full parameter copies to refresh workers every batch "
             "instead of only optimizer-touched rows (bit-identical, "
             "slower; for A/B timing)",
    )
    train.add_argument(
        "--no-fused-refresh", action="store_true",
        help="use the unfused reference cache-refresh path (bit-identical, "
             "slower; for debugging and A/B timing)",
    )
    train.add_argument(
        "--profile", action="store_true",
        help="report per-phase timing (sample/score/cache-update/"
             "score-candidates/…) after training",
    )
    train.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="stream a JSONL run log (one record per epoch: loss, phase "
             "seconds, cache churn/survivor fraction); summarise it later "
             "with `repro metrics PATH`",
    )
    train.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record a span timeline (trainer phases, refresh dispatch, "
             "worker shard tasks) as JSONL; analyse with `repro trace "
             "summary PATH` or export for Perfetto with `repro trace "
             "export PATH --chrome out.json`",
    )
    train.add_argument("--out", default=None, help="checkpoint path (.npz)")
    train.add_argument(
        "--per-category", action="store_true",
        help="also print the 1-1/1-N/N-1/N-N Hits@10 breakdown",
    )

    ev = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True, choices=sorted(BENCHMARKS))
    ev.add_argument("--scale", type=float, default=0.3)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--split", default="test", choices=("valid", "test"))
    ev.add_argument("--per-category", action="store_true")
    ev.add_argument(
        "--top-k", type=int, default=0, metavar="K",
        help="also print top-K tail predictions for a few sample triples",
    )
    ev.add_argument(
        "--sampled", type=_positive_int, default=None, metavar="K",
        help="use the sampled protocol: rank each query against K filtered "
             "random negatives plus the true entity instead of all "
             "entities — O(K) per query, the practical choice on "
             "million-entity graphs; metrics are comparable across runs "
             "that share K and --eval-seed",
    )
    ev.add_argument(
        "--eval-seed", type=int, default=0, metavar="S",
        help="seed for the sampled protocol's negative draws (default 0)",
    )

    serve = sub.add_parser("serve", help="serve a checkpoint over JSON HTTP")
    serve.add_argument("--checkpoint", required=True,
                       help=".npz checkpoint or exported snapshot directory")
    serve.add_argument("--dataset", required=True, choices=sorted(BENCHMARKS))
    serve.add_argument("--scale", type=float, default=0.3)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--top-k", type=int, default=10, help="default k per query")
    serve.add_argument("--max-k", type=int, default=1000,
                       help="largest k a query may request")
    serve.add_argument("--cache-capacity", type=int, default=1024,
                       help="LRU query-cache entries (0 disables)")
    serve.add_argument(
        "--slow-request-ms", type=float, default=1000.0, metavar="MS",
        help="log requests slower than this to stderr and count them in "
             "http_slow_requests_total (default 1000)",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record per-request spans (request/parse/cache/score) and "
             "write them as a JSONL trace when the server stops",
    )

    metrics = sub.add_parser(
        "metrics", help="summarise a JSONL run log written by train --metrics-out"
    )
    metrics.add_argument("run_log", help="path to the run log (.jsonl)")
    metrics.add_argument(
        "--tail", type=_positive_int, default=None, metavar="N",
        help="only print the last N epoch rows (works on in-flight logs)",
    )

    trace = sub.add_parser(
        "trace", help="analyse a span trace written by train/serve --trace-out"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="per-category span counts, wall/self seconds, and how much "
             "worker refresh time the overlap pipeline hid behind the "
             "gradient/optimizer step",
    )
    trace_summary.add_argument("trace_file", help="path to the trace (.jsonl)")
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace to Chrome trace-event JSON "
             "(chrome://tracing, Perfetto)",
    )
    trace_export.add_argument("trace_file", help="path to the trace (.jsonl)")
    trace_export.add_argument(
        "--chrome", required=True, metavar="OUT",
        help="output path for the trace-event JSON",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repo's contract-aware static analysis (RPL rules)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to check (default: src)",
    )
    lint.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--ignore", default=None, metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    lint.add_argument(
        "--format", dest="output_format", default="text",
        choices=("text", "json"),
        help="findings as human-readable text (default) or stable JSON",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (code, name, invariant) and exit",
    )

    sub.add_parser("experiments", help="print the paper-artefact index")
    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in BENCHMARKS:
        summary = load_benchmark(name, seed=args.seed, scale=args.scale).summary()
        rows.append(
            (name, summary["entities"], summary["relations"],
             summary["train"], summary["valid"], summary["test"])
        )
    print(
        format_table(
            ("dataset", "#entity", "#relation", "#train", "#valid", "#test"),
            rows,
            title=f"benchmark analogues (scale={args.scale}, seed={args.seed})",
        )
    )
    return 0


def _sampler_kwargs(args: argparse.Namespace) -> dict[str, object]:
    if args.sampler == "NSCaching":
        kwargs: dict[str, object] = {
            "cache_size": args.cache_size,
            "candidate_size": args.candidate_size,
            "lazy_epochs": args.lazy_epochs,
            "cache_backend": args.cache_backend,
            "fused": not args.no_fused_refresh,
            "refresh_workers": args.refresh_workers,
            "refresh_period": args.refresh_period,
            "refresh_overlap": args.refresh_overlap,
            "dirty_sync": not args.no_dirty_sync,
        }
        options: dict[str, object] = {}
        if args.n_buckets is not None:
            options["n_buckets"] = args.n_buckets
        if args.cache_backend == "sharded-array":
            # Shard the row-space at least as finely as the worker count
            # so every worker can own work; --n-shards overrides.
            options["n_shards"] = (
                args.n_shards if args.n_shards is not None else args.refresh_workers
            )
            if args.n_buckets is not None:
                options["inner"] = "bucketed-array"
        elif args.n_shards is not None:
            # Rejected by option validation with the clean exit-2 path.
            options["n_shards"] = args.n_shards
        if options:
            kwargs["cache_options"] = options
        return kwargs
    if args.sampler in ("KBGAN", "SelfAdv"):
        return {"candidate_size": args.candidate_size}
    return {}


def _print_metrics(metrics: dict[str, float]) -> None:
    print(
        format_table(
            ("metric", "value"),
            sorted(metrics.items()),
        )
    )


def _print_breakdown(model, dataset, split: str) -> None:
    breakdown = per_category_link_prediction(model, dataset, split)
    print(
        format_table(
            ("category", "#triples", "head Hits@10", "tail Hits@10"),
            breakdown.rows(),
            title="per-relation-category breakdown",
        )
    )


def _cmd_train(args: argparse.Namespace) -> int:
    if args.sampler != "NSCaching" and (
        args.refresh_workers != 1
        or args.n_shards is not None
        or args.refresh_period != 1
        or args.refresh_overlap
    ):
        # Args-only check: fail loudly (and before any data/model work)
        # rather than silently training single-process.
        print(
            "error: --refresh-workers/--n-shards/--refresh-period/"
            "--refresh-overlap only apply to the NSCaching sampler, got "
            f"--sampler {args.sampler}",
            file=sys.stderr,
        )
        return 2
    dataset = load_benchmark(args.dataset, seed=args.seed, scale=args.scale)
    print(f"dataset {dataset.name}: {dataset.summary()}")
    overrides = {}
    if args.learning_rate is not None:
        overrides["learning_rate"] = args.learning_rate
    if args.margin is not None:
        overrides["margin"] = args.margin
    if args.l2_weight is not None:
        overrides["l2_weight"] = args.l2_weight
    config = make_config(args.model, args.epochs, seed=args.seed, **overrides)
    model = build_model(args.model, dataset, dim=args.dim, seed=args.seed)
    try:
        sampler = make_sampler(args.sampler, **_sampler_kwargs(args))
        trainer = Trainer(
            model, dataset, sampler, config,
            profile=args.profile, metrics_out=args.metrics_out,
            trace_out=args.trace_out,
        )
    except ValueError as exc:
        # e.g. --n-buckets/--n-shards with a backend that does not take
        # them, a value < 1, or --refresh-workers without sharded caches.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        trainer.run()
        print(f"trained {args.epochs} epochs in {trainer.train_seconds:.1f}s")
        if args.profile:
            phases = trainer.profile_report()
            total = sum(phases.values()) or 1.0
            print(
                format_table(
                    ("phase", "seconds", "% of hot loop"),
                    [
                        (name, round(seconds, 4), round(100 * seconds / total, 1))
                        for name, seconds in phases.items()
                    ],
                    title="per-phase timing (training hot loop)",
                )
            )
            cache_stats = trainer.cache_report()
            if cache_stats:
                print(
                    format_table(
                        ("cache stat", "value"),
                        sorted(cache_stats.items()),
                        title="cache introspection",
                    )
                )
    finally:
        trainer.close()  # stop refresh workers, release shared memory
    if args.metrics_out:
        print(f"run log written to {args.metrics_out}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    _print_metrics(evaluate(model, dataset, "test"))
    if args.per_category:
        _print_breakdown(model, dataset, "test")
    if args.out:
        path = save_model(model, args.out)
        print(f"checkpoint written to {path}")
    return 0


def _print_top_k(model, dataset, split: str, k: int, n_samples: int = 5) -> None:
    """Top-k tail predictions for the first few ``split`` triples."""
    from repro.data.triples import HEAD, REL, TAIL
    from repro.serve.topk import TopKScorer

    triples = getattr(dataset, split)[:n_samples]
    if len(triples) == 0:
        return
    scorer = TopKScorer(model, dataset)
    results = scorer.top_tails(
        triples[:, HEAD], triples[:, REL], k, keep=triples[:, TAIL]
    )
    vocab = dataset.vocab
    rows = []
    for triple, result in zip(triples, results):
        h, r, t = (int(x) for x in triple)
        predictions = ", ".join(
            ("*" if int(e) == t else "") + vocab.entity_label(int(e))
            for e in result.entities
        )
        rows.append(
            (f"({vocab.entity_label(h)}, {vocab.relation_label(r)}, ?)",
             vocab.entity_label(t), predictions)
        )
    print(
        format_table(
            ("query", "true tail", f"top-{k} filtered predictions (* = true)"),
            rows,
            title=f"sample tail predictions ({split} split)",
        )
    )


def _checkpoint_mismatch(model, dataset, args: argparse.Namespace) -> bool:
    if model.n_entities == dataset.n_entities:
        return False
    print(
        f"error: checkpoint has {model.n_entities} entities but the "
        f"dataset (scale={args.scale}, seed={args.seed}) has "
        f"{dataset.n_entities}; pass the --scale/--seed used at training",
        file=sys.stderr,
    )
    return True


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_benchmark(args.dataset, seed=args.seed, scale=args.scale)
    model = load_model(args.checkpoint)
    if _checkpoint_mismatch(model, dataset, args):
        return 2
    if args.sampled is not None:
        _print_metrics(
            evaluate(
                model,
                dataset,
                args.split,
                mode="sampled",
                num_negatives=args.sampled,
                seed=args.eval_seed,
            )
        )
    else:
        _print_metrics(evaluate(model, dataset, args.split))
    if args.per_category:
        _print_breakdown(model, dataset, args.split)
    if args.top_k > 0:
        _print_top_k(model, dataset, args.split, args.top_k)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        EmbeddingSnapshot,
        PredictionEngine,
        make_server,
        run_server,
    )

    dataset = load_benchmark(args.dataset, seed=args.seed, scale=args.scale)
    try:
        snapshot = EmbeddingSnapshot.load(args.checkpoint)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load checkpoint {args.checkpoint!r}: {exc}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace_out is not None:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    try:
        engine = PredictionEngine(
            snapshot,
            dataset,
            top_k=args.top_k,
            max_k=args.max_k,
            cache_capacity=args.cache_capacity,
            tracer=tracer,
        )
    except ValueError as exc:
        print(f"error: {exc}; pass the --scale/--seed used at training",
              file=sys.stderr)
        return 2
    try:
        server = make_server(
            engine, args.host, args.port,
            slow_request_seconds=args.slow_request_ms / 1000.0,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(f"serving {snapshot.describe()} on http://{args.host}:{args.port}")
    print(
        "routes: POST /predict (+ GET/HEAD /healthz /stats /metrics)  "
        "(Ctrl-C stops)"
    )
    # SIGTERM (supervisors, `kill`) takes the same clean path as Ctrl-C
    # so a --trace-out trace is still flushed below.
    import signal

    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    run_server(server)
    if tracer is not None:
        from repro.obs.trace import write_trace

        write_trace(args.trace_out, tracer.records())
        print(f"trace written to {args.trace_out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.runlog import read_run_log_lenient
    from repro.obs.summary import (
        EPOCH_COLUMNS,
        epoch_rows,
        phase_totals,
        run_overview,
    )

    try:
        records, warnings = read_run_log_lenient(args.run_log)
    except OSError as exc:
        print(f"error: cannot read run log: {exc}", file=sys.stderr)
        return 2
    if not records:
        # Nothing valid to summarise: the strict failure (with the first
        # anomaly, if any) is the only useful answer.
        detail = f": {warnings[0]}" if warnings else ""
        print(f"error: {args.run_log} holds no records{detail}", file=sys.stderr)
        return 2
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    overview = run_overview(records)
    print(
        format_table(
            ("field", "value"),
            sorted(overview.items()),
            title=f"run overview ({args.run_log})",
        )
    )
    rows = epoch_rows(records, tail=args.tail or 0)
    if rows:
        title = "per-epoch telemetry"
        if args.tail:
            title += f" (last {len(rows)} of {overview['epochs_logged']} epochs)"
        print(format_table(EPOCH_COLUMNS, rows, title=title))
    phases = phase_totals(records)
    if phases:
        total = sum(phases.values()) or 1.0
        print(
            format_table(
                ("phase", "seconds", "% of hot loop"),
                [
                    (name, round(seconds, 4), round(100 * seconds / total, 1))
                    for name, seconds in sorted(
                        phases.items(), key=lambda kv: -kv[1]
                    )
                ],
                title="per-phase seconds (summed over epochs)",
            )
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs.runlog import RunLogError
    from repro.obs.trace import (
        category_summary,
        chrome_trace,
        overlap_report,
        read_trace,
    )

    try:
        records = read_trace(args.trace_file)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    except RunLogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: {args.trace_file} holds no spans", file=sys.stderr)
        return 2

    if args.trace_command == "export":
        exported = chrome_trace(records)
        out = Path(args.chrome)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(_json.dumps(exported), encoding="utf-8")
        print(
            f"chrome trace written to {out} "
            f"({len(exported['traceEvents'])} events); open in Perfetto or "
            "chrome://tracing"
        )
        return 0

    # Self seconds partition the traced time, so nested spans are counted
    # once and the "% self" column sums to 100.
    summary = category_summary(records)
    total = sum(row["self_seconds"] for row in summary)
    print(
        format_table(
            ("category", "spans", "seconds", "self seconds", "% self"),
            [
                (
                    row["category"],
                    row["spans"],
                    round(row["seconds"], 4),
                    round(row["self_seconds"], 4),
                    round(100.0 * row["self_seconds"] / total, 1) if total else 0.0,
                )
                for row in summary
            ],
            title=f"span summary ({args.trace_file}, {len(records)} spans)",
        )
    )
    overlap = overlap_report(records)
    if overlap is not None:
        print(
            format_table(
                ("field", "value"),
                [
                    ("worker refresh seconds", round(overlap["worker_seconds"], 4)),
                    ("gradient+optimizer seconds", round(overlap["step_seconds"], 4)),
                    ("hidden behind step (s)", round(overlap["hidden_seconds"], 4)),
                    ("hidden behind step (%)", round(overlap["hidden_pct"], 1)),
                ],
                title="refresh/step overlap",
            )
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintConfig, format_findings, lint_paths, list_rules

    if args.list_rules:
        print(list_rules())
        return 0
    try:
        config = LintConfig.from_selectors(
            select=args.select,
            ignore=args.ignore,
            output_format=args.output_format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = lint_paths(args.paths, config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_findings(result, args.output_format))
    return 0 if result.clean else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "experiments":
        print(describe_experiments())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
