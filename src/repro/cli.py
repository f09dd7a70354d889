"""Command-line interface.

Four sub-commands cover the CompressDirect-style workflow:

``gtadoc compress``
    Compress a directory of text files (or a generated dataset
    analogue) into the TADOC format.
``gtadoc run``
    Run one or more of the six analytics tasks on a compressed corpus
    and print the top results.  Queries go through the unified query
    API (:mod:`repro.api`): ``--backend`` picks any registered engine
    (default: the G-TADOC engine) and ``--sequence-length`` sets the
    per-query window for sequence count.  Passing several tasks (or
    ``--task all``) runs them as one batch; backends that amortize
    charge the initialization phase once.
``gtadoc relational``
    Run one SELECT-style relational query (filter / group-by /
    aggregate over per-file rows) directly on a compressed corpus,
    through any registered backend.
``gtadoc info``
    Print Table II style statistics of a compressed corpus.
``gtadoc bench``
    Run the Figure 9 speedup grid for selected datasets/platforms and
    print the resulting table.
``gtadoc serve-bench``
    Replay a synthetic mixed-query request trace through the serving
    layer (:mod:`repro.serve`) — thread-based by default, through the
    asyncio front end with ``--async``, over a shard pool with
    ``--shards`` — and report kernel launches per query, result-cache
    hit rate and coalescing statistics against serial per-query
    execution.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analytics.base import Task
from repro.api import Query, RunOutcome, available_backends, open_backend
from repro.bench.experiment import ExperimentConfig, ExperimentRunner
from repro.bench.tables import format_table
from repro.compression.serializer import load_compressed, save_compressed
from repro.compression.compressor import compress_corpus
from repro.data.generators import generate_dataset, list_datasets
from repro.data.loaders import load_corpus_dir
from repro.perf.platforms import get_platform

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: an integer that must be >= 1 (rejected at parse time)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtadoc",
        description="G-TADOC: GPU-based text analytics directly on compressed data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compress = subparsers.add_parser("compress", help="compress text files into TADOC form")
    source = compress.add_mutually_exclusive_group(required=True)
    source.add_argument("--input-dir", help="directory of .txt files to compress")
    source.add_argument(
        "--dataset", choices=list_datasets(), help="generate and compress a dataset analogue"
    )
    compress.add_argument("--scale", type=float, default=0.25, help="dataset analogue scale")
    compress.add_argument("--output", required=True, help="output .json path")

    run = subparsers.add_parser("run", help="run analytics task(s) on compressed data")
    run.add_argument("--compressed", required=True, help="path written by 'gtadoc compress'")
    run.add_argument(
        "--task",
        required=True,
        help=(
            "task name, a comma-separated list, or 'all'; multiple tasks run "
            "as one batch that pays initialization once "
            f"(tasks: {', '.join(task.value for task in Task)})"
        ),
    )
    run.add_argument("--traversal", choices=["top_down", "bottom_up"], default=None)
    run.add_argument("--top", type=int, default=10, help="number of result entries to print")
    run.add_argument(
        "--backend",
        choices=list(available_backends()),
        default="gtadoc",
        help="analytics engine to serve the query (default: gtadoc)",
    )
    run.add_argument(
        "--sequence-length",
        type=int,
        default=None,
        help="per-query word-window length for sequence count",
    )

    relational = subparsers.add_parser(
        "relational",
        help="run a SELECT-style filter/group-by/aggregate query on compressed data",
    )
    relational.add_argument(
        "--compressed", required=True, help="path written by 'gtadoc compress'"
    )
    relational.add_argument(
        "--delimiter",
        default=None,
        help="delimiter token for column-addressed schemas (omit for keyed schemas)",
    )
    relational.add_argument(
        "--field",
        action="append",
        required=True,
        metavar="NAME:TYPE:LOCATOR",
        help=(
            "schema field as name:type:locator — the locator is a column index "
            "with --delimiter, else the key token whose follower is the value "
            "(types: str, int, float); repeatable"
        ),
    )
    relational.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD:OP:VALUE",
        help="ANDed predicate term (ops: eq, ne, lt, le, gt, ge); repeatable",
    )
    relational.add_argument("--group-by", default=None, help="field to group rows by")
    relational.add_argument(
        "--agg",
        action="append",
        default=[],
        metavar="OP[:FIELD]",
        help="aggregate column, e.g. count or avg:age (default: count); repeatable",
    )
    relational.add_argument(
        "--order-by", default=None, help="aggregate label to order groups by (descending)"
    )
    relational.add_argument(
        "--top-k", type=_positive_int, default=None, help="keep only the first k groups"
    )
    relational.add_argument(
        "--files", default=None, help="comma-separated file names to restrict the query to"
    )
    relational.add_argument(
        "--backend",
        choices=list(available_backends()),
        default="gtadoc",
        help="analytics engine to serve the query (default: gtadoc)",
    )

    info = subparsers.add_parser("info", help="print statistics of a compressed corpus")
    info.add_argument("--compressed", required=True)

    lint = subparsers.add_parser(
        "lint", help="run the repo-specific static analysis rules (repro.analysis)"
    )
    lint.add_argument(
        "--root",
        default=None,
        help="source root to scan (directory containing the 'repro' package); "
        "defaults to the installed package's own source tree",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        default=None,
        metavar="NAME",
        help="run only this rule (repeatable); default is every registered rule",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )

    bench = subparsers.add_parser("bench", help="print the Figure 9 speedup grid")
    bench.add_argument("--datasets", default="A,B,D", help="comma-separated dataset keys")
    bench.add_argument("--platform", default="Pascal", help="Table I platform key")
    bench.add_argument("--scale", type=float, default=0.15, help="dataset analogue scale")

    serve = subparsers.add_parser(
        "serve-bench", help="replay a synthetic request trace through the serving layer"
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument("--compressed", help="path written by 'gtadoc compress'")
    serve_source.add_argument(
        "--dataset", choices=list_datasets(), help="generate and compress a dataset analogue"
    )
    serve.add_argument("--scale", type=float, default=0.1, help="dataset analogue scale")
    serve.add_argument("--requests", type=int, default=64, help="trace length")
    serve.add_argument(
        "--clients",
        type=_positive_int,
        default=8,
        help="concurrent clients: worker threads, or in-flight requests with --async",
    )
    serve.add_argument("--seed", type=int, default=17, help="trace randomness seed")
    serve.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="replay through the asyncio front end (every request in flight as a coroutine)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help=(
            "replay through a fingerprint-routed shard pool of this many shards "
            "(combine with --async to drive it from one event loop)"
        ),
    )
    serve.add_argument(
        "--replicas",
        type=_positive_int,
        default=2,
        help="shards a hot corpus fans out across in a --shards replay",
    )
    serve.add_argument(
        "--processes",
        action="store_true",
        help=(
            "run each shard's serving core in its own worker process "
            "(crash-isolated, corpora shipped over a framed pipe; "
            "requires --shards)"
        ),
    )
    serve.add_argument(
        "--max-sessions", type=int, default=4, help="bound on resident device sessions"
    )
    serve.add_argument(
        "--no-serial-baseline",
        action="store_true",
        help="skip the serial per-query comparison replay (faster)",
    )
    serve.add_argument(
        "--relational-fraction",
        type=float,
        default=0.0,
        help="fraction of fresh trace requests that are relational queries",
    )

    return parser


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.input_dir:
        corpus = load_corpus_dir(args.input_dir)
    else:
        corpus = generate_dataset(args.dataset, scale=args.scale)
    compressed = compress_corpus(corpus)
    path = save_compressed(compressed, args.output)
    stats = compressed.statistics()
    print(f"compressed {stats.num_files} files / {stats.original_tokens} tokens")
    print(f"rules: {stats.num_rules}   vocabulary: {stats.vocabulary_size}")
    print(f"compression ratio (tokens/symbols): {stats.compression_ratio:.2f}")
    print(f"written to {path}")
    return 0


def _format_result_preview(task: Task, result, top: int) -> List[str]:
    lines: List[str] = []
    if task is Task.SORT:
        for word, count in result[:top]:
            lines.append(f"{word}\t{count}")
    elif task is Task.SEQUENCE_COUNT:
        ordered = sorted(result.items(), key=lambda item: (-item[1], item[0]))[:top]
        for key, count in ordered:
            lines.append(f"{' '.join(key)}\t{count}")
    elif task is Task.WORD_COUNT:
        ordered = sorted(result.items(), key=lambda item: (-item[1], item[0]))[:top]
        for word, count in ordered:
            lines.append(f"{word}\t{count}")
    else:
        for key in list(result)[:top]:
            lines.append(f"{key}\t{result[key]}")
    return lines


def _parse_tasks(raw: str) -> List[Task]:
    """Parse ``--task``: one name, a comma-separated list, or ``all``.

    Duplicates collapse to one entry (keeping first-seen order), so a
    repeated single task still takes the single-run path.
    """
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise ValueError("no task given")
    wants_all = False
    tasks: List[Task] = []
    for name in names:
        if name.lower() == "all":
            wants_all = True
        else:
            task = Task.from_name(name)
            if task is Task.RELATIONAL:
                raise ValueError(
                    "relational queries need a schema; use the 'gtadoc relational' subcommand"
                )
            tasks.append(task)
    if wants_all:
        return Task.all()
    return list(dict.fromkeys(tasks))


def _describe_engine(outcome: RunOutcome) -> str:
    strategy = outcome.details.get("strategy")
    if strategy:
        return f"task: {outcome.task.value}   traversal: {strategy}"
    return f"task: {outcome.task.value}   backend: {outcome.backend}"


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        tasks = _parse_tasks(args.task)
        if args.top <= 0:
            raise ValueError(f"--top must be a positive integer (got {args.top})")
        if args.sequence_length is not None and args.sequence_length < 1:
            raise ValueError(
                f"--sequence-length must be a positive integer (got {args.sequence_length})"
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    compressed = load_compressed(args.compressed)
    backend = open_backend(args.backend, compressed)
    if args.traversal and not backend.capabilities().supports_traversal_choice:
        print(
            f"error: backend {args.backend!r} does not support --traversal",
            file=sys.stderr,
        )
        return 2
    queries = [
        Query(task=task, sequence_length=args.sequence_length, traversal=args.traversal)
        for task in tasks
    ]

    if len(queries) == 1:
        outcome = backend.run(queries[0])
        print(_describe_engine(outcome))
        print(f"kernel launches: {outcome.kernel_launches}")
        print(f"modelled ops: {outcome.ops:.0f}")
        if "memory_pool_bytes" in outcome.details:
            print(f"memory pool: {outcome.details['memory_pool_bytes']} bytes")
        print("top results:")
        for line in _format_result_preview(outcome.task, outcome.result, args.top):
            print(f"  {line}")
        return 0

    outcomes = backend.run_batch(queries)
    shared_launches = sum(outcome.perf.initialization.kernel_launches for outcome in outcomes)
    total_launches = sum(outcome.kernel_launches for outcome in outcomes)
    if backend.capabilities().amortizes_batches:
        print(f"batch: {len(outcomes)} tasks, initialization charged once")
        print(f"shared kernel launches: {shared_launches}")
    else:
        print(f"batch: {len(outcomes)} tasks on backend {backend.name}")
    print(f"total kernel launches: {total_launches}")
    pool_bytes = outcomes[-1].details.get("memory_pool_bytes")
    if pool_bytes is not None:
        print(f"memory pool: {pool_bytes} bytes")
    for outcome in outcomes:
        print(
            f"\n{_describe_engine(outcome)}   "
            f"marginal launches: {outcome.perf.traversal.kernel_launches}"
        )
        print("top results:")
        for line in _format_result_preview(outcome.task, outcome.result, args.top):
            print(f"  {line}")
    return 0


def _parse_relational_spec(args: argparse.Namespace):
    """Build a :class:`RelationalQuery` from the subcommand's arguments.

    Spec-level validation (unknown fields, bad ops, non-numeric sums)
    stays in :mod:`repro.relational.spec`; this only translates the
    ``name:type:locator`` / ``field:op:value`` / ``op[:field]`` argument
    grammar and coerces predicate values to their field's type.
    """
    from repro.relational.spec import (
        Aggregate,
        Condition,
        FieldSpec,
        RelationalQuery,
        RowSchema,
    )

    fields = []
    for raw in args.field:
        parts = raw.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"--field must look like name:type:locator (got {raw!r})")
        name, field_type, locator = parts
        if args.delimiter is not None:
            try:
                column = int(locator)
            except ValueError:
                raise ValueError(
                    f"--field {name!r}: with --delimiter the locator is a column index "
                    f"(got {locator!r})"
                ) from None
            fields.append(FieldSpec(name, field_type, column=column))
        else:
            fields.append(FieldSpec(name, field_type, key=locator))
    schema = RowSchema(fields=tuple(fields), delimiter=args.delimiter)

    coerce = {"str": str, "int": int, "float": float}
    predicate = []
    for raw in args.where:
        parts = raw.split(":", 2)
        if len(parts) != 3:
            raise ValueError(f"--where must look like field:op:value (got {raw!r})")
        field_name, op, value = parts
        spec = schema.field(field_name)  # raises KeyError on unknown fields
        try:
            typed = coerce[spec.type](value)
        except ValueError:
            raise ValueError(
                f"--where {raw!r}: value {value!r} is not a valid {spec.type}"
            ) from None
        predicate.append(Condition(field_name, op, typed))

    aggregates = []
    for raw in args.agg or ["count"]:
        op, _, agg_field = raw.partition(":")
        aggregates.append(Aggregate(op, agg_field or None))

    return RelationalQuery(
        schema=schema,
        predicate=tuple(predicate),
        group_by=args.group_by,
        aggregates=tuple(aggregates),
        order_by=args.order_by,
    )


def _cmd_relational(args: argparse.Namespace) -> int:
    try:
        spec = _parse_relational_spec(args)
        files = None
        if args.files:
            files = tuple(name.strip() for name in args.files.split(",") if name.strip())
        query = Query(
            task=Task.RELATIONAL,
            top_k=args.top_k,
            files=files,
            extras={"relational": spec},
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    compressed = load_compressed(args.compressed)
    backend = open_backend(args.backend, compressed)
    outcome = backend.run(query)
    print(f"query: {spec.describe()}   backend: {outcome.backend}")
    print(f"kernel launches: {outcome.kernel_launches}")
    print(f"modelled ops: {outcome.ops:.0f}")
    header = "\t".join(("group", *spec.aggregate_labels))
    print(f"groups: {len(outcome.result)}")
    print(f"  {header}")
    for group, values in outcome.result:
        cells = "\t".join("null" if value is None else str(value) for value in values)
        print(f"  {group}\t{cells}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    compressed = load_compressed(args.compressed)
    stats = compressed.statistics()
    rows = [
        ("files", stats.num_files),
        ("original tokens", stats.original_tokens),
        ("original bytes", stats.original_size_bytes),
        ("rules", stats.num_rules),
        ("vocabulary", stats.vocabulary_size),
        ("compressed symbols", stats.compressed_symbols),
        ("compression ratio", f"{stats.compression_ratio:.2f}"),
        ("DAG depth", stats.dag.depth),
        ("DAG edges", stats.dag.num_edges),
    ]
    print(format_table(["statistic", "value"], rows, title=f"Compressed corpus: {compressed.name}"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.lint import registered_rules, run_lint

    if args.list_rules:
        for name, description in registered_rules():
            print(f"{name}: {description}")
        return 0
    root = Path(args.root) if args.root else None
    findings = run_lint(root, rules=args.rules)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: no findings", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)
    if not platform.has_gpu:
        print("the bench command needs a GPU platform (Pascal, Volta or Turing)", file=sys.stderr)
        return 2
    datasets = [key.strip().upper() for key in args.datasets.split(",") if key.strip()]
    runner = ExperimentRunner(ExperimentConfig(dataset_scale=args.scale))
    rows = runner.speedup_grid(datasets=datasets, platforms=[platform])
    table_rows = [
        (
            row.dataset,
            row.task,
            f"{row.gtadoc.total * 1000:.2f} ms",
            f"{row.tadoc.total * 1000:.2f} ms",
            f"{row.speedup_total:.1f}x",
        )
        for row in rows
    ]
    print(
        format_table(
            ["dataset", "task", "G-TADOC", "TADOC baseline", "speedup"],
            table_rows,
            title=f"Figure 9 style speedups on {platform.key}",
        )
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.serve import (
        AnalyticsService,
        AsyncAnalyticsService,
        ServiceConfig,
        ShardedAnalyticsService,
        ShardedServiceConfig,
        TraceConfig,
        replay_trace,
        synthesize_trace,
    )

    try:
        if args.requests < 1:
            raise ValueError(f"--requests must be a positive integer (got {args.requests})")
        if not 0.0 <= args.relational_fraction <= 1.0:
            raise ValueError(
                f"--relational-fraction must be within [0, 1] (got {args.relational_fraction})"
            )
        if args.processes and not args.shards:
            raise ValueError("--processes requires --shards")
        service_config = ServiceConfig(max_sessions=args.max_sessions)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.compressed:
        compressed = load_compressed(args.compressed)
    else:
        compressed = compress_corpus(generate_dataset(args.dataset, scale=args.scale))
    trace = synthesize_trace(
        compressed.file_names,
        TraceConfig(
            num_requests=args.requests,
            seed=args.seed,
            relational_fraction=args.relational_fraction,
        ),
    )
    with ExitStack() as owned:
        pool = None
        if args.shards:
            pool = owned.enter_context(
                ShardedAnalyticsService(
                    service_config=service_config,
                    sharded_config=ShardedServiceConfig(
                        num_shards=args.shards,
                        replication_factor=args.replicas,
                        transport="process" if args.processes else None,
                    ),
                )
            )
        if args.use_async:
            service = owned.enter_context(
                AsyncAnalyticsService(service_config=service_config, router=pool)
            )
        else:
            service = pool or AnalyticsService(service_config=service_config)
        report = replay_trace(
            service,
            compressed,
            trace,
            clients=args.clients,
            serial_baseline=not args.no_serial_baseline,
        )
    mode = "asyncio" if args.use_async else "threads"
    stats = report.stats
    hit_rate = (
        stats.result_cache_hit_rate if args.shards else stats.result_cache.hit_rate
    )
    rows = [
        ("requests", report.num_requests),
        ("replay mode", f"{mode}+sharded" if args.shards else mode),
        ("clients", report.clients),
        ("engine micro-batches", stats.micro_batches),
        ("mean batch size", f"{stats.mean_batch_size:.2f}"),
        ("coalesced queries", stats.coalesced_queries),
        ("result-cache hit rate", f"{hit_rate * 100:.1f}%"),
        ("served kernel launches", stats.kernel_launches),
        ("served launches/query", f"{report.served_launches_per_query:.2f}"),
        ("served wall-clock", f"{report.elapsed_seconds:.3f} s"),
    ]
    if report.requests_per_second is not None:
        rows.append(("served requests/s", f"{report.requests_per_second:.1f}"))
    if args.shards:
        rows.extend(
            [
                ("shards", args.shards),
                ("queries per shard", "/".join(str(n) for n in stats.routed_queries)),
                ("sessions per shard", "/".join(str(n) for n in stats.resident_sessions)),
                ("replica promotions", stats.replica_promotions),
                ("replica demotions", stats.replica_demotions),
                ("placement network", f"{stats.network_seconds * 1000:.3f} ms"),
                ("shard transport", pool.transport_kind),
            ]
        )
        if stats.wire_messages:
            rows.extend(
                [
                    ("wire messages", f"{stats.wire_messages:.0f}"),
                    ("wire bytes", f"{stats.wire_bytes:.0f}"),
                    ("wire network", f"{stats.wire_seconds * 1000:.3f} ms"),
                ]
            )
        if stats.shard_failures:
            rows.append(
                (
                    "shard failures",
                    f"{stats.shard_failures} ({stats.replaced_shards} replaced)",
                )
            )
    if report.serial_launches is not None:
        rows.extend(
            [
                ("serial kernel launches", report.serial_launches),
                ("serial launches/query", f"{report.serial_launches_per_query:.2f}"),
                ("launch reduction", f"{report.launch_reduction * 100:.1f}%"),
                ("results match serial", "yes" if report.results_match else "NO"),
            ]
        )
        if report.serial_elapsed_seconds is not None:
            rows.append(("serial wall-clock", f"{report.serial_elapsed_seconds:.3f} s"))
        if report.wall_clock_speedup is not None:
            rows.append(("wall-clock speedup", f"{report.wall_clock_speedup:.1f}x"))
    print(
        format_table(
            ["statistic", "value"],
            rows,
            title=f"Serving replay: {compressed.name} ({len(compressed.file_names)} files)",
        )
    )
    if report.results_match is False:
        print("error: served results diverged from serial execution", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``gtadoc`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compress": _cmd_compress,
        "run": _cmd_run,
        "relational": _cmd_relational,
        "info": _cmd_info,
        "lint": _cmd_lint,
        "bench": _cmd_bench,
        "serve-bench": _cmd_serve_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
