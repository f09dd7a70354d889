"""Relational analytics on compressed data — kernel launches and ops.

The relational plan family executes SELECT-style queries (filter /
group-by / aggregate over per-file rows) directly on the grammar:
rule-level parse states are built bottom-up once per schema and
memoized in the device session, so a *warm* relational query costs only
two marginal kernel launches (filter + aggregate).  The
decompress-then-scan comparator (the ``gpu_uncompressed`` backend)
pays four launches on every query: tokenize, parse rows, filter,
aggregate.

This benchmark builds an orders-style corpus (one delimited record per
file), runs a small relational query mix on the G-TADOC engine and on
the uncompressed GPU baseline, and asserts

* both backends answer bit-identically,
* a warm relational query launches strictly fewer kernels than the
  cold query that built the parse states, and
* the warm compressed-domain query launches strictly fewer kernels
  than the decompress-then-scan baseline.

The simulated launch and op counts are written to
``BENCH_relational.json`` at the repository root so successive anchors
can track the trajectory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from repro.api import Query, open_backend
from repro.bench.tables import format_table, save_report
from repro.compression.compressor import compress_corpus
from repro.data.corpus import Corpus
from repro.relational.spec import (
    Aggregate,
    Condition,
    FieldSpec,
    RelationalQuery,
    RowSchema,
)

NUM_ROWS = 240
#: Repo root — ``BENCH_relational.json`` lives next to README.md.
REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_relational.json"

REGIONS = ("east", "west", "north", "south")
STATUSES = ("open", "shipped", "closed")


def _build_corpus() -> Corpus:
    """One delimited order record per file, with plenty of shared phrasing."""
    texts = {}
    for index in range(NUM_ROWS):
        region = REGIONS[index % len(REGIONS)]
        status = STATUSES[index % len(STATUSES)]
        quantity = (index * 7) % 23 + 1
        price = float((index * 13) % 97) + 0.5
        texts[f"order_{index:04d}.txt"] = (
            f"customer_{index % 17} , {region} , {status} , {quantity} , {price}"
        )
    return Corpus.from_texts(texts, name="relational-bench")


def _schema() -> RowSchema:
    return RowSchema(
        fields=(
            FieldSpec("customer", "str", column=0),
            FieldSpec("region", "str", column=1),
            FieldSpec("status", "str", column=2),
            FieldSpec("quantity", "int", column=3),
            FieldSpec("price", "float", column=4),
        ),
        delimiter=",",
    )


def _query_mix(schema: RowSchema) -> List[Query]:
    specs = (
        RelationalQuery(
            schema=schema,
            group_by="region",
            aggregates=(Aggregate("count"), Aggregate("sum", "quantity")),
            order_by="count",
        ),
        RelationalQuery(
            schema=schema,
            predicate=(Condition("status", "eq", "shipped"),),
            group_by="region",
            aggregates=(Aggregate("count"), Aggregate("avg", "price")),
        ),
        RelationalQuery(
            schema=schema,
            predicate=(Condition("quantity", "ge", 12),),
            group_by="status",
            aggregates=(Aggregate("count"), Aggregate("max", "price")),
        ),
    )
    return [Query(task="relational", extras={"relational": spec}) for spec in specs]


def _build_report(_scale: float) -> str:
    compressed = compress_corpus(_build_corpus())
    queries = _query_mix(_schema())

    # One persistent backend, so the queries after the first run warm.
    gtadoc_backend = open_backend("gtadoc", compressed)
    gtadoc = [gtadoc_backend.run(query) for query in queries]
    baseline_backend = open_backend("gpu_uncompressed", compressed)
    baseline = [baseline_backend.run(query) for query in queries]

    for position, (g, b) in enumerate(zip(gtadoc, baseline)):
        assert g.result == b.result, f"query {position}: results diverge"

    cold_launches = gtadoc[0].kernel_launches
    warm_launches = [outcome.kernel_launches for outcome in gtadoc[1:]]
    baseline_launches = [outcome.kernel_launches for outcome in baseline]
    assert all(warm < cold_launches for warm in warm_launches), (
        f"warm queries ({warm_launches}) must launch fewer kernels than the "
        f"cold query ({cold_launches}) that built the parse states"
    )
    assert all(
        warm < base for warm, base in zip(warm_launches, baseline_launches[1:])
    ), (
        f"warm compressed-domain queries ({warm_launches}) must beat the "
        f"decompress-then-scan baseline ({baseline_launches})"
    )

    rows = []
    for position, (g, b) in enumerate(zip(gtadoc, baseline)):
        phase = "cold" if position == 0 else "warm"
        rows.append(
            [
                f"q{position} ({phase})",
                g.kernel_launches,
                b.kernel_launches,
                f"{g.ops:12.0f}",
                f"{b.ops:12.0f}",
                len(g.result),
            ]
        )

    trajectory = {
        "num_rows": NUM_ROWS,
        "queries": len(queries),
        "cold_launches": cold_launches,
        "warm_launches": warm_launches,
        "baseline_launches": baseline_launches,
        "per_query": [
            {
                "gtadoc_launches": g.kernel_launches,
                "baseline_launches": b.kernel_launches,
                "gtadoc_ops": g.ops,
                "baseline_ops": b.ops,
                "groups": len(g.result),
            }
            for g, b in zip(gtadoc, baseline)
        ],
    }
    BENCH_JSON.write_text(json.dumps(trajectory, indent=2) + "\n")

    table = format_table(
        [
            "query",
            "G-TADOC launches",
            "decompress+scan launches",
            "G-TADOC ops",
            "baseline ops",
            "groups",
        ],
        rows,
        title=(
            f"Relational queries over {NUM_ROWS} compressed rows: "
            "grammar-domain vs decompress-then-scan"
        ),
    )
    summary = (
        "G-TADOC and the baseline answer bit-identically; warm relational "
        "queries reuse the memoized parse states and launch "
        f"{warm_launches[0]} kernels vs the baseline's "
        f"{baseline_launches[1]}; trajectory written to {BENCH_JSON.name}."
    )
    return table + "\n\n" + summary


def test_relational_bench(benchmark, bench_scale) -> None:
    report = benchmark.pedantic(_build_report, args=(bench_scale,), rounds=1, iterations=1)
    save_report("relational", report)
    print("\n" + report)
