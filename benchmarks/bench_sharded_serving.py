"""Sharded serving — a fingerprint-routed shard pool vs. one service.

One serving core caps resident device sessions at a single device's
budget (`ServiceConfig.max_sessions`): a multi-corpus workload larger
than that budget thrashes the session LRU, rebuilding initialization
state on nearly every query.  The shard pool
(:mod:`repro.serve.sharding`) spreads corpora across N shards by
rendezvous-hashed fingerprint, each shard its own serving core with its
own session budget — so the same workload keeps every corpus resident
without any shard exceeding one device's budget.

This benchmark builds a Table II-style multi-corpus trace (every
dataset analogue, round-robin interleaved, repeats and per-query knobs
as in the serving traces) and replays it three ways: serially with
per-query ``run()`` semantics (the paper's full per-query cost), through
a single 8-thread service whose session LRU only holds 2 corpora, and
through a 3-shard pool whose shards each hold 2.  It asserts the
sharded replay returns bit-identical results to the serial baseline,
launches no more kernels per query than the single service, and never
lets a shard exceed its configured ``max_sessions``.

Two transport scenarios ride on top: the same trace through a
**process-transport** pool (each shard's serving core in a spawned
worker process, corpora shipped over framed pipes) must also match the
serial baseline bit for bit, with its *actual* serialized wire traffic
priced under the cluster spec next to the modelled placement numbers;
and a **kill-one-shard** run hard-kills a live worker mid-trace and
asserts the pool answers every remaining request identically to serial
— zero wrong answers, the crash visible only in the failure counters.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analytics.base import Task, results_equal
from repro.api.query import Query
from repro.bench.tables import format_table, save_report
from repro.compression.compressor import compress_corpus
from repro.data.generators import generate_dataset, list_datasets
from repro.serve import (
    AnalyticsService,
    ServiceConfig,
    ShardedAnalyticsService,
    ShardedServiceConfig,
    TraceConfig,
    replay_trace,
    synthesize_trace,
)

REQUESTS_PER_CORPUS = 12
NUM_THREADS = 8
NUM_SHARDS = 3
MAX_SESSIONS_PER_DEVICE = 2
#: Transport measurements merge into the serving perf trajectory, which
#: CI uploads as an artifact.
REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_serving.json"


def _build_report(scale: float) -> str:
    corpora = [
        compress_corpus(generate_dataset(dataset, scale=scale))
        for dataset in list_datasets()
    ]
    # One sub-trace per corpus, interleaved round-robin: the serving mix
    # a pool fronting many tenants actually sees.
    sub_traces = [
        synthesize_trace(
            compressed.file_names,
            TraceConfig(num_requests=REQUESTS_PER_CORPUS, seed=17 + index,
                        max_subset_files=3),
        )
        for index, compressed in enumerate(corpora)
    ]
    trace = [
        (index, sub_traces[index][position])
        for position in range(REQUESTS_PER_CORPUS)
        for index in range(len(corpora))
    ]

    device_config = ServiceConfig(max_sessions=MAX_SESSIONS_PER_DEVICE)
    single = replay_trace(
        AnalyticsService(service_config=device_config),
        corpora,
        trace,
        clients=NUM_THREADS,
        serial_baseline=False,
    )
    with ShardedAnalyticsService(
        service_config=device_config,
        sharded_config=ShardedServiceConfig(num_shards=NUM_SHARDS, replication_factor=2),
    ) as pool:
        sharded = replay_trace(pool, corpora, trace, clients=NUM_THREADS)
    stats = sharded.stats

    assert sharded.results_match, "sharded served results diverged from the serial baseline"
    assert stats.kernel_launches <= single.stats.kernel_launches, (
        "the shard pool must not launch more kernels than the single service "
        f"({stats.kernel_launches} vs {single.stats.kernel_launches})"
    )
    assert sharded.stats.kernel_launches < sharded.serial_launches, (
        "sharded serving must launch strictly fewer kernels than serial runs"
    )
    for index, resident in enumerate(stats.resident_sessions):
        assert resident <= MAX_SESSIONS_PER_DEVICE, (
            f"shard {index} holds {resident} sessions, over its budget of "
            f"{MAX_SESSIONS_PER_DEVICE}"
        )

    overview = format_table(
        ["replay", "launches/query", "micro-batches", "mean batch", "session evictions"],
        [
            [
                "serial per-query",
                f"{sharded.serial_launches_per_query:7.2f}",
                "-",
                "-",
                "-",
            ],
            [
                f"one service ({MAX_SESSIONS_PER_DEVICE}-session device)",
                f"{single.stats.kernel_launches / single.num_requests:7.2f}",
                f"{single.stats.micro_batches:4d}",
                f"{single.stats.mean_batch_size:5.2f}",
                f"{single.stats.session_cache.evictions:4d}",
            ],
            [
                f"{NUM_SHARDS}-shard pool (same budget/shard)",
                f"{sharded.served_launches_per_query:7.2f}",
                f"{stats.micro_batches:4d}",
                f"{stats.mean_batch_size:5.2f}",
                f"{sum(shard.session_cache.evictions for shard in stats.shards):4d}",
            ],
        ],
        title=(
            f"Sharded serving: {len(corpora)} Table II corpora, "
            f"{len(trace)} requests, {NUM_THREADS} worker threads"
        ),
    )
    shard_rows = [
        [
            f"shard {index}",
            f"{stats.routed_queries[index]:4d}",
            f"{stats.resident_sessions[index]}/{MAX_SESSIONS_PER_DEVICE}",
            f"{shard.kernel_launches:5d}",
            f"{shard.result_cache.hit_rate * 100:5.1f}%",
        ]
        for index, shard in enumerate(stats.shards)
    ]
    placement = format_table(
        ["shard", "queries", "sessions", "launches", "result-cache hits"],
        shard_rows,
        title=(
            f"Placement: {stats.placements} routed queries, "
            f"{stats.replica_promotions} promotions, "
            f"{stats.network_seconds * 1000:.2f} ms modelled network"
        ),
    )
    transports, transport_trajectory = _transport_comparison(
        corpora, trace, device_config, threaded_sharded=sharded
    )
    fault, fault_trajectory = _kill_one_shard_scenario(corpora, device_config)
    _merge_trajectory(
        {"transports": transport_trajectory, "kill_one_shard": fault_trajectory}
    )

    summary = (
        "Every corpus stays resident on its owning shard, so the pool "
        "serves the multi-corpus mix without the session thrash the "
        "single device's LRU suffers — results stay bit-identical to "
        "serial per-query execution (in-process and process transports "
        "alike, and through a mid-trace worker kill), launches per "
        "query do not regress, and no shard exceeds its session budget."
    )
    return "\n\n".join([overview, placement, transports, fault, summary])


def _merge_trajectory(measurements: dict) -> None:
    """Fold this benchmark's measurements into ``BENCH_serving.json``.

    Only this benchmark's own key is rewritten; any other key in the
    file is kept.
    """
    trajectory = {}
    if BENCH_JSON.exists():
        try:
            trajectory = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except ValueError:
            trajectory = {}
    trajectory["sharded_serving"] = measurements
    BENCH_JSON.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")


def _transport_comparison(corpora, trace, device_config, *, threaded_sharded):
    """The same trace through a process-transport pool, wire traffic priced."""
    with ShardedAnalyticsService(
        service_config=device_config,
        sharded_config=ShardedServiceConfig(
            num_shards=NUM_SHARDS, replication_factor=2, transport="process"
        ),
    ) as pool:
        process = replay_trace(pool, corpora, trace, clients=NUM_THREADS)
    assert pool.transport_kind == "process"
    assert process.results_match, (
        "process-transport served results diverged from the serial baseline"
    )
    assert process.stats.wire_messages > 0 and process.stats.wire_bytes > 0

    def row(label, report):
        stats = report.stats
        return [
            label,
            f"{report.elapsed_seconds:6.3f} s",
            f"{stats.wire_messages:6.0f}",
            f"{stats.wire_bytes / 1024:8.1f}",
            f"{stats.wire_seconds * 1000:7.3f}",
            f"{stats.network_seconds * 1000:7.3f}",
        ]

    table = format_table(
        ["transport", "wall-clock", "wire msgs", "wire KiB", "wire ms", "placement ms"],
        [
            row("inprocess (threads)", threaded_sharded),
            row("process (spawned workers)", process),
        ],
        title=(
            "Transports: identical answers; only the process pool pays "
            "real serialization, priced under the same cluster spec"
        ),
    )

    def measurements(report):
        stats = report.stats
        return {
            "elapsed_seconds": report.elapsed_seconds,
            "wire_messages": stats.wire_messages,
            "wire_bytes": stats.wire_bytes,
            "wire_seconds": stats.wire_seconds,
            "network_seconds": stats.network_seconds,
            "kernel_launches": stats.kernel_launches,
            "results_match": bool(report.results_match),
        }

    return table, {
        "num_shards": NUM_SHARDS,
        "num_requests": len(trace),
        "inprocess": measurements(threaded_sharded),
        "process": measurements(process),
    }


#: Per-corpus probes for the crash scenario — cheap, deterministic, and
#: covering distinct result shapes.
FAULT_PROBES = (
    Query(task=Task.WORD_COUNT, top_k=10),
    Query(task=Task.SORT, top_k=8),
    Query(task=Task.SEQUENCE_COUNT, sequence_length=3, top_k=5),
)


def _kill_one_shard_scenario(corpora, device_config):
    """Hard-kill a live worker mid-trace; every answer must stay right."""
    serial = [AnalyticsService(compressed) for compressed in corpora]
    expected = [
        [service.submit(query).result for query in FAULT_PROBES]
        for service in serial
    ]
    service = ShardedAnalyticsService(
        service_config=device_config,
        sharded_config=ShardedServiceConfig(
            num_shards=NUM_SHARDS, transport="process"
        ),
    )
    wrong = served = 0
    try:
        # Warm every corpus onto its owning worker first, so the kill
        # lands on a shard with real resident state.
        for index, compressed in enumerate(corpora):
            outcome = service.submit(FAULT_PROBES[0], source=compressed)
            served += 1
            wrong += not results_equal(
                FAULT_PROBES[0].task, outcome.result, expected[index][0]
            )
        victim = service._shards[service.shard_for(corpora[0])]
        victim.transport.kill()
        for index, compressed in enumerate(corpora):
            for probe, want in zip(FAULT_PROBES, expected[index]):
                outcome = service.submit(probe, source=compressed)
                served += 1
                wrong += not results_equal(probe.task, outcome.result, want)
        stats = service.stats()
    finally:
        service.close()

    assert wrong == 0, f"{wrong} wrong answers after a worker kill"
    assert stats.shard_failures >= 1, "the kill was never observed as a failure"
    assert stats.replaced_shards == stats.shard_failures
    line = (
        f"Kill-one-shard: worker of corpus 0 hard-killed after warmup; "
        f"{served} requests served, {wrong} wrong answers, "
        f"{stats.shard_failures} shard failure(s), "
        f"{stats.replaced_shards} replacement shard(s) spawned."
    )
    return line, {
        "requests_served": served,
        "wrong_answers": wrong,
        "shard_failures": stats.shard_failures,
        "replaced_shards": stats.replaced_shards,
    }


def test_sharded_serving(benchmark, bench_scale) -> None:
    report = benchmark.pedantic(_build_report, args=(bench_scale,), rounds=1, iterations=1)
    save_report("sharded_serving", report)
    print("\n" + report)
