"""Serving throughput — coalesced concurrent serving vs. serial per-query runs.

TADOC's compressed structures are built once and meant to serve many
queries; the serving layer (:mod:`repro.serve`) turns that into a
concurrent front end: a bounded session LRU keyed by corpus
fingerprint, coalescing of compatible in-flight queries into
``run_batch`` micro-batches, and a ``Query``-keyed result cache.

This benchmark replays the same synthetic mixed-task request trace two
ways on every Table II dataset analogue — through an 8-thread
:class:`~repro.serve.AnalyticsService` and serially with per-query
``run()`` semantics (a fresh session per query, the paper's full
per-query cost) — and asserts that serving launches strictly fewer
kernels per query while producing bit-identical results.
"""

from __future__ import annotations

from repro.bench.tables import format_table, save_report
from repro.compression.compressor import compress_corpus
from repro.data.generators import generate_dataset, list_datasets
from repro.serve import AnalyticsService, TraceConfig, replay_trace, synthesize_trace

NUM_REQUESTS = 48
NUM_THREADS = 8


def _build_report(scale: float) -> str:
    rows = []
    for dataset in list_datasets():
        compressed = compress_corpus(generate_dataset(dataset, scale=scale))
        trace = synthesize_trace(
            compressed.file_names, TraceConfig(num_requests=NUM_REQUESTS, seed=17)
        )
        report = replay_trace(AnalyticsService(), compressed, trace, clients=NUM_THREADS)
        stats = report.stats
        assert report.results_match, f"served results diverged from serial on dataset {dataset}"
        assert stats.kernel_launches < report.serial_launches, (
            f"serving must launch strictly fewer kernels than serial runs on {dataset}"
        )
        assert report.served_launches_per_query < report.serial_launches_per_query, (
            f"serving must launch fewer kernels per query than serial runs on {dataset}"
        )
        rows.append(
            [
                dataset,
                f"{report.serial_launches_per_query:7.2f}",
                f"{report.served_launches_per_query:7.2f}",
                f"{report.launch_reduction * 100:5.1f}%",
                f"{stats.result_cache.hit_rate * 100:5.1f}%",
                f"{stats.mean_batch_size:5.2f}",
                f"{stats.coalesced_queries:4d}",
            ]
        )
    table = format_table(
        [
            "dataset",
            "serial launches/q",
            "served launches/q",
            "launch cut",
            "cache hit rate",
            "mean batch",
            "coalesced",
        ],
        rows,
        title=(
            f"Serving throughput: {NUM_THREADS}-thread coalesced service vs "
            f"serial per-query runs ({NUM_REQUESTS} mixed requests)"
        ),
    )
    summary = (
        "Served results are bit-identical to serial per-query execution; the "
        "session LRU, micro-batch coalescing and the Query-keyed result "
        "cache together cut kernel launches per query on every dataset."
    )
    return table + "\n\n" + summary


def test_serving_throughput(benchmark, bench_scale) -> None:
    report = benchmark.pedantic(_build_report, args=(bench_scale,), rounds=1, iterations=1)
    save_report("serving_throughput", report)
    print("\n" + report)
