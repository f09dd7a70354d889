"""Async serving — event-driven coalescing vs. the threaded service.

The thread-based serving front end caps concurrency (and therefore
coalescing opportunity) at its worker-thread count; the asyncio front
end (:mod:`repro.serve.aio`) holds every request of a burst in flight
as a coroutine, so the requests that queue behind each executing
micro-batch fill the next one close to full.  Neither front end holds a
window open: batches form only from requests already waiting.

This benchmark replays the same synthetic mixed-task request trace on
every Table II dataset analogue three ways: through an 8-thread
:class:`~repro.serve.AnalyticsService`, through an
:class:`~repro.serve.AsyncAnalyticsService` with the whole trace in
flight, and serially with per-query ``run()`` semantics (a fresh
session per query, the paper's full per-query cost).  It asserts that
the async front end produces bit-identical results, launches strictly
fewer kernels than serial execution, and coalesces at least as well as
the threaded service (mean micro-batch size) on every dataset.
"""

from __future__ import annotations

from repro.bench.tables import format_table, save_report
from repro.compression.compressor import compress_corpus
from repro.data.generators import generate_dataset, list_datasets
from repro.serve import (
    AnalyticsService,
    AsyncAnalyticsService,
    TraceConfig,
    replay_trace,
    synthesize_trace,
)

NUM_REQUESTS = 48
NUM_THREADS = 8


def _build_report(scale: float) -> str:
    rows = []
    for dataset in list_datasets():
        compressed = compress_corpus(generate_dataset(dataset, scale=scale))
        trace = synthesize_trace(
            compressed.file_names, TraceConfig(num_requests=NUM_REQUESTS, seed=17)
        )
        threaded = replay_trace(
            AnalyticsService(), compressed, trace, clients=NUM_THREADS, serial_baseline=False
        )
        with AsyncAnalyticsService() as service:
            report = replay_trace(service, compressed, trace, clients=NUM_REQUESTS)
        assert report.results_match, f"async served results diverged from serial on {dataset}"
        assert report.stats.kernel_launches < report.serial_launches, (
            f"async serving must launch strictly fewer kernels than serial runs on {dataset}"
        )
        assert report.stats.mean_batch_size >= threaded.stats.mean_batch_size, (
            f"async coalescing must be at least as good as threaded on {dataset}"
        )
        rows.append(
            [
                dataset,
                f"{report.serial_launches_per_query:7.2f}",
                f"{report.served_launches_per_query:7.2f}",
                f"{report.launch_reduction * 100:5.1f}%",
                f"{threaded.stats.mean_batch_size:5.2f}",
                f"{report.stats.mean_batch_size:5.2f}",
                f"{report.stats.micro_batches:4d}",
            ]
        )
    table = format_table(
        [
            "dataset",
            "serial launches/q",
            "async launches/q",
            "launch cut",
            "mean batch (threads)",
            "mean batch (async)",
            "batches",
        ],
        rows,
        title=(
            f"Async serving: event-driven coalescing ({NUM_REQUESTS} in-flight requests) "
            f"vs {NUM_THREADS}-thread service vs serial per-query runs"
        ),
    )
    summary = (
        "The asyncio front end holds the whole burst in flight, so the "
        "requests queued behind each executing batch fill micro-batches "
        "the threaded service cannot: coalescing is at least as good on "
        "every dataset, results stay bit-identical to serial per-query "
        "execution, and kernel launches per query drop accordingly."
    )
    return table + "\n\n" + summary


def test_async_serving(benchmark, bench_scale) -> None:
    report = benchmark.pedantic(_build_report, args=(bench_scale,), rounds=1, iterations=1)
    save_report("async_serving", report)
    print("\n" + report)
