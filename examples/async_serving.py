"""Async serving: concurrent analytics traffic on one event loop.

Run with::

    python examples/async_serving.py

The thread-based serving example (``serving_workload.py``) needs a
worker thread per in-flight request; this one serves the same kind of
mixed traffic from a single asyncio event loop.  Every request is a
coroutine, so the whole burst is in flight at once: the first query's
micro-batch executes at once, compatible queries queue behind it and
run together as the next batches, and the engine's simulated kernels
run on a small bounded executor so the loop itself never blocks.
"""

from __future__ import annotations

import asyncio

from repro import Corpus, compress_corpus
from repro.api import Query
from repro.serve import (
    AsyncAnalyticsService,
    ServiceConfig,
    TraceConfig,
    replay_trace,
    synthesize_trace,
)


def build_corpus() -> Corpus:
    """A small 'server logs' corpus with plenty of repeated phrasing."""
    texts = {
        "frontend.log": (
            "request served in time request served in time cache hit on index "
            "user session opened user session opened request served in time"
        ),
        "backend.log": (
            "query planned and executed query planned and executed cache miss on index "
            "request served in time user session opened query planned and executed"
        ),
        "worker.log": (
            "batch job completed batch job completed cache hit on index "
            "query planned and executed batch job completed request served in time"
        ),
    }
    return Corpus.from_texts(texts, name="async-serving-demo")


async def burst(service: AsyncAnalyticsService) -> None:
    """Fire one burst of concurrent queries and show how they coalesced."""
    queries = [
        Query(task="word_count"),
        Query(task="sort", top_k=5),
        Query(task="inverted_index"),
        Query(task="term_vector", top_k=3),
        Query(task="ranked_inverted_index", top_k=5),
        Query(task="sequence_count"),
    ]
    outcomes = await asyncio.gather(*(service.submit(query) for query in queries))
    batch_sizes = sorted(outcome.details["batch_size"] for outcome in outcomes)
    print(f"burst of {len(queries)} concurrent queries -> micro-batch sizes {batch_sizes}")
    assert any(size > 1 for size in batch_sizes), "concurrent compatible queries must coalesce"


def main() -> None:
    corpus = build_corpus()
    compressed = compress_corpus(corpus)
    print(
        f"corpus: {len(corpus)} files, {corpus.num_tokens} tokens "
        f"(fingerprint {compressed.fingerprint()[:12]}...)"
    )

    # One event-driven burst through the async front door.
    service = AsyncAnalyticsService(
        compressed, service_config=ServiceConfig(cache_results=False)
    )
    try:
        asyncio.run(burst(service))
    finally:
        service.close()

    # A full trace replay: the whole trace in flight on one loop, checked
    # for bit-identity against serial per-query execution.
    trace = synthesize_trace(
        compressed.file_names, TraceConfig(num_requests=40, seed=11, repeat_fraction=0.4)
    )
    print(f"\ntrace: {len(trace)} requests, {len(set(trace))} distinct queries")
    with AsyncAnalyticsService() as service:
        report = replay_trace(service, compressed, trace, clients=len(trace))
    assert report.results_match, "async served results diverged from serial execution"
    stats = report.stats

    print(f"served {stats.queries} queries with {report.clients} requests in flight:")
    print(f"  engine micro-batches:   {stats.micro_batches} "
          f"(mean size {stats.mean_batch_size:.2f}, {stats.coalesced_queries} queries coalesced)")
    print(f"  kernel launches/query:  {report.served_launches_per_query:.2f} served vs "
          f"{report.serial_launches_per_query:.2f} serial "
          f"({report.launch_reduction * 100:.1f}% fewer)")
    print("  every result bit-identical to a fresh per-query run")


if __name__ == "__main__":
    main()
