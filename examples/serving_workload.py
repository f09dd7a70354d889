"""Serving workload: concurrent analytics traffic through AnalyticsService.

Run with::

    python examples/serving_workload.py

TADOC compresses once and serves many queries; the serving layer
(:mod:`repro.serve`) makes that concurrent and cached.  This example
builds a small corpus, synthesizes a mixed request trace (repeated hot
queries, per-query top-k cuts, file subsets, sequence lengths), and
replays it with 8 worker threads through an
:class:`~repro.serve.AnalyticsService` — then verifies every served
result against serial per-query execution and prints what the session
cache, micro-batch coalescing and the result cache saved.
"""

from __future__ import annotations

from repro import Corpus, compress_corpus
from repro.api import Query
from repro.serve import AnalyticsService, TraceConfig, replay_trace, synthesize_trace


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
    return Corpus.from_texts(texts, name="serving-demo")


def main() -> None:
    corpus = build_corpus()
    compressed = compress_corpus(corpus)
    print(
        f"corpus: {len(corpus)} files, {corpus.num_tokens} tokens "
        f"(fingerprint {compressed.fingerprint()[:12]}...)"
    )

    trace = synthesize_trace(
        compressed.file_names, TraceConfig(num_requests=40, seed=11, repeat_fraction=0.4)
    )
    print(f"trace: {len(trace)} requests, {len(set(trace))} distinct queries")

    report = replay_trace(AnalyticsService(), compressed, trace, clients=8)
    assert report.results_match, "served results diverged from serial execution"
    stats = report.stats

    print(f"\nserved {stats.queries} queries with {report.clients} worker threads:")
    print(f"  engine micro-batches:   {stats.micro_batches} "
          f"(mean size {stats.mean_batch_size:.2f}, {stats.coalesced_queries} queries coalesced)")
    print(f"  result cache:           {stats.result_cache.hits} hits / "
          f"{stats.result_cache.lookups} lookups ({stats.result_cache.hit_rate * 100:.1f}%)")
    print(f"  kernel launches/query:  {report.served_launches_per_query:.2f} served vs "
          f"{report.serial_launches_per_query:.2f} serial "
          f"({report.launch_reduction * 100:.1f}% fewer)")
    print("  every result bit-identical to a fresh per-query run")

    # The service front door also answers one-off queries directly, and
    # repeated queries come straight from the result cache.
    service = AnalyticsService(compressed)
    first = service.submit(Query(task="sort", top_k=3))
    again = service.submit(Query(task="sort", top_k=3))
    assert again.details["result_cache"] == "hit"
    print(f"\ntop-3 words: {first.result} (second ask served from cache)")


if __name__ == "__main__":
    main()
