"""Serving layer: concurrent query serving over G-TADOC.

Two front ends share one implementation core
(:class:`~repro.serve.service.ServingCore` — session LRU keyed by
corpus fingerprint plus engine config, coalescing of compatible
in-flight queries into ``run_fused`` micro-batches, a ``Query``-keyed
result cache with an optional byte budget, and epoch-guarded fingerprint
invalidation):

* :class:`AnalyticsService` — thread-based, blocking ``submit`` (the
  ``"serve"`` backend);
* :class:`AsyncAnalyticsService` — asyncio, ``await submit`` with
  every request in flight as a coroutine and a bounded executor for
  engine work (the ``"serve_async"`` backend, via
  :class:`AsyncServeBackend`).

Neither front end waits for followers: a micro-batch leader executes at
once, and the compatible requests that queue while a batch executes
form the next batch.  :class:`ShardedAnalyticsService` routes queries
by corpus fingerprint across a pool of such cores, in-process or in
worker processes; ``AsyncAnalyticsService(router=pool)`` is the pool's
asyncio client.

:func:`replay_trace` drives a request trace through any of these
services — on worker threads when ``submit`` blocks, on one event loop
when it is a coroutine — and checks every answer against serial
per-query execution.  The caller builds and closes the service.

Quick start::

    from repro.serve import AnalyticsService

    service = AnalyticsService(compressed)
    outcome = service.submit(Query(task="word_count", top_k=10))
    print(service.stats().launches_per_query)

or, on an event loop::

    from repro.serve import AsyncAnalyticsService

    service = AsyncAnalyticsService(compressed)
    outcome = await service.submit(Query(task="word_count", top_k=10))
"""

from repro.serve.aio import (
    AsyncAnalyticsService,
    AsyncCoalescedRequest,
    AsyncQueryCoalescer,
    AsyncServeBackend,
)
from repro.serve.caches import CacheStats, LRUCache
from repro.serve.coalescer import BatchSlot, CoalescedRequest, QueryCoalescer
from repro.serve.replay import ReplayReport, replay_trace
from repro.serve.service import AnalyticsService, ServiceConfig, ServiceStats, ServingCore
from repro.serve.sharding import (
    ShardedAnalyticsService,
    ShardedServiceConfig,
    ShardedStats,
    rendezvous_rank,
)
from repro.serve.trace import TraceConfig, synthesize_trace
from repro.serve.transport import (
    InProcessTransport,
    ProcessTransport,
    ShardFailure,
    ShardTransport,
    create_transport,
)
from repro.serve.worker import ShardHost

__all__ = [
    "AnalyticsService",
    "AsyncAnalyticsService",
    "AsyncServeBackend",
    "ServingCore",
    "ServiceConfig",
    "ServiceStats",
    "ShardedAnalyticsService",
    "ShardedServiceConfig",
    "ShardedStats",
    "rendezvous_rank",
    "ShardTransport",
    "InProcessTransport",
    "ProcessTransport",
    "ShardFailure",
    "ShardHost",
    "create_transport",
    "CacheStats",
    "LRUCache",
    "QueryCoalescer",
    "AsyncQueryCoalescer",
    "BatchSlot",
    "CoalescedRequest",
    "AsyncCoalescedRequest",
    "TraceConfig",
    "synthesize_trace",
    "ReplayReport",
    "replay_trace",
]
