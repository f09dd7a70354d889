"""Replay a request trace through the serving layer and measure it.

Three helpers serve the CLI (``gtadoc serve-bench``), the serving
benchmarks and the serving examples:

* :func:`replay_trace` replays a trace with N worker threads against a
  thread-based :class:`~repro.serve.service.AnalyticsService`;
* :func:`replay_trace_async` replays the same kind of trace through an
  :class:`~repro.serve.aio.AsyncAnalyticsService` on one event loop,
  with a bounded number of requests in flight;
* :func:`replay_trace_sharded` replays a (possibly multi-corpus) trace
  through a :class:`~repro.serve.sharding.ShardedAnalyticsService` —
  threaded callers by default, or one event loop in the async
  shard-router mode.

A trace is a sequence of :class:`~repro.api.query.Query` objects, or —
for multi-corpus serving — ``(source_index, Query)`` pairs indexing
into a list of compressed corpora.  It may also interleave
:class:`~repro.serve.trace.MutationEvent` barriers (live corpora):
the in-flight queries drain, the event goes through the corpus's
incremental mutation API, and the replay continues — the serving tiers
pick up the new epoch lazily.  All replays optionally execute the same
trace serially with per-query :meth:`GTadoc.run` semantics (a fresh
session per query — the paper's full per-query cost, recompressed from
scratch after every mutation), check the served results for
bit-identity against that shared baseline, and report
launches-per-query plus cache/coalescing statistics side by side in
one :class:`ReplayReport`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, replace as dataclass_replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.lockcheck import make_lock
from repro.api.backends import GTadocBackend
from repro.api.outcome import RunOutcome
from repro.api.query import Query
from repro.compression.compressor import CompressedCorpus, TadocCompressor
from repro.core.session import GTadocConfig
from repro.data.corpus import Corpus
from repro.serve.service import AnalyticsService, ServiceConfig, ServiceStats
from repro.serve.trace import MutationEvent

__all__ = ["ReplayReport", "replay_trace", "replay_trace_async", "replay_trace_sharded"]

#: One trace entry: a bare query (source 0), an explicit (source, query)
#: pair, or a mutation barrier (its source rides on the event itself).
TraceItem = Union[Query, Tuple[int, Query], MutationEvent]

#: One replay phase: the mutations applied at its barrier, then its
#: queries as ``(outcome slot, source index, query)`` triples.
_Phase = Tuple[List[Tuple[int, MutationEvent]], List[Tuple[int, int, Query]]]


@dataclass(frozen=True)
class ReplayReport:
    """Serving replay vs. serial per-query execution, side by side."""

    num_requests: int
    #: Worker threads (threaded replay) or max in-flight requests (async).
    num_threads: int
    #: Outcomes in trace order, as served by the service.
    outcomes: List[RunOutcome]
    #: Service counters for exactly this replay — a
    #: :class:`~repro.serve.service.ServiceStats` for single-service
    #: replays, a :class:`~repro.serve.sharding.ShardedStats` for
    #: sharded ones (both expose ``kernel_launches``).
    stats: "ServiceStats"
    #: Total kernel launches of the serial per-query replay
    #: (``None`` when the serial baseline was skipped).
    serial_launches: Optional[int] = None
    #: Whether every served result equalled its serial counterpart.
    results_match: Optional[bool] = None
    #: How the trace was driven: ``"threads"``, ``"asyncio"``,
    #: ``"threads+sharded"`` or ``"asyncio+sharded"``.
    mode: str = "threads"
    #: Shard count of a sharded replay (``None`` otherwise).
    num_shards: Optional[int] = None
    #: Wall-clock seconds the served replay took (driving the whole
    #: trace through the service, excluding setup and the baseline).
    elapsed_seconds: Optional[float] = None
    #: Wall-clock seconds of the serial per-query baseline replay
    #: (``None`` when the baseline was skipped).
    serial_elapsed_seconds: Optional[float] = None
    #: Mutation events the trace applied mid-replay (live-corpus traces).
    num_mutations: int = 0
    #: Shard transport the pool deployed (sharded replays only):
    #: ``"inprocess"`` or ``"process"``.
    transport: Optional[str] = None

    @property
    def requests_per_second(self) -> Optional[float]:
        if self.elapsed_seconds is None or self.elapsed_seconds <= 0:
            return None
        return self.num_requests / self.elapsed_seconds

    @property
    def wall_clock_speedup(self) -> Optional[float]:
        """Serial baseline seconds over served seconds (higher is better)."""
        if self.elapsed_seconds is None or self.serial_elapsed_seconds is None:
            return None
        if self.elapsed_seconds <= 0:
            return None
        return self.serial_elapsed_seconds / self.elapsed_seconds

    @property
    def served_launches_per_query(self) -> float:
        return self.stats.kernel_launches / self.num_requests if self.num_requests else 0.0

    @property
    def serial_launches_per_query(self) -> Optional[float]:
        if self.serial_launches is None or not self.num_requests:
            return None
        return self.serial_launches / self.num_requests

    @property
    def launch_reduction(self) -> Optional[float]:
        """Fraction of serial launches the serving layer avoided."""
        if self.serial_launches is None or self.serial_launches == 0:
            return None
        return 1.0 - self.stats.kernel_launches / self.serial_launches


def _normalize_trace(
    sources: Union[CompressedCorpus, Sequence[CompressedCorpus]],
    trace: Sequence[TraceItem],
) -> Tuple[List[CompressedCorpus], List[_Phase], int, int]:
    """Resolve a trace into mutation-delimited phases.

    Returns ``(corpora, phases, num_queries, num_mutations)``.  Queries
    are numbered with dense outcome slots in trace order; each
    :class:`~repro.serve.trace.MutationEvent` opens a new phase (a
    replay barrier: the previous phase's queries drain first).  A trace
    without mutations collapses to a single phase — the pre-mutable
    replay shape, byte for byte.
    """
    corpora = [sources] if isinstance(sources, CompressedCorpus) else list(sources)
    if not corpora:
        raise ValueError("a replay needs at least one compressed corpus")
    phases: List[_Phase] = [([], [])]
    num_queries = 0
    num_mutations = 0
    for item in trace:
        if isinstance(item, MutationEvent):
            if not 0 <= item.source < len(corpora):
                raise ValueError(
                    f"trace mutates source {item.source} but only {len(corpora)} given"
                )
            if phases[-1][1]:
                phases.append(([(item.source, item)], []))
            else:  # back-to-back mutations share one barrier
                phases[-1][0].append((item.source, item))
            num_mutations += 1
            continue
        if isinstance(item, Query):
            index, query = 0, item
        else:
            index, query = item
            if not 0 <= index < len(corpora):
                raise ValueError(f"trace names source {index} but only {len(corpora)} given")
        phases[-1][1].append((num_queries, int(index), query))
        num_queries += 1
    return corpora, phases, num_queries, num_mutations


def _token_snapshots(corpora: Sequence[CompressedCorpus]) -> List[dict]:
    """Each corpus's current ``{file name: tokens}`` (pre-replay state)."""
    return [
        {
            name: compressed.expand_file_tokens(index)
            for index, name in enumerate(compressed.file_names)
        }
        for compressed in corpora
    ]


def _serial_comparison(
    corpora: Sequence[CompressedCorpus],
    phases: Sequence[_Phase],
    engine_config: Optional[GTadocConfig],
    outcomes: Sequence[RunOutcome],
    snapshots: Optional[List[dict]] = None,
) -> Tuple[int, bool, float]:
    """Replay serially (fresh session per query) and check bit-identity.

    This is the one shared baseline: every replay flavour — threaded,
    asyncio and sharded — measures against exactly this per-query cost.
    For a mutating trace, ``snapshots`` holds every corpus's pre-replay
    token streams: the baseline applies each barrier's events to the
    snapshot and recompresses the corpus *from scratch*, so the
    comparison is also an end-to-end incremental-vs-scratch equivalence
    check.  Returns total launches, the bit-identity verdict, and the
    wall-clock seconds the serial replay took.
    """

    def scratch_backend(index: int) -> GTadocBackend:
        compressed = TadocCompressor().compress(
            Corpus.from_token_streams(snapshots[index])
        )
        return GTadocBackend(compressed, config=engine_config, amortize=False)

    if snapshots is None:
        serial = [
            GTadocBackend(compressed, config=engine_config, amortize=False)
            for compressed in corpora
        ]
    else:
        serial = [scratch_backend(index) for index in range(len(corpora))]
    launches = 0
    match = True
    started = time.perf_counter()
    for mutations, queries in phases:
        if mutations and snapshots is not None:
            for source_index, event in mutations:
                event.apply_to_documents(snapshots[source_index])
            for source_index in dict.fromkeys(index for index, _event in mutations):
                serial[source_index] = scratch_backend(source_index)
        for slot, source_index, query in queries:
            reference = serial[source_index].run(query)
            launches += reference.kernel_launches
            if outcomes[slot].result != reference.result:
                match = False
    elapsed = time.perf_counter() - started
    return launches, match, elapsed


def _drive_threaded(
    submit,
    items: Sequence[Tuple[int, Query]],
    num_threads: int,
) -> List[RunOutcome]:
    """Drain ``items`` with a pool of claiming worker threads.

    Workers share a stop flag checked in the claim loop: the first
    error stops every worker before it claims another query (instead of
    letting the pool drain the rest of the trace against a failed
    replay), and the original exception is re-raised unmasked in the
    caller's thread.
    """
    outcomes: List[Optional[RunOutcome]] = [None] * len(items)
    errors: List[BaseException] = []
    cursor = {"next": 0}
    cursor_lock = make_lock("replay.cursor")
    stop = threading.Event()

    def worker() -> None:
        while not stop.is_set():
            with cursor_lock:
                index = cursor["next"]
                if index >= len(items):
                    return
                cursor["next"] = index + 1
            try:
                outcomes[index] = submit(*items[index])
            except BaseException as error:  # surface in the caller's thread
                errors.append(error)
                stop.set()
                return

    threads = [threading.Thread(target=worker) for _ in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return list(outcomes)


def _drive_phases_threaded(
    submit,
    corpora: Sequence[CompressedCorpus],
    phases: Sequence[_Phase],
    num_threads: int,
    num_queries: int,
) -> List[RunOutcome]:
    """Drive mutation-delimited phases with a worker pool per phase.

    Each barrier's mutations go through the live corpus's incremental
    API after the previous phase's queries drained; nothing is sent to
    the serving tiers, which observe the new epoch lazily on the next
    routed query.
    """
    outcomes: List[Optional[RunOutcome]] = [None] * num_queries
    for mutations, queries in phases:
        for source_index, event in mutations:
            event.apply(corpora[source_index])
        if not queries:
            continue
        phase_outcomes = _drive_threaded(
            submit, [(source, query) for _slot, source, query in queries], num_threads
        )
        for (slot, _source, _query), outcome in zip(queries, phase_outcomes):
            outcomes[slot] = outcome
    return list(outcomes)


def _drive_async(
    submit,
    corpora: Sequence[CompressedCorpus],
    phases: Sequence[_Phase],
    concurrency: int,
    num_queries: int,
) -> List[RunOutcome]:
    """Drain the phases on one event loop with a bounded in-flight window.

    ``submit`` is an async callable ``(query, source=...)`` — the plain
    asyncio service's or the shard-router client's — so both async
    replay flavours share one driver.  Mutation barriers apply between
    the per-phase gathers, after every in-flight request of the
    previous phase resolved.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")

    async def replay() -> List[RunOutcome]:
        gate = asyncio.Semaphore(concurrency)
        outcomes: List[Optional[RunOutcome]] = [None] * num_queries

        async def serve(slot: int, index: int, query: Query) -> None:
            async with gate:
                outcomes[slot] = await submit(query, source=corpora[index])

        for mutations, queries in phases:
            for source_index, event in mutations:
                event.apply(corpora[source_index])
            if queries:
                await asyncio.gather(
                    *(serve(slot, index, query) for slot, index, query in queries)
                )
        return list(outcomes)

    return asyncio.run(replay())


def replay_trace(
    compressed: Union[CompressedCorpus, Sequence[CompressedCorpus]],
    trace: Sequence[TraceItem],
    *,
    num_threads: int = 8,
    engine_config: Optional[GTadocConfig] = None,
    service_config: Optional[ServiceConfig] = None,
    serial_baseline: bool = True,
) -> ReplayReport:
    """Replay ``trace`` through a fresh service with ``num_threads`` workers.

    ``compressed`` may be one corpus or a list of them; multi-corpus
    traces name their corpus per query with ``(source_index, Query)``
    pairs.  With ``serial_baseline`` (the default) the same trace is
    also executed serially — one fresh-session ``run()`` per query —
    and the served results are checked for bit-identity against it.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    corpora, phases, num_queries, num_mutations = _normalize_trace(compressed, trace)
    # Snapshot token streams before serving: the replay mutates the live
    # corpora, and the baseline must recompress from the *initial* state.
    snapshots = _token_snapshots(corpora) if serial_baseline and num_mutations else None
    service = AnalyticsService(
        corpora[0], engine_config=engine_config, service_config=service_config
    )
    started = time.perf_counter()
    outcomes = _drive_phases_threaded(
        lambda index, query: service.submit(query, source=corpora[index]),
        corpora,
        phases,
        num_threads,
        num_queries,
    )
    elapsed = time.perf_counter() - started

    serial_launches: Optional[int] = None
    results_match: Optional[bool] = None
    serial_elapsed: Optional[float] = None
    if serial_baseline:
        serial_launches, results_match, serial_elapsed = _serial_comparison(
            corpora, phases, engine_config, outcomes, snapshots
        )

    return ReplayReport(
        num_requests=num_queries,
        num_threads=num_threads,
        outcomes=outcomes,
        stats=service.stats(),
        serial_launches=serial_launches,
        results_match=results_match,
        mode="threads",
        elapsed_seconds=elapsed,
        serial_elapsed_seconds=serial_elapsed,
        num_mutations=num_mutations,
    )


def replay_trace_async(
    compressed: Union[CompressedCorpus, Sequence[CompressedCorpus]],
    trace: Sequence[TraceItem],
    *,
    concurrency: int = 64,
    engine_config: Optional[GTadocConfig] = None,
    service_config: Optional[ServiceConfig] = None,
    serial_baseline: bool = True,
    max_workers: int = 4,
) -> ReplayReport:
    """Replay ``trace`` through a fresh asyncio service on one event loop.

    Up to ``concurrency`` requests are in flight at once (far more than
    a thread pool of the same size could hold), so compatible queries
    queue behind each executing micro-batch and the next batches run
    close to full.  With ``serial_baseline`` the serial per-query
    comparison replay runs afterwards, exactly as in
    :func:`replay_trace`.
    """
    from repro.serve.aio import AsyncAnalyticsService

    corpora, phases, num_queries, num_mutations = _normalize_trace(compressed, trace)
    snapshots = _token_snapshots(corpora) if serial_baseline and num_mutations else None
    service = AsyncAnalyticsService(
        corpora[0],
        engine_config=engine_config,
        service_config=service_config,
        max_workers=max_workers,
    )
    try:
        started = time.perf_counter()
        outcomes = _drive_async(service.submit, corpora, phases, concurrency, num_queries)
        elapsed = time.perf_counter() - started
        stats = service.stats()
    finally:
        service.close()

    serial_launches: Optional[int] = None
    results_match: Optional[bool] = None
    serial_elapsed: Optional[float] = None
    if serial_baseline:
        serial_launches, results_match, serial_elapsed = _serial_comparison(
            corpora, phases, engine_config, outcomes, snapshots
        )

    return ReplayReport(
        num_requests=num_queries,
        num_threads=concurrency,
        outcomes=outcomes,
        stats=stats,
        serial_launches=serial_launches,
        results_match=results_match,
        mode="asyncio",
        elapsed_seconds=elapsed,
        serial_elapsed_seconds=serial_elapsed,
        num_mutations=num_mutations,
    )


def replay_trace_sharded(
    compressed: Union[CompressedCorpus, Sequence[CompressedCorpus]],
    trace: Sequence[TraceItem],
    *,
    num_shards: int = 2,
    replicas: int = 2,
    num_threads: int = 8,
    engine_config: Optional[GTadocConfig] = None,
    service_config: Optional[ServiceConfig] = None,
    sharded_config: Optional["ShardedServiceConfig"] = None,
    serial_baseline: bool = True,
    use_async: bool = False,
    concurrency: int = 64,
    transport: Optional[str] = None,
) -> ReplayReport:
    """Replay ``trace`` through a fingerprint-routed shard pool.

    Each of ``num_shards`` shards owns its own serving core (session
    LRU, result cache, coalescer) on its own executor; queries route by
    corpus fingerprint, and corpora hot enough to cross the replication
    threshold fan out across ``replicas`` shards.  Threaded callers
    drive the trace by default; with ``use_async`` one event loop fans
    up to ``concurrency`` in-flight queries to the owning shards
    through :class:`~repro.serve.aio.AsyncAnalyticsService`'s
    shard-router mode.  The serial baseline is the same one every other
    replay measures against.  ``transport`` picks the shard deployment
    (``"inprocess"``/``"process"``); ``None`` keeps the sharded config's
    choice, which itself defaults to ``REPRO_SHARD_TRANSPORT``.
    """
    from repro.serve.sharding import ShardedAnalyticsService, ShardedServiceConfig

    corpora, phases, num_queries, num_mutations = _normalize_trace(compressed, trace)
    snapshots = _token_snapshots(corpora) if serial_baseline and num_mutations else None
    if sharded_config is None:
        sharded_config = ShardedServiceConfig(
            num_shards=num_shards, replication_factor=replicas
        )
    if transport is not None:
        sharded_config = dataclass_replace(sharded_config, transport=transport)
    service = ShardedAnalyticsService(
        corpora[0],
        engine_config=engine_config,
        service_config=service_config,
        sharded_config=sharded_config,
    )
    try:
        if use_async:
            from repro.serve.aio import AsyncAnalyticsService

            client = AsyncAnalyticsService(router=service)
            try:
                started = time.perf_counter()
                outcomes = _drive_async(
                    client.submit, corpora, phases, concurrency, num_queries
                )
                elapsed = time.perf_counter() - started
            finally:
                client.close()
            mode = "asyncio+sharded"
            drivers = concurrency
        else:
            if num_threads < 1:
                raise ValueError("num_threads must be >= 1")
            started = time.perf_counter()
            outcomes = _drive_phases_threaded(
                lambda index, query: service.submit(query, source=corpora[index]),
                corpora,
                phases,
                num_threads,
                num_queries,
            )
            elapsed = time.perf_counter() - started
            mode = "threads+sharded"
            drivers = num_threads
        stats = service.stats()
        transport_kind = service.transport_kind
    finally:
        service.close()

    serial_launches: Optional[int] = None
    results_match: Optional[bool] = None
    serial_elapsed: Optional[float] = None
    if serial_baseline:
        serial_launches, results_match, serial_elapsed = _serial_comparison(
            corpora, phases, engine_config, outcomes, snapshots
        )

    return ReplayReport(
        num_requests=num_queries,
        num_threads=drivers,
        outcomes=outcomes,
        stats=stats,
        serial_launches=serial_launches,
        results_match=results_match,
        mode=mode,
        num_shards=sharded_config.num_shards,
        elapsed_seconds=elapsed,
        serial_elapsed_seconds=serial_elapsed,
        num_mutations=num_mutations,
        transport=transport_kind,
    )
