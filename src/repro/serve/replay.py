"""Replay a request trace through the serving layer and measure it.

:func:`replay_trace` is the one replay driver behind the CLI
(``gtadoc serve-bench``), the serving tests and the serving examples.
The caller builds the service and closes it; the service's ``submit``
decides how the trace is driven:

* a coroutine ``submit`` — :class:`~repro.serve.aio.AsyncAnalyticsService`,
  plain or as a shard pool's router client — runs on one event loop
  with at most ``clients`` requests in flight;
* a blocking ``submit`` — :class:`~repro.serve.service.AnalyticsService`,
  :class:`~repro.serve.sharding.ShardedAnalyticsService` or any other
  object with ``submit``/``stats`` — runs on ``clients`` claiming
  worker threads.

A trace is a sequence of :class:`~repro.api.query.Query` objects, or —
for multi-corpus serving — ``(source_index, Query)`` pairs indexing
into a list of compressed corpora.  It may also interleave
:class:`~repro.serve.trace.MutationEvent` barriers (live corpora):
the in-flight queries drain, the event goes through the corpus's
incremental mutation API, and the replay continues — the serving tiers
pick up the new epoch lazily.  The replay optionally executes the same
trace serially with per-query :meth:`GTadoc.run` semantics (a fresh
session per query — the paper's full per-query cost, recompressed from
scratch after every mutation), checks the served results for
bit-identity against that baseline, and reports launches-per-query
plus cache/coalescing statistics side by side in one
:class:`ReplayReport`.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.lockcheck import make_lock
from repro.api.backends import GTadocBackend
from repro.api.outcome import RunOutcome
from repro.api.query import Query
from repro.compression.compressor import CompressedCorpus, TadocCompressor
from repro.data.corpus import Corpus
from repro.serve.service import ServiceStats
from repro.serve.trace import MutationEvent

__all__ = ["ReplayReport", "replay_trace"]

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
    #: Claiming worker threads (blocking ``submit``) or max in-flight
    #: requests (coroutine ``submit``).
    clients: int
    #: Outcomes in trace order, as served by the service.
    outcomes: List[RunOutcome]
    #: Service counters read right after the replay (so they include
    #: anything the service served before it) — a
    #: :class:`~repro.serve.service.ServiceStats` for single-service
    #: replays, a :class:`~repro.serve.sharding.ShardedStats` for shard
    #: pools (both expose ``kernel_launches``).
    stats: "ServiceStats"
    #: Wall-clock seconds the served replay took (driving the whole
    #: trace through the service, excluding setup and the baseline).
    elapsed_seconds: float
    #: Total kernel launches of the serial per-query replay
    #: (``None`` when the serial baseline was skipped).
    serial_launches: Optional[int] = None
    #: Whether every served result equalled its serial counterpart.
    results_match: Optional[bool] = None
    #: Wall-clock seconds of the serial per-query baseline replay
    #: (``None`` when the baseline was skipped).
    serial_elapsed_seconds: Optional[float] = None
    #: Mutation events the trace applied mid-replay (live-corpus traces).
    num_mutations: int = 0

    @property
    def requests_per_second(self) -> Optional[float]:
        if self.elapsed_seconds <= 0:
            return None
        return self.num_requests / self.elapsed_seconds

    @property
    def wall_clock_speedup(self) -> Optional[float]:
        """Serial baseline seconds over served seconds (higher is better)."""
        if self.serial_elapsed_seconds is None or self.elapsed_seconds <= 0:
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
    outcomes: Sequence[RunOutcome],
    snapshots: Optional[List[dict]] = None,
) -> Tuple[int, bool, float]:
    """Replay serially (fresh session per query) and check bit-identity.

    This is the baseline every replay measures against, whatever the
    service and its driver: the default-config G-TADOC engine paying
    its full per-query cost.  For a mutating trace, ``snapshots`` holds
    every corpus's pre-replay token streams: the baseline applies each
    barrier's events to the snapshot and recompresses the corpus *from
    scratch*, so the comparison is also an end-to-end
    incremental-vs-scratch equivalence check.  Returns total launches,
    the bit-identity verdict, and the wall-clock seconds the serial
    replay took.
    """

    def scratch_backend(index: int) -> GTadocBackend:
        compressed = TadocCompressor().compress(
            Corpus.from_token_streams(snapshots[index])
        )
        return GTadocBackend(compressed, amortize=False)

    if snapshots is None:
        serial = [GTadocBackend(compressed, amortize=False) for compressed in corpora]
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
    corpora: Sequence[CompressedCorpus],
    phases: Sequence[_Phase],
    clients: int,
    num_queries: int,
) -> List[RunOutcome]:
    """Drain each phase with ``clients`` claiming worker threads.

    A barrier's mutations go through the live corpus's incremental API
    once every worker of the previous phase has joined; nothing is sent
    to the serving tiers, which observe the new epoch lazily on the next
    query.  Workers share a stop flag checked in the claim loop: the
    first error stops every worker before it claims another query
    (instead of letting the pool drain the rest of the trace against a
    failed replay), and the original exception is re-raised unmasked in
    the caller's thread.
    """
    outcomes: List[Optional[RunOutcome]] = [None] * num_queries
    errors: List[BaseException] = []
    cursor_lock = make_lock("replay.cursor")
    stop = threading.Event()

    def worker(claims) -> None:
        while not stop.is_set():
            with cursor_lock:
                claim = next(claims, None)
            if claim is None:
                return
            slot, index, query = claim
            try:
                outcomes[slot] = submit(query, source=corpora[index])
            except BaseException as error:  # surface in the caller's thread
                errors.append(error)
                stop.set()
                return

    for mutations, queries in phases:
        for source_index, event in mutations:
            event.apply(corpora[source_index])
        claims = iter(queries)
        threads = [threading.Thread(target=worker, args=(claims,)) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
    return list(outcomes)


def _drive_async(
    submit,
    corpora: Sequence[CompressedCorpus],
    phases: Sequence[_Phase],
    clients: int,
    num_queries: int,
) -> List[RunOutcome]:
    """Drain the phases on one event loop with at most ``clients`` in flight.

    Mutation barriers apply between the per-phase gathers, after every
    in-flight request of the previous phase resolved.  The first error
    ends the gather; ``asyncio.run`` then cancels the requests still
    waiting for the gate, so they are never submitted.
    """

    async def replay() -> List[RunOutcome]:
        gate = asyncio.Semaphore(clients)
        outcomes: List[Optional[RunOutcome]] = [None] * num_queries

        async def serve(slot: int, index: int, query: Query) -> None:
            async with gate:
                outcomes[slot] = await submit(query, source=corpora[index])

        for mutations, queries in phases:
            for source_index, event in mutations:
                event.apply(corpora[source_index])
            await asyncio.gather(*(serve(slot, index, query) for slot, index, query in queries))
        return list(outcomes)

    return asyncio.run(replay())


def replay_trace(
    service,
    corpora: Union[CompressedCorpus, Sequence[CompressedCorpus]],
    trace: Sequence[TraceItem],
    *,
    clients: int = 8,
    serial_baseline: bool = True,
) -> ReplayReport:
    """Replay ``trace`` through ``service`` with ``clients`` concurrent callers.

    ``service`` is anything with ``submit(query, source=...)`` and
    ``stats()``; the caller builds it and closes it afterwards.  A
    coroutine ``submit`` is driven on one event loop, a blocking one on
    worker threads.  ``corpora`` may be one corpus or a list of them;
    multi-corpus traces name their corpus per query with
    ``(source_index, Query)`` pairs.  With ``serial_baseline`` (the
    default) the same trace is also executed serially — one
    fresh-session ``run()`` per query — and the served results are
    checked for bit-identity against it.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    corpora, phases, num_queries, num_mutations = _normalize_trace(corpora, trace)
    # Snapshot token streams before serving: the replay mutates the live
    # corpora, and the baseline must recompress from the *initial* state.
    snapshots = _token_snapshots(corpora) if serial_baseline and num_mutations else None
    drive = _drive_async if inspect.iscoroutinefunction(service.submit) else _drive_threaded
    # A process-shard pool spawns its workers lazily; reading its stats
    # makes every shard start one now, so the clock excludes the spawn.
    service.stats()
    started = time.perf_counter()
    outcomes = drive(service.submit, corpora, phases, clients, num_queries)
    elapsed = time.perf_counter() - started
    stats = service.stats()

    serial_launches: Optional[int] = None
    results_match: Optional[bool] = None
    serial_elapsed: Optional[float] = None
    if serial_baseline:
        serial_launches, results_match, serial_elapsed = _serial_comparison(
            corpora, phases, outcomes, snapshots
        )

    return ReplayReport(
        num_requests=num_queries,
        clients=clients,
        outcomes=outcomes,
        stats=stats,
        elapsed_seconds=elapsed,
        serial_launches=serial_launches,
        results_match=results_match,
        serial_elapsed_seconds=serial_elapsed,
        num_mutations=num_mutations,
    )
