"""Sharded serving: a fingerprint-routed shard pool over the serving core.

One :class:`~repro.serve.service.ServingCore` owns every session, so a
single device's session LRU caps how many corpora can stay resident.
:class:`ShardedAnalyticsService` scales past that by running N *shard
workers* — each wrapping its own thread-safe
:class:`~repro.serve.service.AnalyticsService` (own session LRU, result
cache and coalescer) on its own bounded executor, modeling one device
per shard — and routing every query to a shard by its corpus
fingerprint:

* **Rendezvous (HRW) routing.**  A corpus's owner is the shard with the
  highest hash of ``(shard id, fingerprint)``.  Adding or removing a
  shard therefore moves only the corpora whose top-ranked shard
  changed — there is no modulo reshuffle — so a :meth:`resize` migrates
  the minimal set of sessions (counted in
  :attr:`ShardedStats.moved_sessions`).
* **Hot-corpus replication.**  A corpus whose share of routed queries
  crosses :attr:`ShardedServiceConfig.hot_query_share` is *promoted*:
  its queries fan out round-robin across the top
  :attr:`~ShardedServiceConfig.replication_factor` shards of its
  rendezvous ranking, spreading a hot corpus over R devices.  When its
  share decays below the threshold it is *demoted* back to its single
  owner (replica sessions simply age out of the other shards' LRUs).
* **Placement accounting.**  Routing a query to a shard and shipping
  its result back are network events; the router charges them to a
  :class:`~repro.perf.counters.CostCounter` with the same discipline as
  the fixed :meth:`~repro.cluster.simulator.ClusterSimulator.execute`
  (messages only for non-empty sends), priced under the configured
  :class:`~repro.cluster.simulator.ClusterSpec`'s latency and bandwidth
  (:attr:`ShardedStats.network_seconds`).
* **Pluggable shard transports.**  *Where* a shard's serving core runs
  is a deployment choice, not part of routing: every shard sits behind
  a :class:`~repro.serve.transport.ShardTransport`.  The default is the
  in-process thread pool; ``transport="process"`` (or the
  ``REPRO_SHARD_TRANSPORT`` environment variable) promotes each shard
  to a spawned worker process — one GIL per shard, crash-isolated.  A
  worker that dies with work in flight surfaces as
  :class:`~repro.serve.transport.ShardFailure`; the router replaces the
  dead shard with a fresh worker (new shard id, so rendezvous rankings
  re-route its corpora to live owners) and retries — queries are
  idempotent reads, so failover changes latency, never answers.  The
  replacement is counted in :attr:`ShardedStats.shard_failures` /
  :attr:`ShardedStats.replaced_shards`, and the *actual* serialized
  traffic (framed queries, results and corpus shipping) is metered in
  :attr:`ShardedStats.wire_bytes` and priced under the same cluster
  spec as the modelled placement numbers.

The service satisfies the synchronous
:class:`~repro.api.backend.AnalyticsBackend` protocol and is registered
as the ``"serve_sharded"`` backend.  The asyncio front end is the
natural shard *client*: constructed with ``router=``, an
:class:`~repro.serve.aio.AsyncAnalyticsService` fans every in-flight
coroutine to the owning shard's executor via :meth:`submit_async`
without holding a caller thread per request.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import asyncio

from repro.analysis.lockcheck import make_lock
from repro.analytics.base import Task
from repro.api.backend import BackendCapabilities
from repro.api.backends import CorpusSource
from repro.api.outcome import RunOutcome
from repro.api.query import Query, as_query
from repro.baselines.merge import result_entry_count
from repro.cluster.simulator import ClusterSpec
from repro.compression.compressor import CompressedCorpus
from repro.core.session import GTadocConfig
from repro.data.corpus import Corpus
from repro.perf import workcosts as wc
from repro.perf.counters import CostCounter
from repro.serve.service import AnalyticsService, CorpusMemo, ServiceConfig, ServiceStats
from repro.serve.transport import (
    TRANSPORT_KINDS,
    ShardFailure,
    ShardTransport,
    create_transport,
)

__all__ = [
    "ShardedServiceConfig",
    "ShardedStats",
    "ShardedAnalyticsService",
    "rendezvous_rank",
]

#: Modelled wire size of one routed query (task name + knobs), matching
#: the coarse granularity of :data:`repro.perf.workcosts.RESULT_ENTRY_BYTES`.
QUERY_MESSAGE_BYTES = 64.0

#: A replicated corpus is demoted only when its share falls below this
#: fraction of the promotion threshold — hysteresis, so a share hovering
#: at the threshold does not flap between single-owner and replicated
#: routing on every query.
DEMOTION_HYSTERESIS = 0.8


def _hrw_score(fingerprint: str, shard_id: int) -> int:
    """The rendezvous weight of ``shard_id`` for ``fingerprint``."""
    digest = hashlib.blake2b(
        f"{shard_id}:{fingerprint}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_rank(fingerprint: str, shard_ids: Sequence[int]) -> List[int]:
    """Shard ids ordered by rendezvous (highest-random-weight) preference.

    The head of the list owns the corpus; a replicated corpus fans out
    across the first R entries.  The ranking of the *surviving* shards
    is unchanged when ids are added or removed — the HRW property that
    makes shard resizes move only the corpora whose winner changed.
    """
    return sorted(
        shard_ids, key=lambda shard_id: _hrw_score(fingerprint, shard_id), reverse=True
    )


@dataclass(frozen=True)
class ShardedServiceConfig:
    """Tunable parameters of the shard pool (on top of each shard's own
    :class:`~repro.serve.service.ServiceConfig`)."""

    #: Number of shard workers (one modelled device each).
    num_shards: int = 2
    #: Shards a hot corpus fans out across (capped at the pool size).
    replication_factor: int = 2
    #: Fraction of routed queries a corpus must carry to be replicated.
    hot_query_share: float = 0.5
    #: Routed queries before replication decisions are trusted (a share
    #: computed over two queries is noise, not heat).
    min_queries_for_replication: int = 8
    #: Worker threads per shard executor — the shard device's concurrent
    #: submit lanes (coalescing across them happens in the shard's core).
    shard_workers: int = 4
    #: Bound on per-corpus routing state (query counts + cached shard
    #: rankings).  Past the bound the coldest corpora are forgotten —
    #: their share restarts from zero if they return — so a long-lived
    #: pool fronting a stream of distinct corpora cannot grow router
    #: state without limit.  Replicated corpora are never evicted.
    max_tracked_corpora: int = 1024
    #: Half-life of the heat counters, in routed queries: every
    #: ``heat_decay_window`` placements, per-corpus counts halve.  Query
    #: share therefore tracks *recent* traffic — a corpus that turns hot
    #: late in a long-lived pool still crosses the replication threshold
    #: instead of being buried under all-time history.
    heat_decay_window: int = 1024
    #: Network model used to price placement traffic.
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    #: Shard deployment shape: ``"inprocess"`` (serving cores on thread
    #: pools, today's default), ``"process"`` (spawned worker processes
    #: behind framed pipes — crash isolation and one GIL per shard), or
    #: ``None`` to follow the ``REPRO_SHARD_TRANSPORT`` environment
    #: variable (falling back to in-process).
    transport: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if not 0.0 < self.hot_query_share <= 1.0:
            raise ValueError("hot_query_share must be within (0, 1]")
        if self.min_queries_for_replication < 1:
            raise ValueError("min_queries_for_replication must be >= 1")
        if self.shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")
        if self.max_tracked_corpora < 1:
            raise ValueError("max_tracked_corpora must be >= 1")
        if self.heat_decay_window < 1:
            raise ValueError("heat_decay_window must be >= 1")
        if self.transport is not None and self.transport not in TRANSPORT_KINDS:
            raise ValueError(
                f"transport must be None or one of {TRANSPORT_KINDS}, "
                f"got {self.transport!r}"
            )


@dataclass(frozen=True)
class ShardedStats:
    """Aggregated point-in-time snapshot of the shard pool.

    Per-shard serving counters sit next to the router's own counters:
    placements (routing decisions), replica promotions/demotions, the
    sessions moved by resizes, and the modelled placement network
    traffic.
    """

    #: One :class:`~repro.serve.service.ServiceStats` per shard.
    shards: Tuple[ServiceStats, ...]
    #: Stable shard ids, aligned with :attr:`shards`.
    shard_ids: Tuple[int, ...]
    #: Queries routed to each shard, aligned with :attr:`shards`.
    routed_queries: Tuple[int, ...]
    #: Resident device sessions per shard, aligned with :attr:`shards`.
    resident_sessions: Tuple[int, ...]
    #: Routing decisions made (one per submitted query).
    placements: int
    #: Corpora promoted to replicated serving.
    replica_promotions: int
    #: Corpora demoted back to single-owner serving.
    replica_demotions: int
    #: Sessions dropped because a resize changed their owner.
    moved_sessions: int
    #: Corpora currently served from replicas.
    replicated_corpora: int
    #: Placement traffic: routed queries + non-empty result returns.
    network_messages: float
    network_bytes: float
    #: Those messages/bytes priced under the configured cluster's
    #: latency and bandwidth.
    network_seconds: float
    #: Shard workers observed dead with work in flight.
    shard_failures: int = 0
    #: Fresh shards spawned to replace dead workers.
    replaced_shards: int = 0
    #: *Actual* serialized transport traffic — every framed message and
    #: its bytes, queries, results and corpus shipping alike.  Zero for
    #: in-process shards, where nothing crosses a wire; the modelled
    #: ``network_*`` placement numbers above are transport-independent.
    wire_messages: float = 0.0
    wire_bytes: float = 0.0
    #: The wire traffic priced under the same cluster spec as
    #: :attr:`network_seconds`.
    wire_seconds: float = 0.0
    #: Shard replies the router's wire refused; each was raised to its
    #: caller as :class:`~repro.serve.wire.WireError`.
    refused_replies: int = 0

    # -- aggregates over the shard pool ------------------------------------------------
    @property
    def queries(self) -> int:
        return sum(stats.queries for stats in self.shards)

    @property
    def executed_queries(self) -> int:
        return sum(stats.executed_queries for stats in self.shards)

    @property
    def micro_batches(self) -> int:
        return sum(stats.micro_batches for stats in self.shards)

    @property
    def coalesced_queries(self) -> int:
        return sum(stats.coalesced_queries for stats in self.shards)

    @property
    def kernel_launches(self) -> int:
        return sum(stats.kernel_launches for stats in self.shards)

    @property
    def shared_kernel_launches(self) -> int:
        return sum(stats.shared_kernel_launches for stats in self.shards)

    @property
    def launches_per_query(self) -> float:
        return self.kernel_launches / self.queries if self.queries else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.executed_queries / self.micro_batches if self.micro_batches else 0.0

    @property
    def result_cache_hit_rate(self) -> float:
        hits = sum(stats.result_cache.hits for stats in self.shards)
        lookups = sum(stats.result_cache.lookups for stats in self.shards)
        return hits / lookups if lookups else 0.0

    @property
    def max_resident_sessions(self) -> int:
        return max(self.resident_sessions) if self.resident_sessions else 0

    @property
    def epoch_expirations(self) -> int:
        """Pool-wide entries dropped because their corpus epoch passed.

        Replicas observe new epochs lazily on their next routed query;
        the sessions/results they drop then are expirations, not cache
        evictions, and aggregate here across every shard.
        """
        return sum(stats.epoch_expirations for stats in self.shards)


class _Shard:
    """One shard worker: a serving core behind a transport (one device)."""

    __slots__ = ("shard_id", "transport", "routed")

    def __init__(self, shard_id: int, transport: ShardTransport) -> None:
        self.shard_id = shard_id
        self.transport = transport
        #: Queries the router placed on this shard.
        self.routed = 0

    @property
    def service(self) -> AnalyticsService:
        """The shard's serving core — in-process transports only.

        A process shard's core lives in its worker; reach it through
        :attr:`transport` ops instead.
        """
        return self.transport.service

    def close(self) -> None:
        self.transport.close()


class ShardedAnalyticsService:
    """Fingerprint-routed shard pool behind the synchronous backend protocol.

    ``submit`` resolves the query's corpus, routes it to the owning
    shard (or one of a hot corpus's replicas, round-robin) and executes
    it on that shard's executor; every shard keeps its own session LRU,
    result cache and coalescer, so corpora sharded apart never contend
    for one device's session budget.  Thread-safe; registered as the
    ``"serve_sharded"`` backend.
    """

    name = "serve_sharded"
    description = "Sharded serving: rendezvous-routed shard pool with hot-corpus replication"

    #: Dead-shard retries per query before the failure propagates.  Each
    #: retry replaces the dead worker and re-routes, so hitting the cap
    #: means shards are dying faster than they can be respawned.
    MAX_FAILOVER_ATTEMPTS = 3

    def __init__(
        self,
        source: Optional[CorpusSource] = None,
        *,
        engine_config: Optional[GTadocConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        sharded_config: Optional[ShardedServiceConfig] = None,
    ) -> None:
        config = sharded_config or ShardedServiceConfig()
        self.config = config
        self._engine_config = engine_config
        self._service_config = service_config or ServiceConfig()
        transport_kind = (
            config.transport
            or os.environ.get("REPRO_SHARD_TRANSPORT", "").strip()
            or "inprocess"
        )
        if transport_kind not in TRANSPORT_KINDS:
            raise ValueError(
                f"REPRO_SHARD_TRANSPORT must be one of {TRANSPORT_KINDS}, "
                f"got {transport_kind!r}"
            )
        self._transport_kind = transport_kind
        self._lock = make_lock("serve.router")
        self._shards: List[_Shard] = [
            self._new_shard(shard_id) for shard_id in range(config.num_shards)
        ]
        self._next_shard_id = config.num_shards
        # Routing state: per-fingerprint query counts decide replication;
        # replicated fingerprints carry a round-robin cursor.  Rankings
        # are memoized per fingerprint (dropped on resize — the only
        # event that changes them) so the hot path does one dict lookup,
        # not num_shards hashes, under the router lock.
        self._fingerprint_queries: Dict[str, int] = {}
        self._total_routed = 0
        #: Sum of the (decayed) per-fingerprint counts — the share basis.
        self._heat_total = 0
        #: Placements since the last heat decay.
        self._window_routed = 0
        self._replica_cursor: Dict[str, int] = {}
        self._rank_cache: Dict[str, List[int]] = {}
        # Mutable corpora route by their *uid* (first-epoch fingerprint),
        # which is stable across mutations, so a live corpus keeps landing
        # on its warm shard.  Sessions, however, are keyed by the current
        # epoch's fingerprint inside each shard; this bounded alias maps
        # the fingerprints seen at routing time back to the routing uid so
        # resize() can decide ownership of resident sessions.
        self._routing_alias: Dict[str, str] = {}
        self._placements = 0
        self._promotions = 0
        self._demotions = 0
        self._moved_sessions = 0
        self._shard_failures = 0
        self._replaced_shards = 0
        # Wire traffic of shards that already left the pool (dead workers,
        # resizes) — folded into stats() so replacing a shard never makes
        # the pool's serialized-traffic totals go backwards.
        self._retired_wire_messages = 0.0
        self._retired_wire_bytes = 0.0
        self._retired_refused_replies = 0
        # Placement traffic has its own lock: charging a finished outcome
        # must not contend with the routing hot path.
        self._network = CostCounter()
        self._network_lock = make_lock("serve.network")
        self._corpus_memo = CorpusMemo(self._service_config.corpus_memo_capacity)
        self._closed = False
        self._default: Optional[CompressedCorpus] = (
            self._resolve_source(source) if source is not None else None
        )

    def _new_shard(self, shard_id: int) -> _Shard:
        return _Shard(
            shard_id,
            create_transport(
                self._transport_kind,
                shard_id=shard_id,
                # Outcomes served through the pool carry the pool's name.
                name=self.name,
                engine_config=self._engine_config,
                service_config=self._service_config,
                workers=self.config.shard_workers,
            ),
        )

    # -- the protocol surface ----------------------------------------------------------
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=self.description,
            device="gpu",
            compressed_domain=True,
            native_sequence_length=True,
            native_file_filter=True,
            amortizes_batches=True,
            supports_traversal_choice=True,
        )

    def submit(
        self,
        query: Union[Query, Task, str],
        *,
        source: Optional[CorpusSource] = None,
        engine_config: Optional[GTadocConfig] = None,
    ) -> RunOutcome:
        """Route one query to its owning shard and answer it there.

        A :class:`~repro.serve.transport.ShardFailure` — the shard's
        worker process died with this query in flight — is a placement
        problem, not an answer: the dead shard is replaced and the query
        re-routes to the corpus's next live rendezvous owner, up to
        :attr:`MAX_FAILOVER_ATTEMPTS` times.  Queries are idempotent
        reads, so failover changes latency, never answers.
        """
        query = as_query(query)
        compressed = self._resolve_target(source)
        outcome: Optional[RunOutcome] = None
        for attempt in range(self.MAX_FAILOVER_ATTEMPTS + 1):
            # Routing and enqueueing happen under one lock hold, so a
            # concurrent resize/close cannot shut the chosen shard's
            # transport in between.
            with self._lock:
                shard = self._route_locked(self._route_key_locked(compressed))
                future = shard.transport.submit(query, compressed, engine_config)
            try:
                outcome = future.result()
                break
            except ShardFailure:
                self._handle_shard_failure(shard)
                if attempt >= self.MAX_FAILOVER_ATTEMPTS:
                    raise
        self._charge_outcome(query, outcome)
        return outcome

    def run(self, query: Union[Query, Task, str]) -> RunOutcome:
        """:class:`AnalyticsBackend` alias for :meth:`submit`."""
        return self.submit(query)

    def run_batch(
        self,
        queries: Iterable[Union[Query, Task, str]],
        *,
        source: Optional[CorpusSource] = None,
        engine_config: Optional[GTadocConfig] = None,
    ) -> List[RunOutcome]:
        """Serve a batch already in hand, fanned out across the owning shards.

        Queries are routed individually (replicated corpora still
        round-robin), grouped by shard, and each shard group runs as one
        ``run_batch`` on its shard's executor — groups execute
        concurrently, outcomes keep input order.
        """
        queries = [as_query(query) for query in queries]
        if not queries:
            return []
        compressed = self._resolve_target(source)
        outcomes: List[Optional[RunOutcome]] = [None] * len(queries)
        # The whole batch is placed under one lock hold: routing and
        # enqueueing are atomic against resize/close.
        with self._lock:
            route_key = self._route_key_locked(compressed)
            futures = [
                (
                    shard,
                    positions,
                    shard.transport.run_batch(
                        [queries[position] for position in positions],
                        compressed,
                        engine_config,
                    ),
                )
                for shard, positions in self._group_locked(len(queries), route_key)
            ]
        for shard, positions, future in futures:
            try:
                served = future.result()
            except ShardFailure:
                # The group's worker died mid-batch: replace it, then
                # re-route each position individually through submit's
                # own failover loop (idempotent reads — same answers).
                self._handle_shard_failure(shard)
                for position in positions:
                    outcomes[position] = self.submit(
                        queries[position], source=compressed, engine_config=engine_config
                    )
                continue
            for position, outcome in zip(positions, served):
                outcomes[position] = outcome
                self._charge_outcome(queries[position], outcome)
        return outcomes

    # -- the async shard-client path ---------------------------------------------------
    async def submit_async(
        self,
        query: Union[Query, Task, str],
        *,
        source: Optional[CorpusSource] = None,
        engine_config: Optional[GTadocConfig] = None,
        resolve_executor: Optional[Executor] = None,
    ) -> RunOutcome:
        """Route one query from an event loop without holding a caller thread.

        The owning shard's executor runs the engine work; the caller
        pays only a coroutine.  This is what
        :class:`~repro.serve.aio.AsyncAnalyticsService` delegates to in
        shard-router mode.  An unmemoized raw corpus is compressed on
        ``resolve_executor`` (the loop's default executor when ``None``)
        so resolution cannot stall the loop either.
        """
        loop = asyncio.get_running_loop()
        query = as_query(query)
        if isinstance(source, Corpus):
            compressed = await loop.run_in_executor(
                resolve_executor, self._resolve_source, source
            )
        else:
            compressed = self._resolve_target(source)
        outcome: Optional[RunOutcome] = None
        for attempt in range(self.MAX_FAILOVER_ATTEMPTS + 1):
            with self._lock:
                shard = self._route_locked(self._route_key_locked(compressed))
                job = asyncio.wrap_future(
                    shard.transport.submit(query, compressed, engine_config), loop=loop
                )
            try:
                outcome = await job
                break
            except ShardFailure:
                # Replacing a shard drains its transport; keep that
                # blocking work off the event loop.
                await loop.run_in_executor(None, self._handle_shard_failure, shard)
                if attempt >= self.MAX_FAILOVER_ATTEMPTS:
                    raise
        self._charge_outcome(query, outcome)
        return outcome

    async def run_batch_async(
        self,
        queries: Iterable[Union[Query, Task, str]],
        *,
        source: Optional[CorpusSource] = None,
        engine_config: Optional[GTadocConfig] = None,
        resolve_executor: Optional[Executor] = None,
    ) -> List[RunOutcome]:
        """Async counterpart of :meth:`run_batch`: shard groups run
        concurrently on their executors while the loop stays free."""
        loop = asyncio.get_running_loop()
        queries = [as_query(query) for query in queries]
        if not queries:
            return []
        if isinstance(source, Corpus):
            compressed = await loop.run_in_executor(
                resolve_executor, self._resolve_source, source
            )
        else:
            compressed = self._resolve_target(source)
        outcomes: List[Optional[RunOutcome]] = [None] * len(queries)
        with self._lock:
            route_key = self._route_key_locked(compressed)
            jobs = [
                (
                    shard,
                    positions,
                    asyncio.wrap_future(
                        shard.transport.run_batch(
                            [queries[position] for position in positions],
                            compressed,
                            engine_config,
                        ),
                        loop=loop,
                    ),
                )
                for shard, positions in self._group_locked(len(queries), route_key)
            ]

        async def settle(shard: _Shard, positions: List[int], job) -> None:
            try:
                served = await job
            except ShardFailure:
                await loop.run_in_executor(None, self._handle_shard_failure, shard)
                for position in positions:
                    outcomes[position] = await self.submit_async(
                        queries[position], source=compressed, engine_config=engine_config
                    )
                return
            for position, outcome in zip(positions, served):
                outcomes[position] = outcome
                self._charge_outcome(queries[position], outcome)

        await asyncio.gather(*(settle(shard, positions, job) for shard, positions, job in jobs))
        return outcomes

    # -- routing -----------------------------------------------------------------------
    def _route_key_locked(self, compressed: CompressedCorpus) -> str:
        """The stable routing identity of a corpus: its uid.

        A corpus's uid is its first-epoch fingerprint and never changes
        under mutation, so a live corpus keeps hitting its warm shard
        while each shard's core retires old epochs lazily.  The current
        fingerprint is recorded as an alias so :meth:`resize` can map
        resident session keys (current-epoch fingerprints) back to the
        identity they were routed by.  Callers hold :attr:`_lock`.
        """
        uid = compressed.uid
        fingerprint = compressed.fingerprint()
        if fingerprint != uid:
            self._routing_alias[fingerprint] = uid
            while len(self._routing_alias) > self.config.max_tracked_corpora:
                self._routing_alias.pop(next(iter(self._routing_alias)))
        return uid

    def _ranked(self, fingerprint: str) -> List[_Shard]:
        """The fingerprint's shard ranking (memoized until the pool resizes).

        Only *tracked* fingerprints (those with a query count) are
        cached: placement probes — :meth:`shard_for` and friends — for a
        stream of never-routed corpora must not grow router state.
        """
        by_id = {shard.shard_id: shard for shard in self._shards}
        ids = self._rank_cache.get(fingerprint)
        if ids is None:
            ids = rendezvous_rank(fingerprint, list(by_id))
            if fingerprint in self._fingerprint_queries:
                self._rank_cache[fingerprint] = ids
        return [by_id[shard_id] for shard_id in ids]

    def _replica_count(self) -> int:
        return min(self.config.replication_factor, len(self._shards))

    def _decay_heat(self) -> None:
        """Halve every heat counter once per ``heat_decay_window`` placements.

        Exponential decay keeps query *share* a measure of recent
        traffic: a corpus turning hot after a long cold history crosses
        the replication threshold once it dominates the last couple of
        windows, instead of having to outweigh the pool's entire past.
        """
        if self._window_routed < self.config.heat_decay_window:
            return
        self._window_routed = 0
        decayed: Dict[str, int] = {}
        for fingerprint, count in self._fingerprint_queries.items():
            count //= 2
            if count > 0 or fingerprint in self._replica_cursor:
                decayed[fingerprint] = count
            else:
                self._rank_cache.pop(fingerprint, None)
        self._fingerprint_queries = decayed
        self._heat_total = sum(decayed.values())

    def _sweep_replicated(self) -> None:
        """Demote replicated corpora whose query share decayed.

        Evaluated on every routing decision (the replicated set can hold
        at most ``1 / hot_query_share`` corpora, so this is O(1)-ish), so
        a promoted corpus whose traffic simply *stops* is still demoted
        by other corpora's queries diluting its share.  Demotion sits
        below promotion by :data:`DEMOTION_HYSTERESIS`, so a share
        hovering at the threshold does not flap.
        """
        threshold = self.config.hot_query_share * DEMOTION_HYSTERESIS
        basis = max(self._heat_total, 1)
        for fingerprint in list(self._replica_cursor):
            count = self._fingerprint_queries.get(fingerprint, 0)
            if count / basis < threshold:
                del self._replica_cursor[fingerprint]
                self._demotions += 1

    def _evict_cold_corpora(self) -> None:
        """Bound the router's per-corpus state (counts + cached rankings).

        At most one fingerprint overflows per placement, so this evicts
        the single coldest entry with one O(N) scan — no sorting, no
        cache rebuild — and the routing lock is held briefly.
        """
        limit = self.config.max_tracked_corpora
        while len(self._fingerprint_queries) > limit:
            victim = min(
                (
                    fingerprint
                    for fingerprint in self._fingerprint_queries
                    if fingerprint not in self._replica_cursor
                ),
                key=lambda fingerprint: self._fingerprint_queries[fingerprint],
                default=None,
            )
            if victim is None:
                return
            self._heat_total -= self._fingerprint_queries.pop(victim)
            self._rank_cache.pop(victim, None)

    def _route_locked(self, fingerprint: str) -> _Shard:
        """Pick the shard that serves this query; update heat and counters.

        Callers hold :attr:`_lock` and must enqueue the shard's work
        before releasing it, so a concurrent :meth:`resize`/:meth:`close`
        can never shut the chosen shard's executor between routing and
        submission.
        """
        if self._closed:
            raise RuntimeError("ShardedAnalyticsService is closed")
        self._total_routed += 1
        self._window_routed += 1
        self._heat_total += 1
        count = self._fingerprint_queries.get(fingerprint, 0) + 1
        self._fingerprint_queries[fingerprint] = count
        self._decay_heat()
        self._sweep_replicated()
        share = self._fingerprint_queries.get(fingerprint, 0) / max(self._heat_total, 1)
        hot = (
            share >= self.config.hot_query_share
            and self._total_routed >= self.config.min_queries_for_replication
            and self._replica_count() > 1
        )
        if hot and fingerprint not in self._replica_cursor:
            self._replica_cursor[fingerprint] = 0
            self._promotions += 1
        ranked = self._ranked(fingerprint)
        if fingerprint in self._replica_cursor:
            owners = ranked[: self._replica_count()]
            cursor = self._replica_cursor[fingerprint]
            self._replica_cursor[fingerprint] = cursor + 1
            shard = owners[cursor % len(owners)]
        else:
            shard = ranked[0]
        self._evict_cold_corpora()
        self._placements += 1
        shard.routed += 1
        return shard

    def _group_locked(
        self, count: int, fingerprint: str
    ) -> List[Tuple[_Shard, List[int]]]:
        """Route ``count`` batch positions and group them by shard.

        Shared by the sync and async batch paths so routing, replica
        round-robin and grouping cannot drift between them.  Callers
        hold :attr:`_lock` and enqueue each group's work before
        releasing it.
        """
        groups: Dict[int, Tuple[_Shard, List[int]]] = {}
        for position in range(count):
            shard = self._route_locked(fingerprint)
            if shard.shard_id not in groups:
                groups[shard.shard_id] = (shard, [])
            groups[shard.shard_id][1].append(position)
        return list(groups.values())

    # -- crash isolation ---------------------------------------------------------------
    def _handle_shard_failure(self, shard: _Shard) -> None:
        """Replace a dead shard with a fresh worker.

        The replacement takes a **new** shard id, so every rendezvous
        ranking that named the dead shard re-ranks and its corpora land
        on live owners — replicas of their state rebuild there on next
        touch, exactly like a resize, but the sessions lost with the
        worker are counted as :attr:`ShardedStats.shard_failures`, not
        ``moved_sessions`` (nothing *moved*; a process died).  The dead
        transport's wire traffic is folded into the retired totals so
        pool-level accounting never goes backwards.  Idempotent under
        racing callers: only the caller that still finds the shard in
        the pool performs (and counts) the replacement.
        """
        with self._lock:
            if self._closed:
                return
            try:
                index = self._shards.index(shard)
            except ValueError:
                return  # a concurrent failover already replaced it
            replacement = self._new_shard(self._next_shard_id)
            self._next_shard_id += 1
            self._shards[index] = replacement
            # The shard set changed: every memoized ranking is stale.
            self._rank_cache.clear()
            self._shard_failures += 1
            self._replaced_shards += 1
            self._retired_wire_messages += shard.transport.wire_messages
            self._retired_wire_bytes += shard.transport.wire_bytes
            self._retired_refused_replies += shard.transport.refused_replies
        # Drain outside the router lock: close joins the worker process.
        shard.close()

    def _owners(self, fingerprint: str) -> List[_Shard]:
        """The shards currently serving ``fingerprint`` (no counters touched)."""
        ranked = self._ranked(fingerprint)
        if fingerprint in self._replica_cursor:
            return ranked[: self._replica_count()]
        return ranked[:1]

    def shard_for(self, source: CorpusSource) -> int:
        """Index (into the current pool) of the shard owning ``source``."""
        compressed = self._resolve_source(source)
        with self._lock:
            return self._shards.index(self._owners(self._route_key_locked(compressed))[0])

    def owners_for(self, source: CorpusSource) -> List[int]:
        """Pool indices of every shard currently serving ``source``."""
        compressed = self._resolve_source(source)
        with self._lock:
            key = self._route_key_locked(compressed)
            return [self._shards.index(shard) for shard in self._owners(key)]

    def is_replicated(self, source: CorpusSource) -> bool:
        compressed = self._resolve_source(source)
        with self._lock:
            return self._route_key_locked(compressed) in self._replica_cursor

    # -- placement accounting ----------------------------------------------------------
    def _charge_outcome(self, query: Query, outcome: RunOutcome) -> None:
        """Charge the placement traffic of one answered query.

        One message carries the query to its shard; the result comes
        back as one message weighed by its entry count — charged only
        when the result is non-empty, the same discipline as the
        cluster simulator's shuffle accounting.
        """
        entries = result_entry_count(query.task, outcome.result)
        with self._network_lock:
            self._network.charge_network(bytes_sent=QUERY_MESSAGE_BYTES, messages=1.0)
            if entries > 0:
                self._network.charge_network(
                    bytes_sent=wc.RESULT_ENTRY_BYTES * entries, messages=1.0
                )

    def _network_seconds(self, messages: float, sent_bytes: float) -> float:
        spec = self.config.cluster
        return messages * spec.network_latency_s + sent_bytes / (
            spec.network_bandwidth_gb_s * 1e9
        )

    # -- pool management ---------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        with self._lock:
            return len(self._shards)

    @property
    def transport_kind(self) -> str:
        """The deployed shard transport: ``"inprocess"`` or ``"process"``."""
        return self._transport_kind

    @property
    def resident_sessions(self) -> int:
        """Device sessions resident across the whole pool."""
        with self._lock:
            shards = list(self._shards)
        return sum(shard.transport.resident_sessions for shard in shards)

    def resize(self, num_shards: int) -> int:
        """Grow or shrink the pool to ``num_shards``; returns moved sessions.

        Rendezvous hashing keeps the surviving shards' rankings intact,
        so only sessions whose corpus changed owner are dropped (they
        rebuild on their new shard at next touch).  Removed shards are
        drained (their in-flight work completes) and every session they
        held counts as moved.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardedAnalyticsService is closed")
            old = list(self._shards)
            if num_shards == len(old):
                return 0
            if num_shards > len(old):
                added = [
                    self._new_shard(self._next_shard_id + offset)
                    for offset in range(num_shards - len(old))
                ]
                self._next_shard_id += len(added)
                survivors, removed = old, []
                self._shards = old + added
            else:
                survivors, removed = old[:num_shards], old[num_shards:]
                self._shards = survivors
            # The shard set changed: every memoized ranking is stale.
            self._rank_cache.clear()
            moved = 0
            for shard in removed:
                moved += shard.transport.resident_sessions
                self._retired_wire_messages += shard.transport.wire_messages
                self._retired_wire_bytes += shard.transport.wire_bytes
                self._retired_refused_replies += shard.transport.refused_replies
                shard.close()
            for shard in survivors:
                for key in shard.transport.session_keys():
                    # Sessions are keyed by their epoch's fingerprint; a
                    # mutated corpus routes by uid, so translate through
                    # the alias recorded at routing time.
                    route_key = self._routing_alias.get(key[0], key[0])
                    if shard not in self._owners(route_key):
                        if shard.transport.drop_session(key):
                            moved += 1
            self._moved_sessions += moved
            return moved

    def invalidate(self, source: CorpusSource) -> int:
        """Drop everything derived from ``source`` on every shard.

        Fans out to the whole pool, not just the current owners: a
        demoted corpus may still have replica sessions aging out of
        other shards' LRUs.  Returns total entries dropped.
        """
        compressed = self._resolve_source(source)
        self._corpus_memo.drop_fingerprint(compressed.fingerprint())
        with self._lock:
            shards = list(self._shards)
        return sum(shard.transport.invalidate(compressed) for shard in shards)

    def stats(self) -> ShardedStats:
        with self._lock:
            shards = list(self._shards)
            placements = self._placements
            promotions = self._promotions
            demotions = self._demotions
            moved = self._moved_sessions
            replicated = len(self._replica_cursor)
            routed = tuple(shard.routed for shard in shards)
            failures = self._shard_failures
            replaced = self._replaced_shards
            wire_messages = self._retired_wire_messages
            wire_bytes = self._retired_wire_bytes
            refused = self._retired_refused_replies
            for shard in shards:
                wire_messages += shard.transport.wire_messages
                wire_bytes += shard.transport.wire_bytes
                refused += shard.transport.refused_replies
        with self._network_lock:
            messages = self._network.network_messages
            sent_bytes = self._network.network_bytes
        return ShardedStats(
            shards=tuple(shard.transport.stats() for shard in shards),
            shard_ids=tuple(shard.shard_id for shard in shards),
            routed_queries=routed,
            resident_sessions=tuple(
                shard.transport.resident_sessions for shard in shards
            ),
            placements=placements,
            replica_promotions=promotions,
            replica_demotions=demotions,
            moved_sessions=moved,
            replicated_corpora=replicated,
            network_messages=messages,
            network_bytes=sent_bytes,
            network_seconds=self._network_seconds(messages, sent_bytes),
            shard_failures=failures,
            replaced_shards=replaced,
            wire_messages=wire_messages,
            wire_bytes=wire_bytes,
            wire_seconds=self._network_seconds(wire_messages, wire_bytes),
            refused_replies=refused,
        )

    def close(self) -> None:
        """Drain and release every shard executor (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards = list(self._shards)
        for shard in shards:
            shard.close()

    def __enter__(self) -> "ShardedAnalyticsService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------------
    def _resolve_source(self, source: CorpusSource) -> CompressedCorpus:
        return self._corpus_memo.resolve(source)

    def _resolve_target(self, source: Optional[CorpusSource]) -> CompressedCorpus:
        if source is None:
            if self._default is None:
                raise ValueError(
                    "no corpus to serve: pass source= or construct the service with one"
                )
            return self._default
        return self._resolve_source(source)
