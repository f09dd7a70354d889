"""The serving layer's implementation core and its threaded front end.

TADOC compressed structures are built once and meant to serve many
queries, and G-TADOC's Figure-3 split exists precisely so the
initialization phase can be amortized across requests.  Two front ends
realise that shape for concurrent traffic — the thread-based
:class:`AnalyticsService` here and the asyncio
:class:`~repro.serve.aio.AsyncAnalyticsService` — and both are thin
shells over one :class:`ServingCore`:

* a bounded LRU of :class:`~repro.core.session.DeviceSession` entries,
  keyed by corpus :meth:`~repro.compression.compressor.CompressedCorpus.fingerprint`
  plus :class:`~repro.core.session.GTadocConfig`, so the expensive
  device state stays resident for the hottest corpora and is dropped
  least-recently-used first;
* query coalescing — concurrent queries compatible on required session
  state (same corpus/config/sequence length/file subset/traversal) are
  grouped into one micro-batch that runs as one fused ``run_fused``
  program, charging initialization, shared traversal-state
  construction and each result family's primitive once for the whole
  group;
* a :class:`~repro.api.query.Query`-keyed result cache in front of the
  engines — entry-count bounded and optionally byte-budgeted
  (:class:`ServiceConfig`), with hit/miss/eviction/expiration
  statistics and explicit fingerprint-based invalidation;
* a per-fingerprint **epoch**: :meth:`ServingCore.invalidate` bumps the
  fingerprint's epoch before dropping entries, and every cache
  write-back is guarded on the epoch its query observed — an in-flight
  query that raced an invalidation can never resurrect a stale entry in
  the result cache or the session LRU;
* per-session locking underneath (see
  :attr:`~repro.core.session.DeviceSession.lock`), so worker threads
  produce results bit-identical to serial execution.

Both services satisfy the
:class:`~repro.api.backend.AnalyticsBackend` protocol and are
registered as the ``"serve"`` and ``"serve_async"`` backends, so they
front the same registry every other engine sits behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.lockcheck import make_lock
from repro.analytics.base import Task
from repro.api.backend import BackendCapabilities
from repro.api.backends import CorpusSource, _as_compressed, _file_indices_for
from repro.api.outcome import PhasePerf, RunOutcome, RunPerf, perf_from_records
from repro.api.query import Query, as_query, shape_result
from repro.compression.compressor import CompressedCorpus
from repro.core.engine import GTadoc
from repro.core.session import GTadocConfig
from repro.data.corpus import Corpus
from repro.serve.caches import CacheStats, LRUCache
from repro.serve.coalescer import BatchSlot, CoalescedRequest, QueryCoalescer

__all__ = ["ServiceConfig", "ServiceStats", "ServingCore", "AnalyticsService", "CorpusMemo"]


class CorpusMemo:
    """Bounded, thread-safe memo of raw-corpus compressions.

    Keyed by object identity: a caller may keep handing the same
    :class:`~repro.data.corpus.Corpus` to every submit without paying a
    re-compression.  Oldest entries are dropped first past ``capacity``.
    Shared by the serving cores and the shard router so the memo
    discipline cannot drift between them.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._lock = make_lock("serve.corpus_memo")
        self._entries: Dict[int, Tuple[Corpus, CompressedCorpus]] = {}

    def resolve(self, source: CorpusSource) -> CompressedCorpus:
        if isinstance(source, CompressedCorpus):
            return source
        if isinstance(source, Corpus):
            with self._lock:
                memo = self._entries.get(id(source))
                if memo is not None and memo[0] is source:
                    return memo[1]
                compressed = _as_compressed(source)
                self._entries[id(source)] = (source, compressed)
                while len(self._entries) > self._capacity:
                    self._entries.pop(next(iter(self._entries)))
                return compressed
        raise TypeError(f"expected a Corpus or CompressedCorpus, got {type(source).__name__}")

    def drop_fingerprint(self, fingerprint: str) -> None:
        """Forget memoized compressions of an invalidated corpus."""
        with self._lock:
            self._entries = {
                key: value
                for key, value in self._entries.items()
                if value[1].fingerprint() != fingerprint
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable parameters of the serving layer."""

    #: Bound on resident device sessions (distinct corpus/config pairs).
    max_sessions: int = 4
    #: Bound on cached query results (entry count).
    result_cache_capacity: int = 1024
    #: Serve repeated identical queries from the result cache.
    cache_results: bool = True
    #: Upper bound on one micro-batch's size.  A leader executes at once;
    #: its batch holds the compatible requests already queued behind it.
    max_batch_size: int = 16
    #: Bound on memoized raw-corpus compressions (oldest dropped first).
    corpus_memo_capacity: int = 32
    #: Byte budget on the result cache: entries are weighed by the
    #: length of their pickled snapshot and evicted LRU-first past the
    #: budget (``None`` = entry-count bound only).
    result_cache_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.result_cache_capacity < 1:
            raise ValueError("result_cache_capacity must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.corpus_memo_capacity < 1:
            raise ValueError("corpus_memo_capacity must be >= 1")
        if self.result_cache_bytes is not None and self.result_cache_bytes < 1:
            raise ValueError("result_cache_bytes must be >= 1")


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of the service's serving counters."""

    #: Queries answered (result-cache hits included).
    queries: int
    #: Queries that reached an engine (cache misses).
    executed_queries: int
    #: Engine micro-batches dispatched.
    micro_batches: int
    #: Executed queries that shared their micro-batch with at least one other.
    coalesced_queries: int
    #: Simulated kernel launches charged by all micro-batches.
    kernel_launches: int
    #: The initialization/shared-state share of those launches.
    shared_kernel_launches: int
    session_cache: CacheStats
    result_cache: CacheStats
    #: Micro-batches whose session caught up with a mutated corpus by a
    #: delta update, and by dropping its state for a rebuild.
    delta_syncs: int = 0
    rebuild_syncs: int = 0

    @property
    def launches_per_query(self) -> float:
        """Kernel launches per answered query (cache hits pull this down)."""
        return self.kernel_launches / self.queries if self.queries else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.executed_queries / self.micro_batches if self.micro_batches else 0.0

    @property
    def epoch_expirations(self) -> int:
        """Entries that outlived their epoch (corpus mutations).

        Lazily-dropped stale sessions and results are *expirations* —
        distinct from capacity evictions and explicit invalidations.
        """
        return self.session_cache.expirations + self.result_cache.expirations


@dataclass
class _SessionEntry:
    """One resident corpus/config pair: compressed form + its engine.

    ``epoch`` records the fingerprint generation the entry was created
    under; entries from a generation that has since been invalidated
    are not allowed to stay resident (see :meth:`ServingCore._entry_for`).
    """

    key: Tuple[str, GTadocConfig]
    compressed: CompressedCorpus
    engine: GTadoc
    epoch: int = 0


@dataclass(frozen=True)
class _CachedResult:
    """What the result cache stores: a snapshot of the shaped result + the strategy used.

    The snapshot is the outcome's :attr:`~repro.api.outcome.RunOutcome.snapshot`,
    pickled once at write-back (a process shard's reply ships the same
    bytes).  Bytes cannot be mutated, and every hit decodes an
    independent object graph of the same types from them, so no caller
    mutation can poison the cache (or another caller's outcome) and the
    bit-identical-to-serial guarantee holds.  The snapshot's length is
    the entry's exact weight under a byte budget.
    """

    snapshot: bytes
    strategy: Optional[str]


@dataclass
class _PreparedQuery:
    """The resolved front half of one submit: target, keys, epoch, cache probe."""

    query: Query
    compressed: CompressedCorpus
    config: GTadocConfig
    session_key: Tuple[str, GTadocConfig]
    cache_key: Tuple[Tuple[str, GTadocConfig], Query]
    epoch: int
    cached: Optional[_CachedResult]

    @property
    def fingerprint(self) -> str:
        return self.session_key[0]


class ServingCore:
    """Shared implementation of the sync and async serving front ends.

    Owns everything that is not a waiting strategy: target resolution,
    the session LRU, the result cache, per-fingerprint epochs, stats
    accounting, micro-batch execution and outcome assembly.  The front
    ends differ only in how a submit waits for its micro-batch — a
    blocking leader/follower protocol (:class:`AnalyticsService`) or an
    event-driven asyncio one
    (:class:`~repro.serve.aio.AsyncAnalyticsService`).

    All core state is thread-safe: the async front end dispatches
    engine work to executor threads, so the shared pieces are locked
    exactly as for the threaded service.
    """

    name = "serve"
    description = "Thread-safe serving layer: session LRU, coalescing, result cache"

    def __init__(
        self,
        source: Optional[CorpusSource] = None,
        *,
        engine_config: Optional[GTadocConfig] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = service_config or ServiceConfig()
        self._engine_config = engine_config or GTadocConfig()
        self._sessions = LRUCache(self.config.max_sessions)
        self._results = LRUCache(
            self.config.result_cache_capacity,
            max_weight_bytes=self.config.result_cache_bytes,
        )
        self._stats_lock = make_lock("serve.stats")
        self._queries = 0
        self._executed_queries = 0
        self._micro_batches = 0
        self._coalesced_queries = 0
        self._kernel_launches = 0
        self._shared_kernel_launches = 0
        self._syncs = {"delta": 0, "rebuild": 0}
        # Fingerprint generations: bumped by invalidate() *before* entries
        # are dropped, so in-flight write-backs guarded on an older epoch
        # can never resurrect an invalidated entry.  A fingerprint absent
        # from the map reads the floor (see _prune_epochs).
        self._epoch_lock = make_lock("serve.epoch")
        self._epochs: Dict[str, int] = {}
        self._epoch_floor = 0
        # Mutable-corpus tracking: per corpus uid, the last (version,
        # fingerprint) a routed query observed.  Mutations do not notify
        # the serving layer; the next query that touches the corpus sees
        # the version advance here and retires the old fingerprint's
        # entries (counted as epoch expirations, not evictions).
        self._version_lock = make_lock("serve.version")
        self._uid_versions: Dict[str, Tuple[int, str]] = {}
        self._corpus_memo = CorpusMemo(self.config.corpus_memo_capacity)
        self._default: Optional[CompressedCorpus] = (
            self._resolve_source(source) if source is not None else None
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

    # -- cache management --------------------------------------------------------------
    def invalidate(self, source: CorpusSource) -> int:
        """Drop every session and cached result derived from ``source``.

        Call this when a corpus's content changes under a reused name:
        the stale fingerprint's entries are removed so no query can be
        answered from outdated device state or results.  The
        fingerprint's epoch is bumped first, so queries already in
        flight cannot write their (pre-invalidation) results back
        afterwards.  Returns the number of entries dropped.
        """
        fingerprint = self._resolve_source(source).fingerprint()
        self._retire_epoch(fingerprint)
        self._corpus_memo.drop_fingerprint(fingerprint)
        dropped = self._sessions.remove_where(lambda key: key[0] == fingerprint)
        dropped += self._results.remove_where(lambda key: key[0][0] == fingerprint)
        self._prune_epochs()
        return dropped

    def stats(self) -> ServiceStats:
        # Cache stats are snapshotted before taking the stats lock: the
        # stats lock is a leaf (rank 60 in analysis/lockspec.py) and must
        # never be held across the cache locks (rank 30).
        session_cache = self._sessions.stats()
        result_cache = self._results.stats()
        with self._stats_lock:
            return ServiceStats(
                queries=self._queries,
                executed_queries=self._executed_queries,
                micro_batches=self._micro_batches,
                coalesced_queries=self._coalesced_queries,
                kernel_launches=self._kernel_launches,
                shared_kernel_launches=self._shared_kernel_launches,
                session_cache=session_cache,
                result_cache=result_cache,
                delta_syncs=self._syncs["delta"],
                rebuild_syncs=self._syncs["rebuild"],
            )

    @property
    def resident_sessions(self) -> int:
        """Device sessions currently held by the LRU."""
        return len(self._sessions)

    def session_keys(self) -> List[Tuple[str, GTadocConfig]]:
        """Resident ``(fingerprint, config)`` keys, least recently used first.

        The shard router walks these on resize to decide which sessions
        changed owner under the new shard set.
        """
        return self._sessions.keys()

    def drop_session(self, key: Tuple[str, GTadocConfig]) -> bool:
        """Evict one resident session (a no-op if it is not resident).

        Used when ownership of the session's corpus moves elsewhere —
        rebalancing, not correctness: the result cache is left alone and
        the removal is not counted as a cache invalidation.
        """
        return self._sessions.discard(key, count_invalidation=False)

    # -- the shared query path ---------------------------------------------------------
    def _prepare(
        self,
        query: Union[Query, Task, str],
        source: Optional[CorpusSource],
        engine_config: Optional[GTadocConfig],
    ) -> _PreparedQuery:
        """Resolve one query's target, validate it, count it, probe the cache."""
        query = as_query(query)
        compressed, config = self._resolve_target(source, engine_config)
        session_key = (self._observe_version(compressed), config)
        # Unknown file names must fail the offending caller before it is
        # counted as served (and, later, before it can poison a whole
        # micro-batch).
        _file_indices_for(compressed.file_names, query.files)
        with self._stats_lock:
            self._queries += 1
        cache_key = (session_key, query)
        cached = self._results.get(cache_key) if self.config.cache_results else None
        return _PreparedQuery(
            query=query,
            compressed=compressed,
            config=config,
            session_key=session_key,
            cache_key=cache_key,
            epoch=self._epoch_of(session_key[0]),
            cached=cached,
        )

    def _epoch_of(self, fingerprint: str) -> int:
        with self._epoch_lock:
            return self._epochs.get(fingerprint, self._epoch_floor)

    def _retire_epoch(self, fingerprint: str) -> None:
        """Bump ``fingerprint``'s epoch, failing every write-back captured before."""
        with self._epoch_lock:
            self._epochs[fingerprint] = self._epochs.get(fingerprint, self._epoch_floor) + 1

    def _prune_epochs(self) -> None:
        """Forget the epochs of fingerprints with no resident session or result.

        The floor that absent fingerprints read rises to at least every
        pruned value, so a pruned fingerprint never reads back an epoch a
        query captured before its retirement.  Resident fingerprints that
        read the old floor keep it as their own entry first, so a rise
        never ages a live session.  The map stays within the resident
        fingerprints.  Cache keys are read before the epoch lock, which
        ranks inside the cache locks.
        """
        resident = {key[0] for key in self._sessions.keys()}
        resident.update(key[0][0] for key in self._results.keys())
        with self._epoch_lock:
            pruned = [fingerprint for fingerprint in self._epochs if fingerprint not in resident]
            if not pruned:
                return
            floor = max(self._epoch_floor, max(self._epochs[fingerprint] for fingerprint in pruned))
            if floor > self._epoch_floor:
                for fingerprint in resident:
                    self._epochs.setdefault(fingerprint, self._epoch_floor)
                self._epoch_floor = floor
            for fingerprint in pruned:
                del self._epochs[fingerprint]

    #: Bound on tracked corpus uids (oldest observation dropped first).
    _MAX_TRACKED_UIDS = 256

    def _observe_version(self, compressed: CompressedCorpus) -> str:
        """Note the corpus's current epoch; retire the previous one lazily.

        Returns the corpus's current fingerprint.  When the version
        advanced since the last routed query, the *old* fingerprint's
        generation is bumped (so in-flight write-backs die on their
        epoch guard), its warm session entries are re-keyed to the new
        fingerprint (the engine delta-syncs on next run — warmth is the
        whole point of incremental maintenance), and anything that could
        not be re-keyed is dropped as an epoch expiration.  This is the
        lazy path: nothing happens at mutation time, only on next touch.
        """
        with compressed.lock:
            uid = compressed.uid
            version = compressed.version
            fingerprint = compressed.fingerprint()
        with self._version_lock:
            last = self._uid_versions.get(uid)
            if last is not None and last[0] >= version:
                # Current, or a delayed observation of an already-retired
                # epoch — never regress the tracked version.
                return fingerprint
            self._uid_versions[uid] = (version, fingerprint)
            while len(self._uid_versions) > self._MAX_TRACKED_UIDS:
                self._uid_versions.pop(next(iter(self._uid_versions)))
        if last is None:
            return fingerprint
        old_fingerprint = last[1]
        if old_fingerprint == fingerprint:
            return fingerprint
        # Kill in-flight write-backs against the retired fingerprint.
        self._retire_epoch(old_fingerprint)
        # Carry warm sessions of this corpus object over to the new epoch.
        for key in self._sessions.keys():
            if key[0] != old_fingerprint:
                continue
            new_key = (fingerprint, key[1])
            moved = self._sessions.rekey(
                key, new_key, when=lambda resident: resident.compressed is compressed
            )
            if moved is not None:
                moved.key = new_key
                moved.epoch = self._epoch_of(fingerprint)
        # Whatever still sits under the old fingerprint (a different
        # corpus object, or cached results) expired with its epoch.
        self._sessions.expire_where(lambda key: key[0] == old_fingerprint)
        self._results.expire_where(lambda key: key[0][0] == old_fingerprint)
        self._prune_epochs()
        return fingerprint

    def _store_result(self, prepared: _PreparedQuery, outcome: RunOutcome) -> bool:
        """Write one executed outcome back to the result cache.

        The write is guarded on the epoch the query observed before
        executing — evaluated under the cache lock — so a result
        computed before an :meth:`invalidate` can never be written back
        after it (the resurrection race).
        """
        if not self.config.cache_results:
            return False
        if prepared.cache_key in self._results:
            # A coalesced peer already stored this identical (deterministic)
            # result; skip the redundant snapshot.  A resident entry is
            # never stale here: invalidation removes entries before any
            # same-key write-back can observe them.
            return False
        entry = _CachedResult(outcome.snapshot, outcome.details.get("strategy"))
        # Without a budget entries keep unit weight, so the cache's
        # ``weight_bytes`` keeps counting entries.
        weight = len(entry.snapshot) if self.config.result_cache_bytes is not None else 1
        return self._results.put_if(
            prepared.cache_key,
            entry,
            guard=lambda: self._epoch_of(prepared.fingerprint) == prepared.epoch,
            weight=weight,
        )

    def _group_key(self, entry: _SessionEntry, query: Query):
        """Coalescing compatibility: same session state + traversal knobs.

        ``extras`` participates because it parameterises execution (the
        relational query spec travels there): queries whose extras
        differ must not share one engine micro-batch.
        """
        return (
            entry.key,
            query.sequence_length,
            query.files,
            query.traversal,
            query.extras,
        )

    def _entry_for(self, prepared: _PreparedQuery) -> _SessionEntry:
        key = prepared.session_key
        entry, _created = self._sessions.get_or_create(
            key,
            lambda: _SessionEntry(
                key=key,
                compressed=prepared.compressed,
                engine=GTadoc(prepared.compressed, config=prepared.config),
                epoch=prepared.epoch,
            ),
        )
        if entry.epoch < self._epoch_of(key[0]):
            # Created for a generation that has since been invalidated:
            # serve this in-flight query from it (its content is the one
            # the query addressed), but do not let it stay resident.  The
            # removal is identity-precise so a fresh post-invalidation
            # session that raced into the same slot is left alone.
            self._sessions.discard(key, when=lambda resident: resident is entry)
        return entry

    # -- internals ---------------------------------------------------------------------
    def _resolve_source(self, source: CorpusSource) -> CompressedCorpus:
        return self._corpus_memo.resolve(source)

    def _resolve_target(
        self, source: Optional[CorpusSource], engine_config: Optional[GTadocConfig]
    ) -> Tuple[CompressedCorpus, GTadocConfig]:
        """The compressed corpus + engine config one submit addresses."""
        if source is None:
            compressed = self._default
            if compressed is None:
                raise ValueError(
                    "no corpus to serve: pass source= or construct the service with one"
                )
        else:
            compressed = self._resolve_source(source)
        return compressed, engine_config or self._engine_config

    def _execute_batch(self, entry: _SessionEntry, batch: List[BatchSlot]) -> None:
        """Run one micro-batch against the entry's session and fill outcomes."""
        lead = batch[0].query
        indices = _file_indices_for(entry.compressed.file_names, lead.files)
        tasks = list(dict.fromkeys(slot.query.task for slot in batch))
        # The batch runs as one program: a batch mixing distinct tasks
        # runs each family primitive once, so launches/query drops below
        # the plain coalescing floor; a uniform batch is one task.
        fused = len(tasks) > 1
        result_batch = entry.engine.run_fused(
            tasks,
            traversal=lead.traversal,
            sequence_length=lead.sequence_length,
            file_indices=indices,
            relational=lead.relational,
        )
        with self._stats_lock:
            self._micro_batches += 1
            self._executed_queries += len(batch)
            if len(batch) > 1:
                self._coalesced_queries += len(batch)
            self._kernel_launches += result_batch.total_kernel_launches
            self._shared_kernel_launches += result_batch.shared_kernel_launches
            if result_batch.sync in self._syncs:
                self._syncs[result_batch.sync] += 1
        shared = perf_from_records(result_batch.init_record, result_batch.shared_record)
        for position, slot in enumerate(batch):
            run = result_batch[slot.query.task]
            # Whichever query leads the batch carries the shared
            # construction cost, mirroring the amortized backend path.
            initialization = shared if position == 0 else PhasePerf()
            slot.outcome = RunOutcome(
                query=slot.query,
                backend=self.name,
                task=slot.query.task,
                result=shape_result(slot.query, run.output),
                perf=RunPerf(
                    initialization=initialization,
                    traversal=perf_from_records(run.traversal_record),
                ),
                raw=run,
                details={
                    "strategy": run.strategy.value,
                    "batch_size": len(batch),
                    "coalesced": len(batch) > 1,
                    "fused": fused,
                    "memory_pool_bytes": result_batch.memory_pool_bytes,
                    "result_cache": "miss" if self.config.cache_results else "off",
                },
            )

    def _hit_outcome(self, query: Query, cached: _CachedResult) -> RunOutcome:
        """A hit's outcome, decoded from the cached snapshot on first access.

        A process shard never reads the result: its reply ships the
        cached bytes as they are.
        """
        details = {"result_cache": "hit"}
        if cached.strategy is not None:
            details["strategy"] = cached.strategy
        return RunOutcome.from_snapshot(
            cached.snapshot,
            query=query,
            backend=self.name,
            task=query.task,
            perf=RunPerf(),  # a cache hit launches no kernels
            details=details,
        )

    # -- direct batch grouping (single-caller run_batch) -------------------------------
    def _plan_batch(
        self,
        queries: List[Union[Query, Task, str]],
        source: Optional[CorpusSource],
        engine_config: Optional[GTadocConfig],
    ) -> Tuple[
        List[_PreparedQuery],
        List[Optional[RunOutcome]],
        List[Tuple[_SessionEntry, List[int]]],
    ]:
        """Group a batch already in hand into micro-batches.

        Cache hits are answered in place; the remaining queries are
        grouped by coalescing compatibility (first-seen group order,
        original order within a group) and sliced into chunks of at most
        ``max_batch_size``.  Same-task queries that differ only in
        result shaping collapse inside the engine, so a grouped batch
        launches strictly fewer kernels than the equivalent serial
        submit loop whenever the batch repeats a task.
        """
        prepared = [self._prepare(query, source, engine_config) for query in queries]
        outcomes: List[Optional[RunOutcome]] = [None] * len(prepared)
        groups: Dict[object, Tuple[_SessionEntry, List[int]]] = {}
        for index, prep in enumerate(prepared):
            if prep.cached is not None:
                outcomes[index] = self._hit_outcome(prep.query, prep.cached)
                continue
            entry = self._entry_for(prep)
            key = self._group_key(entry, prep.query)
            if key not in groups:
                groups[key] = (entry, [])
            groups[key][1].append(index)
        chunks: List[Tuple[_SessionEntry, List[int]]] = []
        limit = self.config.max_batch_size
        for entry, indices in groups.values():
            for start in range(0, len(indices), limit):
                chunks.append((entry, indices[start : start + limit]))
        return prepared, outcomes, chunks

    def _run_chunk(
        self,
        prepared: List[_PreparedQuery],
        outcomes: List[Optional[RunOutcome]],
        entry: _SessionEntry,
        indices: List[int],
    ) -> None:
        """Execute one planned micro-batch and fill its outcome slots."""
        slots = [BatchSlot(prepared[index].query) for index in indices]
        self._execute_batch(entry, slots)
        for index, slot in zip(indices, slots):
            outcomes[index] = slot.outcome
            self._store_result(prepared[index], slot.outcome)


class AnalyticsService(ServingCore):
    """Thread-safe serving front end over the G-TADOC engine.

    ``submit`` may be called concurrently from any number of worker
    threads; results are bit-identical to serial per-query execution.
    The service satisfies the :class:`~repro.api.backend.AnalyticsBackend`
    protocol (``run``/``run_batch``/``capabilities``) and is registered
    as the ``"serve"`` backend.
    """

    name = "serve"

    def __init__(
        self,
        source: Optional[CorpusSource] = None,
        *,
        engine_config: Optional[GTadocConfig] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        super().__init__(source, engine_config=engine_config, service_config=service_config)
        self._coalescer = QueryCoalescer(max_batch=self.config.max_batch_size)

    # -- the query path ----------------------------------------------------------------
    def submit(
        self,
        query: Union[Query, Task, str],
        *,
        source: Optional[CorpusSource] = None,
        engine_config: Optional[GTadocConfig] = None,
    ) -> RunOutcome:
        """Answer one query, coalescing with compatible concurrent queries.

        ``source`` picks the corpus (the service's default when omitted);
        ``engine_config`` overrides the service's engine configuration
        for this query's session.  Thread-safe.
        """
        prepared = self._prepare(query, source, engine_config)
        if prepared.cached is not None:
            # A pure hit neither builds nor touches a session entry.
            return self._hit_outcome(prepared.query, prepared.cached)
        entry = self._entry_for(prepared)
        request = CoalescedRequest(prepared.query)
        self._coalescer.submit(
            self._group_key(entry, prepared.query),
            request,
            lambda batch: self._execute_batch(entry, batch),
        )
        outcome = request.outcome
        self._store_result(prepared, outcome)
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
        """Serve a batch already in hand, coalescing it directly.

        Compatible queries from the iterable are grouped into
        micro-batches on the spot, so the batch charges shared state per
        *group* (and collapses repeated tasks inside the engine) instead
        of paying one engine round trip per query.  Outcomes keep input
        order.
        """
        prepared, outcomes, chunks = self._plan_batch(list(queries), source, engine_config)
        for entry, indices in chunks:
            self._run_chunk(prepared, outcomes, entry, indices)
        return outcomes
