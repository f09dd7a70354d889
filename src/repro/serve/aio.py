"""Asyncio serving front end: event-driven coalescing over the shared core.

The thread-based :class:`~repro.serve.service.AnalyticsService` caps
concurrency — and therefore coalescing opportunity — at its caller's
worker-thread count.  :class:`AsyncAnalyticsService` serves the same
queries from one event loop instead:

* ``await service.submit(query)`` costs a coroutine, not a thread, so
  thousands of requests can be in flight per worker process — the shape
  a long-lived compressed-analytics service (TADOC/G-TADOC's
  build-once, query-many design) actually sees;
* coalescing has **no window**: a leader takes its micro-batch the
  moment it leads, and every compatible request that queues while that
  batch executes rides in the next one — with a whole burst in flight,
  those batches run close to full;
* micro-batches dispatch engine ``run_fused`` calls through a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor`, so the event loop
  never blocks on simulated kernels and independent sessions still
  execute concurrently.

Everything else — session LRU, result cache, epochs, stats, outcome
assembly — is the same :class:`~repro.serve.service.ServingCore` the
threaded service uses, so the two front ends cannot drift apart.
:class:`AsyncServeBackend` additionally hosts the async service on a
dedicated event-loop thread behind the synchronous
:class:`~repro.api.backend.AnalyticsBackend` protocol (registered as
``"serve_async"``), so threaded callers and the cross-backend
equivalence matrix exercise the exact same code path.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Awaitable,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.sharding import ShardedAnalyticsService

from repro.analysis.lockcheck import make_lock
from repro.analytics.base import Task
from repro.api.backend import BackendCapabilities
from repro.api.backends import CorpusSource
from repro.api.outcome import RunOutcome
from repro.api.query import Query
from repro.core.session import GTadocConfig
from repro.data.corpus import Corpus
from repro.serve.coalescer import BatchSlot, CoalescerCore, GroupState
from repro.serve.service import ServiceConfig, ServiceStats, ServingCore

__all__ = [
    "AsyncCoalescedRequest",
    "AsyncQueryCoalescer",
    "AsyncAnalyticsService",
    "AsyncServeBackend",
]


class AsyncCoalescedRequest(BatchSlot):
    """One in-flight query of the asyncio coalescer (awaitable completion)."""

    __slots__ = ("done", "promoted")

    def __init__(self, query: Query) -> None:
        super().__init__(query)
        self.done: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        #: Set when a retiring leader hands this coroutine the lead.
        self.promoted: bool = False


#: Executes one micro-batch without blocking the loop (awaitable).
AsyncExecuteFn = Callable[[List[BatchSlot]], Awaitable[None]]


class AsyncQueryCoalescer:
    """Event-driven micro-batching on one event loop.

    The group/leader bookkeeping is the shared
    :class:`~repro.serve.coalescer.CoalescerCore`; because every method
    runs on the event loop between awaits, no lock is needed around it.
    A leader takes its batch before its first await, so it never waits
    for followers; followers await their request's future, which the
    batch that served them (or a retiring leader's hand-off) resolves.
    """

    def __init__(self, max_batch: int = 16) -> None:
        self._core = CoalescerCore(max_batch)

    @property
    def _groups(self) -> Dict[Any, GroupState]:
        """The live group records (exposed for tests/diagnostics)."""
        return self._core.groups

    async def submit(
        self, group_key: Any, request: AsyncCoalescedRequest, execute: AsyncExecuteFn
    ) -> None:
        """Run ``request`` through its group's micro-batching.

        Suspends until the request's micro-batch has executed; raises
        whatever the batch raised, otherwise ``request.outcome`` is
        filled in on return.  Cancellation-safe: a follower cancelled
        after being handed the lead withdraws and wakes a successor (or
        retires the group), and a leader cancelled mid-execution still
        settles its batch for the followers once the engine work lands.
        """
        group, became_leader = self._core.enqueue(group_key, request)
        if not became_leader:
            try:
                await request.done
            except asyncio.CancelledError:
                if request.promoted:
                    # Promoted, then cancelled before taking the lead: the
                    # group must not be orphaned — withdraw this request
                    # and wake a successor (or retire).
                    self._withdraw(group_key, group, request)
                raise
        # A leader, or a follower a retiring leader handed the lead to
        # (its own request is still pending), drains the next batch now.
        if became_leader or request.promoted:
            await self._lead(group_key, group, execute)
        if request.error is not None:
            raise request.error

    async def _lead(self, group_key: Any, group: GroupState, execute: AsyncExecuteFn) -> None:
        """Execute one micro-batch, then hand off leadership or retire."""
        # Followers cancelled since the last hand-off have no consumer;
        # drop them so the engine does not compute for callers that left.
        group.pending[:] = [
            slot
            for slot in group.pending
            if not slot.done.cancelled()  # type: ignore[attr-defined]
        ]
        batch = self._core.take_batch(group)
        if not batch:  # pragma: no cover - a leader's own request is pending
            self._core.finish(group_key, group)
            return
        job = asyncio.ensure_future(execute(batch))
        try:
            await asyncio.shield(job)
        except asyncio.CancelledError:
            # The leader was cancelled mid-execution; its followers' batch
            # still completes — settle the group when the work lands.
            if job.done():
                self._settle(group_key, group, batch, job)
            else:
                job.add_done_callback(
                    lambda done: self._settle(group_key, group, batch, done)
                )
            raise
        except BaseException:
            pass  # the job's error is distributed to every waiter by _settle
        self._settle(group_key, group, batch, job)

    def _settle(
        self,
        group_key: Any,
        group: GroupState,
        batch: List[BatchSlot],
        job: "asyncio.Future[None]",
    ) -> None:
        """Distribute a finished batch's outcome/error, wake waiters, hand off."""
        if job.cancelled():
            error: Optional[BaseException] = asyncio.CancelledError()
        else:
            error = job.exception()
        if error is not None:
            for slot in batch:
                slot.error = error
        for slot in batch:
            done = slot.done  # type: ignore[attr-defined]
            if not done.done():
                done.set_result(None)
        self._handoff(group_key, group)

    def _withdraw(
        self, group_key: Any, group: GroupState, request: AsyncCoalescedRequest
    ) -> None:
        """Remove a cancelled successor's own request and pass the lead on."""
        if request in group.pending:
            group.pending.remove(request)
        self._handoff(group_key, group)

    def _handoff(self, group_key: Any, group: GroupState) -> None:
        """Wake the next leader, skipping waiters that were cancelled."""
        # A pending request whose future is already done can only have
        # been cancelled; it can neither lead nor consume an outcome.
        group.pending[:] = [
            slot
            for slot in group.pending
            if not slot.done.cancelled()  # type: ignore[attr-defined]
        ]
        successor = self._core.finish(group_key, group)
        if successor is not None:
            done = successor.done  # type: ignore[attr-defined]
            if not done.done():
                done.set_result(None)


class AsyncAnalyticsService(ServingCore):
    """Asyncio serving front end over the G-TADOC engine.

    ``submit`` is a coroutine: any number may be in flight on one event
    loop, and compatible concurrent queries coalesce through
    :class:`AsyncQueryCoalescer`'s event-driven micro-batches.  Engine
    work runs on a bounded executor (``max_workers`` threads), so the
    loop stays responsive while simulated kernels execute.  Results are
    bit-identical to serial per-query execution.

    The service object itself must stay on one event loop at a time;
    use :class:`AsyncServeBackend` to share it with synchronous callers.

    **Shard-router mode.**  Constructed with ``router=`` (a
    :class:`~repro.serve.sharding.ShardedAnalyticsService`), the service
    becomes the shard pool's async client: ``submit`` routes each query
    to its owning shard and awaits the shard transport's future, so one
    event loop fans any number of in-flight queries across the pool
    without holding a caller thread per request — whether the shard is
    an in-process thread pool or a worker process behind a framed pipe
    (the router's configured transport; a crashed worker is replaced
    and the query transparently re-routed).  Serving state (session
    LRU, result cache, coalescing) then lives *in the shards*;
    ``stats``/``invalidate``/``resident_sessions`` delegate to the
    router, and closing this service does not close the router.
    """

    name = "serve_async"
    description = "Asyncio serving front end: event-driven coalescing, bounded executor"

    def __init__(
        self,
        source: Optional[CorpusSource] = None,
        *,
        engine_config: Optional[GTadocConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        max_workers: int = 4,
        router: Optional["ShardedAnalyticsService"] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        super().__init__(source, engine_config=engine_config, service_config=service_config)
        self._router = router
        self._coalescer = AsyncQueryCoalescer(max_batch=self.config.max_batch_size)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="gtadoc-serve"
        )

    # -- the query path ----------------------------------------------------------------
    async def submit(
        self,
        query: Union[Query, Task, str],
        *,
        source: Optional[CorpusSource] = None,
        engine_config: Optional[GTadocConfig] = None,
    ) -> RunOutcome:
        """Answer one query, coalescing with compatible in-flight queries."""
        loop = asyncio.get_running_loop()
        if self._router is not None:
            return await self._router.submit_async(
                query,
                source=source,
                engine_config=engine_config,
                resolve_executor=self._executor,
            )
        await self._warm_source(loop, source)
        prepared = self._prepare(query, source, engine_config)
        if prepared.cached is not None:
            # A pure hit neither builds nor touches a session entry.
            return self._hit_outcome(prepared.query, prepared.cached)
        entry = self._entry_for(prepared)
        request = AsyncCoalescedRequest(prepared.query)

        async def execute(batch: List[BatchSlot]) -> None:
            await loop.run_in_executor(self._executor, self._execute_batch, entry, batch)

        await self._coalescer.submit(self._group_key(entry, prepared.query), request, execute)
        outcome = request.outcome
        self._store_result(prepared, outcome)
        return outcome

    async def run(self, query: Union[Query, Task, str]) -> RunOutcome:
        """Async :class:`AnalyticsBackend`-style alias for :meth:`submit`."""
        return await self.submit(query)

    async def run_batch(
        self,
        queries: Iterable[Union[Query, Task, str]],
        *,
        source: Optional[CorpusSource] = None,
        engine_config: Optional[GTadocConfig] = None,
    ) -> List[RunOutcome]:
        """Serve a batch already in hand, coalescing it directly.

        Compatible queries are grouped into micro-batches on the spot
        (repeated tasks collapse inside the engine) and each micro-batch
        runs on the executor, keeping the loop free.  Outcomes keep input
        order.
        """
        loop = asyncio.get_running_loop()
        if self._router is not None:
            return await self._router.run_batch_async(
                queries,
                source=source,
                engine_config=engine_config,
                resolve_executor=self._executor,
            )
        await self._warm_source(loop, source)
        prepared, outcomes, chunks = self._plan_batch(list(queries), source, engine_config)
        # Independent micro-batches overlap on the bounded executor
        # (chunks fill disjoint outcome slots; shared sessions serialize
        # on their own locks).
        await asyncio.gather(
            *(
                loop.run_in_executor(
                    self._executor, self._run_chunk, prepared, outcomes, entry, indices
                )
                for entry, indices in chunks
            )
        )
        return outcomes

    # -- shard-router delegation -------------------------------------------------------
    def stats(self):
        """Service counters — the router's :class:`ShardedStats` in router mode."""
        if self._router is not None:
            return self._router.stats()
        return super().stats()

    def invalidate(self, source: CorpusSource) -> int:
        if self._router is not None:
            return self._router.invalidate(source)
        return super().invalidate(source)

    @property
    def resident_sessions(self) -> int:
        if self._router is not None:
            return self._router.resident_sessions
        return super().resident_sessions

    async def _warm_source(
        self, loop: asyncio.AbstractEventLoop, source: Optional[CorpusSource]
    ) -> None:
        """Compress a raw corpus on the executor, not on the event loop.

        ``_prepare`` resolves sources synchronously; for an unmemoized raw
        :class:`~repro.data.corpus.Corpus` that means a full compression,
        which must not stall every other in-flight coroutine.  Warming the
        memo here keeps the loop-side resolve to a dictionary lookup.
        """
        if isinstance(source, Corpus):
            await loop.run_in_executor(self._executor, self._resolve_source, source)

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor (idempotent)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "AsyncAnalyticsService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncServeBackend:
    """``serve_async`` behind the synchronous backend protocol.

    Hosts one :class:`AsyncAnalyticsService` on a dedicated event-loop
    thread; synchronous callers submit through
    ``run_coroutine_threadsafe``, so concurrent *threads* still coalesce
    through the event-driven micro-batches.  This is the adapter the
    backend registry constructs for ``open_backend("serve_async", ...)``
    and the one the cross-backend equivalence matrix drives.
    """

    name = "serve_async"

    def __init__(
        self,
        source: Optional[CorpusSource] = None,
        *,
        engine_config: Optional[GTadocConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        max_workers: int = 4,
    ) -> None:
        self.service = AsyncAnalyticsService(
            source,
            engine_config=engine_config,
            service_config=service_config,
            max_workers=max_workers,
        )
        self._closed = threading.Event()
        # Serializes scheduling against close(): a call that passes the
        # closed check has its coroutine queued on the loop before close()
        # can queue the shutdown, so the drain always sees its task.
        self._call_lock = make_lock("aio.call")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="gtadoc-serve-async", daemon=True
        )
        self._thread.start()

    def _call(self, coroutine: Awaitable[Any]) -> Any:
        with self._call_lock:
            if self._closed.is_set() or not self._thread.is_alive():
                coroutine.close()  # type: ignore[attr-defined]
                raise RuntimeError("AsyncServeBackend is closed")
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result()

    # -- the protocol surface ----------------------------------------------------------
    def submit(
        self,
        query: Union[Query, Task, str],
        *,
        source: Optional[CorpusSource] = None,
        engine_config: Optional[GTadocConfig] = None,
    ) -> RunOutcome:
        return self._call(self.service.submit(query, source=source, engine_config=engine_config))

    def run(self, query: Union[Query, Task, str]) -> RunOutcome:
        return self.submit(query)

    def run_batch(self, queries: Iterable[Union[Query, Task, str]]) -> List[RunOutcome]:
        return self._call(self.service.run_batch(list(queries)))

    def capabilities(self) -> BackendCapabilities:
        return self.service.capabilities()

    # -- management passthroughs -------------------------------------------------------
    def stats(self) -> ServiceStats:
        return self.service.stats()

    def invalidate(self, source: CorpusSource) -> int:
        return self.service.invalidate(source)

    @property
    def resident_sessions(self) -> int:
        return self.service.resident_sessions

    def close(self) -> None:
        """Stop the event-loop thread and release the executor (idempotent).

        In-flight calls from other threads are cancelled (their
        ``submit``/``run_batch`` raises ``CancelledError``) rather than
        left blocked on a loop that will never resume them.
        """
        with self._call_lock:
            self._closed.set()
        if self._thread.is_alive():

            def shutdown() -> None:
                async def stop_when_drained() -> None:
                    # Halting immediately would strand the callers: a
                    # cancelled task resolves its caller's future from a
                    # loop callback, so the loop must keep running until
                    # every cancellation has fully propagated.  Re-check
                    # until no task remains in case cancellation handlers
                    # spawned further work.
                    current = asyncio.current_task()
                    while True:
                        tasks = [
                            task
                            for task in asyncio.all_tasks(self._loop)
                            if task is not current
                        ]
                        if not tasks:
                            break
                        for task in tasks:
                            task.cancel()
                        await asyncio.gather(*tasks, return_exceptions=True)
                    self._loop.stop()

                self._loop.create_task(stop_when_drained())

            self._loop.call_soon_threadsafe(shutdown)
            self._thread.join(timeout=5.0)
        if not self._loop.is_closed():
            self._loop.close()
        self.service.close()

    def __enter__(self) -> "AsyncServeBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
