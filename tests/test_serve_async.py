"""Asyncio serving tests: event-driven coalescing, executor dispatch, adapter.

The centrepiece mirrors the threaded concurrency suite:
:class:`~repro.serve.AsyncAnalyticsService` replaying the seeded mixed
trace must produce results bit-identical to serial per-query execution
while coalescing at least as well as the threaded service on the same
trace.  The coalescer-level tests pin the batching behaviour — a leader
executes at once, the requests that queue while a batch executes form
the next batches (at most ``max_batch_size`` each), and a lone request
never waits.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading

import pytest

from repro.analytics.base import Task, results_equal
from repro.api import Query, open_backend
from repro.api.backend import AnalyticsBackend
from repro.api.backends import GTadocBackend
from repro.serve import (
    AnalyticsService,
    AsyncAnalyticsService,
    AsyncServeBackend,
    ServiceConfig,
    replay_trace,
    synthesize_trace,
)

NUM_THREADS = 6


# ----------------------------------------------------------------------------------------
# Event-driven coalescing
# ----------------------------------------------------------------------------------------

class TestAsyncCoalescing:
    def test_gathered_compatible_queries_share_one_micro_batch(self, tiny_compressed):
        service = AsyncAnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        try:
            async def drive():
                return await asyncio.gather(
                    *(service.submit(Query(task=task)) for task in Task.all())
                )

            outcomes = asyncio.run(drive())
        finally:
            service.close()
        # The first query leads alone, at once; the five that queued while
        # it executed share the next micro-batch.
        stats = service.stats()
        followers = len(Task.all()) - 1
        assert stats.micro_batches == 2
        assert stats.executed_queries == len(Task.all())
        assert [outcome.details["batch_size"] for outcome in outcomes] == [1] + [followers] * followers
        assert [outcome.details["coalesced"] for outcome in outcomes] == [False] + [True] * followers

    def test_lone_submit_never_reaches_a_timed_wait(self, tiny_compressed, monkeypatch):
        """A leader with no followers takes its batch at once: it never
        awaits anything under a timeout, so no coalescing window can hide
        on the async path."""
        service = AsyncAnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )

        def refuse(*_args, **_kwargs):
            raise AssertionError("a lone submit awaited asyncio.wait_for")

        try:
            async def drive():
                await service.submit(Query(task=Task.WORD_COUNT))  # warm the session
                with monkeypatch.context() as patch:
                    patch.setattr(asyncio, "wait_for", refuse)
                    return await service.submit(Query(task=Task.SORT))

            outcome = asyncio.run(drive())
        finally:
            service.close()
        assert outcome.details["batch_size"] == 1
        assert service._coalescer._groups == {}

    def test_max_batch_size_caps_each_queued_batch(self, tiny_compressed, gate_first_batch):
        service = AsyncAnalyticsService(
            tiny_compressed,
            service_config=ServiceConfig(cache_results=False, max_batch_size=3),
        )
        gate = gate_first_batch(service)
        followers = [Query(task=task) for task in Task.all()]
        try:
            async def drive():
                leader = asyncio.create_task(service.submit(Query(task=Task.WORD_COUNT)))
                queued = [asyncio.create_task(service.submit(query)) for query in followers]
                await gate.until_queued(len(followers))
                gate.release()
                return await asyncio.gather(leader, *queued)

            outcomes = asyncio.run(drive())
        finally:
            service.close()
        # Six followers queued behind the held batch drain as two full batches.
        assert gate.sizes == [1, 3, 3]
        assert service.stats().micro_batches == 3
        assert [outcome.details["batch_size"] for outcome in outcomes] == [1] + [3] * 6
        assert service._coalescer._groups == {}

    def test_invalidate_during_an_executing_batch(
        self, tiny_compressed, tiny_reference, gate_first_batch
    ):
        service = AsyncAnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        gate = gate_first_batch(service)
        try:
            async def drive():
                pending = asyncio.create_task(service.submit(Query(task=Task.WORD_COUNT)))
                await gate.until_executing()
                service.invalidate(tiny_compressed)
                gate.release()
                return await asyncio.wait_for(pending, timeout=5.0)

            outcome = asyncio.run(drive())
        finally:
            service.close()
        # The in-flight query still answers for the content it addressed...
        assert outcome.result == tiny_reference.run(Task.WORD_COUNT)
        # ...its stale session is not left resident, and no group record lingers.
        assert service.resident_sessions == 0
        assert service._coalescer._groups == {}

    def test_sequential_submits_do_not_coalesce(self, tiny_compressed):
        service = AsyncAnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        try:
            async def drive():
                for task in (Task.WORD_COUNT, Task.SORT):
                    await service.submit(Query(task=task))

            asyncio.run(drive())
        finally:
            service.close()
        stats = service.stats()
        assert stats.micro_batches == 2
        assert stats.coalesced_queries == 0
        # Every leader retired with an empty queue; no group records linger.
        assert service._coalescer._groups == {}

    def test_error_reaches_only_the_offending_caller(self, tiny_compressed):
        service = AsyncAnalyticsService(tiny_compressed)
        try:
            async def drive():
                with pytest.raises(ValueError, match="unknown file"):
                    await service.submit(Query(task=Task.WORD_COUNT, files=("missing.txt",)))
                return await service.submit(Query(task=Task.WORD_COUNT))

            outcome = asyncio.run(drive())
        finally:
            service.close()
        assert outcome.result
        assert service.stats().queries == 1

    def test_async_run_batch_groups_directly(self, tiny_compressed):
        service = AsyncAnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        mix = [Query(task=task) for task in Task.all()] + [Query(task=Task.SORT, top_k=3)]
        try:
            outcomes = asyncio.run(service.run_batch(mix))
        finally:
            service.close()
        assert [outcome.task for outcome in outcomes] == [query.task for query in mix]
        assert service.stats().micro_batches == 1
        serial = GTadocBackend(tiny_compressed, amortize=False)
        for query, outcome in zip(mix, outcomes):
            assert results_equal(query.task, outcome.result, serial.run(query).result)


# ----------------------------------------------------------------------------------------
# Cancellation safety (client timeouts are routine on an async front end)
# ----------------------------------------------------------------------------------------

class TestAsyncCancellation:
    def test_cancelled_leader_does_not_wedge_the_group(self, tiny_compressed, gate_first_batch):
        service = AsyncAnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        gate = gate_first_batch(service)
        try:
            async def drive():
                leader = asyncio.create_task(service.submit(Query(task=Task.WORD_COUNT)))
                await gate.until_executing()
                leader.cancel()  # mid-execution: the batch is shielded
                with pytest.raises(asyncio.CancelledError):
                    await leader
                gate.release()
                # The group must keep serving new compatible queries.
                return await asyncio.wait_for(
                    service.submit(Query(task=Task.WORD_COUNT)), timeout=5.0
                )

            outcome = asyncio.run(drive())
        finally:
            service.close()
        assert outcome.result
        # The cancelled leader's batch still ran to completion and settled.
        assert gate.completed == [1, 1]
        assert service._coalescer._groups == {}

    def test_cancelled_leader_hands_followers_to_a_successor(
        self, tiny_compressed, gate_first_batch
    ):
        service = AsyncAnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        gate = gate_first_batch(service)
        try:
            async def drive():
                leader = asyncio.create_task(service.submit(Query(task=Task.WORD_COUNT)))
                await gate.until_executing()
                follower = asyncio.create_task(service.submit(Query(task=Task.SORT)))
                await gate.until_queued(1)
                leader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await leader
                gate.release()
                return await asyncio.wait_for(follower, timeout=5.0)

            outcome = asyncio.run(drive())
        finally:
            service.close()
        assert outcome.result  # served despite its leader being cancelled
        # The shielded batch settled, then handed the follower the lead.
        assert gate.completed == [1, 1]
        assert outcome.details["batch_size"] == 1
        assert service._coalescer._groups == {}

    def test_successor_cancelled_between_promotion_and_resumption(self, tiny_compressed):
        """The narrowest gap: a follower is promoted (its future resolved)
        and then cancelled before its coroutine resumes; the group must
        hand leadership on instead of wedging."""
        from repro.serve import AsyncCoalescedRequest, AsyncQueryCoalescer

        async def drive():
            coalescer = AsyncQueryCoalescer(max_batch=1)
            gate = asyncio.Event()
            calls = []

            async def execute(batch):
                calls.append([slot.query.task for slot in batch])
                if len(calls) == 1:
                    await gate.wait()
                for slot in batch:
                    slot.outcome = slot.query.task

            leader_request = AsyncCoalescedRequest(Query(task=Task.WORD_COUNT))
            leader = asyncio.create_task(coalescer.submit("g", leader_request, execute))
            await asyncio.sleep(0.01)  # the leader's batch is blocked in execute
            follower_request = AsyncCoalescedRequest(Query(task=Task.SORT))
            follower = asyncio.create_task(
                coalescer.submit("g", follower_request, execute)
            )
            # Registered before the follower's first await, so it fires
            # ahead of the task wakeup when promotion resolves the future:
            # the cancellation lands exactly in the promotion gap.
            follower_request.done.add_done_callback(lambda _f: follower.cancel())
            await asyncio.sleep(0.01)  # the follower is queued and waiting
            gate.set()  # leader drains, retires, promotes the follower
            with pytest.raises(asyncio.CancelledError):
                await follower
            await leader
            # The group must not be orphaned: a new request is serviceable.
            fresh = AsyncCoalescedRequest(Query(task=Task.WORD_COUNT))
            await asyncio.wait_for(coalescer.submit("g", fresh, execute), timeout=5.0)
            assert fresh.outcome is Task.WORD_COUNT
            assert coalescer._groups == {}

        asyncio.run(drive())

    def test_cancelled_follower_does_not_block_the_batch(self, tiny_compressed, gate_first_batch):
        service = AsyncAnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        gate = gate_first_batch(service)
        try:
            async def drive():
                leader = asyncio.create_task(service.submit(Query(task=Task.WORD_COUNT)))
                await gate.until_executing()
                follower = asyncio.create_task(service.submit(Query(task=Task.SORT)))
                await gate.until_queued(1)
                follower.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await follower
                gate.release()
                return await asyncio.wait_for(leader, timeout=5.0)

            outcome = asyncio.run(drive())
        finally:
            service.close()
        assert outcome.result
        # The cancelled follower was dropped at hand-off: no batch ran for it.
        assert gate.completed == [1]
        assert service.stats().micro_batches == 1
        assert service._coalescer._groups == {}


# ----------------------------------------------------------------------------------------
# Trace replay: the acceptance criterion
# ----------------------------------------------------------------------------------------

class TestAsyncReplay:
    def test_seeded_trace_bit_identical_and_coalesces_at_least_as_well(self, replay_cases):
        for label, compressed, config in replay_cases:
            trace = synthesize_trace(compressed.file_names, config)
            threaded = replay_trace(
                AnalyticsService(),
                compressed,
                trace,
                clients=NUM_THREADS,
                serial_baseline=False,
            )
            with AsyncAnalyticsService() as service:
                report = replay_trace(service, compressed, trace, clients=len(trace))
            assert report.results_match, label
            assert report.stats.kernel_launches < report.serial_launches, label
            assert report.served_launches_per_query < report.serial_launches_per_query, label
            # With the whole trace in flight, the batches that queue behind
            # each executing batch must coalesce at least as well as the
            # 6-thread service on the same trace.
            assert report.stats.mean_batch_size >= threaded.stats.mean_batch_size, label

    def test_repeated_queries_hit_the_result_cache_across_bursts(self, tiny_compressed):
        service = AsyncAnalyticsService(tiny_compressed)
        query = Query(task=Task.SORT, top_k=3)
        try:
            async def drive():
                first = await service.submit(query)
                second = await service.submit(query)
                return first, second

            first, second = asyncio.run(drive())
        finally:
            service.close()
        assert first.details["result_cache"] == "miss"
        assert second.details["result_cache"] == "hit"
        assert second.result == first.result


# ----------------------------------------------------------------------------------------
# The sync adapter (the registered "serve_async" backend)
# ----------------------------------------------------------------------------------------

class TestAsyncServeBackend:
    def test_open_backend_returns_the_adapter(self, tiny_compressed):
        backend = open_backend("serve_async", tiny_compressed)
        try:
            assert isinstance(backend, AsyncServeBackend)
            assert isinstance(backend, AnalyticsBackend)
            capabilities = backend.capabilities()
            assert capabilities.name == "serve_async"
            assert capabilities.amortizes_batches and capabilities.compressed_domain
        finally:
            backend.close()

    def test_adapter_matches_serial_execution(self, tiny_compressed):
        backend = open_backend("serve_async", tiny_compressed)
        try:
            outcome = backend.run(Query(task=Task.WORD_COUNT))
            serial = GTadocBackend(tiny_compressed, amortize=False).run(
                Query(task=Task.WORD_COUNT)
            )
            assert outcome.backend == "serve_async"
            assert outcome.result == serial.result
        finally:
            backend.close()

    def test_adapter_run_batch_coalesces(self, tiny_compressed):
        backend = open_backend(
            "serve_async", tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        try:
            outcomes = backend.run_batch(
                [Query(task=Task.SORT, top_k=2), Query(task=Task.SORT, top_k=4)]
            )
            assert [outcome.details["batch_size"] for outcome in outcomes] == [2, 2]
            assert backend.stats().micro_batches == 1
        finally:
            backend.close()

    def test_concurrent_sync_callers_coalesce_through_the_loop(
        self, tiny_compressed, gate_first_batch
    ):
        backend = AsyncServeBackend(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        gate = gate_first_batch(backend.service)
        leader, *followers = Task.all()
        outcomes = {}

        def worker(task: Task) -> None:
            outcomes[task] = backend.submit(Query(task=task))

        try:
            threads = [threading.Thread(target=worker, args=(task,)) for task in Task.all()]
            threads[0].start()
            gate.wait_executing()  # the leader's batch is running...
            for thread in threads[1:]:
                thread.start()
            gate.wait_queued(len(followers))  # ...while every follower queues behind it
            gate.release()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            stats = backend.stats()
        finally:
            backend.close()
        assert gate.sizes == [1, len(followers)]
        assert stats.executed_queries == len(Task.all())
        assert stats.micro_batches == 2
        assert stats.coalesced_queries == len(followers)
        assert all(outcomes[task].details["batch_size"] == len(followers) for task in followers)

    def test_closed_adapter_refuses_work(self, tiny_compressed):
        backend = AsyncServeBackend(tiny_compressed)
        backend.run(Query(task=Task.WORD_COUNT))
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            backend.run(Query(task=Task.SORT))

    def test_close_unblocks_inflight_sync_callers(self, tiny_compressed):
        backend = AsyncServeBackend(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        started = threading.Event()
        hold = threading.Event()
        original = backend.service._execute_batch

        def slow_execute(entry, batch):
            started.set()
            hold.wait()
            original(entry, batch)

        backend.service._execute_batch = slow_execute
        failures = []

        def caller() -> None:
            try:
                backend.submit(Query(task=Task.WORD_COUNT))
            except BaseException as error:
                failures.append(error)

        worker = threading.Thread(target=caller)
        worker.start()
        started.wait()  # the caller's engine work is in flight
        releaser = threading.Timer(0.2, hold.set)  # lets close() drain the executor
        releaser.start()
        backend.close()  # must cancel the in-flight call, not strand it
        worker.join(timeout=5.0)
        releaser.join()
        assert not worker.is_alive(), "in-flight caller was left blocked by close()"
        assert len(failures) == 1
        assert isinstance(
            failures[0], (asyncio.CancelledError, concurrent.futures.CancelledError)
        )
