"""Serving-layer tests: caches, coalescing, concurrency, invalidation.

The centrepiece is the concurrency suite: N worker threads submitting
mixed queries through :class:`~repro.serve.AnalyticsService` must
produce results bit-identical to serial per-query execution while
launching strictly fewer kernels per query; the session LRU must respect
its bound; and the result cache must never serve stale results across a
corpus change.
"""

from __future__ import annotations

import asyncio
import copy
import sys
import threading

import pytest

from repro.analytics.base import Task, results_equal
from repro.api import Query, open_backend
from repro.api.backends import GTadocBackend
from repro.compression.compressor import compress_corpus
from repro.core.engine import GTadoc
from repro.core.session import (
    FILE_WEIGHTS,
    LOCAL_TABLES,
    RULE_WEIGHTS,
    DeviceSession,
    GTadocConfig,
)
from repro.core.strategy import TraversalStrategy
from repro.data.corpus import Corpus
from repro.serve import (
    AnalyticsService,
    AsyncAnalyticsService,
    LRUCache,
    ServiceConfig,
    TraceConfig,
    replay_trace,
    synthesize_trace,
)
from repro.serve.trace import default_relational_specs

NUM_THREADS = 8


# ----------------------------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------------------------

class TestLRUCache:
    def test_capacity_bound_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency: "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_stats_count_hits_misses_evictions_invalidations(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.put("b", 2)  # evicts "a"
        cache.remove_where(lambda key: key == "b")
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.evictions == 1 and stats.invalidations == 1
        assert stats.hit_rate == 0.5
        assert stats.size == 0 and stats.capacity == 1

    def test_get_or_create_builds_once_under_concurrency(self):
        cache = LRUCache(4)
        builds = []
        barrier = threading.Barrier(NUM_THREADS)
        values = []

        def worker() -> None:
            barrier.wait()
            value, _created = cache.get_or_create("key", lambda: builds.append(1) or object())
            values.append(value)

        threads = [threading.Thread(target=worker) for _ in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert all(value is values[0] for value in values)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_contains_is_a_pure_peek(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)  # "a" is least recently used
        assert "a" in cache and "c" not in cache
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0  # no counter was touched
        cache.put("c", 3)  # the peek did not refresh "a": it is still evicted
        assert cache.keys() == ["b", "c"]


class TestLRUCacheByteBudget:
    def test_budget_evicts_by_weight_lru_first(self):
        cache = LRUCache(10, max_weight_bytes=100)
        cache.put("a", "x", weight=60)
        cache.put("b", "y", weight=60)  # over budget: evicts "a"
        assert cache.get("a") is None and cache.get("b") == "y"
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.weight_bytes == 60
        assert stats.weight_capacity == 100

    def test_oversized_entry_is_rejected_without_flushing_residents(self):
        cache = LRUCache(10, max_weight_bytes=100)
        cache.put("a", "x", weight=40)
        cache.put("b", "y", weight=40)
        assert cache.put_if("big", "z", weight=1000) is False
        # The uncacheable entry must not have evicted anything on its way out.
        assert cache.get("a") == "x" and cache.get("b") == "y"
        assert cache.get("big") is None
        assert cache.stats().evictions == 0

    def test_replacing_an_entry_releases_its_weight(self):
        cache = LRUCache(10, max_weight_bytes=100)
        cache.put("a", "x", weight=80)
        cache.put("a", "y", weight=30)  # replacement, not accumulation
        cache.put("b", "z", weight=60)  # 30 + 60 fits: nothing evicted
        assert cache.get("a") == "y" and cache.get("b") == "z"
        assert cache.stats().weight_bytes == 90
        assert cache.stats().evictions == 0

    def test_remove_where_releases_weight(self):
        cache = LRUCache(10, max_weight_bytes=100)
        cache.put("a", "x", weight=70)
        cache.remove_where(lambda key: key == "a")
        assert cache.stats().weight_bytes == 0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            LRUCache(4, max_weight_bytes=0)


class TestLRUCacheDiscard:
    def test_discard_removes_and_counts_invalidation(self):
        cache = LRUCache(4)
        cache.put("k", 1)
        assert cache.discard("k") is True
        assert cache.discard("k") is False
        assert len(cache) == 0
        assert cache.stats().invalidations == 1

    def test_discard_when_is_identity_precise(self):
        cache = LRUCache(4)
        first, second = object(), object()
        cache.put("k", first)
        cache.put("k", second)  # replaced: "first" is no longer resident
        assert cache.discard("k", when=lambda value: value is first) is False
        assert cache.get("k") is second
        assert cache.discard("k", when=lambda value: value is second) is True
        assert len(cache) == 0


class TestLRUCacheRekey:
    def test_rekeyed_entry_becomes_most_recent_and_keeps_its_weight(self):
        cache = LRUCache(3, max_weight_bytes=100)
        cache.put("old", "warm", weight=10)  # least recently used
        cache.put("other", 2, weight=20)
        cache.put("new", "displaced", weight=30)
        before = cache.stats()
        assert cache.rekey("old", "new") == "warm"
        after = cache.stats()
        # The moved entry keeps its 10; the displaced entry's 30 leaves.
        assert after.weight_bytes == 10 + 20
        assert after.size == 2
        counters = ("hits", "misses", "evictions", "invalidations", "expirations")
        assert [getattr(after, name) for name in counters] == [
            getattr(before, name) for name in counters
        ]
        # Most recent: of the entries resident before the move, it goes last.
        assert cache.keys() == ["other", "new"]
        cache.put("a", 3)
        cache.put("b", 4)  # past capacity: "other" goes first
        assert cache.keys() == ["new", "a", "b"]
        assert cache.get("new") == "warm"


# ----------------------------------------------------------------------------------------
# Corpus fingerprints (the session/result cache key)
# ----------------------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_recompression(self, tiny_corpus):
        assert (
            compress_corpus(tiny_corpus).fingerprint()
            == compress_corpus(tiny_corpus).fingerprint()
        )

    def test_content_change_changes_fingerprint(self):
        before = compress_corpus(Corpus.from_texts({"a.txt": "alpha beta alpha"}))
        after = compress_corpus(Corpus.from_texts({"a.txt": "alpha beta gamma"}))
        assert before.fingerprint() != after.fingerprint()

    def test_display_name_does_not_participate(self):
        texts = {"a.txt": "alpha beta alpha beta"}
        one = compress_corpus(Corpus.from_texts(texts, name="first"))
        two = compress_corpus(Corpus.from_texts(texts, name="second"))
        assert one.fingerprint() == two.fingerprint()


# ----------------------------------------------------------------------------------------
# DeviceSession thread safety
# ----------------------------------------------------------------------------------------

class TestSessionThreadSafety:
    def test_concurrent_state_builds_happen_once(self, tiny_compressed):
        session = DeviceSession(tiny_compressed)
        barrier = threading.Barrier(NUM_THREADS)
        seen = []

        def worker(index: int) -> None:
            barrier.wait()
            key = (RULE_WEIGHTS, LOCAL_TABLES, FILE_WEIGHTS)[index % 3]
            seen.append((key, id(session.state(key))))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(NUM_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every thread asking for a key got the same built object.
        by_key = {}
        for key, identity in seen:
            by_key.setdefault(key, set()).add(identity)
        assert all(len(identities) == 1 for identities in by_key.values())
        # One drain collects all construction work; a second finds none.
        init_record, shared_record = session.drain_new_records()
        assert shared_record.num_launches > 0
        init_again, shared_again = session.drain_new_records()
        assert init_again.num_launches == 0 and shared_again.num_launches == 0

    def test_concurrent_batches_serialize_and_charge_init_once(self, tiny_compressed):
        engine = GTadoc(tiny_compressed)
        batches = []

        def worker() -> None:
            batches.append(engine.run_batch([Task.WORD_COUNT, Task.SORT]))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reference = GTadoc(tiny_compressed).run_batch([Task.WORD_COUNT, Task.SORT])
        shared_total = sum(batch.shared_kernel_launches for batch in batches)
        assert shared_total == reference.shared_kernel_launches
        for batch in batches:
            assert batch[Task.WORD_COUNT].result == reference[Task.WORD_COUNT].result
            assert batch[Task.SORT].result == reference[Task.SORT].result


# ----------------------------------------------------------------------------------------
# Batch-level shared figures (run_batch attribution bugfix)
# ----------------------------------------------------------------------------------------

class TestBatchSharedFigures:
    def test_batch_reports_scheduler_summary_once(self, tiny_compressed):
        engine = GTadoc(tiny_compressed)
        batch = engine.run_batch([Task.WORD_COUNT, Task.SORT])
        assert batch.scheduler_summary["rules"] == engine.layout.num_rules
        for result in batch.values():
            assert result.scheduler_summary == {}

    def test_single_run_keeps_its_own_summary(self, tiny_compressed):
        outcome = GTadoc(tiny_compressed).run(Task.WORD_COUNT)
        assert outcome.scheduler_summary["rules"] > 0

    def test_non_config_sequence_length_pool_delta_is_marginal(self, few_files_compressed):
        engine = GTadoc(few_files_compressed)
        engine.run_batch([Task.WORD_COUNT], traversal=TraversalStrategy.BOTTOM_UP)
        batch = engine.run_batch([Task.SEQUENCE_COUNT], sequence_length=5)
        assert batch[Task.SEQUENCE_COUNT].memory_pool_bytes > 0
        pool = engine.session.memory_pool
        assert pool is not None and pool.check_no_overlap()
        assert batch.memory_pool_bytes == pool.used_bytes

    def test_off_config_lengths_do_not_starve_local_tables(self, many_files_compressed):
        # An off-config sequence length must bring its own pool capacity:
        # the local-table budget has to survive for a later bottom-up task.
        engine = GTadoc(many_files_compressed)
        engine.run_batch([Task.SEQUENCE_COUNT], sequence_length=20)
        batch = engine.run_batch([Task.WORD_COUNT], traversal=TraversalStrategy.BOTTOM_UP)
        reference = GTadoc(many_files_compressed).run(
            Task.WORD_COUNT, traversal=TraversalStrategy.BOTTOM_UP
        )
        assert batch[Task.WORD_COUNT].result == reference.result
        assert engine.session.memory_pool.check_no_overlap()


# ----------------------------------------------------------------------------------------
# AnalyticsService: the concurrency suite
# ----------------------------------------------------------------------------------------

class TestServiceConcurrency:
    def test_mixed_concurrent_queries_bit_identical_to_serial(self, replay_cases):
        for label, compressed, config in replay_cases:
            trace = synthesize_trace(compressed.file_names, config)
            report = replay_trace(AnalyticsService(), compressed, trace, clients=NUM_THREADS)
            assert report.results_match, label
            # The acceptance criterion: strictly fewer kernel launches per
            # query than serial per-query run() execution.
            assert report.stats.kernel_launches < report.serial_launches, label
            assert report.served_launches_per_query < report.serial_launches_per_query, label

    def test_simultaneous_compatible_queries_coalesce(self, tiny_compressed, gate_first_batch):
        service = AnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        gate = gate_first_batch(service)
        leader, *followers = Task.all()
        outcomes = {}

        def worker(task: Task) -> None:
            outcomes[task] = service.submit(Query(task=task))

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
        stats = service.stats()
        # The leader ran alone, at once; everything that queued behind it
        # shared the next batch.
        assert gate.sizes == [1, len(followers)]
        assert stats.executed_queries == len(Task.all())
        assert stats.micro_batches == 2
        assert stats.coalesced_queries == len(followers)
        assert outcomes[leader].details["batch_size"] == 1
        assert all(outcomes[task].details["batch_size"] == len(followers) for task in followers)

    def test_error_reaches_only_the_offending_caller(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        with pytest.raises(ValueError, match="unknown file"):
            service.submit(Query(task=Task.WORD_COUNT, files=("missing.txt",)))
        outcome = service.submit(Query(task=Task.WORD_COUNT))
        assert outcome.result

    def test_rejected_queries_do_not_skew_stats(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        for _ in range(3):
            with pytest.raises(ValueError):
                service.submit(Query(task=Task.WORD_COUNT, files=("missing.txt",)))
        service.submit(Query(task=Task.WORD_COUNT))
        stats = service.stats()
        assert stats.queries == 1
        assert stats.result_cache.misses == 1
        assert stats.queries == stats.executed_queries + stats.result_cache.hits

    def test_idle_coalescing_groups_are_dropped(self, tiny_compressed):
        service = AnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        for task in (Task.WORD_COUNT, Task.SORT):
            service.submit(Query(task=task))
        service.submit(Query(task=Task.SEQUENCE_COUNT, sequence_length=4))
        # Every leader retired with an empty queue; no group records linger.
        assert service._coalescer._groups == {}

    def test_lone_submit_never_waits(self, tiny_compressed, monkeypatch):
        """A leader with no followers executes at once.  Nothing on its
        thread may block on a condition (``Event.wait`` goes through
        ``Condition.wait`` too), so no coalescing window can hide there."""
        service = AnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        service.submit(Query(task=Task.WORD_COUNT))  # warm the session
        caller = threading.get_ident()
        wait = threading.Condition.wait

        def refuse(condition, timeout=None):
            assert threading.get_ident() != caller, "a lone submit waited"
            return wait(condition, timeout)

        with monkeypatch.context() as patch:
            patch.setattr(threading.Condition, "wait", refuse)
            outcome = service.submit(Query(task=Task.SORT))
        assert outcome.details["batch_size"] == 1
        assert service._coalescer._groups == {}

    def test_raw_corpus_memo_is_bounded(self):
        service = AnalyticsService(
            service_config=ServiceConfig(corpus_memo_capacity=2)
        )
        corpora = [
            Corpus.from_texts({"a.txt": f"alpha beta w{index} alpha"}) for index in range(4)
        ]
        for corpus in corpora:
            service.submit(Query(task=Task.WORD_COUNT), source=corpus)
        assert len(service._corpus_memo) <= 2


#: One query per task, relational included.
_EVERY_TASK = [Query(task=task) for task in Task.all()] + [
    Query(task=Task.RELATIONAL, extras={"relational": default_relational_specs()[1]})
]


def _vandalize(result) -> None:
    """What a badly behaved caller does: mutate the deepest level, then clear the top."""
    for value in result.values() if isinstance(result, dict) else result:
        if isinstance(value, list):
            value.append(("vandal", 10**9))  # a posting list
        elif isinstance(value, dict):
            value["vandal"] = 10**9  # a term vector's inner dict
    result.clear()


def _assert_type_exact(actual, expected, path: str) -> None:
    """Equal, with the same container type at every level and the same key order."""
    assert type(actual) is type(expected), f"{path}: {type(actual).__name__}"
    if isinstance(expected, dict):
        assert len(actual) == len(expected), path
        for (key, value), (want_key, want_value) in zip(actual.items(), expected.items()):
            _assert_type_exact(key, want_key, f"{path} key {want_key!r}")
            _assert_type_exact(value, want_value, f"{path}[{want_key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for index, (item, want) in enumerate(zip(actual, expected)):
            _assert_type_exact(item, want, f"{path}[{index}]")
    else:
        assert actual == expected, path


def _assert_hits_isolated(submit, query: Query) -> None:
    """Mutating a miss, then each hit, must leave every next hit pristine."""
    miss = submit(query)
    assert miss.details["result_cache"] == "miss"
    pristine = copy.deepcopy(miss.result)
    _vandalize(miss.result)
    for _ in range(2):
        hit = submit(query)
        assert hit.details["result_cache"] == "hit"
        _assert_type_exact(hit.result, pristine, query.task.value)
        _vandalize(hit.result)


class TestServiceCaching:
    def test_repeated_query_hits_result_cache(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        first = service.submit(Query(task=Task.SORT, top_k=3))
        second = service.submit(Query(task=Task.SORT, top_k=3))
        assert first.details["result_cache"] == "miss"
        assert second.details["result_cache"] == "hit"
        assert second.result == first.result
        assert second.kernel_launches == 0
        stats = service.stats()
        assert stats.result_cache.hits == 1
        assert stats.executed_queries == 1 and stats.queries == 2

    def test_equal_queries_hit_regardless_of_construction(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        service.submit(Query(task="word_count", top_k=5, extras={"trace": 2, "tag": 1}))
        again = service.submit(
            Query(task=Task.WORD_COUNT, top_k=5, extras={"tag": 1, "trace": 2})
        )
        assert again.details["result_cache"] == "hit"

    def test_cache_hits_are_isolated_from_caller_mutation(self, few_files_compressed):
        service = AnalyticsService(few_files_compressed)
        for query in _EVERY_TASK:
            _assert_hits_isolated(service.submit, query)

    def test_async_cache_hits_are_isolated_from_caller_mutation(self, few_files_compressed):
        service = AsyncAnalyticsService(few_files_compressed)
        loop = asyncio.new_event_loop()
        try:
            _assert_hits_isolated(
                lambda query: loop.run_until_complete(service.submit(query)),
                Query(task=Task.RANKED_INVERTED_INDEX),
            )
        finally:
            loop.close()
            service.close()

    def test_misses_equal_executed_queries(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        for query in synthesize_trace(tiny_compressed.file_names, TraceConfig(num_requests=20)):
            service.submit(query)
        stats = service.stats()
        assert stats.result_cache.misses == stats.executed_queries
        assert stats.queries == stats.executed_queries + stats.result_cache.hits

    def test_cache_hits_do_not_touch_the_session_lru(
        self, tiny_compressed, single_file_compressed, few_files_compressed
    ):
        service = AnalyticsService(service_config=ServiceConfig(max_sessions=2))
        query = Query(task=Task.WORD_COUNT)
        service.submit(query, source=tiny_compressed)
        service.submit(query, source=single_file_compressed)
        service.submit(query, source=few_files_compressed)  # evicts tiny's session
        resident = set(service._sessions.keys())
        hit = service.submit(query, source=tiny_compressed)
        assert hit.details["result_cache"] == "hit"
        # The hit neither rebuilt tiny's session nor re-ranked the LRU.
        assert set(service._sessions.keys()) == resident
        assert service.stats().session_cache.misses == 3

    def test_session_lru_respects_bound(
        self, tiny_compressed, single_file_compressed, few_files_compressed
    ):
        service = AnalyticsService(service_config=ServiceConfig(max_sessions=2))
        for compressed in (tiny_compressed, single_file_compressed, few_files_compressed):
            service.submit(Query(task=Task.WORD_COUNT), source=compressed)
        assert service.resident_sessions == 2
        stats = service.stats()
        assert stats.session_cache.evictions == 1
        # The evicted corpus is still served correctly (state rebuilt).
        outcome = service.submit(Query(task=Task.SORT), source=tiny_compressed)
        serial = GTadocBackend(tiny_compressed, amortize=False).run(Query(task=Task.SORT))
        assert outcome.result == serial.result

    def test_engine_configs_key_separate_sessions(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        default = service.submit(Query(task=Task.SEQUENCE_COUNT))
        longer = service.submit(
            Query(task=Task.SEQUENCE_COUNT), engine_config=GTadocConfig(sequence_length=4)
        )
        assert service.resident_sessions == 2
        assert default.result != longer.result


class TestServiceInvalidation:
    def test_changed_corpus_never_serves_stale_results(self):
        before = compress_corpus(Corpus.from_texts({"a.txt": "alpha beta alpha"}))
        after = compress_corpus(Corpus.from_texts({"a.txt": "alpha beta gamma gamma"}))
        service = AnalyticsService()
        old = service.submit(Query(task=Task.WORD_COUNT), source=before)
        new = service.submit(Query(task=Task.WORD_COUNT), source=after)
        assert old.result == {"alpha": 2, "beta": 1}
        assert new.result == {"alpha": 1, "beta": 1, "gamma": 2}
        assert new.details["result_cache"] == "miss"

    def test_invalidate_drops_sessions_and_results(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        query = Query(task=Task.WORD_COUNT)
        first = service.submit(query)
        assert service.submit(query).details["result_cache"] == "hit"
        dropped = service.invalidate(tiny_compressed)
        assert dropped >= 2  # the session entry and the cached result
        assert service.resident_sessions == 0
        refreshed = service.submit(query)
        assert refreshed.details["result_cache"] == "miss"
        assert refreshed.result == first.result
        stats = service.stats()
        assert stats.session_cache.invalidations >= 1
        assert stats.result_cache.invalidations >= 1


# ----------------------------------------------------------------------------------------
# run_batch coalescing (a batch already in hand needs no window)
# ----------------------------------------------------------------------------------------

class TestRunBatchCoalescing:
    def test_batch_launches_strictly_fewer_kernels_than_serial_submits(self, tiny_compressed):
        """The acceptance criterion: grouping the Table II task mix beats
        the old submit-loop implementation on launches, not just batches."""
        mix = [Query(task=task) for task in Task.all()] + [
            Query(task=Task.SORT, top_k=3),
            Query(task=Task.WORD_COUNT, top_k=5),
            Query(task=Task.WORD_COUNT),
        ]
        grouped = AnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        serial = AnalyticsService(
            tiny_compressed, service_config=ServiceConfig(cache_results=False)
        )
        batch_outcomes = grouped.run_batch(mix)
        serial_outcomes = [serial.submit(query) for query in mix]
        assert grouped.stats().kernel_launches < serial.stats().kernel_launches
        assert grouped.stats().micro_batches < serial.stats().micro_batches
        for got, want in zip(batch_outcomes, serial_outcomes):
            assert results_equal(got.task, got.result, want.result)

    def test_batch_coalesces_even_with_the_result_cache_on(self, tiny_compressed):
        # Same task, different shaping: three distinct cache keys, but one
        # engine execution when grouped.
        mix = [Query(task=Task.SORT, top_k=k) for k in (2, 3, 4)]
        grouped = AnalyticsService(tiny_compressed)
        serial = AnalyticsService(tiny_compressed)
        grouped.run_batch(mix)
        for query in mix:
            serial.submit(query)
        assert grouped.stats().micro_batches == 1
        assert grouped.stats().kernel_launches < serial.stats().kernel_launches

    def test_batch_groups_by_compatibility_and_preserves_order(self, few_files_compressed):
        subset = (few_files_compressed.file_names[0],)
        mix = [
            Query(task=Task.WORD_COUNT),
            Query(task=Task.SEQUENCE_COUNT, sequence_length=4),
            Query(task=Task.INVERTED_INDEX, files=subset),
            Query(task=Task.SORT),
            Query(task=Task.SEQUENCE_COUNT, sequence_length=4, top_k=2),
        ]
        service = AnalyticsService(
            few_files_compressed, service_config=ServiceConfig(cache_results=False)
        )
        outcomes = service.run_batch(mix)
        assert [outcome.task for outcome in outcomes] == [query.task for query in mix]
        # Three compatibility groups: default knobs, sequence_length=4
        # (its two queries collapse to one engine execution), file subset.
        assert service.stats().micro_batches == 3
        serial = GTadocBackend(few_files_compressed, amortize=False)
        for query, outcome in zip(mix, outcomes):
            assert results_equal(query.task, outcome.result, serial.run(query).result)

    def test_batch_respects_max_batch_size(self, tiny_compressed):
        service = AnalyticsService(
            tiny_compressed,
            service_config=ServiceConfig(cache_results=False, max_batch_size=2),
        )
        outcomes = service.run_batch([Query(task=task) for task in Task.all()])
        assert service.stats().micro_batches == 3  # six queries, chunks of two
        assert all(outcome.details["batch_size"] == 2 for outcome in outcomes)

    def test_batch_serves_repeats_from_the_result_cache(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        service.submit(Query(task=Task.SORT, top_k=3))
        outcomes = service.run_batch(
            [Query(task=Task.SORT, top_k=3), Query(task=Task.WORD_COUNT)]
        )
        assert outcomes[0].details["result_cache"] == "hit"
        assert outcomes[1].details["result_cache"] == "miss"

    def test_unknown_file_fails_before_any_execution(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        with pytest.raises(ValueError, match="unknown file"):
            service.run_batch(
                [Query(task=Task.WORD_COUNT), Query(task=Task.SORT, files=("missing.txt",))]
            )
        assert service.stats().micro_batches == 0

    def test_empty_batch_is_a_no_op(self, tiny_compressed):
        service = AnalyticsService(tiny_compressed)
        assert service.run_batch([]) == []
        assert service.stats().queries == 0


# ----------------------------------------------------------------------------------------
# Cross-query micro-batch fusion
# ----------------------------------------------------------------------------------------

class TestMicroBatchFusion:
    """A micro-batch mixing distinct tasks compiles into one fused
    traversal pass: results stay bit-identical to plain coalesced
    batching while launching strictly fewer kernels.  The unfused
    baseline routes ``run_fused`` to ``run_batch``."""

    MIX = [Query(task=task) for task in Task.all()] + [
        Query(task=Task.SORT, top_k=3),
        Query(task=Task.WORD_COUNT, top_k=5),
    ]

    def _service(self, compressed):
        return AnalyticsService(compressed, service_config=ServiceConfig(cache_results=False))

    def _fused_and_unfused(self, monkeypatch, compressed, queries):
        fused = self._service(compressed)
        fused_outcomes = fused.run_batch(queries)
        with monkeypatch.context() as patch:
            patch.setattr(GTadoc, "run_fused", GTadoc.run_batch)
            unfused = self._service(compressed)
            unfused_outcomes = unfused.run_batch(queries)
        return (fused, fused_outcomes), (unfused, unfused_outcomes)

    def test_fused_results_bit_identical_to_unfused(self, monkeypatch, tiny_compressed):
        (_, fused), (_, unfused) = self._fused_and_unfused(monkeypatch, tiny_compressed, self.MIX)
        for got, want in zip(fused, unfused):
            assert got.result == want.result, got.query.describe()

    def test_fused_results_match_per_query_execution(self, tiny_compressed):
        serial = GTadocBackend(tiny_compressed)
        for outcome in self._service(tiny_compressed).run_batch(self.MIX):
            assert results_equal(
                outcome.task, outcome.result, serial.run(outcome.query).result
            ), outcome.query.describe()

    def test_fused_batches_launch_strictly_fewer_kernels(self, monkeypatch, tiny_compressed):
        (fused, _), (unfused, _) = self._fused_and_unfused(monkeypatch, tiny_compressed, self.MIX)
        assert fused.stats().kernel_launches < unfused.stats().kernel_launches
        # Both route the same query stream into the same micro-batches.
        assert fused.stats().micro_batches == unfused.stats().micro_batches

    @pytest.mark.parametrize("dataset", ["A", "B", "C", "D", "E"])
    def test_fused_trace_launches_fewer_kernels_with_identical_results(
        self, monkeypatch, dataset_compressed, dataset
    ):
        compressed = dataset_compressed[dataset]
        trace = synthesize_trace(
            compressed.file_names, TraceConfig(num_requests=48, seed=17)
        )
        (fused, fused_outcomes), (unfused, unfused_outcomes) = self._fused_and_unfused(
            monkeypatch, compressed, trace
        )
        for got, want in zip(fused_outcomes, unfused_outcomes):
            assert got.result == want.result, got.query.describe()
        assert fused.stats().kernel_launches < unfused.stats().kernel_launches

    def test_mixed_task_batches_flag_fusion_in_details(self, tiny_compressed):
        outcomes = self._service(tiny_compressed).run_batch(self.MIX)
        assert all(outcome.details["fused"] for outcome in outcomes)

    def test_uniform_batches_do_not_fuse(self, tiny_compressed):
        # A single-task batch still runs through run_fused, as a
        # one-task program; with one family primitive there is nothing
        # to fuse across, so the batch does not report fusion.
        mix = [Query(task=Task.SORT, top_k=k) for k in (2, 3)]
        outcomes = self._service(tiny_compressed).run_batch(mix)
        assert all(not outcome.details["fused"] for outcome in outcomes)


# ----------------------------------------------------------------------------------------
# The invalidate/in-flight race (epoch-guarded write-backs)
# ----------------------------------------------------------------------------------------

class TestInvalidateInflightRace:
    def test_inflight_result_is_not_resurrected_after_invalidate(self, tiny_compressed):
        executing = threading.Barrier(2)
        proceed = threading.Event()

        class BlockingService(AnalyticsService):
            def _execute_batch(self, entry, batch):
                if not proceed.is_set():      # only the staged execution blocks
                    executing.wait()  # announce: the miss is now executing
                    proceed.wait()    # hold until the invalidation has run
                super()._execute_batch(entry, batch)

        service = BlockingService(tiny_compressed)
        query = Query(task=Task.WORD_COUNT)
        outcomes = []
        worker = threading.Thread(target=lambda: outcomes.append(service.submit(query)))
        worker.start()
        executing.wait()
        dropped = service.invalidate(tiny_compressed)
        proceed.set()
        worker.join()
        # The in-flight query was answered (for the content it addressed)...
        assert outcomes and outcomes[0].result
        # ...but its write-back was dropped: the next identical query is a
        # miss, not a resurrected pre-invalidation entry.
        assert service.stats().result_cache.size == 0
        after = service.submit(query)
        assert after.details["result_cache"] == "miss"
        assert after.result == outcomes[0].result  # content never changed
        assert dropped >= 1  # the session entry created before the invalidate

    def test_stale_epoch_session_is_not_left_resident(self, tiny_compressed):
        reached = threading.Event()
        gate = threading.Event()

        class BlockingService(AnalyticsService):
            def _entry_for(self, prepared):
                if not reached.is_set():
                    reached.set()   # epoch already read in _prepare
                    gate.wait()     # invalidation runs before the session builds
                return super()._entry_for(prepared)

        service = BlockingService(tiny_compressed)
        outcomes = []
        worker = threading.Thread(
            target=lambda: outcomes.append(service.submit(Query(task=Task.WORD_COUNT)))
        )
        worker.start()
        reached.wait()
        service.invalidate(tiny_compressed)
        gate.set()
        worker.join()
        # The stale-epoch query was served, but the session it built under
        # the invalidated generation is not allowed to stay resident.
        assert outcomes and outcomes[0].result
        assert service.resident_sessions == 0

    def test_barrier_synchronized_submits_race_one_invalidate(self, tiny_compressed):
        """Stress shape: several threads' misses execute while the corpus is
        invalidated mid-flight; none may write back a stale entry."""
        num_workers = 4
        executing = threading.Barrier(num_workers + 1)
        proceed = threading.Event()

        class BlockingService(AnalyticsService):
            def _execute_batch(self, entry, batch):
                if not proceed.is_set():      # only the staged executions block
                    executing.wait()
                    proceed.wait()
                super()._execute_batch(entry, batch)

        # One coalescing group per task: distinct sequence lengths force
        # distinct micro-batches, so every worker blocks in _execute_batch.
        service = BlockingService(tiny_compressed)
        queries = [
            Query(task=Task.SEQUENCE_COUNT, sequence_length=length)
            for length in range(2, 2 + num_workers)
        ]
        errors = []

        def worker(query: Query) -> None:
            try:
                service.submit(query)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(query,)) for query in queries]
        for thread in threads:
            thread.start()
        executing.wait()  # all four micro-batches are in flight
        service.invalidate(tiny_compressed)
        proceed.set()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.stats().result_cache.size == 0
        assert service.resident_sessions == 0
        # Post-invalidation traffic rebuilds and caches normally again.
        refreshed = service.submit(queries[0])
        assert refreshed.details["result_cache"] == "miss"
        assert service.submit(queries[0]).details["result_cache"] == "hit"


# ----------------------------------------------------------------------------------------
# The epoch map stays within the resident fingerprints
# ----------------------------------------------------------------------------------------

def _live_corpus(tag: str):
    return compress_corpus(
        Corpus.from_texts({f"{tag}.txt": f"{tag} epochs retire {tag} fingerprints " * 3})
    )


class TestEpochMapBound:
    def test_appends_to_one_corpus_keep_the_map_bounded(self):
        corpus = _live_corpus("probe")
        service = AnalyticsService()
        for step in range(1, 401):
            corpus.append_files({f"more-{step}.txt": f"fresh w{step} tokens"})
            service.submit(Query(task=Task.WORD_COUNT), source=corpus)
            if step in (100, 200, 400):
                assert service.resident_sessions == 1
                assert len(service._results) == 1
                assert len(service._uid_versions) == 1
                assert len(service._epochs) <= 1, step
        expected = GTadoc(compress_corpus(corpus.decompress())).run(Task.WORD_COUNT).result
        assert service.submit(Query(task=Task.WORD_COUNT), source=corpus).result == expected

    def test_a_rising_floor_does_not_age_live_sessions(self):
        steady, live = _live_corpus("steady"), _live_corpus("live")
        service = AnalyticsService()
        service.submit(Query(task=Task.WORD_COUNT), source=steady)
        for step in range(6):
            live.append_files({f"more-{step}.txt": f"fresh w{step} tokens"})
            service.submit(Query(task=Task.WORD_COUNT), source=live)
        assert service._epoch_floor > 0
        before = service.stats().session_cache
        outcome = service.submit(Query(task=Task.SORT, top_k=3), source=steady)
        after = service.stats().session_cache
        assert outcome.details["result_cache"] == "miss"
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_write_back_captured_before_a_pruned_retirement_fails(self):
        corpus = _live_corpus("race")
        executing = threading.Event()
        proceed = threading.Event()

        class BlockingService(AnalyticsService):
            def _execute_batch(self, entry, batch):
                if not executing.is_set():  # only the first batch is held
                    executing.set()
                    proceed.wait()
                super()._execute_batch(entry, batch)

        service = BlockingService()
        retired = corpus.fingerprint()
        worker = threading.Thread(
            target=service.submit, args=(Query(task=Task.SORT),), kwargs={"source": corpus}
        )
        worker.start()
        executing.wait()
        try:
            # The next epoch's query retires the old fingerprint and, with
            # nothing left resident under it, prunes it from the map.
            corpus.append_files({"late.txt": "late tokens"})
            service.submit(Query(task=Task.WORD_COUNT), source=corpus)
            assert retired not in service._epochs
        finally:
            proceed.set()
            worker.join()
        assert all(key[0][0] != retired for key in service._results.keys())
        assert len(service._results) == 1

    def test_stress_retirements_race_readers(self):
        live, steady = _live_corpus("churn"), _live_corpus("calm")
        query = Query(task=Task.WORD_COUNT)

        def fresh_answer(corpus):
            return GTadoc(compress_corpus(corpus.decompress())).run(Task.WORD_COUNT).result

        valid = [fresh_answer(live)]
        steady_answer = fresh_answer(steady)
        service = AnalyticsService(service_config=ServiceConfig(max_sessions=2, result_cache_capacity=8))
        stop = threading.Event()
        answers, errors = [], []

        def read() -> None:
            try:
                while not stop.is_set():
                    answers.append(service.submit(query, source=live).result)
                    assert service.submit(query, source=steady).result == steady_answer
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        def invalidate() -> None:
            try:
                for _ in range(10):
                    service.invalidate(steady)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read) for _ in range(6)]
        try:
            for thread in readers:
                thread.start()
            for step in range(12):
                live.append_files({f"churn-{step}.txt": f"churn w{step} tokens"})
                valid.append(fresh_answer(live))
                invalidators = [threading.Thread(target=invalidate) for _ in range(2)]
                for thread in invalidators:
                    thread.start()
                for thread in invalidators:
                    thread.join(timeout=60)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors
        assert answers and all(answer in valid for answer in answers)
        # Each of the 240 invalidations retired the fingerprint once more.
        assert service._epoch_of(steady.fingerprint()) >= 240
        assert len(service._epochs) <= 2 + 8
        assert service.submit(query, source=live).result == valid[-1]


# ----------------------------------------------------------------------------------------
# Result-cache byte budget through ServiceConfig
# ----------------------------------------------------------------------------------------

class TestServiceResultCachePolicy:
    def test_byte_budget_keeps_oversized_results_out(self, tiny_compressed):
        service = AnalyticsService(
            tiny_compressed, service_config=ServiceConfig(result_cache_bytes=1)
        )
        service.submit(Query(task=Task.WORD_COUNT))
        again = service.submit(Query(task=Task.WORD_COUNT))
        assert again.details["result_cache"] == "miss"  # nothing fits the budget
        stats = service.stats().result_cache
        assert stats.weight_capacity == 1
        assert stats.size == 0

    def test_byte_budget_bounds_resident_weight(self, tiny_compressed):
        budget = 64 * 1024
        service = AnalyticsService(
            tiny_compressed, service_config=ServiceConfig(result_cache_bytes=budget)
        )
        for query in synthesize_trace(tiny_compressed.file_names, TraceConfig(num_requests=24)):
            service.submit(query)
        stats = service.stats().result_cache
        assert 0 < stats.weight_bytes <= budget

    def test_entries_are_weighed_by_result_size(self, few_files_compressed):
        service = AnalyticsService(
            few_files_compressed,
            service_config=ServiceConfig(result_cache_bytes=10**9),
        )
        service.submit(Query(task=Task.SORT, top_k=1))
        small = service.stats().result_cache.weight_bytes
        service.submit(Query(task=Task.INVERTED_INDEX))
        assert service.stats().result_cache.weight_bytes > small * 2

    def test_weighing_is_skipped_without_a_budget(self, tiny_compressed):
        # Without a budget no weight is consumed, so the default cache
        # counts entries: each carries unit weight, not its snapshot size.
        service = AnalyticsService(tiny_compressed)
        service.submit(Query(task=Task.INVERTED_INDEX))
        stats = service.stats().result_cache
        assert stats.weight_capacity is None
        assert stats.weight_bytes == stats.size == 1

    def test_bad_policy_values_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(result_cache_bytes=0)


# ----------------------------------------------------------------------------------------
# The serving layer behind the backend registry
# ----------------------------------------------------------------------------------------

class TestServeBackend:
    def test_open_backend_returns_a_service(self, tiny_compressed):
        backend = open_backend("serve", tiny_compressed)
        assert isinstance(backend, AnalyticsService)
        capabilities = backend.capabilities()
        assert capabilities.amortizes_batches and capabilities.compressed_domain

    def test_serve_accepts_raw_corpus(self, tiny_corpus, tiny_compressed):
        backend = open_backend("serve", tiny_corpus)
        outcome = backend.run(Query(task=Task.WORD_COUNT))
        serial = GTadocBackend(tiny_compressed, amortize=False).run(Query(task=Task.WORD_COUNT))
        assert outcome.result == serial.result
