"""Tests for sharded serving: routing, replication, resize, replay —
plus regression tests for the trace/replay/simulator bugfixes that ride
along with the shard pool."""

from __future__ import annotations

import asyncio
import inspect
import random
import threading
import time
from collections import Counter

import pytest

from repro.analytics.base import Task, results_equal
from repro.api import Query, open_backend
from repro.api.query import as_query
from repro.cluster.simulator import ClusterSimulator, ClusterSpec
from repro.compression.compressor import compress_corpus
from repro.data.corpus import Corpus
from repro.perf.counters import CostCounter
from repro.serve import (
    AnalyticsService,
    AsyncAnalyticsService,
    ServiceConfig,
    ShardedAnalyticsService,
    ShardedServiceConfig,
    TraceConfig,
    rendezvous_rank,
    replay_trace,
    synthesize_trace,
)


def _corpus(tag: str, files: int = 3) -> Corpus:
    text = f"alpha beta gamma {tag} delta epsilon {tag} alpha beta gamma " * 3
    return Corpus.from_texts(
        {f"{tag}_{index}.txt": text + f"entry {index}" for index in range(files)},
        name=tag,
    )


@pytest.fixture(scope="module")
def shard_corpora():
    """Six distinct compressed corpora for routing/placement tests."""
    return [compress_corpus(_corpus(f"corpus{index}")) for index in range(6)]


def _pool(num_shards=2, **config) -> ShardedAnalyticsService:
    defaults = dict(
        num_shards=num_shards,
        replication_factor=2,
        hot_query_share=0.6,
        min_queries_for_replication=4,
        shard_workers=2,
    )
    defaults.update(config)
    return ShardedAnalyticsService(
        sharded_config=ShardedServiceConfig(**defaults),
    )


# ----------------------------------------------------------------------------------------
# Rendezvous hashing
# ----------------------------------------------------------------------------------------

class TestRendezvousRank:
    FINGERPRINTS = [f"fp-{index:04d}" for index in range(64)]

    def test_ranking_is_deterministic(self):
        for fingerprint in self.FINGERPRINTS[:8]:
            assert rendezvous_rank(fingerprint, [0, 1, 2]) == rendezvous_rank(
                fingerprint, [2, 0, 1]
            )

    def test_every_shard_appears_once(self):
        ranked = rendezvous_rank("fp", [3, 1, 4, 1, 5][:3] + [9])
        assert sorted(ranked) == sorted({3, 1, 4, 9})

    def test_adding_a_shard_moves_only_its_winners(self):
        """Keys either keep their owner or move to the *new* shard."""
        moved = 0
        for fingerprint in self.FINGERPRINTS:
            before = rendezvous_rank(fingerprint, [0, 1, 2, 3])[0]
            after = rendezvous_rank(fingerprint, [0, 1, 2, 3, 4])[0]
            if before != after:
                assert after == 4, fingerprint
                moved += 1
        # ~1/5 of keys should move; all of them would under modulo hashing.
        assert 0 < moved < len(self.FINGERPRINTS) // 2

    def test_removing_a_shard_moves_only_its_keys(self):
        for fingerprint in self.FINGERPRINTS:
            before = rendezvous_rank(fingerprint, [0, 1, 2, 3])[0]
            after = rendezvous_rank(fingerprint, [0, 1, 2])[0]
            if before != 3:
                assert after == before, fingerprint

    def test_surviving_order_is_stable_under_removal(self):
        for fingerprint in self.FINGERPRINTS[:16]:
            full = rendezvous_rank(fingerprint, [0, 1, 2, 3])
            reduced = rendezvous_rank(fingerprint, [0, 1, 2])
            assert [shard for shard in full if shard != 3] == reduced


# ----------------------------------------------------------------------------------------
# Routing through the pool
# ----------------------------------------------------------------------------------------

class TestShardedRouting:
    def test_one_corpus_routes_to_one_shard(self, shard_corpora):
        with _pool(num_shards=3) as service:
            compressed = shard_corpora[0]
            for _ in range(3):
                service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            stats = service.stats()
            assert sum(1 for routed in stats.routed_queries if routed) == 1
            assert stats.placements == 3

    def test_routing_is_deterministic_across_pools(self, shard_corpora):
        with _pool(num_shards=3) as first, _pool(num_shards=3) as second:
            for compressed in shard_corpora:
                assert first.shard_for(compressed) == second.shard_for(compressed)

    def test_results_match_reference_through_the_pool(self, shard_corpora):
        compressed = shard_corpora[1]
        reference = open_backend("reference", compressed)
        with _pool(num_shards=2) as service:
            for task in Task.all():
                outcome = service.submit(Query(task=task), source=compressed)
                expected = reference.run(Query(task=task))
                assert results_equal(task, outcome.result, expected.result)

    def test_per_shard_session_lrus_are_isolated(self, shard_corpora):
        """Corpora on different shards never evict each other, even with
        a one-session budget per shard."""
        service = ShardedAnalyticsService(
            sharded_config=ShardedServiceConfig(num_shards=3, hot_query_share=1.0),
            service_config=ServiceConfig(max_sessions=1),
        )
        with service:
            by_shard = {}
            for compressed in shard_corpora:
                by_shard.setdefault(service.shard_for(compressed), compressed)
            picked = list(by_shard.values())
            assert len(picked) >= 2  # six corpora over three shards must collide
            for _ in range(2):
                for compressed in picked:
                    service.submit(Query(task=Task.SORT), source=compressed)
            stats = service.stats()
            for index, compressed in by_shard.items():
                assert stats.resident_sessions[index] == 1
            assert sum(shard.session_cache.evictions for shard in stats.shards) == 0

    def test_run_batch_preserves_order_across_shards(self, shard_corpora):
        compressed = shard_corpora[2]
        queries = [Query(task=Task.WORD_COUNT), Query(task=Task.SORT, top_k=3),
                   Query(task=Task.INVERTED_INDEX)]
        with _pool(num_shards=2) as service:
            outcomes = service.run_batch(queries, source=compressed)
            assert [outcome.task for outcome in outcomes] == [q.task for q in queries]
            for query, outcome in zip(queries, outcomes):
                assert outcome.result == service.submit(query, source=compressed).result

    def test_default_source_serves_without_explicit_corpus(self, shard_corpora):
        service = ShardedAnalyticsService(
            shard_corpora[0], sharded_config=ShardedServiceConfig(num_shards=2)
        )
        with service:
            assert service.run(Query(task=Task.WORD_COUNT)).result
        with pytest.raises(ValueError, match="no corpus"):
            with _pool() as empty:
                empty.submit(Query(task=Task.WORD_COUNT))

    def test_unknown_file_error_propagates_to_caller(self, shard_corpora):
        with _pool() as service:
            with pytest.raises(ValueError, match="unknown file"):
                service.submit(
                    Query(task=Task.WORD_COUNT, files=("missing.txt",)),
                    source=shard_corpora[0],
                )

    def test_closed_pool_rejects_queries(self, shard_corpora):
        service = _pool()
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(Query(task=Task.WORD_COUNT), source=shard_corpora[0])

    def test_placement_network_accounting(self, shard_corpora):
        with _pool() as service:
            service.submit(Query(task=Task.WORD_COUNT), source=shard_corpora[0])
            stats = service.stats()
            # One message routes the query, one returns its (non-empty) result.
            assert stats.network_messages == 2.0
            assert stats.network_bytes > 0
            assert stats.network_seconds > 0
            spec = service.config.cluster
            assert stats.network_seconds >= 2.0 * spec.network_latency_s


# ----------------------------------------------------------------------------------------
# Hot-corpus replication
# ----------------------------------------------------------------------------------------

class TestReplication:
    def test_hot_corpus_promotes_and_round_robins(self, shard_corpora):
        hot = shard_corpora[0]
        with _pool(num_shards=2) as service:
            for _ in range(12):
                service.submit(Query(task=Task.SORT, top_k=3), source=hot)
            stats = service.stats()
            assert stats.replica_promotions == 1
            assert stats.replicated_corpora == 1
            assert service.is_replicated(hot)
            assert len(service.owners_for(hot)) == 2
            # Round-robin: both replicas took queries after the promotion.
            assert all(routed > 0 for routed in stats.routed_queries)

    def test_replicas_serve_bit_identical_results(self, shard_corpora):
        hot = shard_corpora[0]
        reference = open_backend("reference", hot)
        expected = reference.run(Query(task=Task.WORD_COUNT))
        with _pool(num_shards=2) as service:
            outcomes = [
                service.submit(Query(task=Task.WORD_COUNT), source=hot)
                for _ in range(10)
            ]
            for outcome in outcomes:
                assert results_equal(Task.WORD_COUNT, outcome.result, expected.result)

    def test_cooling_corpus_demotes(self, shard_corpora):
        hot, others = shard_corpora[0], shard_corpora[1:5]
        with _pool(num_shards=2) as service:
            for _ in range(8):
                service.submit(Query(task=Task.SORT), source=hot)
            assert service.is_replicated(hot)
            # Dilute its share with traffic for other corpora.
            for _ in range(4):
                for compressed in others:
                    service.submit(Query(task=Task.SORT), source=compressed)
            service.submit(Query(task=Task.SORT), source=hot)
            stats = service.stats()
            assert not service.is_replicated(hot)
            assert stats.replica_demotions == 1
            assert len(service.owners_for(hot)) == 1

    def test_heat_decay_lets_a_late_hot_corpus_promote(self, shard_corpora):
        """With exponential decay, share measures *recent* traffic: a
        corpus turning hot after a long cold history still replicates.
        On all-time counts it would need more queries than the pool's
        whole prior history (48+ here) before crossing the threshold."""
        corpora = shard_corpora[:4]
        hot = corpora[0]
        with _pool(num_shards=2, heat_decay_window=16) as service:
            for _ in range(8):  # 32 queries of flat prior history
                for compressed in corpora:
                    service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            assert not service.is_replicated(hot)
            for _ in range(12):
                service.submit(Query(task=Task.WORD_COUNT), source=hot)
            assert service.is_replicated(hot)

    def test_demotion_has_hysteresis(self, shard_corpora):
        """A share hovering just under the promotion threshold does not
        demote (no flapping); demotion needs a clearly decayed share."""
        hot, cold = shard_corpora[0], shard_corpora[1]
        with _pool(num_shards=2) as service:  # promote at 0.6, demote below 0.48
            for _ in range(8):
                service.submit(Query(task=Task.SORT), source=hot)
            assert service.is_replicated(hot)
            for _ in range(8):  # hot share falls to 0.5 — between the bounds
                service.submit(Query(task=Task.SORT), source=cold)
            assert service.is_replicated(hot)
            for _ in range(4):  # 0.4 — below the demotion bound
                service.submit(Query(task=Task.SORT), source=cold)
            assert not service.is_replicated(hot)
            assert service.stats().replica_demotions == 1

    def test_heat_decay_window_validated(self):
        with pytest.raises(ValueError, match="heat_decay_window"):
            ShardedServiceConfig(heat_decay_window=0)

    def test_idle_hot_corpus_is_demoted_by_other_traffic(self, shard_corpora):
        """A promoted corpus whose traffic stops must not stay replicated:
        any other corpus's queries sweep its decayed share."""
        hot, cold = shard_corpora[0], shard_corpora[1]
        with _pool(num_shards=2) as service:
            for _ in range(8):
                service.submit(Query(task=Task.SORT), source=hot)
            assert service.is_replicated(hot)
            for _ in range(10):  # only the *other* corpus is queried now
                service.submit(Query(task=Task.SORT), source=cold)
            assert not service.is_replicated(hot)
            assert service.stats().replica_demotions == 1

    def test_router_state_is_bounded(self):
        corpora = [compress_corpus(_corpus(f"bound{index}", files=1)) for index in range(6)]
        with _pool(num_shards=2, max_tracked_corpora=3) as service:
            for compressed in corpora:
                service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            assert len(service._fingerprint_queries) <= 3
            assert len(service._rank_cache) <= 3
        with pytest.raises(ValueError, match="max_tracked_corpora"):
            ShardedServiceConfig(max_tracked_corpora=0)

    def test_single_shard_pool_never_replicates(self, shard_corpora):
        with _pool(num_shards=1) as service:
            for _ in range(12):
                service.submit(Query(task=Task.SORT), source=shard_corpora[0])
            stats = service.stats()
            assert stats.replica_promotions == 0
            assert stats.replicated_corpora == 0

    def test_replication_threshold_validated(self):
        with pytest.raises(ValueError):
            ShardedServiceConfig(hot_query_share=0.0)
        with pytest.raises(ValueError):
            ShardedServiceConfig(hot_query_share=1.5)
        with pytest.raises(ValueError):
            ShardedServiceConfig(num_shards=0)
        with pytest.raises(ValueError):
            ShardedServiceConfig(replication_factor=0)
        with pytest.raises(ValueError):
            ShardedServiceConfig(min_queries_for_replication=0)
        with pytest.raises(ValueError):
            ShardedServiceConfig(shard_workers=0)


# ----------------------------------------------------------------------------------------
# Resizing the pool
# ----------------------------------------------------------------------------------------

class TestResize:
    def test_growth_moves_only_keys_whose_owner_changed(self, shard_corpora):
        with _pool(num_shards=2, hot_query_share=1.0) as service:
            for compressed in shard_corpora:
                service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            before = {
                compressed.fingerprint(): service.shard_for(compressed)
                for compressed in shard_corpora
            }
            shard_objects = list(service._shards)
            moved = service.resize(3)
            after = {
                compressed.fingerprint(): service.shard_for(compressed)
                for compressed in shard_corpora
            }
            changed = [fp for fp in before if before[fp] != after[fp]]
            # The moved-session counter matches the owner changes exactly,
            # and unmoved corpora stay resident on their original shard.
            assert moved == len(changed)
            stats = service.stats()
            assert stats.moved_sessions == moved
            # Rebalancing moves are not data-invalidation events.
            assert all(shard.session_cache.invalidations == 0 for shard in stats.shards)
            for index, shard in enumerate(shard_objects):
                for key in shard.transport.session_keys():
                    assert after[key[0]] == index

    def test_growth_with_no_sessions_moves_nothing(self):
        with _pool(num_shards=2) as service:
            assert service.resize(4) == 0
            assert service.num_shards == 4

    def test_shrink_drains_removed_shards(self, shard_corpora):
        with _pool(num_shards=3, hot_query_share=1.0) as service:
            for compressed in shard_corpora:
                service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            resident_before = service.resident_sessions
            moved = service.resize(1)
            assert service.num_shards == 1
            # Everything that was not already on the surviving shard moved.
            assert moved == resident_before - service.resident_sessions
            # The pool still serves every corpus afterwards.
            for compressed in shard_corpora:
                assert service.submit(Query(task=Task.SORT), source=compressed).result

    def test_resize_under_concurrent_traffic_never_strands_a_query(self, shard_corpora):
        """Routing and enqueueing are atomic against resize: a query can
        never hit a shard executor that a concurrent shrink shut down."""
        corpora = shard_corpora[:4]
        with _pool(num_shards=3) as service:
            errors: list = []
            done = threading.Event()

            def traffic():
                index = 0
                while not done.is_set():
                    try:
                        service.submit(
                            Query(task=Task.WORD_COUNT),
                            source=corpora[index % len(corpora)],
                        )
                    except BaseException as error:
                        errors.append(error)
                        return
                    index += 1

            workers = [threading.Thread(target=traffic) for _ in range(4)]
            for worker in workers:
                worker.start()
            for size in (1, 3, 2, 4):
                service.resize(size)
                time.sleep(0.005)
            done.set()
            for worker in workers:
                worker.join()
            assert not errors

    def test_resize_to_same_size_is_a_no_op(self, shard_corpora):
        with _pool(num_shards=2) as service:
            service.submit(Query(task=Task.WORD_COUNT), source=shard_corpora[0])
            assert service.resize(2) == 0

    def test_resize_rejects_non_positive(self):
        with _pool() as service:
            with pytest.raises(ValueError):
                service.resize(0)


# ----------------------------------------------------------------------------------------
# Invalidation across the pool
# ----------------------------------------------------------------------------------------

class TestShardedInvalidation:
    def test_invalidate_drops_entries_on_every_replica(self, shard_corpora):
        hot = shard_corpora[0]
        with _pool(num_shards=2) as service:
            for _ in range(12):
                service.submit(Query(task=Task.SORT), source=hot)
            assert service.is_replicated(hot)
            assert service.resident_sessions >= 2  # a session on each replica
            dropped = service.invalidate(hot)
            assert dropped >= 2
            stats = service.stats()
            assert all(resident == 0 for resident in stats.resident_sessions)


# ----------------------------------------------------------------------------------------
# The async shard client
# ----------------------------------------------------------------------------------------

class TestAsyncShardRouter:
    def test_router_mode_serves_and_counts_placements(self, shard_corpora):
        import asyncio

        compressed = shard_corpora[0]
        reference = open_backend("reference", compressed)
        expected = reference.run(Query(task=Task.WORD_COUNT))
        with _pool(num_shards=2) as router:
            client = AsyncAnalyticsService(router=router)

            async def burst():
                return await asyncio.gather(
                    *(
                        client.submit(Query(task=Task.WORD_COUNT), source=compressed)
                        for _ in range(6)
                    )
                )

            try:
                outcomes = asyncio.run(burst())
            finally:
                client.close()
            for outcome in outcomes:
                assert results_equal(Task.WORD_COUNT, outcome.result, expected.result)
            # stats()/resident_sessions delegate to the router.
            assert client.stats().placements == router.stats().placements == 6
            assert client.resident_sessions == router.resident_sessions

    def test_router_mode_run_batch_keeps_order(self, shard_corpora):
        import asyncio

        compressed = shard_corpora[1]
        queries = [Query(task=Task.WORD_COUNT), Query(task=Task.SORT, top_k=4)]
        with _pool(num_shards=2) as router:
            client = AsyncAnalyticsService(router=router)
            try:
                outcomes = asyncio.run(client.run_batch(queries, source=compressed))
            finally:
                client.close()
            assert [outcome.task for outcome in outcomes] == [q.task for q in queries]


# ----------------------------------------------------------------------------------------
# Sharded replay
# ----------------------------------------------------------------------------------------

class TestShardedReplay:
    def _trace(self, corpora, per_corpus=6):
        trace = []
        for index, compressed in enumerate(corpora):
            for query in synthesize_trace(
                compressed.file_names,
                TraceConfig(num_requests=per_corpus, seed=11 + index),
            ):
                trace.append((index, query))
        return trace

    def test_multi_corpus_replay_matches_serial(self, shard_corpora):
        corpora = shard_corpora[:3]
        with ShardedAnalyticsService() as pool:
            report = replay_trace(pool, corpora, self._trace(corpora), clients=4)
        assert len(report.stats.shards) == 2
        assert report.results_match
        assert report.stats.kernel_launches < report.serial_launches
        assert report.stats.placements == report.num_requests

    def test_no_shard_exceeds_its_session_budget(self, shard_corpora):
        corpora = shard_corpora[:4]
        with ShardedAnalyticsService(service_config=ServiceConfig(max_sessions=2)) as pool:
            report = replay_trace(pool, corpora, self._trace(corpora), clients=4)
        for shard in report.stats.shards:
            assert shard.session_cache.size <= 2

    def test_async_router_replay_matches_serial(self, shard_corpora):
        corpora = shard_corpora[:2]
        with (
            ShardedAnalyticsService() as pool,
            AsyncAnalyticsService(router=pool) as client,
        ):
            report = replay_trace(
                client, corpora, self._trace(corpora, per_corpus=5), clients=10
            )
        assert report.stats.placements == report.num_requests
        assert report.results_match

    def test_single_corpus_trace_still_works(self, shard_corpora):
        compressed = shard_corpora[0]
        trace = synthesize_trace(
            compressed.file_names, TraceConfig(num_requests=10, seed=3)
        )
        with ShardedAnalyticsService() as pool:
            report = replay_trace(pool, compressed, trace, clients=2)
        assert report.results_match

    def test_trace_with_out_of_range_source_rejected(self, shard_corpora):
        with ShardedAnalyticsService() as pool:
            with pytest.raises(ValueError, match="source"):
                replay_trace(pool, shard_corpora[:2], [(5, Query(task=Task.WORD_COUNT))])

    def test_pool_launches_no_more_than_one_device(self, dataset_compressed):
        """Five corpora against a 2-session device budget: one service
        thrashes its session LRU, while 3 shards with the same budget
        each keep their corpora resident.  One client on both sides
        makes the launch counts deterministic."""
        corpora = list(dataset_compressed.values())
        sub_traces = [
            synthesize_trace(
                compressed.file_names, TraceConfig(num_requests=12, seed=17 + index)
            )
            for index, compressed in enumerate(corpora)
        ]
        # Round-robin over the corpora: the mix a multi-tenant pool sees.
        trace = [
            (index, sub_trace[position])
            for position in range(12)
            for index, sub_trace in enumerate(sub_traces)
        ]
        device = ServiceConfig(max_sessions=2)
        single = replay_trace(
            AnalyticsService(service_config=device),
            corpora,
            trace,
            clients=1,
            serial_baseline=False,
        )
        with ShardedAnalyticsService(
            service_config=device, sharded_config=ShardedServiceConfig(num_shards=3)
        ) as pool:
            sharded = replay_trace(pool, corpora, trace, clients=1, serial_baseline=False)
        assert sharded.stats.kernel_launches <= single.stats.kernel_launches
        assert all(resident <= 2 for resident in sharded.stats.resident_sessions)


# ----------------------------------------------------------------------------------------
# Regression: synthesize_trace repeat bias + subset cap
# ----------------------------------------------------------------------------------------

class TestTraceRepeatBias:
    NAMES = tuple(f"f{index}.txt" for index in range(4))

    @pytest.mark.parametrize("seed", (17, 3, 99))
    def test_repeats_spread_over_distinct_queries(self, seed):
        """Repeats sample the distinct fresh queries uniformly; sampling
        the trace itself compounded weight onto the earliest queries
        (max shares of 0.24-0.43 on these seeds before the fix)."""
        trace = synthesize_trace(
            self.NAMES, TraceConfig(num_requests=400, seed=seed, repeat_fraction=0.8)
        )
        counts = Counter(trace)
        assert max(counts.values()) / len(trace) <= 0.15

    def test_repeats_only_replay_fresh_queries(self):
        trace = synthesize_trace(
            self.NAMES, TraceConfig(num_requests=200, seed=5, repeat_fraction=0.9)
        )
        assert len(set(trace)) < len(trace)  # repeats did happen

    def test_default_keeps_the_historical_cap(self):
        config = TraceConfig(
            num_requests=80, seed=7, repeat_fraction=0.0, file_subset_fraction=1.0
        )
        trace = synthesize_trace(self.NAMES, config)
        assert max(len(query.files) for query in trace if query.files) <= 2


# ----------------------------------------------------------------------------------------
# Regression: replay_trace stops on the first error, on either driver
# ----------------------------------------------------------------------------------------

@pytest.mark.parametrize(
    "front_end", [AnalyticsService, AsyncAnalyticsService], ids=["sync", "async"]
)
class TestReplayStopsOnError:
    """A blocking ``submit`` is driven by claiming worker threads, a
    coroutine ``submit`` by one event loop; neither keeps submitting
    after a failure."""

    @pytest.fixture
    def service(self, front_end, tiny_compressed):
        service = front_end(tiny_compressed)
        yield service
        if isinstance(service, AsyncAnalyticsService):
            service.close()

    @pytest.fixture
    def submits(self, front_end, monkeypatch):
        """Records every submitted query; each submit first sleeps 2 ms
        to give the stop signal time to matter."""
        calls = []
        original = front_end.submit
        if inspect.iscoroutinefunction(original):

            async def counting_submit(self, query, **kwargs):
                calls.append(query)
                await asyncio.sleep(0.002)
                return await original(self, query, **kwargs)

        else:

            def counting_submit(self, query, **kwargs):
                calls.append(query)
                time.sleep(0.002)
                return original(self, query, **kwargs)

        monkeypatch.setattr(front_end, "submit", counting_submit)
        return calls

    def test_workers_stop_claiming_after_first_error(self, service, submits, tiny_compressed):
        good = Query(task=Task.WORD_COUNT)
        bad = Query(task=Task.WORD_COUNT, files=("missing.txt",))
        trace = [good, bad] + [Query(task=Task.SORT, top_k=k) for k in range(1, 61)]
        with pytest.raises(ValueError, match="unknown file"):
            replay_trace(service, tiny_compressed, trace, clients=4, serial_baseline=False)
        # Before the fix the surviving threaded workers drained the whole trace.
        assert len(submits) < len(trace) // 2

    def test_original_exception_type_is_unmasked(self, service, tiny_compressed):
        trace = [Query(task=Task.WORD_COUNT, files=("missing.txt",))]
        with pytest.raises(ValueError, match="unknown file"):
            replay_trace(service, tiny_compressed, trace, clients=2, serial_baseline=False)

    def test_concurrency_bound_is_validated(self, service, submits, tiny_compressed):
        with pytest.raises(ValueError, match="clients"):
            replay_trace(service, tiny_compressed, [Query(task=Task.WORD_COUNT)], clients=0)
        assert submits == []


# ----------------------------------------------------------------------------------------
# Regression: cluster shuffle accounting
# ----------------------------------------------------------------------------------------

class TestSimulatorShuffleAccounting:
    def test_empty_partitions_send_no_messages(self):
        simulator = ClusterSimulator(ClusterSpec(num_nodes=2))
        counters = [CostCounter(compute_ops=10), CostCounter(compute_ops=20)]
        executions = simulator.execute(counters, [0, 5])
        assert executions[0].counter.network_messages == 0
        assert executions[0].counter.network_bytes == 0
        assert executions[1].counter.network_messages == 1

    def test_init_style_phase_charges_zero_shuffle(self):
        """The distributed baseline's initialization phase (all-zero
        entries) used to charge one phantom message per partition."""
        simulator = ClusterSimulator(ClusterSpec(num_nodes=3))
        counters = [CostCounter(compute_ops=1) for _ in range(6)]
        executions = simulator.execute(counters, [0] * 6)
        shuffle = simulator.shuffle_counter(executions)
        assert shuffle.network_messages == 0
        assert shuffle.network_bytes == 0

    def test_empty_nodes_listed_by_default_and_flagged_off(self):
        simulator = ClusterSimulator(ClusterSpec(num_nodes=4))
        counters = [CostCounter(compute_ops=1), CostCounter(compute_ops=1)]
        full = simulator.execute(counters, [1, 1])
        assert len(full) == 4  # idle nodes reported for utilisation views
        assert [execution.partition_indices for execution in full[2:]] == [[], []]
        active = simulator.execute(counters, [1, 1], include_empty_nodes=False)
        assert len(active) == 2
        assert all(execution.partition_indices for execution in active)

    def test_non_empty_accounting_unchanged(self):
        simulator = ClusterSimulator(ClusterSpec(num_nodes=2))
        counters = [CostCounter(compute_ops=10), CostCounter(compute_ops=20),
                    CostCounter(compute_ops=30)]
        executions = simulator.execute(counters, [5, 5, 5])
        assert executions[0].counter.network_messages == 2
        assert executions[1].counter.network_messages == 1


# ----------------------------------------------------------------------------------------
# Concurrency: the pool under concurrent mixed traffic
# ----------------------------------------------------------------------------------------

class TestShardedConcurrency:
    def test_concurrent_mixed_traffic_bit_identical_to_serial(self, shard_corpora):
        corpora = shard_corpora[:3]
        rng = random.Random(23)
        plan = [
            (rng.randrange(len(corpora)), query)
            for index in range(3)
            for query in synthesize_trace(
                corpora[index].file_names, TraceConfig(num_requests=8, seed=index)
            )
        ]
        with _pool(num_shards=2) as service:
            outcomes: list = [None] * len(plan)
            errors: list = []

            def worker(positions):
                for position in positions:
                    index, query = plan[position]
                    try:
                        outcomes[position] = service.submit(query, source=corpora[index])
                    except BaseException as error:  # pragma: no cover
                        errors.append(error)
                        return

            threads = [
                threading.Thread(target=worker, args=(range(start, len(plan), 4),))
                for start in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
        for (index, query), outcome in zip(plan, outcomes):
            reference = open_backend("reference", corpora[index]).run(as_query(query))
            assert results_equal(query.task, outcome.result, reference.result)
