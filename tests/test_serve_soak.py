"""Soak: a long, mutating, multi-corpus trace leaves every serving structure bounded.

A long-lived service fronts a stream of corpora that mutate under
traffic.  Every structure that grows with that traffic has a bound, and
the soak drives each one past it — more corpora than the uid table,
the router and the corpus memo track, more sessions and results than
their LRUs hold, more appends to one corpus than its mutation log keeps
— then checks that each stayed within its bound, that no coalescing
group outlived its queries, and that the answers stayed right.

Both serving shapes run the same trace: a threaded
:class:`~repro.serve.AnalyticsService` and an in-process
:class:`~repro.serve.ShardedAnalyticsService`, driven directly (the
replay helpers build and discard their own services, so their state
cannot be inspected afterwards).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.analytics.base import Task, results_equal
from repro.api import Query
from repro.compression.compressor import compress_corpus
from repro.core.engine import GTadoc
from repro.data.corpus import Corpus
from repro.gpusim.device import DEFAULT_HISTORY_LIMIT, GPUDevice
from repro.serve import (
    AnalyticsService,
    ServiceConfig,
    ShardedAnalyticsService,
    ShardedServiceConfig,
)
from repro.serve.service import ServingCore

#: Rounds of the trace; each round mutates the hot corpus twice.
ROUNDS = 36
#: Entries a corpus's mutation log retains (``CompressedCorpus``).
MUTATION_LOG_LIMIT = 64
#: Tracked corpus uids per serving core (patched down from 256).
TRACKED_UIDS = 4
#: Live corpora (mutated through the incremental API) and raw ones
#: (handed over as ``Corpus`` objects, so the corpus memo compresses them).
NUM_LIVE = 5
NUM_RAW = 3

CONFIG = ServiceConfig(max_sessions=2, result_cache_capacity=16, corpus_memo_capacity=2)
SHARDED = ShardedServiceConfig(num_shards=2, max_tracked_corpora=4, transport="inprocess")

QUERIES = (
    Query(task=Task.WORD_COUNT),
    Query(task=Task.SORT, top_k=5),
    Query(task=Task.INVERTED_INDEX),
    Query(task=Task.TERM_VECTOR, top_k=3),
    Query(task=Task.SEQUENCE_COUNT, sequence_length=3),
    Query(task=Task.RANKED_INVERTED_INDEX, top_k=4),
)


def _texts(tag: str) -> dict:
    phrase = f"{tag} grammar rules fold {tag} phrases"
    return {
        f"{tag}-a.txt": f"{phrase} {phrase} into one rule {tag}",
        f"{tag}-b.txt": f"compressed {tag} analytics {phrase} once more",
    }


def _mutate(corpus, step: int) -> None:
    """An append of fresh vocabulary, with an occasional rewrite of a file."""
    body = " ".join(f"live{step}w{j % 3}" for j in range(8))
    if step % 9 == 8:
        corpus.replace_file(corpus.file_names[0], body)
    else:
        corpus.append_files({f"live-{step}.txt": body})


def _round_work(round_index: int, live, raw):
    """Two queries per corpus, rotating through the query mix."""
    work = []
    for position, source in enumerate(list(live) + list(raw)):
        for offset in (0, 1):
            work.append((source, QUERIES[(round_index + position + offset) % len(QUERIES)]))
    return work


def test_long_mutating_multi_corpus_trace_stays_bounded(monkeypatch):
    monkeypatch.setattr(ServingCore, "_MAX_TRACKED_UIDS", TRACKED_UIDS)
    devices = []
    build_device = GPUDevice.__init__

    def tracked_device(device, *args, **kwargs):
        build_device(device, *args, **kwargs)
        devices.append(device)

    monkeypatch.setattr(GPUDevice, "__init__", tracked_device)

    live = [compress_corpus(Corpus.from_texts(_texts(f"live{index}"))) for index in range(NUM_LIVE)]
    raw = [Corpus.from_texts(_texts(f"raw{index}")) for index in range(NUM_RAW)]
    threaded = AnalyticsService(service_config=CONFIG)
    sharded = ShardedAnalyticsService(service_config=CONFIG, sharded_config=SHARDED)
    with sharded, ThreadPoolExecutor(max_workers=4) as callers:
        for round_index in range(ROUNDS):
            # Mutations are barriers between rounds: the hot corpus changes
            # twice a round, the others in turn.
            _mutate(live[0], 2 * round_index)
            _mutate(live[0], 2 * round_index + 1)
            if round_index % 2 == 1:
                _mutate(live[1 + (round_index // 2) % (NUM_LIVE - 1)], round_index)
            work = _round_work(round_index, live, raw)
            for service in (threaded, sharded):
                outcomes = list(
                    callers.map(
                        lambda item: service.submit(item[1], source=item[0]), work, timeout=60
                    )
                )
                if service is threaded:
                    expected = outcomes
                    continue
                # Both serving shapes answer the same trace the same way.
                for (_source, query), got, want in zip(work, outcomes, expected):
                    assert results_equal(query.task, got.result, want.result)

        # Past every bound, not just near it.
        assert live[0].version > MUTATION_LOG_LIMIT
        threaded_stats = threaded.stats()
        assert threaded_stats.session_cache.evictions > 0
        assert threaded_stats.result_cache.evictions > 0

        cores = [threaded] + [shard.service for shard in sharded._shards]
        for core in cores:
            assert len(core._sessions) <= CONFIG.max_sessions
            assert len(core._results) <= CONFIG.result_cache_capacity
            assert len(core._corpus_memo) <= CONFIG.corpus_memo_capacity
            assert len(core._uid_versions) <= TRACKED_UIDS
            # Epochs are kept only for fingerprints with resident entries.
            assert len(core._epochs) <= CONFIG.max_sessions + CONFIG.result_cache_capacity
            assert core._coalescer._groups == {}
        assert len(sharded._corpus_memo) <= CONFIG.corpus_memo_capacity
        assert len(sharded._routing_alias) <= SHARDED.max_tracked_corpora
        assert len(sharded._fingerprint_queries) <= SHARDED.max_tracked_corpora
        assert len(sharded._rank_cache) <= SHARDED.max_tracked_corpora
        assert devices
        for device in devices:
            assert device.launch_history.maxlen == DEFAULT_HISTORY_LIMIT
            assert len(device.launch_history) <= DEFAULT_HISTORY_LIMIT
        for corpus in live:
            assert len(corpus._mutation_log) <= MUTATION_LOG_LIMIT

        # After all of it, the live corpora still answer like a fresh engine.
        for corpus in live:
            for service in (threaded, sharded):
                outcome = service.submit(Query(task=Task.WORD_COUNT), source=corpus)
                fresh = GTadoc(corpus).run(Task.WORD_COUNT).result
                assert results_equal(Task.WORD_COUNT, outcome.result, fresh)
