"""Mutable-corpora fuzz: incremental maintenance is bit-identical to scratch.

The contract under test is the tentpole invariant of the live-corpora
work: after ANY sequence of mutations (appends, replaces, removals)
applied through :class:`~repro.compression.compressor.CompressedCorpus`'s
incremental API, the corpus — grammar, dictionary, fingerprint — and
every engine's answers are bit-identical to compressing the mutated
token streams from scratch.  The suite fuzzes randomized mutation
sequences at the compression layer, drives the nine-backend equivalence
matrix across mutation epochs, exercises the session delta path
directly, replays mutating traces through all three serving tiers, and
mutates under in-flight sharded traffic to pin down the lazy (no
synchronous fan-out) invalidation contract.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.analytics.base import Task, results_equal
from repro.api import Query, open_backend
from repro.compression.compressor import CompressedCorpus, TadocCompressor
from repro.core.engine import GTadoc
from repro.data.corpus import Corpus
from repro.relational.spec import FieldSpec, RelationalQuery, RowSchema
from repro.serve.aio import AsyncAnalyticsService
from repro.serve.replay import replay_trace
from repro.serve.service import AnalyticsService
from repro.serve.sharding import ShardedAnalyticsService, ShardedServiceConfig
from repro.serve.trace import MutationEvent, TraceConfig, synthesize_trace

#: The full equivalence matrix: every engine plus all three serving tiers.
LIVE_BACKENDS = ("gtadoc", "serve", "serve_async", "serve_sharded")
SNAPSHOT_BACKENDS = ("cpu", "parallel", "distributed", "gpu_uncompressed", "reference")

_BACKEND_OPTIONS = {
    "parallel": {"num_threads": 2},
}

_VOCAB = [f"w{i}" for i in range(20)]


def _random_tokens(rng: random.Random, vocab, low=40, high=90):
    return [rng.choice(vocab) for _ in range(rng.randint(low, high))]


def _seed_streams(rng: random.Random, files: int = 3):
    return {f"doc{i}": _random_tokens(rng, _VOCAB) for i in range(files)}


def _scratch(streams) -> CompressedCorpus:
    """Compress the token streams from scratch — the ground truth."""
    return TadocCompressor().compress(
        Corpus.from_token_streams({name: list(tokens) for name, tokens in streams.items()})
    )


def _random_mutation(rng: random.Random, live: CompressedCorpus, streams, step: int) -> str:
    """One random mutation, applied to the live corpus AND the shadow streams.

    Fresh-vocabulary appends model live ingest (the structurally stable
    case the session delta path accelerates); shared-vocabulary appends
    and replaces restructure existing rules and force the rebuild
    fallback — both must stay bit-identical.
    """
    roll = rng.random()
    if roll < 0.3:
        name = f"fresh{step}"
        tokens = _random_tokens(rng, [f"s{step}x{j}" for j in range(5)], 10, 30)
        live.append_files({name: tokens})
        streams[name] = tokens
        return "append-fresh"
    if roll < 0.6:
        name = f"shared{step}"
        tokens = _random_tokens(rng, _VOCAB, 10, 30)
        live.append_files({name: tokens})
        streams[name] = tokens
        return "append-shared"
    if roll < 0.85 or len(streams) <= 2:
        name = rng.choice(sorted(streams))
        tokens = _random_tokens(rng, _VOCAB, 10, 30)
        live.replace_file(name, tokens)
        streams[name] = tokens
        return "replace"
    name = rng.choice(sorted(streams))
    live.remove_file(name)
    del streams[name]
    return "remove"


# ----------------------------------------------------------------------------------------
# Compression layer: grammar/fingerprint identity under randomized sequences
# ----------------------------------------------------------------------------------------

class TestCompressionFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_mutation_sequence_matches_scratch(self, seed):
        rng = random.Random(seed)
        streams = _seed_streams(rng)
        live = _scratch(streams)
        kinds = []
        for step in range(5):
            kinds.append(_random_mutation(rng, live, streams, step))
            scratch = _scratch(streams)
            assert live.fingerprint() == scratch.fingerprint(), kinds
            assert [rule.symbols for rule in live.grammar] == [
                rule.symbols for rule in scratch.grammar
            ], kinds
            assert live.dictionary.to_dict() == scratch.dictionary.to_dict(), kinds
            assert live.version == step + 1
        # Lossless after the whole sequence: expansion returns the streams.
        expanded = {
            name: live.expand_file_tokens(index)
            for index, name in enumerate(live.file_names)
        }
        assert expanded == streams

    def test_uid_stable_fingerprint_advances(self):
        rng = random.Random(99)
        streams = _seed_streams(rng)
        live = _scratch(streams)
        uid = live.uid
        first = live.fingerprint()
        live.append_files({"extra": _random_tokens(rng, _VOCAB, 10, 20)})
        assert live.uid == uid
        assert live.fingerprint() != first
        assert live.mutations_since(0) == ["append"]


# ----------------------------------------------------------------------------------------
# Session layer: the delta path engages on fresh-vocabulary appends
# ----------------------------------------------------------------------------------------

_OLD_WORD_SPEC = RelationalQuery(
    schema=RowSchema(fields=(FieldSpec("a", key="w1"), FieldSpec("b", key="w2"))),
    group_by="a",
)


def _engine_result(engine: GTadoc, task: Task, relational=None):
    return engine.run(task, relational=relational).result


class TestSessionDelta:
    def test_fresh_append_takes_delta_path_and_matches_scratch(self):
        rng = random.Random(5)
        streams = _seed_streams(rng)
        live = _scratch(streams)
        engine = GTadoc(live)
        # Warm every task family's cached state on the persistent session
        # (run_batch shares it; run() clones a state-free session).
        engine.run_batch()
        engine.run_batch([Task.RELATIONAL], relational=_OLD_WORD_SPEC)

        tokens = _random_tokens(rng, ["liveA", "liveB", "liveC"], 15, 30)
        live.append_files({"ingest": tokens})
        streams["ingest"] = tokens
        assert engine.session.sync_with_corpus() == "delta"

        reference = open_backend("reference", _scratch(streams))
        for task in Task.all():
            expected = reference.run(Query(task=task)).result
            assert results_equal(task, _engine_result(engine, task), expected), task
        expected = reference.run(
            Query(task=Task.RELATIONAL, extras={"relational": _OLD_WORD_SPEC})
        ).result
        assert results_equal(
            Task.RELATIONAL,
            _engine_result(engine, Task.RELATIONAL, relational=_OLD_WORD_SPEC),
            expected,
        )

    def test_replace_falls_back_to_rebuild_and_matches_scratch(self):
        rng = random.Random(6)
        streams = _seed_streams(rng)
        live = _scratch(streams)
        engine = GTadoc(live)
        engine.run_batch([Task.WORD_COUNT])

        tokens = _random_tokens(rng, _VOCAB, 10, 25)
        live.replace_file("doc0", tokens)
        streams["doc0"] = tokens
        assert engine.session.sync_with_corpus() == "rebuild"

        reference = open_backend("reference", _scratch(streams))
        assert results_equal(
            Task.WORD_COUNT,
            _engine_result(engine, Task.WORD_COUNT),
            reference.run(Query(task=Task.WORD_COUNT)).result,
        )

    def test_relational_anchor_on_new_vocabulary(self):
        """A schema keyed on post-append words still answers correctly.

        The delta path cannot extend relational tables whose anchors are
        new dictionary words (their ids did not exist in the old epoch),
        so those cached tables are dropped and rebuilt lazily — the
        answer must come out identical either way.
        """
        rng = random.Random(7)
        streams = _seed_streams(rng)
        live = _scratch(streams)
        engine = GTadoc(live)
        engine.run_batch([Task.WORD_COUNT])

        tokens = ["k1", "alpha", "k2", "beta"] * 6
        live.append_files({"rows": tokens})
        streams["rows"] = tokens
        spec = RelationalQuery(
            schema=RowSchema(fields=(FieldSpec("a", key="k1"), FieldSpec("b", key="k2"))),
            group_by="a",
        )
        reference = open_backend("reference", _scratch(streams))
        assert results_equal(
            Task.RELATIONAL,
            _engine_result(engine, Task.RELATIONAL, relational=spec),
            reference.run(Query(task=Task.RELATIONAL, extras={"relational": spec})).result,
        )

    @pytest.mark.parametrize("transport", ["inprocess", "process"])
    def test_shard_stats_count_delta_and_rebuild_syncs(self, transport):
        """A warm append counts one delta sync, a replace one rebuild.

        Each shard's serving core counts its own syncs; a process
        shard's counts cross the wire with its stats.
        """
        rng = random.Random(8)
        live = _scratch(_seed_streams(rng))
        query = Query(task=Task.WORD_COUNT, top_k=5)
        with ShardedAnalyticsService(
            sharded_config=ShardedServiceConfig(num_shards=2, transport=transport)
        ) as pool:

            def syncs():
                shards = pool.stats().shards
                return (
                    sum(shard.delta_syncs for shard in shards),
                    sum(shard.rebuild_syncs for shard in shards),
                )

            pool.submit(query, source=live)
            assert syncs() == (0, 0)
            live.append_files({"ingest": _random_tokens(rng, ["liveA", "liveB"], 15, 30)})
            pool.submit(query, source=live)
            assert syncs() == (1, 0)
            live.replace_file("doc0", _random_tokens(rng, _VOCAB, 10, 25))
            pool.submit(query, source=live)
            assert syncs() == (1, 1)


# ----------------------------------------------------------------------------------------
# Nine-backend matrix across mutation epochs
# ----------------------------------------------------------------------------------------

class TestBackendMatrixAcrossEpochs:
    def test_all_backends_bit_identical_after_each_mutation(self):
        rng = random.Random(21)
        streams = _seed_streams(rng)
        live = _scratch(streams)
        # The live tiers open once, BEFORE any mutation, and must track
        # the corpus across epochs; the snapshot engines decompress at
        # construction and are reopened per epoch.
        persistent = {
            name: open_backend(name, live, **_BACKEND_OPTIONS.get(name, {}))
            for name in LIVE_BACKENDS
        }
        tasks = list(Task.all())
        try:
            for step in range(3):
                kind = _random_mutation(rng, live, streams, step)
                reference = open_backend("reference", _scratch(streams))
                expected = {task: reference.run(Query(task=task)).result for task in tasks}
                for name, backend in persistent.items():
                    for task in tasks:
                        outcome = backend.run(Query(task=task))
                        assert results_equal(task, outcome.result, expected[task]), (
                            name, task, kind, step,
                        )
                for name in SNAPSHOT_BACKENDS:
                    backend = open_backend(name, live, **_BACKEND_OPTIONS.get(name, {}))
                    for task in tasks:
                        outcome = backend.run(Query(task=task))
                        assert results_equal(task, outcome.result, expected[task]), (
                            name, task, kind, step,
                        )
        finally:
            for backend in persistent.values():
                close = getattr(backend, "close", None)
                if callable(close):
                    close()


# ----------------------------------------------------------------------------------------
# Serving tiers: mutating traces through every kind of service
# ----------------------------------------------------------------------------------------

class TestMutatingReplays:
    @pytest.mark.parametrize(
        "open_service,clients",
        [
            (AnalyticsService, 4),
            (AsyncAnalyticsService, 16),
            (ShardedAnalyticsService, 4),
        ],
        ids=["threads", "asyncio", "sharded"],
    )
    def test_mutating_trace_matches_serial_scratch_baseline(self, open_service, clients):
        rng = random.Random(31)
        live = _scratch(_seed_streams(rng, files=4))
        trace = synthesize_trace(
            live.file_names,
            TraceConfig(
                num_requests=36, seed=13, mutation_fraction=0.15, relational_fraction=0.2
            ),
        )
        assert any(isinstance(item, MutationEvent) for item in trace)
        service = open_service()
        try:
            report = replay_trace(service, live, trace, clients=clients)
        finally:
            if hasattr(service, "close"):
                service.close()
        assert report.results_match is True
        assert report.num_mutations > 0
        assert report.num_requests + report.num_mutations == len(trace)
        assert live.version == report.num_mutations


# ----------------------------------------------------------------------------------------
# Sharded tier: mutation under in-flight traffic, no synchronous fan-out
# ----------------------------------------------------------------------------------------

class TestMutationUnderInflightShardedTraffic:
    def test_concurrent_mutation_is_lazy_and_coherent(self):
        rng = random.Random(41)
        streams = _seed_streams(rng, files=4)
        live = _scratch(streams)
        query = Query(task=Task.WORD_COUNT)
        old_expected = open_backend("reference", _scratch(streams)).run(query).result

        service = ShardedAnalyticsService(
            live, sharded_config=ShardedServiceConfig(num_shards=2)
        )
        try:
            # Warm the old epoch's session + result caches first, so the
            # mutation leaves genuinely stale entries to expire lazily.
            for _ in range(4):
                assert results_equal(
                    query.task, service.submit(query, source=live).result, old_expected
                )
            results = []
            results_lock = threading.Lock()
            errors = []
            started = threading.Barrier(5)

            def worker() -> None:
                try:
                    started.wait()
                    for _ in range(12):
                        outcome = service.submit(query, source=live)
                        with results_lock:
                            results.append(outcome.result)
                except BaseException as error:
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            started.wait()  # mutate while the workers are mid-trace
            tokens = _random_tokens(rng, ["hotA", "hotB", "hotC"], 15, 30)
            live.append_files({"hot": tokens})
            streams["hot"] = tokens
            for thread in threads:
                thread.join()
            assert not errors

            new_expected = open_backend("reference", _scratch(streams)).run(query).result
            # Every in-flight answer is coherent: it reflects exactly the
            # pre- or the post-mutation epoch, never a torn mixture.
            for result in results:
                assert results_equal(query.task, result, old_expected) or results_equal(
                    query.task, result, new_expected
                )
            # The next routed query observes the new epoch.
            assert results_equal(
                query.task, service.submit(query, source=live).result, new_expected
            )

            stats = service.stats()
            # The lazy-epoch contract: the mutation itself broadcast
            # nothing — stale entries were dropped on next touch and are
            # counted as epoch expirations, never as invalidations.
            invalidations = sum(
                shard.session_cache.invalidations + shard.result_cache.invalidations
                for shard in stats.shards
            )
            assert invalidations == 0
            assert stats.epoch_expirations >= 1
        finally:
            service.close()
