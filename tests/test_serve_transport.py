"""Transport-abstracted shard workers: cross-transport equivalence,
crash isolation, corpus shipping, wire accounting and the lock-witness
recv tripwire.

The contract under test: promoting shards from in-process thread pools
to spawned worker processes changes *where* serving cores run, never
*what* they answer — every task, at every mutation epoch, is
bit-identical across ``inprocess``, ``process`` and the serial
baseline; a killed worker costs a replacement and a retry, never a
wrong answer.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.analytics.base import Task, results_equal
from repro.api.query import Query
from repro.compression.compressor import compress_corpus
from repro.data.corpus import Corpus
from repro.serve import (
    AnalyticsService,
    InProcessTransport,
    ProcessTransport,
    ServiceConfig,
    ShardedAnalyticsService,
    ShardedServiceConfig,
    ShardFailure,
    TraceConfig,
    create_transport,
    replay_trace_sharded,
    synthesize_trace,
)
from repro.serve.trace import MutationEvent, default_relational_specs


def _corpus(tag: str = "base") -> Corpus:
    text = (
        f"alpha beta gamma {tag} delta epsilon alpha beta zeta {tag} eta " * 4
    )
    return Corpus.from_texts(
        {f"{tag}_{index}.txt": text + f"theta iota {index}" for index in range(3)},
        name=tag,
    )


def _pool(transport: str, num_shards: int = 2, **config) -> ShardedAnalyticsService:
    defaults = dict(
        num_shards=num_shards,
        replication_factor=2,
        hot_query_share=0.6,
        min_queries_for_replication=4,
        shard_workers=2,
        transport=transport,
    )
    defaults.update(config)
    return ShardedAnalyticsService(
        sharded_config=ShardedServiceConfig(**defaults),
        service_config=ServiceConfig(coalesce_window=0.0),
    )


def _matrix_queries():
    """One query per task — the full compressed-domain task surface."""
    relational = default_relational_specs(keys=("alpha", "beta"))[1]
    return [
        Query(task=Task.WORD_COUNT, top_k=8),
        Query(task=Task.SORT, top_k=6),
        Query(task=Task.INVERTED_INDEX),
        Query(task=Task.TERM_VECTOR, terms=("alpha", "zeta")),
        Query(task=Task.SEQUENCE_COUNT, sequence_length=3, top_k=5),
        Query(task=Task.RANKED_INVERTED_INDEX, top_k=4),
        Query(task=Task.RELATIONAL, extras={"relational": relational}),
    ]


# ----------------------------------------------------------------------------------------
# Transport selection
# ----------------------------------------------------------------------------------------

class TestTransportSelection:
    def test_default_is_inprocess(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_TRANSPORT", raising=False)
        with _pool(transport=None) as service:
            assert service.transport_kind == "inprocess"
            assert isinstance(service._shards[0].transport, InProcessTransport)

    def test_env_selects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TRANSPORT", "process")
        with _pool(transport=None) as service:
            assert service.transport_kind == "process"
            assert isinstance(service._shards[0].transport, ProcessTransport)

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TRANSPORT", "process")
        with _pool(transport="inprocess") as service:
            assert service.transport_kind == "inprocess"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TRANSPORT", "carrier-pigeon")
        with pytest.raises(ValueError, match="REPRO_SHARD_TRANSPORT"):
            _pool(transport=None)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ShardedServiceConfig(transport="carrier-pigeon")

    def test_unknown_transport_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown shard transport"):
            create_transport(
                "smoke-signals",
                shard_id=0,
                name="x",
                engine_config=None,
                service_config=None,
                workers=1,
            )


# ----------------------------------------------------------------------------------------
# Cross-transport equivalence: every task x every mutation epoch
# ----------------------------------------------------------------------------------------

class TestEquivalenceMatrix:
    def test_every_task_every_epoch_bit_identical(self):
        """The full matrix: 7 tasks x 3 epochs x {inprocess, process,
        serial} — one shared live corpus, mutated between epochs."""
        compressed = compress_corpus(_corpus())
        epochs = [
            None,  # epoch 0: as compressed
            MutationEvent(
                kind="append", documents=(("live.txt", "alpha kappa beta kappa " * 6),)
            ),
            MutationEvent(
                kind="replace", documents=(("base_0.txt", "beta mu alpha mu nu " * 5),)
            ),
        ]
        with _pool("inprocess") as threads, _pool("process") as processes:
            for mutation in epochs:
                if mutation is not None:
                    mutation.apply(compressed)
                serial = AnalyticsService(
                    compressed, service_config=ServiceConfig(coalesce_window=0.0)
                )
                for query in _matrix_queries():
                    expected = serial.submit(query).result
                    got_threads = threads.submit(query, source=compressed).result
                    got_processes = processes.submit(query, source=compressed).result
                    assert results_equal(query.task, got_threads, expected)
                    assert results_equal(query.task, got_processes, expected)
                    assert got_processes == got_threads

    def test_batches_equivalent_across_transports(self):
        compressed = compress_corpus(_corpus("batch"))
        queries = _matrix_queries()
        with _pool("inprocess") as threads, _pool("process") as processes:
            served_threads = threads.run_batch(queries, source=compressed)
            served_processes = processes.run_batch(queries, source=compressed)
        for query, a, b in zip(queries, served_threads, served_processes):
            assert results_equal(query.task, a.result, b.result)
            assert a.backend == b.backend == "serve_sharded"


class TestProcessReplay:
    def test_mutating_trace_matches_serial_baseline(self):
        compressed = compress_corpus(_corpus("replay"))
        trace = synthesize_trace(
            compressed.file_names,
            TraceConfig(
                num_requests=28,
                seed=11,
                mutation_fraction=0.15,
                relational_fraction=0.2,
            ),
        )
        report = replay_trace_sharded(
            compressed, trace, num_shards=2, num_threads=4, transport="process"
        )
        assert report.transport == "process"
        assert report.mode == "threads+sharded"
        assert report.results_match is True
        assert report.stats.wire_messages > 0

    def test_async_process_replay_matches_serial_baseline(self):
        compressed = compress_corpus(_corpus("areplay"))
        trace = synthesize_trace(
            compressed.file_names,
            TraceConfig(num_requests=20, seed=5, mutation_fraction=0.1),
        )
        report = replay_trace_sharded(
            compressed,
            trace,
            num_shards=2,
            transport="process",
            use_async=True,
            concurrency=16,
        )
        assert report.transport == "process"
        assert report.mode == "asyncio+sharded"
        assert report.results_match is True


# ----------------------------------------------------------------------------------------
# Wire accounting
# ----------------------------------------------------------------------------------------

class TestWireAccounting:
    def test_inprocess_pool_has_zero_wire_traffic(self):
        compressed = compress_corpus(_corpus("wire0"))
        with _pool("inprocess") as service:
            service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            stats = service.stats()
        assert stats.wire_messages == 0.0
        assert stats.wire_bytes == 0.0
        assert stats.wire_seconds == 0.0
        # The modelled placement traffic is transport-independent.
        assert stats.network_messages == 2.0

    def test_process_pool_meters_and_prices_real_frames(self):
        compressed = compress_corpus(_corpus("wire1"))
        with _pool("process") as service:
            service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            stats = service.stats()
        # At least snapshot request/reply + submit request/reply.
        assert stats.wire_messages >= 4.0
        assert stats.wire_bytes > 0.0
        assert stats.wire_seconds > 0.0
        # Same modelled placement charge as every other transport.
        assert stats.network_messages == 2.0

    def test_wire_totals_survive_shard_replacement(self):
        compressed = compress_corpus(_corpus("wire2"))
        with _pool("process") as service:
            service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            before = service.stats().wire_bytes
            for shard in service._shards:
                shard.transport.kill()
            service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            after = service.stats()
        assert after.replaced_shards >= 1
        # Retired (dead-worker) traffic stays in the totals.
        assert after.wire_bytes > before


# ----------------------------------------------------------------------------------------
# Crash isolation
# ----------------------------------------------------------------------------------------

class _DyingTransport(InProcessTransport):
    """Transport double: a worker that 'crashes' on the first N calls.

    Failing the returned future (rather than raising inline) reproduces
    exactly how a real dead pipe surfaces: in-flight work fails with
    ShardFailure after enqueue.
    """

    def __init__(self, inner_args, fail_times: int) -> None:
        super().__init__(*inner_args)
        self.failures_left = fail_times
        self.killed_calls = 0

    def _maybe_die(self):
        if self.failures_left > 0:
            self.failures_left -= 1
            self.killed_calls += 1
            failed: Future = Future()
            failed.set_exception(ShardFailure("injected worker crash"))
            return failed
        return None

    def submit(self, query, compressed, engine_config=None):
        return self._maybe_die() or super().submit(query, compressed, engine_config)

    def run_batch(self, queries, compressed, engine_config=None):
        return self._maybe_die() or super().run_batch(
            queries, compressed, engine_config
        )


def _inject_dying_owner(service, compressed, fail_times: int) -> _DyingTransport:
    """Swap the corpus-owning shard's transport for a crashing double."""
    owner = service._shards[service.shard_for(compressed)]
    dying = _DyingTransport(
        (owner.shard_id, service.name, None, ServiceConfig(coalesce_window=0.0), 2),
        fail_times,
    )
    owner.transport.close()
    owner.transport = dying
    return dying


class TestCrashIsolation:
    def test_submit_fails_over_and_answers_identically(self):
        compressed = compress_corpus(_corpus("crash1"))
        query = Query(task=Task.WORD_COUNT, top_k=8)
        expected = AnalyticsService(compressed).submit(query).result
        with _pool("inprocess") as service:
            dying = _inject_dying_owner(service, compressed, fail_times=1)
            outcome = service.submit(query, source=compressed)
            assert outcome.result == expected
            assert dying.killed_calls == 1
            stats = service.stats()
        assert stats.shard_failures == 1
        assert stats.replaced_shards == 1
        # A crash is not a rebalance: moved_sessions is untouched.
        assert stats.moved_sessions == 0

    def test_batch_mid_kill_returns_every_answer(self):
        compressed = compress_corpus(_corpus("crash2"))
        queries = _matrix_queries()
        serial = AnalyticsService(compressed)
        expected = [serial.submit(query).result for query in queries]
        with _pool("inprocess") as service:
            _inject_dying_owner(service, compressed, fail_times=1)
            served = service.run_batch(queries, source=compressed)
            stats = service.stats()
        for query, outcome, want in zip(queries, served, expected):
            assert results_equal(query.task, outcome.result, want)
        assert stats.shard_failures == 1

    def test_double_kill_mid_batch_still_zero_wrong_answers(self):
        """The double kills the worker, and then kills the *replacement*'s
        first serve too: the batch path retries through submit's own
        failover loop until a live owner answers."""
        compressed = compress_corpus(_corpus("crash3"))
        queries = _matrix_queries()
        serial = AnalyticsService(compressed)
        expected = [serial.submit(query).result for query in queries]
        with _pool("inprocess") as service:
            original_new_shard = service._new_shard
            doubles = []

            def dying_new_shard(shard_id):
                shard = original_new_shard(shard_id)
                if len(doubles) < 1:  # first replacement also crashes once
                    shard.transport.close()
                    shard.transport = _DyingTransport(
                        (shard_id, service.name, None,
                         ServiceConfig(coalesce_window=0.0), 2),
                        1,
                    )
                    doubles.append(shard.transport)
                return shard

            service._new_shard = dying_new_shard
            _inject_dying_owner(service, compressed, fail_times=1)
            served = service.run_batch(queries, source=compressed)
            stats = service.stats()
        for query, outcome, want in zip(queries, served, expected):
            assert results_equal(query.task, outcome.result, want)
        assert stats.shard_failures >= 2
        assert stats.replaced_shards >= 2
        assert stats.moved_sessions == 0

    def test_corpus_reroutes_to_live_owner_after_failure(self):
        compressed = compress_corpus(_corpus("crash4"))
        with _pool("inprocess") as service:
            before_ids = [shard.shard_id for shard in service._shards]
            _inject_dying_owner(service, compressed, fail_times=1)
            service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            after_ids = [shard.shard_id for shard in service._shards]
            owner = service._shards[service.shard_for(compressed)]
            assert owner.transport.alive
        # The replacement took a fresh id: rankings re-ran HRW.
        assert after_ids != before_ids
        assert max(after_ids) > max(before_ids)

    def test_exhausted_failover_raises_shard_failure(self):
        compressed = compress_corpus(_corpus("crash5"))
        with _pool("inprocess", num_shards=1, replication_factor=1) as service:
            original_new_shard = service._new_shard

            def always_dying(shard_id):
                shard = original_new_shard(shard_id)
                shard.transport.close()
                shard.transport = _DyingTransport(
                    (shard_id, service.name, None,
                     ServiceConfig(coalesce_window=0.0), 2),
                    10_000,
                )
                return shard

            service._new_shard = always_dying
            _inject_dying_owner(service, compressed, fail_times=10_000)
            with pytest.raises(ShardFailure):
                service.submit(Query(task=Task.WORD_COUNT), source=compressed)

    def test_real_worker_kill_recovers_with_identical_results(self):
        compressed = compress_corpus(_corpus("crash6"))
        query = Query(task=Task.SORT, top_k=6)
        expected = AnalyticsService(compressed).submit(query).result
        with _pool("process") as service:
            first = service.submit(query, source=compressed)
            assert first.result == expected
            for shard in service._shards:
                shard.transport.kill()
            second = service.submit(query, source=compressed)
            stats = service.stats()
        assert second.result == expected
        assert stats.shard_failures >= 1
        assert stats.replaced_shards == stats.shard_failures
        assert stats.moved_sessions == 0


# ----------------------------------------------------------------------------------------
# Worker-side errors and the witness tripwire
# ----------------------------------------------------------------------------------------

class TestProcessTransportProtocol:
    def test_worker_errors_cross_the_wire_as_exceptions(self):
        compressed = compress_corpus(_corpus("err"))
        with _pool("process") as service:
            # The file filter is validated *inside* the serving core —
            # worker-side for a process shard — and the error type must
            # survive the wire as the same ValueError, not ShardFailure.
            with pytest.raises(ValueError, match="unknown file"):
                service.submit(
                    Query(task=Task.WORD_COUNT, files=("no_such.txt",)),
                    source=compressed,
                )
            # The worker survives the rejected query.
            outcome = service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            assert outcome.result
            assert service.stats().shard_failures == 0

    def test_unencodable_reply_keeps_the_worker_serving(self, monkeypatch):
        import multiprocessing
        import threading

        from repro.serve import wire, worker

        original = worker.ShardHost.handle

        def handle(host, op, payload):
            return object() if op == "stats" else original(host, op, payload)

        monkeypatch.setattr(worker.ShardHost, "handle", handle)
        parent, child = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker.worker_main,
            args=(child, "boundary", None, ServiceConfig(coalesce_window=0.0)),
            daemon=True,
        )
        thread.start()

        def exchange(message):
            parent.send_bytes(wire.encode_frame(message))
            assert parent.poll(30.0), "worker sent no reply"
            return wire.decode_frame(parent.recv_bytes())

        try:
            status, error = exchange(("stats", None))
            assert status == "error"
            assert error["type"] == "TypeError"
            assert "cannot encode" in error["message"]
            assert exchange(("ping", None)) == ("ok", "pong")
            assert thread.is_alive()
            assert exchange(("close", None)) == ("ok", None)
        finally:
            # Closing our end also stops a worker still waiting for a request.
            parent.close()
            thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_recv_tripwire_fires_under_witness_when_lock_held(self):
        from repro.analysis import lockcheck
        from repro.analysis.lockcheck import make_lock

        transport = create_transport(
            "process",
            shard_id=990,
            name="tripwire",
            engine_config=None,
            service_config=ServiceConfig(coalesce_window=0.0),
            workers=1,
        )
        was_enabled = lockcheck.is_enabled()
        lockcheck.enable()
        try:
            # A router-level lock (below the transport's own rank, so the
            # wire counters can still be taken legally) held across the
            # round trip must trip the recv guard.
            probe = make_lock("serve.router")
            with probe:
                with pytest.raises(RuntimeError, match="recv with locks held"):
                    transport._roundtrip(("ping", None))
        finally:
            if not was_enabled:
                lockcheck.disable()
            lockcheck.reset_witness()
            transport.kill()
            transport.close()

    def test_recv_runs_lock_free_under_witness(self):
        from repro.analysis import lockcheck

        compressed = compress_corpus(_corpus("witness"))
        was_enabled = lockcheck.is_enabled()
        lockcheck.enable()
        try:
            with _pool("process") as service:
                outcome = service.submit(
                    Query(task=Task.WORD_COUNT), source=compressed
                )
                assert outcome.result
        finally:
            if not was_enabled:
                lockcheck.disable()
            lockcheck.reset_witness()
