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

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

from repro.analytics.base import Task, results_equal
from repro.api.query import Query
from repro.compression.compressor import compress_corpus
from repro.data.corpus import Corpus
from repro.serve import (
    AnalyticsService,
    AsyncAnalyticsService,
    InProcessTransport,
    ProcessTransport,
    ServiceConfig,
    ShardedAnalyticsService,
    ShardedServiceConfig,
    ShardFailure,
    TraceConfig,
    create_transport,
    replay_trace,
    synthesize_trace,
)
from repro.serve import transport as transport_module
from repro.serve import wire, worker
from repro.serve.trace import MutationEvent, default_relational_specs
from tests.test_serve import _assert_type_exact


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
                serial = AnalyticsService(compressed)
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
        with ShardedAnalyticsService(
            sharded_config=ShardedServiceConfig(num_shards=2, transport="process")
        ) as pool:
            report = replay_trace(pool, compressed, trace, clients=4)
        assert pool.transport_kind == "process"
        assert report.results_match is True
        assert report.stats.wire_messages > 0

    def test_async_process_replay_matches_serial_baseline(self):
        compressed = compress_corpus(_corpus("areplay"))
        trace = synthesize_trace(
            compressed.file_names,
            TraceConfig(num_requests=20, seed=5, mutation_fraction=0.1),
        )
        with (
            ShardedAnalyticsService(
                sharded_config=ShardedServiceConfig(num_shards=2, transport="process")
            ) as pool,
            AsyncAnalyticsService(router=pool) as client,
        ):
            report = replay_trace(client, compressed, trace, clients=16)
        assert pool.transport_kind == "process"
        assert report.results_match is True

    def test_workers_spawn_before_the_replay_clock_starts(self, monkeypatch):
        """``elapsed_seconds`` excludes setup: no worker spawns after the first submit."""
        events = []
        spawn, submit = ProcessTransport._spawn, ProcessTransport.submit

        def recording_spawn(self):
            events.append("spawn")
            return spawn(self)

        def recording_submit(self, *args, **kwargs):
            events.append("submit")
            return submit(self, *args, **kwargs)

        monkeypatch.setattr(ProcessTransport, "_spawn", recording_spawn)
        monkeypatch.setattr(ProcessTransport, "submit", recording_submit)
        compressed = compress_corpus(_corpus("spawn"))
        trace = synthesize_trace(compressed.file_names, TraceConfig(num_requests=6, seed=3))
        with ShardedAnalyticsService(
            sharded_config=ShardedServiceConfig(num_shards=2, transport="process")
        ) as pool:
            report = replay_trace(pool, compressed, trace, clients=2, serial_baseline=False)
        assert len(report.outcomes) == 6
        assert events.count("spawn") == 2
        assert "spawn" not in events[events.index("submit"):]


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
        (owner.shard_id, service.name, None, ServiceConfig(), 2),
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
                        (shard_id, service.name, None, ServiceConfig(), 2),
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
                    (shard_id, service.name, None, ServiceConfig(), 2),
                    10_000,
                )
                return shard

            service._new_shard = always_dying
            _inject_dying_owner(service, compressed, fail_times=10_000)
            with pytest.raises(ShardFailure):
                service.submit(Query(task=Task.WORD_COUNT), source=compressed)

    @pytest.mark.parametrize("case", ["every_shard", "owner_of_first_dataset"])
    def test_real_worker_kill_recovers_with_identical_results(self, dataset_compressed, case):
        # every_shard: one corpus, every worker killed.  The other case
        # kills the owner of A among A, B and D, three probes each.
        if case == "every_shard":
            corpora = [compress_corpus(_corpus("crash6"))]
            probes = [Query(task=Task.SORT, top_k=6)]
        else:
            corpora = [dataset_compressed[key] for key in "ABD"]
            probes = [
                Query(task=Task.WORD_COUNT, top_k=10),
                Query(task=Task.SORT, top_k=8),
                Query(task=Task.SEQUENCE_COUNT, sequence_length=3, top_k=5),
            ]
        expected = [
            [AnalyticsService(compressed).submit(probe).result for probe in probes]
            for compressed in corpora
        ]
        with _pool("process") as service:
            # Warm every corpus first, so the kill lands on resident state.
            for compressed, answers in zip(corpora, expected):
                assert service.submit(probes[0], source=compressed).result == answers[0]
            if case == "every_shard":
                victims = service._shards
            else:
                victims = [service._shards[service.shard_for(corpora[0])]]
            for shard in victims:
                shard.transport.kill()
            for compressed, answers in zip(corpora, expected):
                for probe, want in zip(probes, answers):
                    assert service.submit(probe, source=compressed).result == want
            stats = service.stats()
        assert stats.shard_failures >= 1
        assert stats.replaced_shards == stats.shard_failures
        assert stats.moved_sessions == 0


# ----------------------------------------------------------------------------------------
# Worker starts: forks of one preloaded fork server
# ----------------------------------------------------------------------------------------

def _parent_pid(pid: int) -> int:
    """``pid``'s parent, from ``/proc/<pid>/stat`` (Linux)."""
    with open(f"/proc/{pid}/stat") as handle:
        stat = handle.read()
    # The command name may hold spaces; the fields after it are fixed.
    return int(stat.rsplit(")", 1)[1].split()[1])


#: Runs in a child interpreter with ``PYTHONPATH`` unset: ``src`` is put on
#: ``sys.path`` in code, so only the transport can hand it to the server.
_NO_PYTHONPATH_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.analytics.base import Task
from repro.api.query import Query
from repro.compression.compressor import compress_corpus
from repro.data.corpus import Corpus
from repro.serve import AnalyticsService, ShardedAnalyticsService, ShardedServiceConfig

text = "alpha beta gamma delta alpha beta zeta eta " * 4
compressed = compress_corpus(Corpus.from_texts({{f"f{{i}}.txt": text + str(i) for i in range(3)}}))
queries = [Query(task=Task.WORD_COUNT, top_k=4), Query(task=Task.SORT, top_k=3)]
with ShardedAnalyticsService(
    sharded_config=ShardedServiceConfig(num_shards=2, transport="process")
) as pool:
    for query in queries:
        want = AnalyticsService(compressed).submit(query).result
        assert pool.submit(query, source=compressed).result == want, query
    pool.stats()
    worker = pool._shards[0].transport._process.pid
    with open(f"/proc/{{worker}}/stat") as handle:
        server = int(handle.read().rsplit(")", 1)[1].split()[1])
    with open(f"/proc/{{server}}/maps") as handle:
        assert "_multiarray_umath" in handle.read(), "the fork server did not preload"
print("preloaded")
"""


class TestForkServer:
    def test_workers_and_replacements_fork_from_one_server(self):
        compressed = compress_corpus(_corpus("fork"))
        with _pool("process") as service:
            service.stats()  # starts both workers
            first = [shard.transport._process.pid for shard in service._shards]
            parents = {_parent_pid(pid) for pid in first}
            victim = service._shards[service.shard_for(compressed)]
            victim.transport.kill()
            assert service.submit(Query(task=Task.WORD_COUNT), source=compressed).result
            service.stats()
            replacements = [
                shard.transport._process.pid
                for shard in service._shards
                if shard.transport._process.pid not in first
            ]
            assert len(replacements) == 1
            parents.add(_parent_pid(replacements[0]))
            assert service.stats().replaced_shards == 1
        (server,) = parents
        assert server != os.getpid()
        assert _parent_pid(server) == os.getpid()

    def test_server_preloads_the_worker_without_pythonpath(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", _NO_PYTHONPATH_SCRIPT.format(src=src)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "preloaded"

    def test_killed_worker_is_dead_with_sigterm_exit_code(self):
        transport = create_transport(
            "process",
            shard_id=991,
            name="kill",
            engine_config=None,
            service_config=ServiceConfig(),
            workers=1,
        )
        try:
            assert transport._roundtrip(("ping", None)) == "pong"
            assert transport.alive
            transport.kill()
            assert not transport.alive
            with pytest.raises(ShardFailure, match="exitcode -15"):
                transport._roundtrip(("ping", None))
        finally:
            transport.close()


    def test_sigkilled_worker_reports_its_exit_code(self):
        transport = create_transport(
            "process",
            shard_id=989,
            name="sigkill",
            engine_config=None,
            service_config=ServiceConfig(),
            workers=1,
        )
        try:
            assert transport._roundtrip(("ping", None)) == "pong"
            # Killed from outside: nothing joins the worker before the
            # broken pipe reports it.
            os.kill(transport._process.pid, signal.SIGKILL)
            with pytest.raises(ShardFailure, match="exitcode -9"):
                transport._roundtrip(("ping", None))
        finally:
            transport.close()


# ----------------------------------------------------------------------------------------
# Results cross as their snapshots
# ----------------------------------------------------------------------------------------

def _leaky_worker_main(conn, name, engine_config, service_config):
    """``worker_main`` with a shaper that leaks a numpy scalar into word counts."""
    import numpy as np

    from repro.serve import service as service_module

    shape = service_module.shape_result

    def leaky(query, output):
        result = shape(query, output)
        if query.task is Task.WORD_COUNT:
            word = next(iter(result))
            result[word] = np.int64(result[word])
        return result

    service_module.shape_result = leaky
    worker.worker_main(conn, name, engine_config, service_config)


class TestSnapshotCrossing:
    @pytest.mark.parametrize("dataset", list("ABCDE"))
    def test_outcomes_are_type_exact_with_in_process_ones(self, dataset_compressed, dataset):
        compressed = dataset_compressed[dataset]
        queries = [Query(task=task) for task in Task if task is not Task.RELATIONAL] + [
            Query(task=Task.RELATIONAL, extras={"relational": spec})
            for spec in default_relational_specs()
        ]
        local = AnalyticsService(compressed)
        # One owner per corpus, so the second round finds the first's entries.
        with _pool("process", replication_factor=1) as pool:
            # The first round ships misses, the second the cached snapshots.
            for cache in ("miss", "hit"):
                for query in queries:
                    got = pool.submit(query, source=compressed)
                    want = local.submit(query)
                    assert got.details["result_cache"] == cache
                    assert want.details["result_cache"] == cache
                    _assert_type_exact(
                        got.result, want.result, f"{dataset} {query.describe()} {cache}"
                    )
            assert pool.stats().refused_replies == 0

    def test_numpy_scalar_leak_is_a_typed_counted_error(self, monkeypatch):
        monkeypatch.setattr(transport_module, "worker_main", _leaky_worker_main)
        compressed = compress_corpus(_corpus("leak"))
        with _pool("process") as service:
            for _ in range(2):  # the miss, then the cached hit
                with pytest.raises(wire.WireError, match="refuses global numpy"):
                    service.submit(Query(task=Task.WORD_COUNT), source=compressed)
            # The worker serves on: a refused reply is not a shard failure.
            assert service.submit(Query(task=Task.SORT, top_k=3), source=compressed).result
            stats = service.stats()
            assert stats.refused_replies == 2
            assert stats.shard_failures == 0


# ----------------------------------------------------------------------------------------
# Worker-side errors and the witness tripwire
# ----------------------------------------------------------------------------------------

@contextlib.contextmanager
def _threaded_worker(name: str):
    """``worker_main`` on a thread over a pipe; yields ``(exchange, thread)``."""
    parent, child = multiprocessing.Pipe()
    thread = threading.Thread(
        target=worker.worker_main,
        args=(child, name, None, ServiceConfig()),
        daemon=True,
    )
    thread.start()

    def exchange(message):
        parent.send_bytes(wire.encode_frame(message))
        assert parent.poll(30.0), "worker sent no reply"
        return wire.decode_frame(parent.recv_bytes())

    try:
        yield exchange, thread
    finally:
        # Closing our end also stops a worker still waiting for a request.
        parent.close()
        thread.join(timeout=30.0)
    assert not thread.is_alive()


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
        original = worker.ShardHost.handle

        def handle(host, op, payload):
            return object() if op == "stats" else original(host, op, payload)

        monkeypatch.setattr(worker.ShardHost, "handle", handle)
        with _threaded_worker("boundary") as (exchange, thread):
            status, error = exchange(("stats", None))
            assert status == "error"
            assert error["type"] == "TypeError"
            assert "cannot encode" in error["message"]
            assert exchange(("ping", None)) == ("ok", "pong")
            assert thread.is_alive()
            assert exchange(("close", None)) == ("ok", None)

    def test_ill_typed_requests_get_one_typed_error_each_and_the_worker_serves_on(self):
        unknown_uid = {"query": Query(task=Task.WORD_COUNT), "uid": "no-such-uid", "engine_config": None}
        messages = [
            7,
            None,
            ("ping",),
            ("ping", None, None),
            ("no_such_op", None),
            ("submit", None),
            ("submit", {}),
            ("submit", unknown_uid),
            ("snapshot", {}),
            ("drop_session", {"key": [1, 2]}),
            ("invalidate", {"uid": ["x"]}),
        ]
        with _threaded_worker("fuzz") as (exchange, thread):
            for message in messages:
                status, error = exchange(message)
                assert status == "error", message
                assert error["type"] in worker.REPLY_ERRORS, (message, error)
                # One reply per request: a second one would answer this ping.
                assert exchange(("ping", None)) == ("ok", "pong"), message
                assert thread.is_alive(), message
            assert exchange(("close", None)) == ("ok", None)

    def test_recv_tripwire_fires_under_witness_when_lock_held(self):
        from repro.analysis import lockcheck
        from repro.analysis.lockcheck import make_lock

        transport = create_transport(
            "process",
            shard_id=990,
            name="tripwire",
            engine_config=None,
            service_config=ServiceConfig(),
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
