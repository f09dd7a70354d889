"""Shard transports: how the router reaches a shard's serving core.

The sharded service used to *be* its deployment shape — every shard a
``ThreadPoolExecutor`` in the router's process.  This module makes the
shape a strategy.  :class:`ShardTransport` is the seam: the router
routes, meters heat and aggregates stats exactly as before, and talks
to each shard only through this interface.  Two implementations ship:

:class:`InProcessTransport`
    Today's path, bit for bit: the shard's
    :class:`~repro.serve.service.AnalyticsService` on its own bounded
    thread pool.  Zero serialization, zero wire bytes.

:class:`ProcessTransport`
    The shard's serving core in a **spawned worker process**
    (:func:`repro.serve.worker.worker_main`) behind a duplex pipe.
    Every message is one :mod:`repro.serve.wire` frame: a length prefix
    and a protocol-5 pickle restricted to an allowlist of wire types.
    The transport spawns the worker and creates the pipe itself, and
    that is the codec's trust boundary.  This buys true parallel
    CPU-side traversal (one GIL per shard) and crash isolation: a dead
    worker — broken pipe, nonzero exit — surfaces as
    :class:`ShardFailure`, which the router turns into a shard
    replacement and a re-route instead of a poisoned pool.

    Corpora ship by ``uid``: the first route sends a full snapshot, a
    later epoch sends an append delta when the primary's mutation log
    proves appends-only (so the mutable-corpora delta path — warm
    sessions surviving an append — works across the process boundary),
    and falls back to a fresh snapshot after rebuilds.  One request
    lane serializes the pipe, so the protocol needs no request ids; the
    worker's own coalescer still batches ``run_batch`` groups.

Both transports hand back :class:`concurrent.futures.Future` objects
from ``submit``/``run_batch``.  Enqueueing must stay cheap and
non-blocking because the router calls it under the router lock (that is
what makes route-and-enqueue atomic against resize/close); all pipe
traffic happens on the transport's lane thread afterwards.

Locking: the transport lock (``serve.transport``, rank 12) only guards
spawn state, the liveness flag and the wire byte/message counters.  It
is **never held across a blocking receive** — under the runtime lock
witness that invariant is enforced on every round trip via
:func:`repro.analysis.lockcheck.held_levels`, not assumed.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.analysis import lockcheck
from repro.analysis.lockcheck import make_lock
from repro.api.outcome import RunOutcome
from repro.api.query import Query
from repro.compression.compressor import CompressedCorpus
from repro.core.session import GTadocConfig
from repro.serve import wire
from repro.serve.service import AnalyticsService, ServiceConfig, ServiceStats
from repro.serve.worker import REPLY_ERRORS, worker_main

__all__ = [
    "TRANSPORT_KINDS",
    "ShardFailure",
    "ShardTransport",
    "InProcessTransport",
    "ProcessTransport",
    "create_transport",
]

#: The deployable transport kinds, in preference order.
TRANSPORT_KINDS = ("inprocess", "process")


class ShardFailure(RuntimeError):
    """A shard worker died with work in flight (or was found dead).

    Raised by a transport when its worker's pipe breaks or its process
    exits.  The router treats it as a *placement* problem, not a query
    problem: the dead shard is replaced, the corpus re-routes to its
    next live rendezvous owner, and the query is retried there —
    queries are idempotent reads, so a retry can never produce a wrong
    answer, only a later one.
    """


class ShardTransport:
    """The router's view of one shard, wherever its serving core runs.

    ``submit``/``run_batch`` return futures and must be safe to call
    under the router lock (enqueue only — no blocking I/O).  The
    control-plane methods (``invalidate``, ``stats``, ``session_keys``,
    ``drop_session``, ``resident_sessions``) are synchronous.
    """

    #: ``"inprocess"`` or ``"process"``; mirrors :data:`TRANSPORT_KINDS`.
    kind: str = ""

    def submit(
        self,
        query: Query,
        compressed: CompressedCorpus,
        engine_config: Optional[GTadocConfig] = None,
    ) -> "Future[RunOutcome]":
        raise NotImplementedError

    def run_batch(
        self,
        queries: List[Query],
        compressed: CompressedCorpus,
        engine_config: Optional[GTadocConfig] = None,
    ) -> "Future[List[RunOutcome]]":
        raise NotImplementedError

    def invalidate(self, compressed: CompressedCorpus) -> int:
        raise NotImplementedError

    def stats(self) -> ServiceStats:
        raise NotImplementedError

    def session_keys(self) -> List[Tuple[str, Optional[GTadocConfig]]]:
        raise NotImplementedError

    def drop_session(self, key: Tuple[str, Optional[GTadocConfig]]) -> bool:
        raise NotImplementedError

    @property
    def resident_sessions(self) -> int:
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        return True

    #: Serialized wire traffic (zero for in-process transports).
    @property
    def wire_messages(self) -> float:
        return 0.0

    @property
    def wire_bytes(self) -> float:
        return 0.0

    def close(self) -> None:
        raise NotImplementedError


class InProcessTransport(ShardTransport):
    """The classic shard shape: a serving core on its own thread pool."""

    kind = "inprocess"

    def __init__(
        self,
        shard_id: int,
        name: str,
        engine_config: Optional[GTadocConfig],
        service_config: Optional[ServiceConfig],
        workers: int,
    ) -> None:
        self.service = AnalyticsService(
            engine_config=engine_config, service_config=service_config
        )
        # Outcomes served through the pool carry the pool's backend name.
        self.service.name = name
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"gtadoc-shard-{shard_id}"
        )

    def submit(self, query, compressed, engine_config=None):
        return self._executor.submit(
            self.service.submit, query, source=compressed, engine_config=engine_config
        )

    def run_batch(self, queries, compressed, engine_config=None):
        return self._executor.submit(
            self.service.run_batch,
            queries,
            source=compressed,
            engine_config=engine_config,
        )

    def invalidate(self, compressed):
        return self.service.invalidate(compressed)

    def stats(self):
        return self.service.stats()

    def session_keys(self):
        return self.service.session_keys()

    def drop_session(self, key):
        return self.service.drop_session(key)

    @property
    def resident_sessions(self):
        return self.service.resident_sessions

    def close(self):
        self._executor.shutdown(wait=True)


def _empty_service_stats() -> ServiceStats:
    from repro.serve.caches import CacheStats

    empty = CacheStats(capacity=0, size=0)
    return ServiceStats(
        queries=0,
        executed_queries=0,
        micro_batches=0,
        coalesced_queries=0,
        kernel_launches=0,
        shared_kernel_launches=0,
        session_cache=empty,
        result_cache=empty,
    )


def _ensure_child_importable() -> None:
    """Make sure a spawned worker can ``import repro``.

    Spawn re-imports the target by qualified name in a fresh
    interpreter, which only works if the package root is on the child's
    path.  Tests and the CLI run with ``PYTHONPATH=src`` already; this
    covers callers that grew ``sys.path`` some other way.
    """
    root = str(Path(__file__).resolve().parents[2])
    existing = os.environ.get("PYTHONPATH", "")
    paths = existing.split(os.pathsep) if existing else []
    if root not in paths and root in sys.path or not paths:
        os.environ["PYTHONPATH"] = (
            os.pathsep.join([root] + paths) if paths else root
        )


class ProcessTransport(ShardTransport):
    """One shard in a spawned worker process behind a framed pipe.

    The worker starts lazily on the first request, so constructing a
    pool (or resizing one) stays cheap.  A single lane thread owns the
    pipe: requests enqueue as futures and execute strictly in order —
    corpus sync, then the op — which keeps the wire protocol free of
    request ids and makes ``_shipped`` (per-uid shipped epoch state)
    lane-private, needing no lock.
    """

    kind = "process"

    def __init__(
        self,
        shard_id: int,
        name: str,
        engine_config: Optional[GTadocConfig],
        service_config: Optional[ServiceConfig],
        workers: int,
    ) -> None:
        # ``workers`` shapes the in-process thread pool; a worker
        # process serves its single request lane, so it is unused here.
        del workers
        self._shard_id = shard_id
        self._name = name
        self._engine_config = engine_config
        self._service_config = service_config
        self._lane = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"gtadoc-wire-{shard_id}"
        )
        self._lock = make_lock("serve.transport")
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._conn = None
        self._dead = False
        self._closed = False
        #: uid -> (shipped version, shipped file count); lane-thread only.
        self._shipped = {}
        self._wire_message_count = 0.0
        self._wire_byte_count = 0.0

    # -- data plane --------------------------------------------------------------------
    def submit(self, query, compressed, engine_config=None):
        return self._lane.submit(self._submit_task, query, compressed, engine_config)

    def run_batch(self, queries, compressed, engine_config=None):
        return self._lane.submit(
            self._run_batch_task, list(queries), compressed, engine_config
        )

    def _submit_task(self, query, compressed, engine_config):
        uid = self._sync_corpus(compressed)
        return self._roundtrip(
            ("submit", {"uid": uid, "query": query, "engine_config": engine_config})
        )

    def _run_batch_task(self, queries, compressed, engine_config):
        uid = self._sync_corpus(compressed)
        return self._roundtrip(
            (
                "run_batch",
                {"uid": uid, "queries": queries, "engine_config": engine_config},
            )
        )

    # -- control plane -----------------------------------------------------------------
    def invalidate(self, compressed):
        try:
            return self._lane.submit(
                self._roundtrip, ("invalidate", {"uid": compressed.uid})
            ).result()
        except ShardFailure:
            # A dead worker's caches are already gone with it.
            return 0

    def stats(self):
        try:
            return self._lane.submit(self._roundtrip, ("stats", None)).result()
        except ShardFailure:
            return _empty_service_stats()

    def session_keys(self):
        try:
            return self._lane.submit(
                self._roundtrip, ("session_keys", None)
            ).result()
        except ShardFailure:
            return []

    def drop_session(self, key):
        try:
            return self._lane.submit(
                self._roundtrip, ("drop_session", {"key": key})
            ).result()
        except ShardFailure:
            return False

    @property
    def resident_sessions(self):
        try:
            return self._lane.submit(
                self._roundtrip, ("resident_sessions", None)
            ).result()
        except ShardFailure:
            return 0

    # -- liveness and accounting -------------------------------------------------------
    @property
    def alive(self) -> bool:
        with self._lock:
            if self._dead or self._closed:
                return False
            process = self._process
        return process is None or process.exitcode is None

    @property
    def wire_messages(self) -> float:
        with self._lock:
            return self._wire_message_count

    @property
    def wire_bytes(self) -> float:
        with self._lock:
            return self._wire_byte_count

    def _count_wire(self, num_bytes: int) -> None:
        with self._lock:
            self._wire_message_count += 1.0
            self._wire_byte_count += float(num_bytes)

    def kill(self) -> None:
        """Hard-kill the worker process (crash-isolation tests/benchmarks).

        The transport is *not* marked dead: the next request discovers
        the corpse through the broken pipe, exactly like a real crash.
        """
        with self._lock:
            process = self._process
        if process is not None:
            process.terminate()
            process.join(timeout=10.0)

    # -- the wire ----------------------------------------------------------------------
    def _spawn(self):
        _ensure_child_importable()
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=worker_main,
            args=(child_conn, self._name, self._engine_config, self._service_config),
            name=f"gtadoc-shard-worker-{self._shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        with self._lock:
            self._process = process
            self._conn = parent_conn
        return parent_conn

    def _ensure_worker(self):
        with self._lock:
            if self._dead:
                raise ShardFailure(f"shard worker {self._shard_id} is dead")
            if self._closed:
                raise ShardFailure(f"shard worker {self._shard_id} is closed")
            if self._conn is not None:
                return self._conn
        return self._spawn()

    def _worker_died(self, error: BaseException) -> ShardFailure:
        with self._lock:
            self._dead = True
            process = self._process
        exitcode = process.exitcode if process is not None else None
        return ShardFailure(
            f"shard worker {self._shard_id} died "
            f"(exitcode {exitcode}): {error!r}"
        )

    def _roundtrip(self, message: Tuple[str, Any]) -> Any:
        """One framed request/reply exchange; lane thread only."""
        conn = self._ensure_worker()
        frame = wire.encode_frame(message)
        try:
            conn.send_bytes(frame)
        except (BrokenPipeError, OSError) as error:
            raise self._worker_died(error) from None
        self._count_wire(len(frame))
        if lockcheck.is_enabled():
            held = lockcheck.held_levels()
            if held:
                raise RuntimeError(
                    f"transport blocking recv with locks held: {held} — "
                    "the wire must never be awaited under a lock"
                )
        try:
            reply = conn.recv_bytes()
        except (EOFError, OSError) as error:
            raise self._worker_died(error) from None
        self._count_wire(len(reply))
        status, payload = wire.decode_frame(reply)
        if status == "error":
            raise REPLY_ERRORS.get(payload["type"], RuntimeError)(payload["message"])
        return payload

    def _sync_corpus(self, compressed: CompressedCorpus) -> str:
        """Bring the worker's replica of ``compressed`` to the current epoch.

        Full snapshot on first contact or after a rebuild; append delta
        when the primary's mutation log proves the gap is appends-only.
        The payload is captured under the corpus lock (one coherent
        epoch), the exchange happens lock-free, and the *payload's*
        version is recorded as shipped — a mutation racing the exchange
        simply re-ships on the next request.
        """
        with compressed.lock:
            uid = compressed.uid
            version = compressed.version
        shipped = self._shipped.get(uid)
        if shipped is not None and shipped[0] >= version:
            return uid
        delta = None
        if shipped is not None:
            delta = wire.corpus_delta(compressed, shipped[0], shipped[1])
        if delta is not None:
            self._roundtrip(("delta", delta))
            self._shipped[uid] = (
                delta["version"],
                shipped[1] + len(delta["appended"]),
            )
        else:
            snapshot = wire.corpus_snapshot(compressed)
            self._roundtrip(("snapshot", snapshot))
            self._shipped[uid] = (snapshot["version"], len(snapshot["file_names"]))
        return uid

    def close(self) -> None:
        """Stop the worker and release the lane (idempotent, crash-tolerant)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dead = self._dead
            started = self._process is not None
        if started and not dead:
            try:
                self._lane.submit(self._roundtrip, ("close", None)).result(
                    timeout=30.0
                )
            except Exception:
                pass
        self._lane.shutdown(wait=True)
        with self._lock:
            process, conn = self._process, self._conn
            self._process = None
            self._conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10.0)


def create_transport(
    kind: str,
    *,
    shard_id: int,
    name: str,
    engine_config: Optional[GTadocConfig],
    service_config: Optional[ServiceConfig],
    workers: int,
) -> ShardTransport:
    """Instantiate the transport called ``kind`` for one shard."""
    if kind == "inprocess":
        return InProcessTransport(shard_id, name, engine_config, service_config, workers)
    if kind == "process":
        return ProcessTransport(shard_id, name, engine_config, service_config, workers)
    raise ValueError(
        f"unknown shard transport {kind!r} (choose from {TRANSPORT_KINDS})"
    )
