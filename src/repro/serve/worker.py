"""The per-shard worker host: one serving core behind a message loop.

A shard is, at bottom, an :class:`~repro.serve.service.AnalyticsService`
plus the corpora it serves.  :class:`ShardHost` is exactly that pair
with a transport-agnostic ``handle(op, payload)`` surface, so the same
host backs both deployment shapes:

* **in process** — :class:`~repro.serve.transport.InProcessTransport`
  calls the service directly (no host object needed; the host exists
  for the process path and for tests that want to poke the message
  surface without spawning);
* **worker process** — :func:`worker_main` runs the host behind a
  framed request/reply loop on a ``multiprocessing`` pipe.  Frames are
  :mod:`repro.serve.wire` pickles restricted to an allowlist of wire
  types; they are trusted because only the transport that spawned this
  worker holds the other end of the pipe.

Corpus state crosses the boundary by ``uid``: the first time a router
routes a corpus to a process shard it ships a full snapshot; later
epochs arrive as append deltas (or fresh snapshots after a rebuild).
The host keeps **one corpus object per uid for its whole lifetime** and
refreshes it in place — the serving core rekeys warm sessions by corpus
object identity when it observes a new epoch, so replacing the object
would silently orphan every warm session the delta path exists to keep.

Errors never kill the loop: an exception while decoding a request,
running its op or encoding the result is sent as an ``("error", ...)``
reply and re-raised caller-side; only a closed pipe (the parent died or
told us to stop) ends the worker.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.compression.compressor import CompressedCorpus
from repro.core.session import GTadocConfig
from repro.serve import wire
from repro.serve.service import AnalyticsService, ServiceConfig

__all__ = ["ShardHost", "worker_main"]


class ShardHost:
    """One shard's serving core plus its uid-keyed corpus replicas."""

    def __init__(
        self,
        name: str,
        engine_config: Optional[GTadocConfig],
        service_config: Optional[ServiceConfig],
    ) -> None:
        self._service = AnalyticsService(
            engine_config=engine_config, service_config=service_config
        )
        # Outcomes served through a pool carry the pool's backend name.
        self._service.name = name
        self._corpora: Dict[str, CompressedCorpus] = {}

    @property
    def service(self) -> AnalyticsService:
        return self._service

    # -- corpus replicas ---------------------------------------------------------------
    def _corpus(self, uid: str) -> CompressedCorpus:
        try:
            return self._corpora[uid]
        except KeyError:
            raise KeyError(f"shard has no replica of corpus uid {uid[:12]}") from None

    def install_snapshot(self, payload: Dict[str, Any]) -> None:
        """Materialize (or refresh in place) the replica for a snapshot."""
        existing = self._corpora.get(payload["uid"])
        if existing is None:
            self._corpora[payload["uid"]] = wire.corpus_from_snapshot(payload)
        else:
            wire.adopt_corpus_snapshot(existing, payload)

    def apply_delta(self, payload: Dict[str, Any]) -> None:
        """Advance a replica by an append delta (same epoch protocol as local)."""
        wire.apply_corpus_delta(self._corpus(payload["uid"]), payload)

    # -- the op surface ----------------------------------------------------------------
    def handle(self, op: str, payload: Any) -> Any:
        """Execute one transport op; the return value is the reply payload."""
        if op == "submit":
            return self._service.submit(
                payload["query"],
                source=self._corpus(payload["uid"]),
                engine_config=payload["engine_config"],
            )
        if op == "run_batch":
            return self._service.run_batch(
                payload["queries"],
                source=self._corpus(payload["uid"]),
                engine_config=payload["engine_config"],
            )
        if op == "snapshot":
            self.install_snapshot(payload)
            return None
        if op == "delta":
            self.apply_delta(payload)
            return None
        if op == "invalidate":
            replica = self._corpora.get(payload["uid"])
            return 0 if replica is None else self._service.invalidate(replica)
        if op == "stats":
            return self._service.stats()
        if op == "session_keys":
            return self._service.session_keys()
        if op == "drop_session":
            return self._service.drop_session(payload["key"])
        if op == "resident_sessions":
            return self._service.resident_sessions
        if op == "ping":
            return "pong"
        raise ValueError(f"unknown shard op {op!r}")


#: Error types a worker reply may name; anything else surfaces as
#: ``RuntimeError`` caller-side (the wire carries names, not classes).
REPLY_ERRORS = {
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "RuntimeError": RuntimeError,
}


def worker_main(
    conn,
    name: str,
    engine_config: Optional[GTadocConfig],
    service_config: Optional[ServiceConfig],
) -> None:
    """The worker process entry point: serve framed ops until the pipe closes.

    Runs in the worker process.  ``engine_config``/``service_config``
    are frozen scalar dataclasses and arrive pickled with the process
    object; all per-request traffic goes through :mod:`repro.serve.wire`
    frames.  Every op gets exactly one reply — ``("ok", result)`` or
    ``("error", {"type", "message"})`` — so the parent's request/reply
    lane never desynchronizes.
    """
    host = ShardHost(name, engine_config, service_config)
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break
        op = None
        try:
            op, payload = wire.decode_frame(frame)
            result = None if op == "close" else host.handle(op, payload)
            # Encoding is inside the boundary too: a result the codec
            # refuses becomes an error reply, not a dead worker.
            reply = wire.encode_frame(("ok", result))
        except Exception as error:
            reply = wire.encode_frame(
                ("error", {"type": type(error).__name__, "message": str(error)})
            )
        try:
            conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            break
        if op == "close":
            break
    conn.close()
