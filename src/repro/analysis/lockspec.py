"""The canonical lock hierarchy of the serving stack.

Nine modules own :mod:`threading` locks — ``core/session.py``,
``serve/{service,sharding,transport,aio,coalescer,caches,replay}.py``
and ``compression/compressor.py`` — and a query's path through the serving
stack can hold several of them at once (the shard router routes while
resolving a corpus fingerprint; the engine holds its session lock while
delta-syncing against the corpus; a cache write-back evaluates its epoch
guard under the cache lock).  Deadlock freedom therefore rests on one
global rule: **locks are only ever acquired in increasing rank order**.

This module *is* that rule, as data.  Each :class:`LockLevel` names one
lock class, assigns it a rank, and records where it lives; the static
lock-order lint rule (:mod:`repro.analysis.rules_lock_order`) checks
every extracted held-before edge against these ranks, and the runtime
witness (:mod:`repro.analysis.lockcheck`) enforces them at acquire time.

The hierarchy, outermost first
------------------------------

====  ==================  =====================================================
rank  level               lock
====  ==================  =====================================================
 10   serve.router        ``ShardedAnalyticsService._lock`` — shard routing,
                          replication heat, resize/close.  Held while
                          resolving a corpus identity (rank 50) and while
                          walking shard session keys (rank 30) on resize.
 12   serve.transport     ``ProcessTransport._lock`` — a process shard's
                          spawn state, liveness flag and wire counters.
                          Held briefly under the router lock (stats
                          reads, enqueue); never held across a blocking
                          pipe receive.
 20   serve.coalescer     ``QueryCoalescer._lock`` — micro-batch group
                          bookkeeping.  Never holds anything else, and
                          nothing waits on it: batches execute after it
                          is released.
 30   serve.cache         ``LRUCache._lock`` — session LRU and result
                          cache.  Factories and guards run under it, so it
                          sits above the epoch leaf (rank 62) and above the
                          corpus lock (a session factory may fingerprint).
 32   serve.corpus_memo   ``CorpusMemo._lock`` — raw-corpus compression
                          memo.  Fingerprints corpora (rank 50) while held.
 40   session             ``DeviceSession._lock`` (re-entrant) — all cached
                          device state.  Held across whole batches; acquires
                          the corpus lock to snapshot grammar state.
 50   corpus              ``CompressedCorpus.lock`` (re-entrant) — grammar /
                          dictionary / version coherence.  Innermost of the
                          structural locks: nothing below it but leaves.
 60   serve.stats         ``ServingCore._stats_lock`` — serving counters.
                          A leaf: snapshot reads copy cache stats *before*
                          taking it.
 62   serve.epoch         ``ServingCore._epoch_lock`` — fingerprint
                          generations.  A leaf; acquired under the cache
                          lock by write-back guards.
 64   serve.version       ``ServingCore._version_lock`` — per-uid mutation
                          observations.  A leaf.
 66   serve.network       ``ShardedAnalyticsService._network_lock`` —
                          placement traffic accounting.  A leaf.
 70   aio.call            ``AsyncServeBackend._call_lock`` — serializes
                          sync-adapter calls onto the loop.  A leaf for the
                          holding thread (loop work runs on other threads).
 72   replay.cursor       trace replay's claim-loop cursor lock.  A leaf.
====  ==================  =====================================================

A thread may skip levels going down (router straight to corpus is fine);
it must never acquire a lock whose rank is ≤ the highest rank it already
holds, except re-acquiring a re-entrant lock it already owns.  Same-rank
nesting across *different* instances is a violation too (two sessions,
two caches): no code path needs it, so the witness treats it as an
inversion rather than guessing an instance order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "LockLevel",
    "LEVELS",
    "level",
    "rank_of",
    "ATTRIBUTE_LEVELS",
    "RECEIVER_HINTS",
    "RECEIVER_CLASSES",
    "KNOWN_EDGES",
]


@dataclass(frozen=True)
class LockLevel:
    """One named level of the canonical hierarchy."""

    #: Stable name, also the witness's lock label (e.g. ``"session"``).
    name: str
    #: Position in the hierarchy; locks must be acquired in increasing rank.
    rank: int
    #: Where the lock lives, for reports (``Class.attribute``).
    owner: str
    #: Re-entrant levels may be re-acquired by their holder (RLocks).
    reentrant: bool = False
    #: What the level protects, one line.
    note: str = ""


LEVELS: Tuple[LockLevel, ...] = (
    LockLevel("serve.router", 10, "ShardedAnalyticsService._lock",
              note="shard routing, replication heat, resize/close"),
    LockLevel("serve.transport", 12, "ProcessTransport._lock",
              note="process-shard spawn state, liveness and wire counters"),
    LockLevel("serve.coalescer", 20, "QueryCoalescer._lock",
              note="micro-batch group bookkeeping + arrival condition"),
    LockLevel("serve.cache", 30, "LRUCache._lock",
              note="session LRU / result cache entries and counters"),
    LockLevel("serve.corpus_memo", 32, "CorpusMemo._lock",
              note="raw-corpus compression memo"),
    LockLevel("session", 40, "DeviceSession._lock", reentrant=True,
              note="cached device state; held across batches"),
    LockLevel("corpus", 50, "CompressedCorpus.lock", reentrant=True,
              note="grammar/dictionary/version coherence under mutation"),
    LockLevel("serve.stats", 60, "ServingCore._stats_lock",
              note="serving counters (leaf)"),
    LockLevel("serve.epoch", 62, "ServingCore._epoch_lock",
              note="fingerprint generations (leaf)"),
    LockLevel("serve.version", 64, "ServingCore._version_lock",
              note="per-uid mutation observations (leaf)"),
    LockLevel("serve.network", 66, "ShardedAnalyticsService._network_lock",
              note="placement traffic accounting (leaf)"),
    LockLevel("aio.call", 70, "AsyncServeBackend._call_lock",
              note="sync adapter call serialization (leaf)"),
    LockLevel("replay.cursor", 72, "replay cursor lock",
              note="trace replay claim loop (leaf)"),
)

_BY_NAME: Dict[str, LockLevel] = {entry.name: entry for entry in LEVELS}


def level(name: str) -> LockLevel:
    """The declared level called ``name`` (raises ``KeyError`` if unknown)."""
    return _BY_NAME[name]


def rank_of(name: str) -> int:
    return _BY_NAME[name].rank


# ----------------------------------------------------------------------------------------
# Static-analysis resolution tables
# ----------------------------------------------------------------------------------------
# The lint rule sees attribute expressions, not objects.  These tables
# map what the AST shows to the levels above.

#: ``(class name, attribute name) -> level`` for locks acquired through
#: ``self`` (or a hinted receiver) inside their owning class.
ATTRIBUTE_LEVELS: Dict[Tuple[str, str], str] = {
    ("ShardedAnalyticsService", "_lock"): "serve.router",
    ("ShardedAnalyticsService", "_network_lock"): "serve.network",
    ("ProcessTransport", "_lock"): "serve.transport",
    ("QueryCoalescer", "_lock"): "serve.coalescer",
    ("LRUCache", "_lock"): "serve.cache",
    ("CorpusMemo", "_lock"): "serve.corpus_memo",
    ("DeviceSession", "_lock"): "session",
    ("CompressedCorpus", "lock"): "corpus",
    ("ServingCore", "_stats_lock"): "serve.stats",
    ("ServingCore", "_epoch_lock"): "serve.epoch",
    ("ServingCore", "_version_lock"): "serve.version",
    # Front ends inherit the core's locks.
    ("AnalyticsService", "_stats_lock"): "serve.stats",
    ("AnalyticsService", "_epoch_lock"): "serve.epoch",
    ("AnalyticsService", "_version_lock"): "serve.version",
    ("AsyncAnalyticsService", "_stats_lock"): "serve.stats",
    ("AsyncAnalyticsService", "_epoch_lock"): "serve.epoch",
    ("AsyncAnalyticsService", "_version_lock"): "serve.version",
    ("AsyncServeBackend", "_call_lock"): "aio.call",
}

#: Receiver variable (or attribute) names whose lock attributes resolve
#: without class context: ``session.lock`` / ``corpus.lock`` /
#: ``compressed.lock`` in *any* module mean these levels.
RECEIVER_HINTS: Dict[Tuple[str, str], str] = {
    ("session", "lock"): "session",
    ("corpus", "lock"): "corpus",
    ("compressed", "lock"): "corpus",
    ("cursor_lock", ""): "replay.cursor",
}

#: Receiver variable names the call-summary propagation may resolve to a
#: class: a call ``session.sync_with_corpus()`` is looked up as
#: ``DeviceSession.sync_with_corpus``.  Deliberately narrow — only
#: receivers whose binding is unambiguous across the codebase — so the
#: extracted graph stays free of name-collision false edges.
RECEIVER_CLASSES: Dict[str, str] = {
    "session": "DeviceSession",
    "corpus": "CompressedCorpus",
    "compressed": "CompressedCorpus",
    "_sessions": "LRUCache",
    "_results": "LRUCache",
    "_corpus_memo": "CorpusMemo",
    "_coalescer": "QueryCoalescer",
}

#: Held-before edges that exist at runtime but that the syntactic
#: extractor cannot see (property accesses, callables passed as
#: arguments).  Declared here so the static graph validates the *whole*
#: hierarchy, with the runtime witness confirming them dynamically.
KNOWN_EDGES: Tuple[Tuple[str, str, str], ...] = (
    ("serve.router", "corpus",
     "_route_key_locked reads compressed.uid/fingerprint() under the router lock"),
    ("serve.router", "serve.cache",
     "resize() walks shard.service.session_keys()/drop_session() under the router lock"),
    ("serve.cache", "serve.epoch",
     "put_if evaluates the epoch write-back guard under the cache lock"),
    ("serve.corpus_memo", "corpus",
     "CorpusMemo fingerprints corpora while holding the memo lock"),
    ("serve.router", "serve.transport",
     "stats() reads each process shard's wire counters under the router lock"),
)
