"""Thread-safe bounded LRU caches with serving statistics.

The serving layer keeps two caches: a small LRU of
:class:`~repro.core.session.DeviceSession` entries (device state is the
expensive thing G-TADOC builds, so a bounded number of corpus/config
combinations stay resident) and a larger LRU of query results.  Both
need the same machinery — bounded capacity, recency ordering, hit/miss/
eviction/invalidation counters, safe concurrent access — which lives
here.

Beyond the entry-count bound, a cache may carry a **byte budget**
(``max_weight_bytes``): every entry is inserted with a weight (the
result cache weighs an entry by the length of its pickled result
snapshot) and the least recently used entries are evicted until the
total weight fits the budget.  An entry heavier than the whole budget
is never retained.  The budget surfaces in :class:`CacheStats`
(``weight_bytes``, ``weight_capacity``).  Stale entries leave when a
corpus epoch retires them (:meth:`LRUCache.expire_where`, counted as
*expirations*).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.analysis.lockcheck import make_lock

__all__ = ["CacheStats", "LRUCache"]


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    capacity: int
    size: int
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Entries dropped because a newer corpus epoch retired them.
    expirations: int = 0
    #: Sum of resident entry weights (equals ``size`` for unweighted caches).
    weight_bytes: int = 0
    #: The byte budget (``None`` = entry-count bound only).
    weight_capacity: Optional[int] = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when the cache has not been consulted)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class _Entry:
    """One cached value plus its weight."""

    __slots__ = ("value", "weight")

    def __init__(self, value: Any, weight: int) -> None:
        self.value = value
        self.weight = weight


class LRUCache:
    """A bounded, thread-safe LRU mapping with hit/miss/eviction counters.

    ``get`` and ``get_or_create`` count hits and misses; inserting past
    ``capacity`` (or past the optional ``max_weight_bytes`` budget)
    evicts least recently used entries (counted as evictions);
    ``remove_where`` drops matching entries (counted as invalidations)
    and ``expire_where`` likewise (counted as expirations).  All
    operations hold one internal lock, so the cache may be shared freely
    between worker threads.
    """

    def __init__(
        self,
        capacity: int,
        *,
        max_weight_bytes: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if max_weight_bytes is not None and max_weight_bytes < 1:
            raise ValueError("byte budget must be >= 1")
        self.capacity = int(capacity)
        self._max_weight_bytes = max_weight_bytes
        self._entries: "OrderedDict[Any, _Entry]" = OrderedDict()
        self._weight = 0
        self._lock = make_lock("serve.cache")
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._expirations = 0

    # -- lookups -----------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """The cached value (marking it most recent), or ``default`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.value

    def get_or_create(self, key: Any, factory: Callable[[], Any]) -> Tuple[Any, bool]:
        """The cached value for ``key``, building it on a miss.

        Returns ``(value, created)``.  The factory runs under the cache
        lock, so concurrent callers never build the same entry twice.
        Created entries carry unit weight (the session cache is bounded
        by entry count only).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry.value, False
            self._misses += 1
            value = factory()
            self._entries[key] = _Entry(value, 1)
            self._weight += 1
            self._evict_overflow()
            return value, True

    def put(self, key: Any, value: Any, weight: int = 1) -> None:
        """Insert (or refresh) an entry without touching hit/miss counters."""
        self.put_if(key, value, weight=weight)

    def put_if(
        self,
        key: Any,
        value: Any,
        guard: Optional[Callable[[], bool]] = None,
        weight: int = 1,
    ) -> bool:
        """Insert unless ``guard`` (evaluated under the cache lock) refuses.

        The guard runs inside the same critical section as the insert,
        so relative to a concurrent ``remove_where`` there is no window
        for a stale write-back: either the insert lands first and the
        remover sees it, or the guard sees whatever state the remover's
        caller published before removing.  Returns whether the value was
        inserted.  An entry heavier than the whole byte budget is
        rejected up front — it could never be retained, and evicting
        residents to make room for it would only flush the cache.
        """
        with self._lock:
            if guard is not None and not guard():
                return False
            if self._max_weight_bytes is not None and weight > self._max_weight_bytes:
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._weight -= old.weight
            self._entries[key] = _Entry(value, max(0, int(weight)))
            self._weight += max(0, int(weight))
            self._evict_overflow()
            return True

    # -- bounds ------------------------------------------------------------------------
    def _drop(self, key: Any, entry: _Entry) -> None:
        del self._entries[key]
        self._weight -= entry.weight

    def _evict_overflow(self) -> None:
        while len(self._entries) > self.capacity:
            _key, entry = self._entries.popitem(last=False)
            self._weight -= entry.weight
            self._evictions += 1
        if self._max_weight_bytes is None:
            return
        while self._weight > self._max_weight_bytes and self._entries:
            _key, entry = self._entries.popitem(last=False)
            self._weight -= entry.weight
            self._evictions += 1

    # -- invalidation ------------------------------------------------------------------
    def discard(
        self,
        key: Any,
        when: Optional[Callable[[Any], bool]] = None,
        *,
        count_invalidation: bool = True,
    ) -> bool:
        """Remove ``key``'s entry, optionally only when its *value* matches.

        ``when`` is evaluated under the cache lock, so callers can make
        identity-precise removals ("drop this entry only if it is still
        the object I saw") without racing concurrent replacements.
        Returns whether an entry was removed (counted as an
        invalidation unless ``count_invalidation`` is false — removals
        that are rebalancing rather than staleness, e.g. a shard resize
        moving a session, must not read as data-invalidation events in
        :class:`CacheStats`).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if when is not None and not when(entry.value):
                return False
            self._drop(key, entry)
            if count_invalidation:
                self._invalidations += 1
            return True

    def remove_where(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry whose *key* matches; returns how many were dropped."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                self._drop(key, self._entries[key])
            self._invalidations += len(doomed)
            return len(doomed)

    def expire_where(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry whose *key* matches, counted as expirations.

        The epoch-based lazy-staleness path uses this instead of
        :meth:`remove_where`: an entry outlived by a newer corpus epoch
        expired — nobody invalidated it and capacity did not evict it —
        and :class:`CacheStats` must attribute it accordingly.
        """
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                self._drop(key, self._entries[key])
            self._expirations += len(doomed)
            return len(doomed)

    def rekey(
        self, old_key: Any, new_key: Any, when: Optional[Callable[[Any], bool]] = None
    ) -> Any:
        """Move an entry to a new key without touching any counter.

        Used when an entry's identity legitimately changes under it (a
        corpus advancing an epoch changes its fingerprint) and the
        resident value — warm device state — should follow rather than
        be rebuilt.  ``when`` (evaluated under the lock, on the value)
        can make the move identity-precise.  The moved entry keeps its
        weight and becomes the most recently used: its one caller rekeys
        the session the current query is about to use.  An existing
        entry at ``new_key`` is replaced.  Returns the moved value, or
        ``None`` if nothing matched.
        """
        with self._lock:
            entry = self._entries.get(old_key)
            if entry is None or (when is not None and not when(entry.value)):
                return None
            del self._entries[old_key]
            displaced = self._entries.pop(new_key, None)
            if displaced is not None:
                self._weight -= displaced.weight
            self._entries[new_key] = entry
            return entry.value

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        return self.remove_where(lambda key: True)

    # -- introspection ------------------------------------------------------------------
    def __contains__(self, key: Any) -> bool:
        """Whether an entry exists, without touching any counter or the
        recency order — a pure peek for callers deciding whether a
        write-back is still needed."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[Any]:
        """Current keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> CacheStats:
        """Current counters."""
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                size=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                expirations=self._expirations,
                weight_bytes=self._weight,
                weight_capacity=self._max_weight_bytes,
            )
