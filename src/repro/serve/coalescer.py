"""Leader/follower query coalescing into micro-batches.

Concurrent queries that can execute against the same device-session
state (same corpus, engine config, sequence length, file subset and
traversal override) should not each pay a separate engine round trip:
one ``run_fused`` serves them all, charging shared initialization and
traversal-state construction once.  This module implements the
batching discipline:

* the first request for a compatibility group becomes the *leader* and
  at once takes up to ``max_batch`` pending requests (its own first)
  and executes them as one micro-batch — there is no waiting window,
  so a lone request never waits for followers that may not come;
* requests that arrive while a batch executes queue behind it as
  *followers*, blocking on their request's completion signal;
* each leader executes exactly one micro-batch.  If requests queued
  while it executed, leadership is handed to the head of the queue,
  which drains them as the next batch right away, so a leader's latency
  is bounded by its own batch and the group is empty when the last
  leader retires — at which point the group record is dropped.

Batches therefore form from the requests that are *already waiting*
when a leader starts, as the paper's batch mode amortizes
initialization over tasks already in hand.

The group/leader bookkeeping itself (:class:`CoalescerCore`) carries no
synchronization, so the same discipline backs two front ends: the
threaded :class:`QueryCoalescer` here (a lock, blocking waits) and the
event-driven :class:`~repro.serve.aio.AsyncQueryCoalescer`
(single-threaded event loop, ``asyncio`` futures).  Neither knows
anything about engines or queries beyond the opaque group key — the
serving layer supplies the execution function.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.lockcheck import make_lock
from repro.api.query import Query

__all__ = ["BatchSlot", "CoalescedRequest", "CoalescerCore", "GroupState", "QueryCoalescer"]


class BatchSlot:
    """One query's slot in a micro-batch: the executor writes the outcome here."""

    __slots__ = ("query", "outcome", "error", "batch_size")

    def __init__(self, query: Query) -> None:
        self.query = query
        self.outcome: Any = None
        self.error: Optional[BaseException] = None
        #: Size of the micro-batch that served this request (1 = alone).
        self.batch_size: int = 0


class CoalescedRequest(BatchSlot):
    """One in-flight query of the threaded coalescer (blocking wait)."""

    __slots__ = ("event", "promoted")

    def __init__(self, query: Query) -> None:
        super().__init__(query)
        self.event = threading.Event()
        #: Set when a retiring leader hands this request's thread the lead.
        self.promoted: bool = False


#: Executes one micro-batch, filling each slot's ``outcome``.
ExecuteFn = Callable[[List[BatchSlot]], None]


class GroupState:
    """Pending requests of one compatibility group plus leader state."""

    __slots__ = ("pending", "leader_active")

    def __init__(self) -> None:
        self.pending: List[BatchSlot] = []
        self.leader_active = False


class CoalescerCore:
    """Group bookkeeping shared by the threaded and asyncio coalescers.

    The core carries **no synchronization**: the caller provides mutual
    exclusion around every method (a lock for threads, event-loop
    single-threadedness for asyncio).  It owns the invariants both
    front ends rely on — one active leader per group, batches sliced
    off the queue head, leadership handed to the queue head on retire,
    empty groups dropped.
    """

    __slots__ = ("max_batch", "groups")

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self.groups: Dict[Any, GroupState] = {}

    def enqueue(self, group_key: Any, request: BatchSlot) -> Tuple[GroupState, bool]:
        """Queue ``request``; returns ``(group, became_leader)``."""
        group = self.groups.get(group_key)
        if group is None:
            group = self.groups[group_key] = GroupState()
        group.pending.append(request)
        became_leader = not group.leader_active
        if became_leader:
            group.leader_active = True
        return group, became_leader

    def take_batch(self, group: GroupState) -> List[BatchSlot]:
        """Slice the next micro-batch off the group's queue head."""
        batch = group.pending[: self.max_batch]
        del group.pending[: self.max_batch]
        for slot in batch:
            slot.batch_size = len(batch)
        return batch

    def finish(self, group_key: Any, group: GroupState) -> Optional[BatchSlot]:
        """Retire the current leader.

        If requests queued meanwhile, the queue head is marked promoted
        and returned so the caller can wake it into the lead; otherwise
        the group is dropped and ``None`` returned.
        """
        if group.pending:
            successor = group.pending[0]
            successor.promoted = True  # type: ignore[attr-defined]
            return successor
        group.leader_active = False
        if self.groups.get(group_key) is group:
            del self.groups[group_key]
        return None


class QueryCoalescer:
    """Thread-based front end: blocking submits, leaders execute at once."""

    def __init__(self, max_batch: int = 16) -> None:
        self._core = CoalescerCore(max_batch)
        self._lock = make_lock("serve.coalescer")

    @property
    def _groups(self) -> Dict[Any, GroupState]:
        """The live group records (exposed for tests/diagnostics)."""
        return self._core.groups

    def submit(self, group_key: Any, request: CoalescedRequest, execute: ExecuteFn) -> None:
        """Run ``request`` through its group's micro-batching, blocking until done.

        Raises whatever the executing micro-batch raised; otherwise
        ``request.outcome`` is filled in on return.
        """
        with self._lock:
            group, became_leader = self._core.enqueue(group_key, request)
        if not became_leader:
            request.event.wait()
        # A leader, or a follower a retiring leader handed the lead to
        # (its own request is still pending), drains the next batch now.
        if became_leader or request.promoted:
            self._lead_one_batch(group_key, group, execute)
        if request.error is not None:
            raise request.error

    def _lead_one_batch(self, group_key: Any, group: GroupState, execute: ExecuteFn) -> None:
        """Execute one micro-batch, then hand off leadership or retire."""
        with self._lock:
            batch = self._core.take_batch(group)
            if not batch:  # pragma: no cover - a leader's own request is pending
                self._core.finish(group_key, group)
                return
        try:
            execute(batch)
        except BaseException as error:  # propagate to every waiter
            for queued in batch:
                queued.error = error
        finally:
            for queued in batch:
                queued.event.set()  # type: ignore[attr-defined]
            with self._lock:
                successor = self._core.finish(group_key, group)
                if successor is not None:
                    successor.event.set()  # type: ignore[attr-defined]
