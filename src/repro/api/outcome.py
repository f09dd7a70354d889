"""The :class:`RunOutcome` of a query plus its normalized perf breakdown.

Engines count work in two different currencies —
:class:`~repro.perf.counters.GpuRunRecord` (per-kernel launches) for the
GPU engines and :class:`~repro.perf.counters.CostCounter` (flat scalar
counters) for the CPU/cluster engines.  :class:`PhasePerf` is the common
denominator: kernel launches (zero for CPU engines), total scalar ops
and memory traffic, reported per TADOC phase (initialization and
traversal).  Backend-specific objects stay reachable through
:attr:`RunOutcome.raw` and :attr:`RunOutcome.details`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.analytics.base import Task, TaskResult
from repro.api.query import Query
from repro.perf.counters import CostCounter, GpuRunRecord

__all__ = ["PhasePerf", "RunPerf", "RunOutcome", "perf_from_records", "perf_from_counters"]


@dataclass(frozen=True)
class PhasePerf:
    """Work one phase performed, in engine-independent units."""

    kernel_launches: int = 0
    ops: float = 0.0
    memory_bytes: float = 0.0
    #: Host <-> device transfer bytes (datasets that do not fit in GPU
    #: memory); zero on CPU engines.
    pcie_bytes: float = 0.0

    def __add__(self, other: "PhasePerf") -> "PhasePerf":
        return PhasePerf(
            kernel_launches=self.kernel_launches + other.kernel_launches,
            ops=self.ops + other.ops,
            memory_bytes=self.memory_bytes + other.memory_bytes,
            pcie_bytes=self.pcie_bytes + other.pcie_bytes,
        )


def perf_from_records(*records: GpuRunRecord) -> PhasePerf:
    """Fold GPU run records into one :class:`PhasePerf`."""
    launches = sum(record.num_launches for record in records)
    ops = sum(record.total_ops for record in records)
    memory = sum(
        sum(kernel.memory_bytes for kernel in record.kernels)
        + record.host_counter.memory_bytes
        for record in records
    )
    pcie = sum(record.pcie_bytes for record in records)
    return PhasePerf(kernel_launches=launches, ops=ops, memory_bytes=memory, pcie_bytes=pcie)


def perf_from_counters(*counters: CostCounter) -> PhasePerf:
    """Fold flat CPU cost counters into one :class:`PhasePerf`."""
    return PhasePerf(
        kernel_launches=0,
        ops=sum(counter.total_ops for counter in counters),
        memory_bytes=sum(counter.memory_bytes for counter in counters),
    )


@dataclass(frozen=True)
class RunPerf:
    """Per-phase work of one query, comparable across all backends."""

    initialization: PhasePerf = field(default_factory=PhasePerf)
    traversal: PhasePerf = field(default_factory=PhasePerf)

    @property
    def total(self) -> PhasePerf:
        return self.initialization + self.traversal

    @property
    def kernel_launches(self) -> int:
        return self.total.kernel_launches

    @property
    def ops(self) -> float:
        return self.total.ops


@dataclass(frozen=True)
class RunOutcome:
    """Everything one :meth:`AnalyticsBackend.run` call produces.

    ``result`` is the canonical, query-shaped task result; ``perf`` the
    normalized phase breakdown.  ``raw`` keeps the engine-specific run
    object (e.g. :class:`~repro.core.engine.GTadocRunResult`) for
    callers that need engine internals, and ``details`` carries small
    engine extras (chosen traversal strategy, memory-pool bytes, ...).

    :attr:`snapshot` is ``result`` as a protocol-5 pickle.  An outcome
    built by :meth:`from_snapshot` without a ``result`` (a serving
    cache hit) decodes ``result`` from those bytes on first access;
    any other outcome pickles ``result`` on the first read of
    ``snapshot``.  Either way each is computed at most once, and the
    process-shard wire ships the snapshot rather than the objects.
    """

    query: Query
    backend: str
    task: Task
    result: TaskResult
    perf: RunPerf = field(default_factory=RunPerf)
    raw: Any = None
    details: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_snapshot(cls, snapshot: bytes, **fields: Any) -> "RunOutcome":
        """An outcome whose result is ``snapshot``, already pickled.

        Without a ``result`` among ``fields``, the result is decoded from
        ``snapshot`` on first access.
        """
        decoded = "result" in fields
        outcome = cls(**{"result": None, **fields})
        if not decoded:
            object.__delattr__(outcome, "result")
        object.__setattr__(outcome, "_snapshot", snapshot)
        return outcome

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes never set: an undecoded result.
        if name != "result" or "_snapshot" not in self.__dict__:
            raise AttributeError(name)
        result = pickle.loads(self._snapshot)
        object.__setattr__(self, "result", result)
        return result

    @property
    def snapshot(self) -> bytes:
        """``result`` as protocol-5 pickle bytes, kept once made or received."""
        snapshot = self.__dict__.get("_snapshot")
        if snapshot is None:
            snapshot = pickle.dumps(self.result, protocol=5)
            object.__setattr__(self, "_snapshot", snapshot)
        return snapshot

    @property
    def kernel_launches(self) -> int:
        """Total kernel launches this query caused (0 on CPU backends)."""
        return self.perf.kernel_launches

    @property
    def ops(self) -> float:
        """Total modelled scalar operations this query caused."""
        return self.perf.ops
