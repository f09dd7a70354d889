"""Work counters shared by every engine.

Engines do not time themselves; they *count* the work they perform.
Two counter families exist:

* :class:`CostCounter` — a flat counter used by the CPU-side engines
  (sequential TADOC, coarse-grained parallel TADOC, cluster TADOC) and
  by host-side control code of G-TADOC.
* :class:`KernelStats` — per-kernel-launch counters produced by the GPU
  simulator; a GPU run is a :class:`GpuRunRecord`, i.e. an ordered list
  of kernel launches plus host-side overhead.

:class:`PhaseTiming` carries the modelled seconds of the two TADOC
phases (initialization and DAG traversal) once a cost model has priced
the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

__all__ = ["CostCounter", "KernelStats", "GpuRunRecord", "PhaseTiming"]


@dataclass(slots=True)
class CostCounter:
    """Abstract work performed by a (CPU-side) computation."""

    compute_ops: float = 0.0
    memory_bytes: float = 0.0
    branch_ops: float = 0.0
    hash_ops: float = 0.0
    network_bytes: float = 0.0
    network_messages: float = 0.0

    # -- mutation helpers -------------------------------------------------------
    def charge(
        self,
        compute_ops: float = 0.0,
        memory_bytes: float = 0.0,
        branch_ops: float = 0.0,
        hash_ops: float = 0.0,
    ) -> None:
        """Add work to the counter (the common inner-loop call)."""
        self.compute_ops += compute_ops
        self.memory_bytes += memory_bytes
        self.branch_ops += branch_ops
        self.hash_ops += hash_ops

    def charge_network(self, bytes_sent: float, messages: float = 1.0) -> None:
        self.network_bytes += bytes_sent
        self.network_messages += messages

    def merge(self, other: "CostCounter") -> None:
        """Accumulate another counter into this one."""
        self.compute_ops += other.compute_ops
        self.memory_bytes += other.memory_bytes
        self.branch_ops += other.branch_ops
        self.hash_ops += other.hash_ops
        self.network_bytes += other.network_bytes
        self.network_messages += other.network_messages

    def scaled(self, factor: float) -> "CostCounter":
        """Return a copy with every field multiplied by ``factor``."""
        return CostCounter(
            compute_ops=self.compute_ops * factor,
            memory_bytes=self.memory_bytes * factor,
            branch_ops=self.branch_ops * factor,
            hash_ops=self.hash_ops * factor,
            network_bytes=self.network_bytes * factor,
            network_messages=self.network_messages * factor,
        )

    def copy(self) -> "CostCounter":
        return replace(self)

    @property
    def total_ops(self) -> float:
        """All scalar operations (compute + branches + hashing)."""
        return self.compute_ops + self.branch_ops + self.hash_ops

    def __add__(self, other: "CostCounter") -> "CostCounter":
        result = self.copy()
        result.merge(other)
        return result


@dataclass(slots=True)
class KernelStats:
    """Work performed by one simulated GPU kernel launch."""

    name: str
    num_threads: int = 0
    num_warps: int = 0
    #: Sum over warps of the *maximum* per-thread operation count — the
    #: SIMT lock-step execution cost (divergence shows up here).
    warp_serial_ops: float = 0.0
    #: Sum of per-thread operation counts (useful for divergence ratios).
    total_thread_ops: float = 0.0
    memory_bytes: float = 0.0
    shared_memory_bytes: float = 0.0
    atomic_ops: float = 0.0
    #: Extra serialised atomic operations caused by address conflicts.
    atomic_conflicts: float = 0.0

    @property
    def divergence_ratio(self) -> float:
        """warp-serial work / ideal work; 1.0 means perfectly balanced warps."""
        ideal = self.total_thread_ops / 32.0 if self.total_thread_ops else 0.0
        if ideal == 0.0:
            return 1.0
        return self.warp_serial_ops / ideal if self.warp_serial_ops else 1.0

    def scaled(self, factor: float) -> "KernelStats":
        """Scale the data-dependent fields (thread/warp counts included)."""
        return KernelStats(
            name=self.name,
            num_threads=int(self.num_threads * factor),
            num_warps=max(1, int(self.num_warps * factor)),
            warp_serial_ops=self.warp_serial_ops * factor,
            total_thread_ops=self.total_thread_ops * factor,
            memory_bytes=self.memory_bytes * factor,
            shared_memory_bytes=self.shared_memory_bytes * factor,
            atomic_ops=self.atomic_ops * factor,
            atomic_conflicts=self.atomic_conflicts * factor,
        )


@dataclass(slots=True)
class GpuRunRecord:
    """All kernel launches of one G-TADOC phase plus host-side control work."""

    kernels: List[KernelStats] = field(default_factory=list)
    host_counter: CostCounter = field(default_factory=CostCounter)
    #: Host <-> device transfers (PCIe), charged only when the dataset does
    #: not fit in GPU memory (see section VI-A "Methodology").
    pcie_bytes: float = 0.0

    def add_kernel(self, stats: KernelStats) -> None:
        self.kernels.append(stats)

    def merge(self, other: "GpuRunRecord") -> None:
        self.kernels.extend(other.kernels)
        self.host_counter.merge(other.host_counter)
        self.pcie_bytes += other.pcie_bytes

    @property
    def num_launches(self) -> int:
        return len(self.kernels)

    @property
    def total_ops(self) -> float:
        """All simulated scalar ops: kernel thread ops plus host control."""
        return (
            sum(kernel.total_thread_ops for kernel in self.kernels)
            + self.host_counter.total_ops
        )

    @property
    def total_atomic_conflicts(self) -> float:
        return sum(kernel.atomic_conflicts for kernel in self.kernels)

    @property
    def total_warp_serial_ops(self) -> float:
        return sum(kernel.warp_serial_ops for kernel in self.kernels)


@dataclass(slots=True)
class PhaseTiming:
    """Modelled seconds of the two TADOC execution phases."""

    initialization: float = 0.0
    traversal: float = 0.0

    @property
    def total(self) -> float:
        return self.initialization + self.traversal

    def speedup_over(self, baseline: "PhaseTiming") -> Dict[str, float]:
        """Per-phase and total speedups of ``self`` relative to ``baseline``."""

        def ratio(base: float, ours: float) -> float:
            if ours <= 0.0:
                return float("inf") if base > 0.0 else 1.0
            return base / ours

        return {
            "initialization": ratio(baseline.initialization, self.initialization),
            "traversal": ratio(baseline.traversal, self.traversal),
            "total": ratio(baseline.total, self.total),
        }
