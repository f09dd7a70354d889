"""Simulated GPU device: kernel launch, warp grouping, work recording.

The device executes kernels functionally, so results are exact, and
records their work as :class:`~repro.perf.counters.KernelStats`.  The
SIMT execution model is captured by aggregating per-thread operation
counts into per-warp maxima: a warp is only as fast as its slowest
thread, which is exactly the workload-imbalance effect the paper's
fine-grained scheduler is designed to mitigate (section IV-B).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

import numpy as np

from repro.gpusim.context import ThreadContext
from repro.perf.counters import GpuRunRecord, KernelStats
from repro.perf.specs import GPUSpec

__all__ = ["GPUDevice", "KernelLaunch", "DEFAULT_HISTORY_LIMIT"]

KernelFunction = Callable[[int, ThreadContext], None]

#: Default bound on :attr:`GPUDevice.launch_history`.  A long-lived serving
#: session launches kernels indefinitely; the history is a diagnostic ring
#: buffer, not an accounting structure (that is :class:`GpuRunRecord`), so
#: only the most recent launches are kept.  Pass ``history_limit=None`` for
#: an unbounded history.
DEFAULT_HISTORY_LIMIT = 256


@dataclass
class KernelLaunch:
    """Outcome of one simulated kernel launch."""

    stats: KernelStats

    @property
    def name(self) -> str:
        return self.stats.name


class GPUDevice:
    """A simulated CUDA device.

    The engine's kernels are bulk numpy programs that report per-thread
    work vectors through :meth:`launch_bulk`.  :meth:`launch` calls one
    Python function per simulated thread; it runs the per-thread
    reference kernels, which specify the bulk ones, and the few kernels
    that have no bulk port.  Both record the same
    :class:`KernelStats` for the same work.  :meth:`launch_modelled`
    records closed-form work models of the baselines.

    Parameters
    ----------
    spec:
        Hardware spec used only for the warp size here; pricing happens
        later in :class:`~repro.perf.cost_model.GpuCostModel`, so one
        functional run can be priced under several device models.
    record:
        Optional :class:`GpuRunRecord` that every launch appends to; the
        engine swaps records between phases.
    history_limit:
        Bound on :attr:`launch_history` (``None`` = unbounded).
    """

    def __init__(
        self,
        spec: Optional[GPUSpec] = None,
        record: Optional[GpuRunRecord] = None,
        history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT,
    ) -> None:
        self.spec = spec
        self.warp_size = spec.warp_size if spec is not None else 32
        self.record = record if record is not None else GpuRunRecord()
        self.launch_history: "deque[KernelLaunch]" = deque(maxlen=history_limit)

    # -- record management -----------------------------------------------------------
    def set_record(self, record: GpuRunRecord) -> None:
        """Redirect subsequent launches into ``record`` (phase switching)."""
        self.record = record

    # -- kernel launch ------------------------------------------------------------------
    def launch(
        self,
        name: str,
        kernel: KernelFunction,
        num_threads: int,
        memory_bytes_per_thread: float = 0.0,
    ) -> KernelLaunch:
        """Execute ``kernel`` for thread ids ``0 .. num_threads-1``.

        ``memory_bytes_per_thread`` charges a flat per-thread global
        memory cost (parameter loads) in addition to whatever the kernel
        itself charges through its context.
        """
        if num_threads <= 0:
            raise ValueError("a kernel launch needs at least one thread")
        conflict_tracker: Dict[Hashable, int] = {}
        warp_serial_ops = 0.0
        total_thread_ops = 0.0
        memory_bytes = 0.0
        shared_bytes = 0.0
        atomic_ops = 0.0
        warp_max = 0.0
        for tid in range(num_threads):
            ctx = ThreadContext(tid, conflict_tracker)
            if memory_bytes_per_thread:
                ctx.charge(memory_bytes=memory_bytes_per_thread)
            kernel(tid, ctx)
            total_thread_ops += ctx.ops
            memory_bytes += ctx.memory_bytes
            shared_bytes += ctx.shared_bytes
            atomic_ops += ctx.atomic_ops
            if ctx.ops > warp_max:
                warp_max = ctx.ops
            if (tid + 1) % self.warp_size == 0:
                warp_serial_ops += warp_max
                warp_max = 0.0
        if num_threads % self.warp_size != 0:
            warp_serial_ops += warp_max
        num_warps = (num_threads + self.warp_size - 1) // self.warp_size
        atomic_conflicts = float(
            sum(count - 1 for count in conflict_tracker.values() if count > 1)
        )
        stats = KernelStats(
            name=name,
            num_threads=num_threads,
            num_warps=num_warps,
            warp_serial_ops=warp_serial_ops,
            total_thread_ops=total_thread_ops,
            memory_bytes=memory_bytes,
            shared_memory_bytes=shared_bytes,
            atomic_ops=atomic_ops,
            atomic_conflicts=atomic_conflicts,
        )
        self.record.add_kernel(stats)
        launch = KernelLaunch(stats=stats)
        self.launch_history.append(launch)
        return launch

    def launch_bulk(
        self,
        name: str,
        num_threads: int,
        thread_ops: Optional[np.ndarray] = None,
        thread_memory_bytes: Optional[np.ndarray] = None,
        thread_shared_bytes: Optional[np.ndarray] = None,
        thread_atomic_ops: Optional[np.ndarray] = None,
        atomic_conflicts: float = 0.0,
        memory_bytes_per_thread: float = 0.0,
    ) -> KernelLaunch:
        """Record a kernel launch from per-thread work vectors (bulk kernels).

        The vectorized kernel implementations compute their results with
        numpy array operations and report per-thread work as float64
        vectors of length ``num_threads``.  This method aggregates them
        into the exact :class:`KernelStats` the per-thread :meth:`launch`
        loop would produce: per-warp serial ops are the per-warp maxima
        of ``thread_ops`` (pad to a warp multiple, reshape into warp
        blocks, max, sum), totals are plain sums.  All charged quantities
        are integer-valued floats, so numpy summation is exact and
        order-independent — the stats match the per-thread loop bit for bit.
        """
        if num_threads <= 0:
            raise ValueError("a kernel launch needs at least one thread")
        ops = self._as_thread_vector(thread_ops, num_threads)
        memory = self._as_thread_vector(thread_memory_bytes, num_threads)
        shared = self._as_thread_vector(thread_shared_bytes, num_threads)
        atomics = self._as_thread_vector(thread_atomic_ops, num_threads)
        pad = (-num_threads) % self.warp_size
        if pad:
            padded = np.concatenate([ops, np.zeros(pad, dtype=np.float64)])
        else:
            padded = ops
        warp_serial_ops = float(padded.reshape(-1, self.warp_size).max(axis=1).sum())
        memory_total = float(memory.sum())
        if memory_bytes_per_thread:
            memory_total += float(memory_bytes_per_thread) * num_threads
        stats = KernelStats(
            name=name,
            num_threads=num_threads,
            num_warps=(num_threads + self.warp_size - 1) // self.warp_size,
            warp_serial_ops=warp_serial_ops,
            total_thread_ops=float(ops.sum()),
            memory_bytes=memory_total,
            shared_memory_bytes=float(shared.sum()),
            atomic_ops=float(atomics.sum()),
            atomic_conflicts=float(atomic_conflicts),
        )
        self.record.add_kernel(stats)
        launch = KernelLaunch(stats=stats)
        self.launch_history.append(launch)
        return launch

    def launch_modelled(
        self,
        name: str,
        num_threads: int,
        *,
        warp_serial_ops: float,
        total_thread_ops: float,
        memory_bytes: float = 0.0,
        shared_memory_bytes: float = 0.0,
        atomic_ops: float = 0.0,
        atomic_conflicts: float = 0.0,
    ) -> KernelLaunch:
        """Record an analytically-modelled kernel launch.

        Baselines that price work from closed-form volume models (the
        uncompressed GPU comparator derives ops from token counts rather
        than executing per-thread kernels) still must go through the
        device so the launch lands in :attr:`record` and
        :attr:`launch_history` like every simulated kernel.  The caller
        supplies the aggregate counters directly; the device only derives
        the warp count and does the recording.
        """
        if num_threads <= 0:
            raise ValueError("a kernel launch needs at least one thread")
        stats = KernelStats(
            name=name,
            num_threads=num_threads,
            num_warps=(num_threads + self.warp_size - 1) // self.warp_size,
            warp_serial_ops=float(warp_serial_ops),
            total_thread_ops=float(total_thread_ops),
            memory_bytes=float(memory_bytes),
            shared_memory_bytes=float(shared_memory_bytes),
            atomic_ops=float(atomic_ops),
            atomic_conflicts=float(atomic_conflicts),
        )
        self.record.add_kernel(stats)
        launch = KernelLaunch(stats=stats)
        self.launch_history.append(launch)
        return launch

    @staticmethod
    def _as_thread_vector(vector: Optional[np.ndarray], num_threads: int) -> np.ndarray:
        if vector is None:
            return np.zeros(num_threads, dtype=np.float64)
        out = np.asarray(vector, dtype=np.float64)
        if out.shape != (num_threads,):
            raise ValueError(
                f"per-thread vector has shape {out.shape}, expected ({num_threads},)"
            )
        return out

    # -- host <-> device transfers ----------------------------------------------------------
    def transfer_to_device(self, num_bytes: float) -> None:
        """Charge a host-to-device (PCIe) transfer to the current record."""
        self.record.pcie_bytes += float(num_bytes)

    def transfer_to_host(self, num_bytes: float) -> None:
        """Charge a device-to-host (PCIe) transfer to the current record."""
        self.record.pcie_bytes += float(num_bytes)
