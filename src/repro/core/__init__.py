"""G-TADOC core: the paper's primary contribution.

The sub-modules map onto the paper's sections:

* :mod:`repro.core.layout` — device data-structure layout (Figure 3's
  initialization inputs),
* :mod:`repro.core.scheduler` — fine-grained thread-level workload
  scheduling, plus the abandoned vertical partitioning for ablations
  (Figure 4),
* :mod:`repro.core.traversal` — top-down and bottom-up traversal
  kernels (Algorithms 1 and 2), one Python call per simulated thread:
  the reference the bulk kernels are checked against,
* :mod:`repro.core.sequence` — head/tail buffers and sequence counting
  (Figures 6-8); the counting kernels are likewise the reference,
* :mod:`repro.core.vectorized` — the bulk (numpy) ports of those
  kernels, which are what the engine runs,
* :mod:`repro.core.strategy` — the adaptive traversal-strategy selector,
* :mod:`repro.core.tuning` — greedy parameter selection,
* :mod:`repro.core.session` — the long-lived :class:`DeviceSession`
  caching shared device state across queries,
* :mod:`repro.core.plans` — each task's result family, and the task
  program (required session state + one traversal pass per family),
* :mod:`repro.core.engine` — the :class:`GTadoc` facade tying it all
  together: one executor behind single runs, amortized batches and
  fused batches.
"""

from repro.core.engine import GTadoc, GTadocBatchResult, GTadocConfig, GTadocRunResult
from repro.core.layout import DeviceRuleLayout
from repro.core.session import DeviceSession, StateKey, sequence_buffers_key
from repro.core.scheduler import (
    FineGrainedScheduler,
    ThreadAssignment,
    VerticalPartitioningScheduler,
)
from repro.core.sequence import SequenceBuffers, build_sequence_buffers, sequence_counts
from repro.core.strategy import StrategyDecision, TraversalStrategy, TraversalStrategySelector
from repro.core.tuning import GreedyParameterTuner, TuningResult

__all__ = [
    "GTadoc",
    "GTadocConfig",
    "GTadocRunResult",
    "GTadocBatchResult",
    "DeviceSession",
    "StateKey",
    "sequence_buffers_key",
    "DeviceRuleLayout",
    "FineGrainedScheduler",
    "ThreadAssignment",
    "VerticalPartitioningScheduler",
    "SequenceBuffers",
    "build_sequence_buffers",
    "sequence_counts",
    "TraversalStrategy",
    "TraversalStrategySelector",
    "StrategyDecision",
    "GreedyParameterTuner",
    "TuningResult",
]
