"""Fine-grained thread-level workload scheduling (paper section IV-B).

The paper explores two partitioning designs (Figure 4):

* **vertical partitioning** — split the DAG from the root and give each
  thread a vertical slice; rules reachable from several slices are
  scanned repeatedly, which wastes work (Figure 4(a)); and
* **fine-grained thread-level scheduling** — one thread per rule, with
  a *group* of threads for oversized rules (by default a rule gets
  extra threads when it holds more than 16x the average number of
  elements per thread), and a mask per rule to encode readiness
  (Figure 4(b)).  This is the design G-TADOC adopts.

This module implements both: the fine-grained scheduler drives the real
engine, and the vertical scheduler exists for the ablation benchmark
that shows why it was abandoned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.compression.grammar import is_rule_ref, rule_ref_id
from repro.core.layout import DeviceRuleLayout

__all__ = ["ThreadAssignment", "FineGrainedScheduler", "VerticalPartitioningScheduler"]

#: Paper default: a rule gets extra threads once it exceeds 16x the
#: average number of elements per thread.
DEFAULT_OVERSIZE_THRESHOLD = 16.0


@dataclass(frozen=True)
class ThreadAssignment:
    """One simulated GPU thread's share of a rule body."""

    thread_id: int
    rule_id: int
    #: Half-open slice of the rule body this thread scans.
    start: int
    end: int
    #: Number of threads cooperating on the same rule.
    group_size: int

    @property
    def span(self) -> int:
        return self.end - self.start


class FineGrainedScheduler:
    """Assign one thread per rule, and thread groups to oversized rules."""

    def __init__(
        self,
        layout: DeviceRuleLayout,
        oversize_threshold: float = DEFAULT_OVERSIZE_THRESHOLD,
        max_group_size: int = 256,
    ) -> None:
        if oversize_threshold <= 0:
            raise ValueError("oversize_threshold must be positive")
        if max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        self.layout = layout
        self.oversize_threshold = oversize_threshold
        self.max_group_size = max_group_size
        # Group sizes are a pure function of the (immutable) layout and
        # the two thresholds; computed once, reused by every launch.
        self._group_sizes: List[int] = []

    # -- group sizing -------------------------------------------------------------------
    def group_sizes(self) -> List[int]:
        """Threads allocated to each rule, indexed by rule id."""
        if not self._group_sizes:
            limit = self.oversize_threshold * max(1.0, self.layout.average_rule_length)
            sizes = []
            for length in self.layout.rule_lengths.tolist():
                if length <= limit:
                    sizes.append(1)
                else:
                    sizes.append(min(int(length // limit) + 1, self.max_group_size))
            self._group_sizes = sizes
        return self._group_sizes

    def group_size_for(self, rule_id: int) -> int:
        """Number of threads allocated to ``rule_id``."""
        return self.group_sizes()[rule_id]

    def thread_assignments(self, rule_ids: Sequence[int]) -> List[ThreadAssignment]:
        """Build the flat thread -> (rule, slice) mapping for a kernel launch."""
        assignments: List[ThreadAssignment] = []
        thread_id = 0
        for rule_id in rule_ids:
            length = int(self.layout.rule_lengths[rule_id])
            group = self.group_size_for(rule_id)
            if group == 1 or length == 0:
                assignments.append(
                    ThreadAssignment(thread_id, rule_id, 0, length, group_size=1)
                )
                thread_id += 1
                continue
            base = length // group
            remainder = length % group
            cursor = 0
            for lane in range(group):
                span = base + (1 if lane < remainder else 0)
                assignments.append(
                    ThreadAssignment(thread_id, rule_id, cursor, cursor + span, group_size=group)
                )
                cursor += span
                thread_id += 1
        return assignments

    def total_threads(self, rule_ids: Sequence[int]) -> int:
        return sum(self.group_size_for(rule_id) for rule_id in rule_ids)

    def partition_items(
        self, rule_ids: Sequence[int], items_per_rule: Sequence[int]
    ) -> List[ThreadAssignment]:
        """Partition arbitrary per-rule work items across each rule's thread group.

        ``items_per_rule[i]`` is the number of work items rule
        ``rule_ids[i]`` has for this kernel (body symbols, local-table
        entries, root elements, ...).  The rule's thread-group size is
        still decided by its body length, as in the paper; the items are
        then split evenly across the group.
        """
        if len(rule_ids) != len(items_per_rule):
            raise ValueError("rule_ids and items_per_rule must have the same length")
        assignments: List[ThreadAssignment] = []
        thread_id = 0
        for rule_id, item_count in zip(rule_ids, items_per_rule):
            group = self.group_size_for(rule_id)
            if group == 1 or item_count <= 1:
                assignments.append(
                    ThreadAssignment(thread_id, rule_id, 0, item_count, group_size=1)
                )
                thread_id += 1
                continue
            group = min(group, item_count)
            base = item_count // group
            remainder = item_count % group
            cursor = 0
            for lane in range(group):
                span = base + (1 if lane < remainder else 0)
                assignments.append(
                    ThreadAssignment(
                        thread_id, rule_id, cursor, cursor + span, group_size=group
                    )
                )
                cursor += span
                thread_id += 1
        return assignments

    def summary(self) -> Dict[str, float]:
        """Scheduling statistics (used by reports and tests)."""
        groups = self.group_sizes()[: self.layout.num_rules]
        return {
            "rules": float(self.layout.num_rules),
            "threads": float(sum(groups)),
            "grouped_rules": float(sum(1 for group in groups if group > 1)),
            "max_group_size": float(max(groups) if groups else 0),
            "average_rule_length": self.layout.average_rule_length,
        }


class VerticalPartitioningScheduler:
    """The abandoned design of Figure 4(a), kept for the ablation study.

    The DAG is split vertically from the root: each thread owns a
    contiguous slice of root elements and traverses everything reachable
    from it.  Rules reachable from several slices are scanned once *per
    slice*, so the scheduler reports how much redundant work that
    causes.
    """

    def __init__(self, layout: DeviceRuleLayout, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.layout = layout
        self.num_partitions = num_partitions
        #: The root elements: the root body's symbols inside file segments,
        #: which leaves out exactly the splitters.
        root = layout.root_symbols
        self.elements = [symbol for start, end in layout.root_segments for symbol in root[start:end]]

    def partition_root(self) -> List[List[int]]:
        """Split root element indices into ``num_partitions`` contiguous slices."""
        elements = self.elements
        if not elements:
            return [[] for _ in range(self.num_partitions)]
        per_partition = max(1, (len(elements) + self.num_partitions - 1) // self.num_partitions)
        partitions: List[List[int]] = []
        for start in range(0, len(elements), per_partition):
            partitions.append(list(range(start, min(start + per_partition, len(elements)))))
        while len(partitions) < self.num_partitions:
            partitions.append([])
        return partitions

    def reachable_rules(self, element_positions: Sequence[int]) -> List[int]:
        """Rules reachable from the given root elements (repetition collapsed)."""
        elements = self.elements
        seen = set()
        stack = [rule_ref_id(elements[i]) for i in element_positions if is_rule_ref(elements[i])]
        while stack:
            rule_id = stack.pop()
            if rule_id in seen:
                continue
            seen.add(rule_id)
            for child, _count in self.layout.subrules(rule_id):
                if child not in seen:
                    stack.append(child)
        return sorted(seen)

    def redundancy_factor(self) -> float:
        """How many times the average rule is scanned across partitions."""
        partitions = self.partition_root()
        total_scans = 0
        distinct: set = set()
        for partition in partitions:
            reachable = self.reachable_rules(partition)
            total_scans += len(reachable)
            distinct.update(reachable)
        if not distinct:
            return 1.0
        return total_scans / len(distinct)
