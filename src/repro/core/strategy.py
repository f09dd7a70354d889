"""Adaptive traversal-strategy selection (paper §IV-B, inherited from TADOC).

The optimal traversal direction depends on both the data and the task
(section VI-C gives term vector as the example: top-down wins on the
4-file dataset B, bottom-up wins on the many-file dataset A).  The
selector estimates the dominant cost term of each direction from the
DAG statistics and picks the cheaper one; the engine also accepts an
explicit override so benchmarks can force either direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

from repro.analytics.base import Task
from repro.core.layout import DeviceRuleLayout

__all__ = ["TraversalStrategy", "StrategyDecision", "TraversalStrategySelector"]


class TraversalStrategy(str, Enum):
    """Traversal direction for the DAG traversal phase."""

    TOP_DOWN = "top_down"
    BOTTOM_UP = "bottom_up"


@dataclass(frozen=True)
class StrategyDecision:
    """The selector's decision plus the cost estimates that produced it."""

    strategy: TraversalStrategy
    estimated_costs: Dict[str, float]
    reason: str


class TraversalStrategySelector:
    """Pick a traversal direction from the DAG shape and the task."""

    def __init__(self, layout: DeviceRuleLayout) -> None:
        self.layout = layout

    # -- cost estimates ----------------------------------------------------------------
    def _edges(self) -> float:
        return float(len(self.layout.sr_child))

    def _local_word_entries(self) -> float:
        return float(len(self.layout.lw_keys))

    def _estimate_top_down(self, task: Task) -> float:
        """Top-down cost: weight propagation over edges plus the reduce."""
        edges = self._edges()
        entries = self._local_word_entries()
        if task.is_file_sensitive:
            # File information travels with every propagated weight; its
            # volume grows with the number of files that actually reach a
            # rule, approximated here by the file count.
            file_factor = max(1.0, float(self.layout.num_files) * 0.5)
            return edges * file_factor + entries * file_factor
        return edges + entries

    def _estimate_bottom_up(self, task: Task) -> float:
        """Bottom-up cost: building subtree-complete local tables."""
        entries = self._local_word_entries()
        edges = self._edges()
        # Merging children tables repeatedly is the dominant term; local
        # tables are bounded by the vocabulary.
        table_factor = min(
            float(self.layout.vocabulary_size),
            max(1.0, entries / max(1.0, float(self.layout.num_rules))) * 4.0,
        )
        cost = edges * table_factor + entries
        if task.is_file_sensitive:
            # The per-file reduce touches the root's per-file sub-rule lists.
            cost += float(len(self.layout.rc_child)) * table_factor * 0.1
        return cost

    # -- public API ------------------------------------------------------------------------
    def select(self, task: Task) -> StrategyDecision:
        """Choose the traversal strategy for ``task`` on this layout."""
        if task is Task.RELATIONAL:
            # Relational parse states compose leaves-first (a monoid over
            # rule bodies) and are memoized per schema on the session, so
            # only the bottom-up direction exists for this plan.
            return StrategyDecision(
                strategy=TraversalStrategy.BOTTOM_UP,
                estimated_costs={},
                reason="relational parse states are built bottom-up and memoized per schema",
            )
        if task is Task.SEQUENCE_COUNT:
            # Sequence counting has its own head/tail pipeline; the DAG scan
            # it needs (rule weights) is a top-down pass.
            return StrategyDecision(
                strategy=TraversalStrategy.TOP_DOWN,
                estimated_costs={},
                reason="sequence support uses the head/tail pipeline with a top-down weight pass",
            )
        top_down = self._estimate_top_down(task)
        bottom_up = self._estimate_bottom_up(task)
        if top_down <= bottom_up:
            strategy = TraversalStrategy.TOP_DOWN
            reason = "estimated top-down cost is lower"
        else:
            strategy = TraversalStrategy.BOTTOM_UP
            reason = "estimated bottom-up cost is lower"
        return StrategyDecision(
            strategy=strategy,
            estimated_costs={"top_down": top_down, "bottom_up": bottom_up},
            reason=reason,
        )
