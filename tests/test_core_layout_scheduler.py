"""Tests for the device layout, the fine-grained scheduler and the strategy selector."""

from __future__ import annotations

import pytest

from repro.analytics.base import Task
from repro.compression.grammar import is_rule_ref
from repro.core.layout import DeviceRuleLayout
from repro.core.scheduler import (
    FineGrainedScheduler,
    VerticalPartitioningScheduler,
)
from repro.core.strategy import TraversalStrategy, TraversalStrategySelector


@pytest.fixture(scope="module")
def layout(few_files_compressed) -> DeviceRuleLayout:
    return DeviceRuleLayout.from_compressed(few_files_compressed)


@pytest.fixture(scope="module")
def many_files_layout(many_files_compressed) -> DeviceRuleLayout:
    return DeviceRuleLayout.from_compressed(many_files_compressed)


class TestLayout:
    def test_shapes_match_grammar(self, layout, few_files_compressed):
        grammar = few_files_compressed.grammar
        assert layout.num_rules == len(grammar)
        assert layout.rule_lengths.tolist() == [len(rule) for rule in grammar]
        assert layout.num_files == len(few_files_compressed.file_names)

    def test_local_words_exclude_splitters(self, many_files_layout, many_files_compressed):
        for word_id in many_files_layout.lw_keys.tolist():
            assert not many_files_compressed.is_splitter(word_id)

    def test_local_word_totals_equal_corpus_tokens(self, layout, few_files_compressed):
        total = 0
        for rule_id in range(layout.num_rules):
            weight = int(layout.rule_weights[rule_id])
            total += weight * sum(count for _word, count in layout.local_words(rule_id))
        assert total == few_files_compressed.original_tokens

    def test_num_in_edges_exclude_root(self, layout):
        # A rule referenced only by the root must have zero in-edges.
        root_children = {child for child, _count in layout.subrules(0)}
        only_root = [
            rule_id
            for rule_id in range(1, layout.num_rules)
            if layout.parents(rule_id) == [0]
        ]
        for rule_id in only_root:
            assert rule_id in root_children
            assert layout.num_in_edges[rule_id] == 0

    def test_subrules_match_dag_children(self, layout, few_files_compressed):
        dag = few_files_compressed.dag
        for rule_id in range(layout.num_rules):
            assert layout.subrules(rule_id) == dag.children[rule_id]
        assert layout.num_out_edges.tolist() == dag.num_out_edges

    def test_parents_ignore_multiplicity(self, layout, few_files_compressed):
        dag = few_files_compressed.dag
        for rule_id in range(layout.num_rules):
            assert layout.parents(rule_id) == [parent for parent, _count in dag.parents[rule_id]]

    def test_root_elements_cover_all_non_splitter_positions(self, layout, few_files_compressed):
        non_splitters = [
            symbol
            for symbol in few_files_compressed.grammar.root.symbols
            if is_rule_ref(symbol) or not few_files_compressed.is_splitter(symbol)
        ]
        covered = sum(end - start for start, end in layout.root_segments)
        assert covered == len(non_splitters)
        assert int(layout.rw_vals.sum() + layout.rc_freq.sum()) == len(non_splitters)

    def test_root_per_file_tables_consistent_with_segments(self, layout):
        for file_index, (start, end) in enumerate(layout.root_segments):
            rule_occurrences = sum(count for _child, count in layout.root_subrules(file_index))
            word_occurrences = sum(count for _word, count in layout.root_words(file_index))
            assert rule_occurrences + word_occurrences == end - start

    def test_expansion_lengths_and_weights_forwarded(self, layout, few_files_compressed):
        assert layout.expansion_lengths.tolist() == list(few_files_compressed.dag.expansion_lengths)
        assert layout.rule_weights.tolist() == list(few_files_compressed.dag.weights)

    def test_device_footprint_positive(self, layout):
        assert layout.device_footprint_bytes() > 0

    def test_rule_bodies_are_copies(self, layout, few_files_compressed):
        assert layout.rule_bodies[1] == few_files_compressed.grammar[1].symbols
        assert layout.rule_bodies[1] is not few_files_compressed.grammar[1].symbols


class TestFineGrainedScheduler:
    def test_one_thread_per_small_rule(self, layout):
        scheduler = FineGrainedScheduler(layout)
        for rule_id in range(1, layout.num_rules):
            if layout.rule_lengths[rule_id] <= 16 * layout.average_rule_length:
                assert scheduler.group_size_for(rule_id) == 1

    def test_root_gets_thread_group(self, layout):
        """The root rule is far longer than average and must get extra threads."""
        scheduler = FineGrainedScheduler(layout)
        if layout.rule_lengths[0] > 16 * layout.average_rule_length:
            assert scheduler.group_size_for(0) > 1

    def test_group_size_respects_cap(self, layout):
        scheduler = FineGrainedScheduler(layout, max_group_size=4)
        assert max(scheduler.group_size_for(r) for r in range(layout.num_rules)) <= 4

    def test_lower_threshold_creates_more_groups(self, layout):
        low = FineGrainedScheduler(layout, oversize_threshold=2.0).summary()["grouped_rules"]
        high = FineGrainedScheduler(layout, oversize_threshold=64.0).summary()["grouped_rules"]
        assert low >= high

    def test_assignments_cover_rule_bodies(self, layout):
        scheduler = FineGrainedScheduler(layout)
        rule_ids = list(range(layout.num_rules))
        assignments = scheduler.thread_assignments(rule_ids)
        covered = {rule_id: 0 for rule_id in rule_ids}
        for assignment in assignments:
            covered[assignment.rule_id] += assignment.span
        for rule_id in rule_ids:
            assert covered[rule_id] == layout.rule_lengths[rule_id]

    def test_assignment_thread_ids_dense(self, layout):
        scheduler = FineGrainedScheduler(layout)
        assignments = scheduler.thread_assignments(range(layout.num_rules))
        assert [assignment.thread_id for assignment in assignments] == list(range(len(assignments)))

    def test_partition_items_covers_items(self, layout):
        scheduler = FineGrainedScheduler(layout)
        rule_ids = list(range(layout.num_rules))
        items = layout.lw_count[rule_ids].tolist()
        assignments = scheduler.partition_items(rule_ids, items)
        covered = {rule_id: 0 for rule_id in rule_ids}
        for assignment in assignments:
            covered[assignment.rule_id] += assignment.span
        assert covered == dict(zip(rule_ids, items))

    def test_partition_items_length_mismatch(self, layout):
        scheduler = FineGrainedScheduler(layout)
        with pytest.raises(ValueError):
            scheduler.partition_items([0, 1], [3])

    def test_invalid_parameters_rejected(self, layout):
        with pytest.raises(ValueError):
            FineGrainedScheduler(layout, oversize_threshold=0)
        with pytest.raises(ValueError):
            FineGrainedScheduler(layout, max_group_size=0)

    def test_summary_totals(self, layout):
        scheduler = FineGrainedScheduler(layout)
        summary = scheduler.summary()
        assert summary["rules"] == layout.num_rules
        assert summary["threads"] >= layout.num_rules


class TestVerticalPartitioning:
    def test_partitions_cover_root_elements(self, many_files_layout):
        scheduler = VerticalPartitioningScheduler(many_files_layout, num_partitions=8)
        partitions = scheduler.partition_root()
        positions = [position for partition in partitions for position in partition]
        num_elements = sum(end - start for start, end in many_files_layout.root_segments)
        assert sorted(positions) == list(range(num_elements))

    def test_redundancy_at_least_one(self, many_files_layout):
        scheduler = VerticalPartitioningScheduler(many_files_layout, num_partitions=8)
        assert scheduler.redundancy_factor() >= 1.0

    def test_more_partitions_means_more_redundancy(self, many_files_layout):
        few = VerticalPartitioningScheduler(many_files_layout, num_partitions=2).redundancy_factor()
        many = VerticalPartitioningScheduler(many_files_layout, num_partitions=64).redundancy_factor()
        assert many >= few

    def test_invalid_partition_count(self, many_files_layout):
        with pytest.raises(ValueError):
            VerticalPartitioningScheduler(many_files_layout, num_partitions=0)


class TestStrategySelector:
    def test_sequence_count_uses_dedicated_pipeline(self, layout):
        decision = TraversalStrategySelector(layout).select(Task.SEQUENCE_COUNT)
        assert decision.strategy is TraversalStrategy.TOP_DOWN

    def test_many_files_prefers_bottom_up_for_term_vector(self, many_files_layout):
        decision = TraversalStrategySelector(many_files_layout).select(Task.TERM_VECTOR)
        assert decision.strategy is TraversalStrategy.BOTTOM_UP

    def test_decision_reports_costs(self, layout):
        decision = TraversalStrategySelector(layout).select(Task.WORD_COUNT)
        assert set(decision.estimated_costs) == {"top_down", "bottom_up"}
        assert decision.reason

    def test_selected_strategy_has_lower_estimate(self, layout, many_files_layout):
        for target in (layout, many_files_layout):
            for task in (Task.WORD_COUNT, Task.TERM_VECTOR, Task.INVERTED_INDEX):
                decision = TraversalStrategySelector(target).select(task)
                costs = decision.estimated_costs
                chosen = costs[decision.strategy.value.replace("top_down", "top_down")]
                assert chosen == min(costs.values())
