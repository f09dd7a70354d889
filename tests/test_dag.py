"""Tests for the grammar DAG view (layers, weights, statistics)."""

from __future__ import annotations

import pytest

from repro.compression.dag import GrammarDAG
from repro.compression.grammar import make_rule_ref
from tests.test_grammar import build_example_grammar


@pytest.fixture()
def example_dag() -> GrammarDAG:
    return GrammarDAG(build_example_grammar())


class TestStructure:
    def test_children_with_multiplicity(self, example_dag):
        assert example_dag.children[0] == [(1, 2), (2, 1)]
        assert example_dag.children[1] == [(2, 2)]
        assert example_dag.children[2] == []

    def test_parents(self, example_dag):
        assert example_dag.parents[2] == [(0, 1), (1, 2)]
        assert example_dag.parents[1] == [(0, 2)]

    def test_in_out_edge_counts(self, example_dag):
        assert example_dag.num_in_edges == [0, 1, 2]
        assert example_dag.num_out_edges == [2, 1, 0]

    def test_layers_root_first(self, example_dag):
        assert example_dag.layers[0] == [0]
        assert example_dag.layers[1] == [1]
        assert example_dag.layers[2] == [2]

    def test_depth(self, example_dag):
        assert example_dag.depth == 3

    def test_topological_orders_are_inverses(self, example_dag):
        assert example_dag.topological_order() == list(reversed(example_dag.bottom_up_order()))

    def test_weights_count_occurrences(self, example_dag):
        # R1 occurs twice in the root; R2 occurs once in the root and twice in
        # each R1 occurrence -> 1 + 2*2 = 5.
        assert example_dag.weights == [1, 2, 5]

    def test_expansion_lengths_forwarded(self, example_dag):
        assert example_dag.expansion_lengths == [16, 6, 2]

    def test_cycle_detection(self):
        grammar = build_example_grammar()
        grammar.rules[2].symbols.append(make_rule_ref(1))
        with pytest.raises(ValueError):
            GrammarDAG(grammar)


class TestStatistics:
    def test_statistics_fields(self, example_dag):
        stats = example_dag.statistics()
        assert stats.num_rules == 3
        assert stats.num_edges == 3
        assert stats.total_symbols == 11
        assert stats.depth == 3
        assert stats.max_rule_length == 5
        assert stats.middle_layer_nodes == 1  # R1 is the only non-root internal node

    def test_statistics_on_generated_corpus(self, many_files_compressed):
        stats = many_files_compressed.dag.statistics()
        assert stats.num_rules == len(many_files_compressed.grammar)
        assert stats.depth >= 2
        assert stats.avg_rule_length > 0

    def test_weights_reproduce_expansion_length(self, few_files_compressed):
        """Sum over rules of weight * direct terminal count equals total tokens."""
        dag = few_files_compressed.dag
        grammar = few_files_compressed.grammar
        total = 0
        for rule in grammar:
            terminals = [
                symbol
                for symbol in rule.terminals()
                if not few_files_compressed.is_splitter(symbol)
            ]
            total += dag.weights[rule.rule_id] * len(terminals)
        assert total == few_files_compressed.original_tokens
