"""Tests for the grammar/rule representation and symbol encoding."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.compression.grammar import (
    Grammar,
    Rule,
    is_rule_ref,
    make_rule_ref,
    rule_ref_id,
)


class _CountingBody(list):
    """A rule body that adds every symbol read from it to a shared tally."""

    def __init__(self, symbols, tally):
        super().__init__(symbols)
        self.tally = tally

    def __iter__(self):
        for symbol in super().__iter__():
            self.tally[0] += 1
            yield symbol

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.tally[0] += len(item) if isinstance(index, slice) else 1
        return item


def build_example_grammar() -> Grammar:
    """The Figure 1 grammar: R0 -> R1 R1 spt R2 w1, R1 -> R2 w3 R2 w4, R2 -> w1 w2.

    Word ids: w1=0, w2=1, w3=2, w4=3, splitter=4.
    """
    return Grammar(
        [
            Rule(0, [make_rule_ref(1), make_rule_ref(1), 4, make_rule_ref(2), 0]),
            Rule(1, [make_rule_ref(2), 2, make_rule_ref(2), 3]),
            Rule(2, [0, 1]),
        ]
    )


class TestSymbolEncoding:
    def test_rule_ref_roundtrip(self):
        for rule_id in (0, 1, 5, 1000):
            assert rule_ref_id(make_rule_ref(rule_id)) == rule_id

    def test_rule_refs_are_negative(self):
        assert make_rule_ref(0) == -1
        assert is_rule_ref(make_rule_ref(0))

    def test_terminals_are_not_rule_refs(self):
        assert not is_rule_ref(0)
        assert not is_rule_ref(42)

    def test_negative_rule_id_rejected(self):
        with pytest.raises(ValueError):
            make_rule_ref(-1)

    def test_rule_ref_id_of_terminal_rejected(self):
        with pytest.raises(ValueError):
            rule_ref_id(3)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_encoding_is_injective(self, rule_id):
        encoded = make_rule_ref(rule_id)
        assert is_rule_ref(encoded)
        assert rule_ref_id(encoded) == rule_id


class TestRule:
    def test_terminals_and_subrules(self):
        rule = Rule(1, [make_rule_ref(2), 2, make_rule_ref(2), 3])
        assert rule.terminals() == [2, 3]
        assert rule.subrule_ids() == [2, 2]

    def test_subrule_frequencies(self):
        rule = Rule(1, [make_rule_ref(2), 2, make_rule_ref(2), 3])
        assert rule.subrule_frequencies() == {2: 2}

    def test_terminal_frequencies(self):
        rule = Rule(0, [0, 1, 0, make_rule_ref(1)])
        assert rule.terminal_frequencies() == {0: 2, 1: 1}

    def test_len(self):
        assert len(Rule(0, [1, 2, 3])) == 3


class TestGrammar:
    def test_requires_root(self):
        with pytest.raises(ValueError):
            Grammar([])

    def test_rule_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            Grammar([Rule(0, []), Rule(2, [])])

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError):
            Grammar([Rule(0, [make_rule_ref(3)])])

    def test_self_reference_rejected(self):
        with pytest.raises(ValueError):
            Grammar([Rule(0, [make_rule_ref(0)])])

    def test_expand_root_matches_manual_expansion(self):
        grammar = build_example_grammar()
        # R2 = w1 w2 ; R1 = R2 w3 R2 w4 = w1 w2 w3 w1 w2 w4
        # R0 = R1 R1 spt R2 w1
        expected = [0, 1, 2, 0, 1, 3] * 2 + [4, 0, 1, 0]
        assert grammar.expand_root() == expected

    def test_expansion_lengths(self, few_files_compressed):
        grammar = build_example_grammar()
        lengths = grammar.expansion_lengths()
        assert lengths[2] == 2
        assert lengths[1] == 6
        assert lengths[0] == 16
        generated = few_files_compressed.grammar
        lengths = generated.expansion_lengths()
        assert len(lengths) == len(generated)
        for rule in generated:
            assert lengths[rule.rule_id] == len(generated.expand_rule(rule.rule_id))

    def test_expansion_lengths_read_each_symbol_a_bounded_number_of_times(self):
        # A wide root over 2,000 two-terminal rules, each referenced twice:
        # a walk that rescans the root per child reads ~16M symbols.
        tally = [0]
        num_children = 2_000
        root = [make_rule_ref(child) for child in range(1, num_children + 1)] * 2
        rules = [Rule(0, _CountingBody(root, tally))]
        for child in range(1, num_children + 1):
            rules.append(Rule(child, _CountingBody([2 * child, 2 * child + 1], tally)))
        grammar = Grammar(rules)
        assert grammar.total_symbols() == 8_000
        tally[0] = 0
        lengths = grammar.expansion_lengths()
        assert lengths[0] == 2 * num_children * 2
        assert tally[0] <= 3 * grammar.total_symbols()

    def test_total_symbols(self):
        grammar = build_example_grammar()
        assert grammar.total_symbols() == 5 + 4 + 2

    def test_expand_rule_single(self):
        grammar = build_example_grammar()
        assert grammar.expand_rule(2) == [0, 1]

    def test_cycle_detected_in_bottom_up_order(self):
        # A cycle cannot be constructed through the validated constructor,
        # so build rules that reference forward and then mutate.
        grammar = build_example_grammar()
        grammar.rules[2].symbols.append(make_rule_ref(1))
        with pytest.raises(ValueError):
            grammar.expansion_lengths()

    def test_equality(self):
        assert build_example_grammar() == build_example_grammar()

    def test_root_property(self):
        assert build_example_grammar().root.rule_id == 0

    def test_iteration_order(self):
        grammar = build_example_grammar()
        assert [rule.rule_id for rule in grammar] == [0, 1, 2]
