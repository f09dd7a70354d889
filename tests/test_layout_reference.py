"""The array-built device layout against the list-built reference.

:meth:`DeviceRuleLayout.from_compressed` builds its CSR arrays with a
few array passes over the grammar's symbols.  :func:`reference_layout`
is the construction it replaced, kept here as the specification: it
walks every rule body symbol by symbol into per-rule lists and per-file
dicts (dict order is first occurrence), then flattens those into the
arrays the kernels read.  Every array of the layout must equal its
reference in values, dtype and order, on the Table II analogues A-E,
the relational rows corpus, the shared fixtures and hypothesis-drawn
corpora with empty files, single files, one-token files and no rules.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.base import Task
from repro.compression.compressor import compress_corpus
from repro.compression.grammar import Grammar, is_rule_ref, rule_ref_id
from repro.core.layout import DeviceRuleLayout
from repro.core.strategy import TraversalStrategySelector
from repro.data.corpus import Corpus
from repro.data.generators import generate_dataset
from tests.test_kernel_oracle import _corpus as oracle_corpus

_I64 = np.int64


def _ints(values) -> np.ndarray:
    return np.asarray(list(values), dtype=_I64)


def _csr(rows: List[List]) -> Tuple[np.ndarray, np.ndarray]:
    counts = _ints(len(row) for row in rows)
    offsets = np.zeros(len(rows) + 1, dtype=_I64)
    np.cumsum(counts, out=offsets[1:])
    return counts, offsets


def reference_layout(compressed) -> Dict[str, object]:
    """The layout's fields, built from per-rule lists and per-file dicts."""
    grammar = compressed.grammar
    dag = compressed.dag
    num_rules = len(grammar)
    num_files = len(compressed.file_names)

    subrules = [list(dag.children[rule_id]) for rule_id in range(num_rules)]
    parents = [[parent for parent, _count in dag.parents[rule_id]] for rule_id in range(num_rules)]
    local_words: List[List[Tuple[int, int]]] = []
    for rule in grammar:
        counts: Dict[int, int] = {}
        for symbol in rule.symbols:
            if is_rule_ref(symbol) or compressed.is_splitter(symbol):
                continue
            counts[symbol] = counts.get(symbol, 0) + 1
        local_words.append(sorted(counts.items()))

    root_subrules: List[Dict[int, int]] = [dict() for _ in range(num_files)]
    root_words: List[Dict[int, int]] = [dict() for _ in range(num_files)]
    root_symbols = list(grammar.root.symbols)
    for file_index, (start, end) in enumerate(compressed.root_file_segments):
        for symbol in root_symbols[start:end]:
            if is_rule_ref(symbol):
                table = root_subrules[file_index]
                child = rule_ref_id(symbol)
                table[child] = table.get(child, 0) + 1
            elif not compressed.is_splitter(symbol):
                table = root_words[file_index]
                table[symbol] = table.get(symbol, 0) + 1

    rule_lengths = [len(rule) for rule in grammar]
    non_root = rule_lengths[1:] or [0]
    fields: Dict[str, object] = {
        "num_rules": num_rules,
        "num_files": num_files,
        "vocabulary_size": compressed.dictionary.num_words,
        "rule_lengths": _ints(rule_lengths),
        "average_rule_length": sum(non_root) / max(1, len(non_root)),
        "lw_keys": _ints(word for row in local_words for word, _count in row),
        "lw_vals": _ints(count for row in local_words for _word, count in row),
        "sr_child": _ints(child for row in subrules for child, _count in row),
        "sr_freq": _ints(count for row in subrules for _child, count in row),
        "par_ids": _ints(parent for row in parents for parent in row),
        "num_in_edges": _ints(
            sum(1 for parent in row if parent != Grammar.ROOT_ID) for row in parents
        ),
        "num_out_edges": _ints(dag.num_out_edges),
        "expansion_lengths": _ints(dag.expansion_lengths),
        "rule_weights": _ints(dag.weights),
        "rw_keys": _ints(word for table in root_words for word in table),
        "rw_vals": _ints(count for table in root_words for count in table.values()),
        "rc_child": _ints(child for table in root_subrules for child in table),
        "rc_freq": _ints(count for table in root_subrules for count in table.values()),
        "root_segments": list(compressed.root_file_segments),
        "rule_bodies": [list(rule.symbols) for rule in grammar],
    }
    for prefix, rows in (
        ("lw", local_words),
        ("sr", subrules),
        ("par", parents),
        ("rw", root_words),
        ("rc", root_subrules),
    ):
        fields[f"{prefix}_count"], fields[f"{prefix}_off"] = _csr(rows)
    fields["rw_file"] = np.repeat(np.arange(num_files, dtype=_I64), fields["rw_count"])
    fields["rc_file"] = np.repeat(np.arange(num_files, dtype=_I64), fields["rc_count"])
    root_freq = np.zeros(num_rules, dtype=_I64)
    np.add.at(root_freq, fields["rc_child"], fields["rc_freq"])
    fields["root_freq"] = root_freq
    fields["files_per_rule"] = np.bincount(fields["rc_child"], minlength=num_rules).astype(_I64)
    fields["level2_child"] = np.flatnonzero(root_freq).astype(_I64)
    fields["level2_freq"] = root_freq[fields["level2_child"]]
    return fields


def assert_matches_reference(compressed) -> DeviceRuleLayout:
    layout = DeviceRuleLayout.from_compressed(compressed)
    expected = reference_layout(compressed)
    compared = set()
    for spec in dataclasses.fields(layout):
        if not spec.init:
            continue
        got = getattr(layout, spec.name)
        want = expected[spec.name]
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), spec.name
            assert got.dtype == _I64, (spec.name, got.dtype)
            assert got.tolist() == want.tolist(), spec.name
        else:
            assert type(got) is type(want), spec.name
            assert got == want, spec.name
        compared.add(spec.name)
    assert compared == set(expected)
    # Rows reach per-thread readers as Python ints, never numpy scalars.
    for rule_id in range(layout.num_rules):
        for row in (layout.local_words(rule_id), layout.subrules(rule_id)):
            assert all(type(a) is int and type(b) is int for a, b in row)
        assert all(type(parent) is int for parent in layout.parents(rule_id))
    assert layout.root_symbols is layout.rule_bodies[0]
    assert layout.rule_bodies[0] == list(compressed.grammar.root.symbols)
    # Pool sizing and PCIe pricing read these.
    assert layout.estimated_local_table_entries() == len(expected["lw_keys"]) + len(
        expected["sr_child"]
    )
    assert layout.device_footprint_bytes() == (
        sum(expected["rule_lengths"].tolist()) * 8
        + len(expected["sr_child"]) * 16
        + len(expected["lw_keys"]) * 16
        + layout.num_rules * 48
    )
    return layout


@pytest.mark.parametrize("key", ["A", "B", "C", "D", "E", "rows"])
def test_oracle_corpora_match_reference(key):
    """A-E at scale 0.05 and the kernel oracle's relational rows corpus."""
    assert_matches_reference(oracle_corpus(key))


@pytest.mark.parametrize(
    "fixture",
    ["few_files_compressed", "many_files_compressed", "tiny_compressed", "single_file_compressed"],
)
def test_fixtures_match_reference(fixture, request):
    assert_matches_reference(request.getfixturevalue(fixture))


def test_corpus_without_rules_matches_reference():
    texts = {"a.txt": "one two three", "b.txt": "", "c.txt": "four"}
    layout = assert_matches_reference(compress_corpus(Corpus.from_texts(texts)))
    assert layout.num_rules == 1
    assert layout.average_rule_length == 0.0


_FILES = st.lists(
    st.one_of(
        st.just([]),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=1),
        st.lists(st.sampled_from("abcd"), max_size=40),
        st.permutations(list("efghij")),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(files=_FILES)
def test_drawn_corpora_match_reference(files):
    streams = {f"f{index}.txt": tokens for index, tokens in enumerate(files)}
    assert_matches_reference(compress_corpus(Corpus.from_token_streams(streams)))


#: The selector's decisions on A-E at scale 0.05, as the list-built
#: layout gave them: (strategy, top-down cost, bottom-up cost) for the
#: corpus-wide tasks, then for the file-sensitive ones.
_SELECTOR = {
    "A": (("top_down", 347.0, 1331.2474226804125), ("bottom_up", 1908.5, 1432.7030927835053)),
    "B": (("top_down", 458.0, 2014.2), ("top_down", 916.0, 2148.12)),
    "C": (("top_down", 1046.0, 4004.3636363636365), ("bottom_up", 31380.0, 4363.345454545455)),
    "D": (("top_down", 111.0, 529.3846153846154), ("top_down", 111.0, 550.3692307692307)),
    "E": (("top_down", 295.0, 1356.4929577464789), ("top_down", 295.0, 1405.1183098591548)),
}


@pytest.mark.parametrize("key", sorted(_SELECTOR))
def test_strategy_selector_decisions_unchanged(key):
    layout = DeviceRuleLayout.from_compressed(compress_corpus(generate_dataset(key, scale=0.05)))
    selector = TraversalStrategySelector(layout)
    corpus, files = _SELECTOR[key]
    for task in Task.all() + [Task.RELATIONAL]:
        decision = selector.select(task)
        if task in (Task.SEQUENCE_COUNT, Task.RELATIONAL):
            expected = "top_down" if task is Task.SEQUENCE_COUNT else "bottom_up"
            assert (decision.strategy.value, decision.estimated_costs) == (expected, {})
            continue
        strategy, top_down, bottom_up = files if task.is_file_sensitive else corpus
        assert decision.strategy.value == strategy, task
        assert decision.estimated_costs == {"top_down": top_down, "bottom_up": bottom_up}, task
