"""The id-space shaper's per-file paths and the row order they build on.

The per-file count kernels return rows sorted by ``(file, word id)``
(``core/vectorized.py``, "Result format"), and
:class:`~repro.analytics.encoded.EncodedResult` orders the inverted
index, the ranked inverted index and a term vector's top-k cut with one
argsort of a packed int64 key built on that order.  These tests check

* the row contract itself, under both strategies, with and without a
  file subset, and after an append and its delta sync;
* that the shaper equals :class:`ReferenceShaper` (the ``lexsort`` +
  ``unique`` chain it replaced, kept here) and the string-space shaping,
  type- and key-order-exactly, on corpora whose file indices are not in
  name order (the ``out_of_name_order`` fixture, on which
  ``test_id_space_shaping_equals_string_shaping`` also draws queries),
  with top-k cuts inside count ties;
* that per-file shaping on A–E calls neither ``np.lexsort`` nor
  ``np.unique``, and
* that keys whose parts would overflow an int64 still sort like the
  reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analytics import encoded
from repro.analytics.base import Task
from repro.analytics.encoded import EncodedResult
from repro.api import Query, open_backend, shape_result
from repro.compression.dictionary import Dictionary
from repro.core.engine import GTadoc
from repro.core.strategy import TraversalStrategy
from tests.test_api_backends import _assert_same_shape, _tie_cutting_top_k
from tests.test_kernel_memo import count_calls
from tests.test_serve import _assert_type_exact

PER_FILE_TASKS = (Task.INVERTED_INDEX, Task.TERM_VECTOR, Task.RANKED_INVERTED_INDEX)


class ReferenceShaper(EncodedResult):
    """The per-file shapers as they were before the packed sorts."""

    @classmethod
    def of(cls, result: EncodedResult) -> "ReferenceShaper":
        return cls(**{field.name: getattr(result, field.name) for field in dataclasses.fields(result)})

    def _term_vector(self, files, words, counts, top_k):
        if top_k is not None:
            order = np.lexsort((self.dictionary.lexical_ranks[words], -counts, files))
            files, words, counts = files[order], words[order], counts[order]
            keep = encoded._first_k_of_each_group(files, top_k)
            files, words, counts = files[keep], words[keep], counts[keep]
        # Without a cut the shaper only decodes.
        return super()._term_vector(files, words, counts, None)

    def _inverted_index(self, files, words, top_k):
        by_name = np.lexsort((words, self._file_name_ranks()[files]))
        files, words = files[by_name], words[by_name]
        _uniq, first, inverse = np.unique(words, return_index=True, return_inverse=True)
        grouped = np.argsort(first[inverse], kind="stable")
        files, words = files[grouped], words[grouped]
        if top_k is not None:
            keep = encoded._first_k_of_each_group(words, top_k)
            files, words = files[keep], words[keep]
        starts = encoded._group_starts(words)
        decoded = self.dictionary.decode_array[words[starts]].tolist()
        postings = self._name_array()[files].tolist()
        return {
            word: postings[low:high]
            for word, low, high in zip(decoded, *encoded._bounds(starts, len(words)))
        }

    def _ranked_inverted_index(self, files, words, counts, top_k):
        _uniq, first, inverse = np.unique(words, return_index=True, return_inverse=True)
        order = np.lexsort((self._file_name_ranks()[files], -counts, first[inverse]))
        files, words, counts = files[order], words[order], counts[order]
        if top_k is not None:
            keep = encoded._first_k_of_each_group(words, top_k)
            files, words, counts = files[keep], words[keep], counts[keep]
        starts = encoded._group_starts(words)
        decoded = self.dictionary.decode_array[words[starts]].tolist()
        pairs = list(zip(self._name_array()[files].tolist(), counts.tolist()))
        return {
            word: pairs[low:high]
            for word, low, high in zip(decoded, *encoded._bounds(starts, len(words)))
        }


def _per_file_output(engine, task, strategy=None, files=None):
    return engine.run_fused([task], traversal=strategy, file_indices=files)[task].output


def _assert_rows_sorted(output: EncodedResult, files=None) -> None:
    """The per-file row contract: sorted by ``(file, word id)``, one row each."""
    vocabulary = output.dictionary.num_words
    keys = output.files * vocabulary + output.words
    assert np.all(np.diff(keys) > 0)
    assert np.all(output.words < vocabulary)
    if files is not None:
        assert set(output.files.tolist()) <= set(files)


# ----------------------------------------------------------------------------------------
# The row contract
# ----------------------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", list(TraversalStrategy))
def test_per_file_rows_are_sorted_by_file_then_word(dataset_compressed, out_of_name_order, strategy):
    cases = [(compressed, GTadoc(compressed)) for compressed in dataset_compressed.values()]
    cases += list(out_of_name_order.values())
    for compressed, engine in cases:
        last = len(compressed.file_names) - 1
        for files in (None, [0], sorted({0, last}), [last]):
            for task in PER_FILE_TASKS:
                _assert_rows_sorted(_per_file_output(engine, task, strategy, files), files)


# ----------------------------------------------------------------------------------------
# Shaping equals the reference shaper and string-space shaping
# ----------------------------------------------------------------------------------------

def _assert_shapes_like_reference(output: EncodedResult, query: Query, run_result) -> None:
    shaped = shape_result(query, output)
    _assert_type_exact(shaped, ReferenceShaper.of(output).shape(query.terms, query.top_k), query.describe())
    _assert_type_exact(shaped, shape_result(query, run_result), query.describe())


@pytest.mark.parametrize("label", ["reversed", "shuffled", "appended"])
def test_cuts_inside_ties_shape_like_the_reference(out_of_name_order, label):
    """Whole results, a cut inside a count tie and cuts of 1 and 2 on
    every file and on a two-file subset, under both strategies."""
    compressed, engine = out_of_name_order[label]
    reference = open_backend("reference", compressed)
    subset = sorted({1, len(compressed.file_names) - 1})
    for strategy in TraversalStrategy:
        for task in PER_FILE_TASKS:
            for files in (None, subset):
                run = engine.run_fused([task], traversal=strategy, file_indices=files)[task]
                cuts = {1, 2}
                if files is None:
                    cuts.add(_tie_cutting_top_k(task, shape_result(Query(task=task), run.output)))
                for top_k in [None, *sorted(cuts)]:
                    query = Query(task=task, top_k=top_k)
                    _assert_shapes_like_reference(run.output, query, run.result)
                    if files is None:
                        expected = reference.run(query).result
                        _assert_same_shape(shape_result(query, run.output), expected, query.describe())


# ----------------------------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------------------------

@pytest.fixture
def sort_calls(monkeypatch):
    """Counts calls of ``np.lexsort`` and ``np.unique``."""
    return count_calls(monkeypatch, np, ("lexsort", "unique"))


def test_per_file_shaping_calls_no_lexsort_or_unique(dataset_compressed, out_of_name_order, sort_calls):
    engines = [GTadoc(compressed) for compressed in dataset_compressed.values()]
    engines += [engine for _compressed, engine in out_of_name_order.values()]
    outputs = [
        _per_file_output(engine, task, strategy)
        for engine in engines
        for task in PER_FILE_TASKS
        for strategy in TraversalStrategy
    ]
    sort_calls.clear()
    for output in outputs:
        output.shape(None, None)
        output.shape(None, 10)
    assert sum(sort_calls.values()) == 0, dict(sort_calls)


# ----------------------------------------------------------------------------------------
# Keys wider than an int64
# ----------------------------------------------------------------------------------------

def _overflowing_result(task: Task) -> EncodedResult:
    """Three files out of name order, with counts up to ``2**63 - 1`` and ties.

    ``(first-seen rank, -count, name rank)`` and ``(file, -count,
    lexical rank)`` then span far more than ``2**63`` values.
    """
    dictionary = Dictionary()
    for word in ("delta", "alpha", "charlie", "bravo"):
        dictionary.encode_word(word)
    big = 2**62
    rows = [
        (0, 0, big), (0, 1, big), (0, 2, 1),
        (1, 1, big - 1), (1, 3, big),
        (2, 0, 5), (2, 2, big), (2, 3, 2**63 - 1),
    ]
    files, words, counts = (np.asarray(column, dtype=np.int64) for column in zip(*rows))
    return EncodedResult(
        task=task,
        dictionary=dictionary,
        file_names=["f2", "f0", "f1"],
        words=words,
        counts=counts,
        files=files,
    )


@pytest.mark.parametrize("task", PER_FILE_TASKS)
def test_keys_wider_than_int64_sort_like_the_reference(task, sort_calls):
    result = _overflowing_result(task)
    for top_k in (None, 1, 2, 3):
        _assert_type_exact(
            result.shape(None, top_k), ReferenceShaper.of(result).shape(None, top_k), f"top_k={top_k}"
        )
        _assert_type_exact(
            result.shape(("alpha", "bravo", "charlie"), top_k),
            ReferenceShaper.of(result).shape(("alpha", "bravo", "charlie"), top_k),
            f"terms top_k={top_k}",
        )
    if task is not Task.INVERTED_INDEX:
        assert sort_calls["lexsort"] > 0, "the wide key falls back to np.lexsort"


def test_packed_order_at_the_int64_edge():
    """Bounds whose product is ``2**63 - 1`` pack (the largest key is
    ``2**63 - 2``), and a product of ``2**63`` falls back; either way the
    rows sort like ``np.lexsort``."""
    rng = np.random.default_rng(5)
    for bounds in ((7, 7, 73, 127, 337, 92737, 649657), (1, 2**63 - 1), (2, 2**62)):
        rows = {tuple(bound - 1 for bound in bounds), tuple(0 for _bound in bounds)}
        while len(rows) < 200:
            rows.add(tuple(int(rng.integers(0, bound)) for bound in bounds))
        rows = [row for _rank, row in sorted((rng.random(), row) for row in rows)]
        columns = [np.asarray(column, dtype=np.int64) for column in zip(*rows)]
        order = encoded._packed_order(list(zip(columns, bounds)))
        assert order.tolist() == np.lexsort(columns[::-1]).tolist(), bounds
