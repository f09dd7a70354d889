"""Tests for the unified query API: Query, backends, registry, outcomes.

The centrepiece is the cross-backend equivalence matrix: every
registered backend must return ``results_equal`` outputs for every task,
at two sequence lengths, and under a file-subset filter — all through
the one :class:`~repro.api.backend.AnalyticsBackend` protocol.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.base import Task, results_equal
from repro.api import (
    AnalyticsBackend,
    BackendCapabilities,
    Query,
    RunOutcome,
    as_query,
    available_backends,
    open_backend,
    register_backend,
    shape_result,
)
from repro.api.registry import _REGISTRY
from repro.cluster.simulator import ClusterSpec
from repro.core import sequence, traversal, vectorized
from repro.core.engine import GTadoc, GTadocRunResult
from repro.core.strategy import TraversalStrategy
from repro.gpusim.device import GPUDevice
from tests.test_serve import _assert_type_exact

ALL_BACKENDS = ("gtadoc", "cpu", "parallel", "distributed", "gpu_uncompressed", "reference")
#: All three serving front ends join the engines in the equivalence matrix.
MATRIX_BACKENDS = ALL_BACKENDS + ("serve", "serve_async", "serve_sharded")

#: Keep the simulated cluster small so the matrix stays fast on tiny corpora.
_BACKEND_OPTIONS = {
    "parallel": {"num_threads": 2},
    "distributed": {"cluster": ClusterSpec(num_nodes=2), "partitions_per_node": 1},
}


@pytest.fixture(scope="module")
def backends(tiny_compressed):
    """Every registered backend opened over the same compressed corpus."""
    opened = {
        name: open_backend(name, tiny_compressed, **_BACKEND_OPTIONS.get(name, {}))
        for name in available_backends()
    }
    yield opened
    for backend in opened.values():
        close = getattr(backend, "close", None)
        if callable(close):
            close()  # the serve_async adapter owns a loop thread + executor


# ----------------------------------------------------------------------------------------
# Query object
# ----------------------------------------------------------------------------------------

class TestQuery:
    def test_task_accepts_strings(self):
        assert Query(task="word_count").task is Task.WORD_COUNT

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            Query(task="not_a_task")

    def test_bad_sequence_length_rejected(self):
        with pytest.raises(ValueError):
            Query(task=Task.SEQUENCE_COUNT, sequence_length=0)

    def test_bad_top_k_rejected(self):
        with pytest.raises(ValueError):
            Query(task=Task.SORT, top_k=0)

    def test_empty_files_filter_rejected(self):
        with pytest.raises(ValueError):
            Query(task=Task.WORD_COUNT, files=())

    def test_files_accept_single_string(self):
        assert Query(task=Task.WORD_COUNT, files="a.txt").files == ("a.txt",)

    def test_files_deduplicated(self):
        query = Query(task=Task.WORD_COUNT, files=("a.txt", "a.txt", "b.txt"))
        assert query.files == ("a.txt", "b.txt")

    def test_traversal_accepts_strings(self):
        assert Query(task=Task.WORD_COUNT, traversal="bottom_up").traversal is (
            TraversalStrategy.BOTTOM_UP
        )

    def test_as_query_coerces_names(self):
        assert as_query("sort").task is Task.SORT
        query = Query(task=Task.SORT, top_k=2)
        assert as_query(query) is query

    def test_with_task_keeps_knobs(self):
        query = Query(task=Task.WORD_COUNT, top_k=3, files=("a.txt",))
        moved = query.with_task("sort")
        assert moved.task is Task.SORT
        assert moved.top_k == 3 and moved.files == ("a.txt",)

    def test_describe_mentions_knobs(self):
        text = Query(task=Task.SEQUENCE_COUNT, sequence_length=4, top_k=2).describe()
        assert "sequence_count" in text and "l=4" in text and "top_k=2" in text

    def test_query_is_hashable_cache_key(self):
        cache = {Query(task=Task.WORD_COUNT, top_k=3): "hit"}
        assert cache[Query(task="word_count", top_k=3)] == "hit"
        assert Query(task=Task.SORT) in {Query(task=Task.SORT)}


class TestQueryExtras:
    """``extras`` is frozen so a Query stays a safe cache key."""

    def test_extras_participate_in_equality_and_hash(self):
        with_extras = Query(task=Task.SORT, extras={"trace": "abc"})
        same = Query(task=Task.SORT, extras={"trace": "abc"})
        other = Query(task=Task.SORT, extras={"trace": "xyz"})
        assert with_extras == same and hash(with_extras) == hash(same)
        assert with_extras != other
        assert with_extras != Query(task=Task.SORT)

    def test_extras_hash_is_insertion_order_independent(self):
        forward = Query(task=Task.SORT, extras={"tag": 1, "trace": 2})
        backward = Query(task=Task.SORT, extras={"trace": 2, "tag": 1})
        assert forward == backward and hash(forward) == hash(backward)
        assert {forward: "cached"}[backward] == "cached"

    def test_extras_behave_as_a_mapping(self):
        query = Query(task=Task.SORT, extras={"tag": 1, "trace": 2})
        assert query.extras["tag"] == 1
        assert dict(query.extras) == {"tag": 1, "trace": 2}
        assert len(query.extras) == 2 and set(query.extras) == {"tag", "trace"}
        assert query.extras == {"tag": 1, "trace": 2}

    def test_extras_cannot_be_mutated(self):
        query = Query(task=Task.SORT, extras={"tag": 1})
        with pytest.raises(TypeError):
            query.extras["tag"] = 2  # type: ignore[index]

    def test_replace_does_not_share_mutable_state(self):
        from dataclasses import replace

        source = {"tag": 1}
        query = Query(task=Task.SORT, extras=source)
        moved = query.with_task("word_count")
        narrowed = replace(query, top_k=3)
        source["tag"] = 99  # the caller's dict is not the query's storage
        assert query.extras["tag"] == 1
        assert moved.extras["tag"] == 1 and narrowed.extras["tag"] == 1

    def test_unhashable_extras_value_rejected_at_construction(self):
        with pytest.raises(TypeError):
            Query(task=Task.SORT, extras={"tag": []})

    def test_non_string_extras_key_rejected(self):
        with pytest.raises(TypeError):
            Query(task=Task.SORT, extras={1: "x"})

    def test_unknown_extras_key_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="unknown extras.*allowed extras"):
            Query(task=Task.SORT, extras={"traec": "typo"})

    def test_known_extras_for_lists_the_contract(self):
        from repro.api.query import known_extras_for

        assert known_extras_for(Task.SORT) == {"tag", "trace"}
        assert "relational" in known_extras_for(Task.RELATIONAL)


class TestShaping:
    def test_top_k_truncates_sort(self):
        shaped = shape_result(Query(task=Task.SORT, top_k=1), {"a": 2, "b": 5})
        assert shaped == [("b", 5)]

    def test_top_k_truncates_ranked_lists(self):
        result = {"w": [("f1", 9), ("f2", 1)]}
        shaped = shape_result(Query(task=Task.RANKED_INVERTED_INDEX, top_k=1), result)
        assert shaped == {"w": [("f1", 9)]}

    def test_top_k_truncates_word_count(self):
        shaped = shape_result(Query(task=Task.WORD_COUNT, top_k=2), {"a": 1, "b": 3, "c": 2})
        assert shaped == {"b": 3, "c": 2}

    def test_top_k_truncates_sequence_count(self):
        result = {("a", "b"): 3, ("b", "c"): 1, ("c", "d"): 2}
        shaped = shape_result(Query(task=Task.SEQUENCE_COUNT, top_k=1), result)
        assert shaped == {("a", "b"): 3}

    def test_top_k_truncates_inverted_index_postings(self):
        result = {"w": ["c.txt", "a.txt", "b.txt"], "v": ["a.txt"]}
        shaped = shape_result(Query(task=Task.INVERTED_INDEX, top_k=2), result)
        # Postings normalize to name order first, then truncate.
        assert shaped == {"w": ["a.txt", "b.txt"], "v": ["a.txt"]}

    def test_top_k_truncates_term_vector_per_file(self):
        result = {"f1": {"a": 1, "b": 5, "c": 5}, "f2": {"x": 2}}
        shaped = shape_result(Query(task=Task.TERM_VECTOR, top_k=2), result)
        # Highest counts win; ties break by word, mirroring the ranked index.
        assert shaped == {"f1": {"b": 5, "c": 5}, "f2": {"x": 2}}

    def test_top_k_covers_every_task(self, tiny_reference):
        for task in Task.all():
            full = shape_result(Query(task=task), tiny_reference.run(task))
            cut = shape_result(Query(task=task, top_k=1), tiny_reference.run(task))
            if task is Task.SORT:
                assert len(cut) <= 1
            elif task in (Task.WORD_COUNT, Task.SEQUENCE_COUNT):
                assert len(cut) <= 1
            else:
                assert set(cut) == set(full)  # outer keys survive
                for entry in cut.values():
                    assert len(entry) <= 1

    def test_terms_filter_word_count(self):
        shaped = shape_result(Query(task=Task.WORD_COUNT, terms=("a",)), {"a": 1, "b": 2})
        assert shaped == {"a": 1}

    def test_terms_filter_sequences_need_all_words(self):
        result = {("a", "b"): 1, ("a", "c"): 2}
        shaped = shape_result(Query(task=Task.SEQUENCE_COUNT, terms=("a", "b")), result)
        assert shaped == {("a", "b"): 1}

    def test_term_vector_inner_filter(self):
        result = {"f": {"a": 1, "b": 2}}
        shaped = shape_result(Query(task=Task.TERM_VECTOR, terms=("b",)), result)
        assert shaped == {"f": {"b": 2}}


# ----------------------------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------------------------

class TestRegistry:
    def test_all_six_engines_registered(self):
        assert set(ALL_BACKENDS) <= set(available_backends())

    def test_unknown_backend_lists_choices(self, tiny_compressed):
        with pytest.raises(ValueError, match="gtadoc"):
            open_backend("bogus", tiny_compressed)

    def test_open_accepts_raw_corpus(self, tiny_corpus):
        backend = open_backend("gtadoc", tiny_corpus)
        outcome = backend.run(Query(task=Task.WORD_COUNT))
        assert outcome.result

    def test_open_accepts_compressed_for_raw_engines(self, tiny_compressed, tiny_reference):
        backend = open_backend("reference", tiny_compressed)
        outcome = backend.run(Query(task=Task.WORD_COUNT))
        assert outcome.result == tiny_reference.run(Task.WORD_COUNT)

    def test_register_custom_backend(self, tiny_compressed):
        class EchoBackend:
            name = "echo_test"

            def __init__(self, source):
                self.source = source

            def run(self, query):
                return RunOutcome(
                    query=query, backend=self.name, task=query.task, result={"echo": 1}
                )

            def run_batch(self, queries):
                return [self.run(query) for query in queries]

            def capabilities(self):
                return BackendCapabilities(
                    name=self.name, description="test", device="cpu", compressed_domain=False
                )

        register_backend("echo_test", EchoBackend)
        try:
            backend = open_backend("echo_test", tiny_compressed)
            assert isinstance(backend, AnalyticsBackend)
            assert backend.run(Query(task=Task.WORD_COUNT)).result == {"echo": 1}
            with pytest.raises(ValueError):
                register_backend("echo_test", EchoBackend)
        finally:
            _REGISTRY.pop("echo_test", None)

    def test_every_builtin_backend_satisfies_protocol(self, backends):
        for backend in backends.values():
            assert isinstance(backend, AnalyticsBackend)


# ----------------------------------------------------------------------------------------
# Cross-backend equivalence matrix (the satellite acceptance test)
# ----------------------------------------------------------------------------------------

MATRIX_SEQUENCE_LENGTHS = (2, 4)


@pytest.mark.parametrize("name", MATRIX_BACKENDS)
@pytest.mark.parametrize("task", Task.all())
def test_backend_matrix_matches_reference(backends, tiny_compressed, name, task):
    """Every backend agrees with the reference for every task, at two
    sequence lengths, and under a file-subset filter."""
    reference = backends["reference"]
    backend = backends[name]
    subset = tuple(tiny_compressed.file_names[:2])
    queries = [
        Query(task=task, sequence_length=length) for length in MATRIX_SEQUENCE_LENGTHS
    ] + [
        Query(task=task, sequence_length=MATRIX_SEQUENCE_LENGTHS[0], files=subset),
    ]
    for query in queries:
        expected = reference.run(query)
        outcome = backend.run(query)
        assert outcome.backend == name
        assert outcome.task is task
        assert results_equal(task, outcome.result, expected.result), query.describe()


#: A keyed schema over the tiny corpus: each field is the token
#: following its key ("the quick...", "grammar compression...").
def _tiny_relational_spec():
    from repro.relational.spec import (
        Aggregate,
        Condition,
        FieldSpec,
        RelationalQuery,
        RowSchema,
    )

    schema = RowSchema(
        fields=(
            FieldSpec("after_the", key="the"),
            FieldSpec("after_grammar", key="grammar"),
        )
    )
    return RelationalQuery(
        schema=schema,
        predicate=(Condition("after_the", "eq", "quick"),),
        group_by="after_grammar",
        aggregates=(Aggregate("count"), Aggregate("min", "after_the")),
    )


@pytest.mark.parametrize("name", MATRIX_BACKENDS)
def test_backend_matrix_covers_relational(backends, tiny_compressed, name):
    """The relational plan family joins the equivalence matrix: every
    backend answers the same SELECT-style query bit-identically, plain
    and under a file-subset filter."""
    spec = _tiny_relational_spec()
    subset = tuple(tiny_compressed.file_names[:2])
    queries = [
        Query(task=Task.RELATIONAL, extras={"relational": spec}),
        Query(task=Task.RELATIONAL, files=subset, extras={"relational": spec}),
    ]
    for query in queries:
        expected = backends["reference"].run(query)
        outcome = backends[name].run(query)
        assert outcome.task is Task.RELATIONAL
        assert outcome.result == expected.result, query.describe()


def _assert_same_shape(actual, expected, path: str) -> None:
    """Equal, with the same container type at every level and lists in order.

    Dict key order is not compared: backends build their dicts in
    different orders.
    """
    assert type(actual) is type(expected), f"{path}: {type(actual).__name__}"
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), path
        for key, want in expected.items():
            _assert_same_shape(actual[key], want, f"{path}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), path
        for index, (item, want) in enumerate(zip(actual, expected)):
            _assert_same_shape(item, want, f"{path}[{index}]")
    else:
        assert actual == expected, path


def _ranked_count_lists(task, result):
    """Each list of counts a ``top_k`` cuts, in the order the cut sees them."""
    if task is Task.SORT:
        return [[count for _word, count in result]]
    if task in (Task.WORD_COUNT, Task.SEQUENCE_COUNT):
        return [sorted(result.values(), reverse=True)]
    if task is Task.TERM_VECTOR:
        return [sorted(counts.values(), reverse=True) for counts in result.values()]
    if task is Task.RANKED_INVERTED_INDEX:
        return [[count for _file, count in pairs] for pairs in result.values()]
    # Postings carry no counts: every file of a posting list ties.
    return [[0] * len(files) for files in result.values()]


def _tie_cutting_top_k(task, result) -> int:
    """The smallest ``top_k`` whose cut splits a group of tied counts."""
    cuts = {
        k
        for counts in _ranked_count_lists(task, result)
        for k in range(1, len(counts))
        if counts[k - 1] == counts[k]
    }
    assert cuts, f"no tie to cut in {task.value}"
    return min(cuts)


def _shaping_queries(task, reference, compressed):
    """The five query kinds whose shaping every backend must match."""
    full = reference.run(Query(task=task)).result
    return [
        Query(task=task, top_k=1),
        Query(task=task, top_k=_tie_cutting_top_k(task, full)),
        Query(task=task, top_k=10_000),
        # Length 2, so some grams are made of the two terms alone.
        Query(task=task, terms=("the", "quick", "absent-term"), sequence_length=2),
        Query(task=task, files=tuple(compressed.file_names[:2]), top_k=2),
    ]


@pytest.mark.parametrize("name", MATRIX_BACKENDS)
@pytest.mark.parametrize("task", Task.all())
def test_backend_matrix_shapes_like_reference(backends, tiny_compressed, name, task):
    """Top-k cuts (one entry, inside a tie, beyond the result), a terms
    filter with an absent word and a file subset with a cut shape every
    backend's answer exactly as the reference's."""
    reference = backends["reference"]
    for query in _shaping_queries(task, reference, tiny_compressed):
        expected = reference.run(query).result
        _assert_same_shape(backends[name].run(query).result, expected, query.describe())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_id_space_shaping_equals_string_shaping(few_files_compressed, out_of_name_order, data):
    """Shaping G-TADOC's id-space output equals shaping its decoded result,
    key order included, and the shaped answer equals the reference's, on
    files in name order and on corpora whose file indices are not."""
    corpora = {"few_files": few_files_compressed}
    corpora.update((label, compressed) for label, (compressed, _engine) in out_of_name_order.items())
    compressed = corpora[data.draw(st.sampled_from(sorted(corpora)))]
    vocabulary = compressed.dictionary.decode_array.tolist()
    task = data.draw(st.sampled_from(Task.all()))
    top_k = data.draw(st.none() | st.integers(1, 40))
    terms = data.draw(
        st.none()
        | st.lists(st.sampled_from(vocabulary), min_size=1, max_size=6).map(
            lambda words: tuple(words) + ("absent-term",)
        )
    )
    files = data.draw(
        st.none()
        | st.lists(st.sampled_from(compressed.file_names), min_size=1, unique=True).map(tuple)
    )
    length = data.draw(st.integers(2, 4))
    query = Query(task=task, top_k=top_k, terms=terms, files=files, sequence_length=length)

    indices = None if files is None else [compressed.file_names.index(name) for name in files]
    run = GTadoc(compressed).run_batch([task], sequence_length=length, file_indices=indices)[task]
    from_ids = shape_result(query, run.output)
    _assert_type_exact(from_ids, shape_result(query, run.result), query.describe())
    expected = open_backend("reference", compressed).run(query).result
    _assert_same_shape(open_backend("gtadoc", compressed).run(query).result, expected, query.describe())


def test_run_batch_matches_individual_runs(backends):
    queries = [Query(task=Task.WORD_COUNT), Query(task=Task.SORT, top_k=4)]
    for name, backend in backends.items():
        outcomes = backend.run_batch(queries)
        assert [outcome.task for outcome in outcomes] == [Task.WORD_COUNT, Task.SORT]
        for query, outcome in zip(queries, outcomes):
            assert results_equal(query.task, outcome.result, backend.run(query).result), name


# ----------------------------------------------------------------------------------------
# Perf normalization and the G-TADOC serving path
# ----------------------------------------------------------------------------------------

class TestOutcomePerf:
    def test_gpu_backends_report_launches(self, backends):
        outcome = backends["gtadoc"].run(Query(task=Task.WORD_COUNT))
        assert outcome.kernel_launches >= 1
        assert outcome.ops > 0

    def test_cpu_backends_report_zero_launches_nonzero_ops(self, backends):
        for name in ("cpu", "parallel", "distributed"):
            outcome = backends[name].run(Query(task=Task.WORD_COUNT))
            assert outcome.kernel_launches == 0, name
            assert outcome.ops > 0, name
            assert outcome.perf.initialization.ops > 0, name
            assert outcome.perf.traversal.ops > 0, name

    def test_pcie_transfer_surfaces_in_perf(self, tiny_corpus):
        backend = open_backend("gpu_uncompressed", tiny_corpus, needs_pcie_transfer=True)
        outcome = backend.run(Query(task=Task.WORD_COUNT))
        assert outcome.perf.traversal.pcie_bytes > 0

    def test_reference_backend_has_no_perf_model(self, backends):
        outcome = backends["reference"].run(Query(task=Task.WORD_COUNT))
        assert outcome.kernel_launches == 0
        assert outcome.ops == 0.0

    def test_raw_keeps_engine_result(self, backends):
        outcome = backends["gtadoc"].run(Query(task=Task.WORD_COUNT))
        assert isinstance(outcome.raw, GTadocRunResult)
        assert outcome.details["strategy"] in ("top_down", "bottom_up")

    def test_capabilities_describe_engines(self, backends):
        caps = {name: backend.capabilities() for name, backend in backends.items()}
        assert caps["gtadoc"].device == "gpu" and caps["gtadoc"].compressed_domain
        assert caps["gtadoc"].native_file_filter and caps["gtadoc"].amortizes_batches
        assert caps["cpu"].device == "cpu" and caps["cpu"].compressed_domain
        assert caps["distributed"].device == "cluster"
        assert not caps["gpu_uncompressed"].compressed_domain
        assert not caps["reference"].compressed_domain
        for name, cap in caps.items():
            assert cap.name == name
            assert set(cap.tasks) == set(Task.all())


class TestGTadocServingPath:
    def test_initialization_charged_once_across_queries(self, tiny_compressed):
        backend = open_backend("gtadoc", tiny_compressed)
        first = backend.run(Query(task=Task.WORD_COUNT))
        second = backend.run(Query(task=Task.SORT))
        assert first.perf.initialization.kernel_launches > 0
        assert second.perf.initialization.kernel_launches == 0

    def test_amortize_false_pays_full_cost_every_time(self, tiny_compressed):
        backend = open_backend("gtadoc", tiny_compressed, amortize=False)
        first = backend.run(Query(task=Task.WORD_COUNT))
        second = backend.run(Query(task=Task.WORD_COUNT))
        assert first.perf.initialization.kernel_launches > 0
        assert second.perf.initialization.kernel_launches == (
            first.perf.initialization.kernel_launches
        )

    def test_unknown_file_filter_rejected(self, tiny_compressed):
        backend = open_backend("gtadoc", tiny_compressed)
        with pytest.raises(ValueError, match="unknown file"):
            backend.run(Query(task=Task.WORD_COUNT, files=("missing.txt",)))

    def test_traversal_override_respected(self, tiny_compressed):
        backend = open_backend("gtadoc", tiny_compressed)
        outcome = backend.run(
            Query(task=Task.WORD_COUNT, traversal=TraversalStrategy.BOTTOM_UP)
        )
        assert outcome.details["strategy"] == "bottom_up"

    def test_per_query_sequence_lengths_share_one_session(self, tiny_compressed, tiny_corpus):
        from repro.analytics.reference import UncompressedAnalytics

        backend = open_backend("gtadoc", tiny_compressed)
        for length in (2, 3, 4):
            outcome = backend.run(Query(task=Task.SEQUENCE_COUNT, sequence_length=length))
            expected = UncompressedAnalytics(tiny_corpus, sequence_length=length).run(
                Task.SEQUENCE_COUNT
            )
            assert results_equal(Task.SEQUENCE_COUNT, outcome.result, expected)


def _as_columns(counts, sequence_length=None):
    """A reference kernel's dict output in the bulk kernels' column format.

    Word counts ``{word id: count}`` become ``(word ids, counts)``, gram
    counts ``{gram: count}`` become ``(gram rows, counts)`` (both in dict
    order), and per-file counts ``[{word id: count}, ...]`` become
    ``(file indices, word ids, counts)`` sorted by ``(file, word id)``.
    """
    if isinstance(counts, list):
        rows = sorted(
            (file_index, word, count)
            for file_index, table in enumerate(counts)
            for word, count in table.items()
        )
        return tuple(np.asarray([row[i] for row in rows], dtype=np.int64) for i in range(3))
    keys = np.asarray(list(counts), dtype=np.int64)
    if sequence_length is not None:
        keys = keys.reshape(len(counts), sequence_length)
    return keys, np.asarray(list(counts.values()), dtype=np.int64)


class _ReferenceKernels:
    """The engine's bulk kernels swapped for their per-thread references.

    While active, every ``vectorized`` function the session and the
    plans call runs its reference from ``traversal.py`` or
    ``sequence.py`` instead, and ``GPUDevice.launch_bulk`` raises, so a
    bulk call site this table misses fails loudly rather than running
    the bulk path on both sides of a comparison.  The references' dict
    outputs reach the plans in column format (:func:`_as_columns`).
    """

    def __init__(self) -> None:
        self._bounds = {}

    def prepare_bottomup_vec(self, layout, device):
        # The session carves the local tables into its pool itself.
        bounds = traversal.prepare_bottomup(layout, device)
        self._bounds[id(layout)] = bounds
        return bounds

    def build_local_tables_vec(self, layout, device):
        bounds = self._bounds[id(layout)]
        return traversal.build_local_tables_bottomup(layout, device, bounds=bounds)[0]

    def topdown_word_count_reduce(self, layout, scheduler, device, weights):
        return _as_columns(traversal.topdown_word_count(layout, scheduler, device, weights=weights))

    def bottomup_word_count_reduce(self, layout, device, local_tables):
        return _as_columns(traversal.bottomup_word_count(layout, device, local_tables=local_tables))

    def topdown_per_file_counts_vec(self, layout, scheduler, device, file_weights, file_indices):
        return _as_columns(
            traversal.topdown_per_file_counts(
                layout, scheduler, device, file_weights=file_weights, file_indices=file_indices
            )
        )

    def bottomup_per_file_counts_reduce(self, layout, device, local_tables, file_indices):
        return _as_columns(
            traversal.bottomup_per_file_counts(
                layout, device, local_tables=local_tables, file_indices=file_indices
            )
        )

    def sequence_counts_vec(self, layout, scheduler, device, buffers, weights, length, file_indices):
        return _as_columns(
            sequence.sequence_counts(
                layout, scheduler, device, buffers, weights, length, file_indices
            ),
            length,
        )

    def patches(self):
        return {
            "data_structure_prep": traversal.data_structure_prep,
            "compute_rule_weights": traversal.compute_rule_weights_topdown,
            "compute_file_weights": traversal.compute_file_weights_topdown,
            "prepare_bottomup_vec": self.prepare_bottomup_vec,
            "build_local_tables_vec": self.build_local_tables_vec,
            "topdown_word_count_reduce": self.topdown_word_count_reduce,
            "bottomup_word_count_reduce": self.bottomup_word_count_reduce,
            "topdown_per_file_counts_vec": self.topdown_per_file_counts_vec,
            "bottomup_per_file_counts_reduce": self.bottomup_per_file_counts_reduce,
            "sequence_counts_vec": self.sequence_counts_vec,
            "build_relational_tables_vec": traversal.build_relational_tables,
            "assemble_relational_rows_vec": traversal.assemble_relational_rows,
            "relational_filter_aggregate_vec": traversal.relational_filter_aggregate,
        }

    @contextmanager
    def active(self):
        def no_bulk_launch(device, name, *args, **kwargs):
            raise AssertionError(f"bulk kernel {name} ran on the reference path")

        with mock.patch.multiple(vectorized, **self.patches()), mock.patch.object(
            GPUDevice, "launch_bulk", no_bulk_launch
        ):
            yield


class _ReferenceKernelBackend:
    """The G-TADOC backend whose engine runs only the per-thread reference kernels."""

    def __init__(self, compressed) -> None:
        self._kernels = _ReferenceKernels()
        with self._kernels.active():
            self._backend = open_backend("gtadoc", compressed)

    def run(self, query: Query) -> RunOutcome:
        with self._kernels.active():
            return self._backend.run(query)


@pytest.fixture(scope="module")
def mode_backends(tiny_compressed):
    """The G-TADOC backend as it runs ("vector") and on the reference kernels ("scalar")."""
    return {
        "scalar": _ReferenceKernelBackend(tiny_compressed),
        "vector": open_backend("gtadoc", tiny_compressed),
    }


class TestKernelModeEquivalence:
    """End to end, the bulk kernels the engine runs are bit-identical to
    the per-thread reference kernels — same results AND the same
    simulated kernel records — for every task, at two sequence lengths,
    and under a file-subset filter.  ``tests/test_kernel_oracle.py``
    checks the same pairs kernel by kernel; this class checks them as the
    session and the plans compose them."""

    @pytest.mark.parametrize("task", Task.all())
    def test_vector_matches_scalar_bit_for_bit(self, mode_backends, tiny_compressed, task):
        subset = tuple(tiny_compressed.file_names[:2])
        queries = [
            Query(task=task, sequence_length=length)
            for length in MATRIX_SEQUENCE_LENGTHS
        ] + [
            Query(task=task, sequence_length=MATRIX_SEQUENCE_LENGTHS[0], files=subset),
        ]
        for query in queries:
            scalar = mode_backends["scalar"].run(query)
            vector = mode_backends["vector"].run(query)
            assert scalar.result == vector.result, query.describe()
            assert scalar.kernel_launches == vector.kernel_launches, query.describe()
            assert scalar.ops == vector.ops, query.describe()
            assert scalar.raw.init_record == vector.raw.init_record, query.describe()
            assert scalar.raw.traversal_record == vector.raw.traversal_record, query.describe()

    def test_traversal_overrides_agree_across_modes(self, mode_backends):
        for strategy in (TraversalStrategy.TOP_DOWN, TraversalStrategy.BOTTOM_UP):
            query = Query(task=Task.TERM_VECTOR, traversal=strategy)
            scalar = mode_backends["scalar"].run(query)
            vector = mode_backends["vector"].run(query)
            assert scalar.result == vector.result
            assert scalar.details["strategy"] == vector.details["strategy"]
            assert scalar.kernel_launches == vector.kernel_launches
            assert scalar.raw.traversal_record == vector.raw.traversal_record


class TestFilteredQueriesDoMarginalWork:
    """The PR's acceptance criterion: filtered/parameterized queries on the
    G-TADOC backend launch strictly fewer kernels than the corresponding
    full-corpus query."""

    def test_filtered_query_launches_strictly_fewer_kernels(self, tiny_compressed):
        backend = open_backend("gtadoc", tiny_compressed)
        subset = (tiny_compressed.file_names[0],)
        full = backend.run(
            Query(task=Task.TERM_VECTOR, traversal=TraversalStrategy.TOP_DOWN)
        )
        filtered = backend.run(
            Query(task=Task.TERM_VECTOR, files=subset, traversal=TraversalStrategy.TOP_DOWN)
        )
        # The full-corpus query paid initialization + shared state; the
        # restricted query only did marginal work on the warm session.
        assert filtered.kernel_launches < full.kernel_launches

        # Even marginal-vs-marginal (both warm), the restricted program
        # fuses its reduce into a single subset kernel: strictly fewer
        # launches and strictly less traversal work.
        full_again = backend.run(
            Query(task=Task.TERM_VECTOR, traversal=TraversalStrategy.TOP_DOWN)
        )
        assert (
            filtered.perf.traversal.kernel_launches
            < full_again.perf.traversal.kernel_launches
        )
        assert filtered.perf.traversal.ops < full_again.perf.traversal.ops

    def test_filtered_marginal_kernel_is_the_subset_kernel(self, tiny_compressed):
        backend = open_backend("gtadoc", tiny_compressed)
        outcome = backend.run(
            Query(
                task=Task.INVERTED_INDEX,
                files=(tiny_compressed.file_names[0],),
                traversal=TraversalStrategy.TOP_DOWN,
            )
        )
        names = [kernel.name for kernel in outcome.raw.traversal_record.kernels]
        assert names == ["reduceFileSubsetKernel"]

    def test_filtered_sequence_count_scans_fewer_segments(self, many_files_compressed):
        backend = open_backend("gtadoc", many_files_compressed)
        subset = tuple(many_files_compressed.file_names[:2])
        full = backend.run(Query(task=Task.SEQUENCE_COUNT))
        filtered = backend.run(Query(task=Task.SEQUENCE_COUNT, files=subset))
        assert filtered.perf.traversal.ops < full.perf.traversal.ops

    def test_filtered_bottomup_reduce_covers_subset_only(self, many_files_compressed):
        backend = open_backend("gtadoc", many_files_compressed)
        subset = tuple(many_files_compressed.file_names[:2])
        full = backend.run(
            Query(task=Task.TERM_VECTOR, traversal=TraversalStrategy.BOTTOM_UP)
        )
        filtered = backend.run(
            Query(task=Task.TERM_VECTOR, files=subset, traversal=TraversalStrategy.BOTTOM_UP)
        )
        full_kernel = full.raw.traversal_record.kernels[-1]
        filtered_kernel = filtered.raw.traversal_record.kernels[-1]
        assert filtered_kernel.num_threads == len(subset)
        assert filtered_kernel.num_threads < full_kernel.num_threads
