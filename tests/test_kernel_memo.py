"""The layout's kernel memo: warm unfiltered queries replay, and only replay.

Every unfiltered reduce builds its launch vectors and key geometry on
the first query of a corpus epoch and memoizes them on the layout
(:meth:`~repro.core.layout.DeviceRuleLayout.memo`); later queries run
only the value fold and the launches.  These tests check that

* warm unfiltered queries build no key geometry, while a file-subset
  query still builds its own, and
* results and records equal a cold engine's whenever the session state
  a memo entry was built from is replaced: after ``invalidate()``,
  after ``configure()`` to another ``oversize_threshold``, on two fresh
  sessions sharing one layout, and after an append and its delta sync;
* after a delta sync, whose file weights and local tables are plain
  lists, file-subset queries fill the dense file-weight matrix and list
  the table arrays once per epoch.

``tests/test_kernel_oracle.py`` compares the memoized kernels with
their per-thread references on warm calls.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

from repro.analytics.base import Task
from repro.compression.compressor import compress_corpus
from repro.core import vectorized
from repro.core.engine import GTadoc
from repro.core.session import GTadocConfig
from repro.core.strategy import TraversalStrategy
from repro.data.generators import generate_dataset

#: The key-only geometry steps of the bulk reduces.
GEOMETRY_STEPS = ("_hash_geometry", "_merge_file_words", "_intern_grams")

#: Unfiltered queries covering every classic task under both strategies,
#: sequence count at lengths 2-4, and one fused batch of all tasks.
QUERIES = (
    [
        {"tasks": [task], "traversal": strategy}
        for task in Task.all()
        if task is not Task.SEQUENCE_COUNT
        for strategy in TraversalStrategy
    ]
    + [{"tasks": [Task.SEQUENCE_COUNT], "sequence_length": length} for length in (2, 3, 4)]
    + [{"tasks": Task.all(), "traversal": None}]
)


@pytest.fixture(scope="module")
def corpora():
    return {key: compress_corpus(generate_dataset(key, scale=0.05)) for key in "ABCDE"}


def count_calls(monkeypatch, module, names) -> Counter:
    """Counts calls of each of ``module``'s functions ``names``."""
    calls: Counter = Counter()
    for name in names:
        step = getattr(module, name)

        def counted(*args, _step=step, _name=name, **kwargs):
            calls[_name] += 1
            return _step(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def geometry_builds(monkeypatch):
    """Counts calls of each geometry step."""
    return count_calls(monkeypatch, vectorized, GEOMETRY_STEPS)


def _snapshot(batch, construction=True):
    """What a batch reports, results compared type- and order-exactly.

    Without ``construction``, only each task's result and traversal
    record: no construction records and no pool growth.
    """
    runs = [
        (task, repr(run.result), run.strategy, run.traversal_record) for task, run in batch.items()
    ]
    if not construction:
        return runs
    pool = [run.memory_pool_bytes for run in batch.values()]
    return runs, pool, batch.init_record, batch.shared_record, batch.memory_pool_bytes


def _replay(engine, session=None, construction=True):
    return [
        _snapshot(engine.run_fused(session=session, **query), construction) for query in QUERIES
    ]


@pytest.mark.parametrize("key", "ABCDE")
def test_warm_unfiltered_queries_build_no_geometry(key, corpora, geometry_builds):
    engine = GTadoc(corpora[key])
    for query in QUERIES:
        engine.run_fused(**query)
    assert geometry_builds, "the first queries of an epoch build the geometry"

    geometry_builds.clear()
    for number in range(50):
        engine.run_fused(**QUERIES[number % len(QUERIES)])
    assert sum(geometry_builds.values()) == 0, dict(geometry_builds)

    engine.run_fused(Task.all(), file_indices=[0])
    assert geometry_builds["_merge_file_words"] > 0
    assert geometry_builds["_intern_grams"] > 0


@pytest.mark.parametrize("key", "ABCDE")
def test_memo_entries_follow_the_session_state(key, corpora):
    compressed = corpora[key]
    cold_engine = GTadoc(compressed)
    cold = _replay(cold_engine), _replay(cold_engine)

    engine = GTadoc(compressed)
    _replay(engine)
    _replay(engine)
    engine.session.invalidate()
    assert (_replay(engine), _replay(engine)) == cold

    other = GTadocConfig(oversize_threshold=2.0)
    engine.configure(other)
    assert _replay(engine) == _replay(GTadoc(compressed, other))

    first, second = engine.session.fresh(), engine.session.fresh()
    assert first.layout is second.layout
    cold_other = GTadoc(compressed, other)
    expected = [_replay(cold_other), _replay(cold_other)]
    for expected_replay in expected:
        # Alternating sessions replace each other's memo entries.
        assert _replay(engine, first) == expected_replay
        assert _replay(engine, second) == expected_replay


def test_fresh_sessions_in_threads_share_one_memo(corpora):
    """Threads on fresh sessions of one layout replace each other's entries."""
    compressed = corpora["A"]
    cold = GTadoc(compressed)
    expected = [_replay(cold) for _ in range(3)]
    engine = GTadoc(compressed)
    got = {}

    def client(number):
        session = engine.session.fresh()
        got[number] = [_replay(engine, session) for _ in range(3)]

    threads = [threading.Thread(target=client, args=(number,)) for number in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {number: expected for number in range(4)}


def test_memo_after_an_append_and_its_delta_sync():
    for key in "ABCDE":
        compressed = compress_corpus(generate_dataset(key, scale=0.05))
        engine = GTadoc(compressed)
        _replay(engine)
        compressed.append_files({"appended.txt": "fresh0 fresh1 fresh2 fresh0 fresh1 fresh3"})
        assert engine.session.sync_with_corpus() == "delta"
        # The delta's construction records and pool carving differ from a
        # cold build's, so compare each task's result and traversal record.
        cold = GTadoc(compressed)
        expected = [_replay(cold, construction=False) for _ in range(2)]
        assert [_replay(engine, construction=False) for _ in range(2)] == expected, key


#: Per-query subset programs: each per-file task under both strategies,
#: and sequence count, whose restricted weights come from the file weights.
SUBSET_QUERIES = [
    {"tasks": [task], "traversal": strategy}
    for task in (Task.INVERTED_INDEX, Task.TERM_VECTOR, Task.RANKED_INVERTED_INDEX)
    for strategy in TraversalStrategy
] + [{"tasks": [Task.SEQUENCE_COUNT], "sequence_length": length} for length in (2, 3)]


@pytest.fixture
def session_array_builds(monkeypatch):
    """Counts fills of the dense file weights and listings of the table arrays."""
    return count_calls(monkeypatch, vectorized, ("_fill_dense_file_weights", "_list_table_arrays"))


@pytest.mark.parametrize("key", "ABCDE")
def test_subset_queries_after_a_delta_build_session_arrays_once(key, session_array_builds):
    """A delta sync's file weights and local tables are plain lists; file-subset
    queries build their dense matrix and table arrays once per epoch."""
    compressed = compress_corpus(generate_dataset(key, scale=0.05))
    engine = GTadoc(compressed)
    _replay(engine)
    compressed.append_files({"appended.txt": "fresh0 fresh1 fresh2 fresh0 fresh1 fresh3"})
    assert engine.session.sync_with_corpus() == "delta"
    last = len(compressed.file_names) - 1
    subsets = [sorted({0, last}), [last]]

    session_array_builds.clear()
    got = [
        _snapshot(engine.run_fused(file_indices=files, **query), construction=False)
        for _ in range(2)
        for files in subsets
        for query in SUBSET_QUERIES
    ]
    assert session_array_builds == {"_fill_dense_file_weights": 1, "_list_table_arrays": 1}

    cold = GTadoc(compressed)
    expected = [
        _snapshot(cold.run_fused(file_indices=files, **query), construction=False)
        for _ in range(2)
        for files in subsets
        for query in SUBSET_QUERIES
    ]
    assert got == expected
