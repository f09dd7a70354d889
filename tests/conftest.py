"""Shared fixtures for the test suite.

Corpora and their compressed forms are expensive to build relative to a
single assertion, so they are session-scoped; tests must not mutate
them.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from typing import List

import pytest

from repro.analytics.base import Task
from repro.analytics.reference import UncompressedAnalytics
from repro.compression.compressor import compress_corpus
from repro.core.engine import GTadoc
from repro.core.strategy import TraversalStrategy
from repro.data.corpus import Corpus, Document
from repro.data.generators import generate_dataset, list_datasets
from repro.serve import TraceConfig


@pytest.fixture(scope="session")
def tiny_corpus() -> Corpus:
    """A small hand-written corpus with heavy phrase repetition."""
    texts = {
        "doc_a.txt": (
            "the quick brown fox jumps over the lazy dog "
            "the quick brown fox jumps over the lazy dog "
            "grammar compression folds repeated phrases into rules"
        ),
        "doc_b.txt": (
            "text analytics directly on compression avoids decompression "
            "the quick brown fox jumps over the lazy dog once more"
        ),
        "doc_c.txt": (
            "grammar compression folds repeated phrases into rules "
            "text analytics directly on compression avoids decompression"
        ),
    }
    return Corpus.from_texts(texts, name="tiny")


@pytest.fixture(scope="session")
def single_file_corpus() -> Corpus:
    """One file only — exercises the no-splitter path."""
    text = "alpha beta gamma alpha beta gamma alpha beta delta epsilon alpha beta gamma"
    return Corpus([Document("only.txt", text)], name="single")


@pytest.fixture(scope="session")
def many_files_corpus() -> Corpus:
    """The dataset A analogue at a very small scale (many tiny files)."""
    return generate_dataset("A", scale=0.05, seed=7)


@pytest.fixture(scope="session")
def few_files_corpus() -> Corpus:
    """The dataset B analogue at a very small scale (a few larger files)."""
    return generate_dataset("B", scale=0.04, seed=7)


@pytest.fixture(scope="session")
def tiny_compressed(tiny_corpus):
    return compress_corpus(tiny_corpus)


@pytest.fixture(scope="session")
def single_file_compressed(single_file_corpus):
    return compress_corpus(single_file_corpus)


@pytest.fixture(scope="session")
def many_files_compressed(many_files_corpus):
    return compress_corpus(many_files_corpus)


@pytest.fixture(scope="session")
def few_files_compressed(few_files_corpus):
    return compress_corpus(few_files_corpus)


def _renamed(corpus: Corpus, names: List[str]) -> Corpus:
    return Corpus([Document(name, doc.text) for name, doc in zip(names, corpus)], name=corpus.name)


@pytest.fixture(scope="session")
def out_of_name_order(many_files_corpus):
    """``label -> (compressed, engine)``: corpora whose file indices are not in name order.

    The many-files corpus with its file names reversed or shuffled, and a
    shuffled copy after three appends out of name order, delta-synced on
    its engine.  ``fresh0`` occurs twice in each appended file, a count
    tie that name order breaks against index order; ``old`` and ``older``
    are words of the first file.
    """
    names = [doc.name for doc in many_files_corpus]
    shuffled = list(names)
    random.Random(3).shuffle(shuffled)
    cases = {}
    for label, renamed in (("reversed", names[::-1]), ("shuffled", shuffled)):
        compressed = compress_corpus(_renamed(many_files_corpus, renamed))
        cases[label] = (compressed, GTadoc(compressed))

    random.Random(11).shuffle(shuffled)
    compressed = compress_corpus(_renamed(many_files_corpus, shuffled))
    engine = GTadoc(compressed)
    for strategy in TraversalStrategy:
        engine.run_fused(Task.all(), traversal=strategy)
    old, older = next(iter(many_files_corpus)).tokens[:2]
    compressed.append_files({
        "live-1": f"fresh0 fresh1 fresh0 fresh1 {old}",
        "live-0": f"fresh0 fresh2 fresh1 fresh0 fresh2 {older}",
        "a_file_00004-live": f"fresh2 fresh0 fresh0 {old}",
    })
    assert engine.session.sync_with_corpus() == "delta"
    cases["appended"] = (compressed, engine)
    for compressed, _engine in cases.values():
        assert list(compressed.file_names) != sorted(compressed.file_names)
    return cases


@pytest.fixture(scope="session")
def dataset_compressed():
    """Every Table II dataset analogue (A–E) at scale 0.05, compressed, by key."""
    return {key: compress_corpus(generate_dataset(key, scale=0.05)) for key in list_datasets()}


@pytest.fixture(scope="session")
def replay_cases(few_files_compressed, dataset_compressed):
    """``(label, compressed, TraceConfig)`` inputs of the serving replay tests.

    The few-files corpus with a short trace, then every Table II analogue
    with the seed-17, 48-request trace.
    """
    return [("few_files", few_files_compressed, TraceConfig(num_requests=32, seed=5))] + [
        (key, compressed, TraceConfig(num_requests=48, seed=17))
        for key, compressed in dataset_compressed.items()
    ]


@pytest.fixture(scope="session")
def tiny_reference(tiny_corpus) -> UncompressedAnalytics:
    return UncompressedAnalytics(tiny_corpus)


@pytest.fixture(scope="session")
def many_files_reference(many_files_corpus) -> UncompressedAnalytics:
    return UncompressedAnalytics(many_files_corpus)


@pytest.fixture(scope="session")
def few_files_reference(few_files_corpus) -> UncompressedAnalytics:
    return UncompressedAnalytics(few_files_corpus)


class BatchGate:
    """Holds a serving core's first micro-batch until :meth:`release`.

    Wraps the service's ``_execute_batch`` (the threaded service runs it
    on the leader's thread, the asyncio one on an executor thread), so a
    test can queue followers behind a batch known to be executing and
    then read off how the queue was batched.  ``sizes`` records each
    batch as it starts, ``completed`` as it finishes.
    """

    #: Upper bound on any wait here, so a broken test fails instead of hanging.
    TIMEOUT = 10.0

    def __init__(self, service) -> None:
        self._coalescer = service._coalescer
        self._executing = threading.Event()
        self._release = threading.Event()
        self.sizes: List[int] = []
        self.completed: List[int] = []
        original = service._execute_batch

        def gated(entry, batch) -> None:
            self.sizes.append(len(batch))
            if len(self.sizes) == 1:
                self._executing.set()
                self._release.wait(self.TIMEOUT)
            original(entry, batch)
            self.completed.append(len(batch))

        service._execute_batch = gated

    def release(self) -> None:
        self._release.set()

    def queued(self) -> int:
        """Requests waiting in the service's coalescing groups."""
        return sum(len(group.pending) for group in list(self._coalescer._groups.values()))

    def wait_executing(self) -> None:
        """Block until the first batch is held (threaded callers)."""
        assert self._executing.wait(self.TIMEOUT), "the first batch never started"

    async def until_executing(self) -> None:
        """Await, without blocking the event loop, until the first batch is held."""
        await asyncio.get_running_loop().run_in_executor(None, self.wait_executing)

    def wait_queued(self, count: int) -> None:
        """Block until ``count`` requests queue behind the held batch (threaded callers)."""
        deadline = time.monotonic() + self.TIMEOUT
        while self.queued() < count:
            assert time.monotonic() < deadline, f"only {self.queued()} of {count} queued"
            time.sleep(0.001)

    async def until_queued(self, count: int) -> None:
        """Yield to the event loop until ``count`` requests have queued."""
        for _ in range(1000):
            if self.queued() >= count:
                return
            await asyncio.sleep(0)
        raise AssertionError(f"only {self.queued()} of {count} queued")


@pytest.fixture
def gate_first_batch():
    """``gate_first_batch(service)`` returns a :class:`BatchGate` on ``service``.

    Every gate is released at teardown, so a failing test never leaves a
    worker thread blocked.
    """
    gates: List[BatchGate] = []

    def make(service) -> BatchGate:
        gate = BatchGate(service)
        gates.append(gate)
        return gate

    yield make
    for gate in gates:
        gate.release()
