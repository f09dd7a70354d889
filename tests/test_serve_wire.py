"""Wire-codec tests: every serving data-plane type crosses the process
boundary losslessly, frames verify their integrity, the codec stays
closed (unknown types fail loudly instead of degrading), and every
malformed body is a ``WireError``."""

from __future__ import annotations

import builtins
import functools
import os
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.base import Task
from repro.api.outcome import PhasePerf, RunOutcome, RunPerf
from repro.api.query import Query
from repro.compression.compressor import compress_corpus
from repro.core.session import GTadocConfig
from repro.core.strategy import TraversalStrategy
from repro.data.corpus import Corpus
from repro.relational.spec import (
    Aggregate,
    Condition,
    FieldSpec,
    RelationalQuery,
    RowSchema,
)
from repro.serve import AnalyticsService, TraceConfig, synthesize_trace
from repro.serve import wire
from repro.serve.caches import CacheStats
from repro.serve.trace import MutationEvent


def roundtrip(value):
    return wire.decode_frame(wire.encode_frame(value))


def framed(body: bytes) -> bytes:
    """``body`` behind a correct length header."""
    return struct.pack(">I", len(body)) + body


RELATIONAL = RelationalQuery(
    schema=RowSchema(
        fields=(
            FieldSpec(name="city", type="str", column=0),
            FieldSpec(name="pop", type="int", column=1),
        ),
        delimiter=",",
    ),
    predicate=(Condition(field="pop", op="gt", value=10),),
    group_by="city",
    aggregates=(Aggregate(op="count"), Aggregate(op="sum", field="pop")),
    order_by="sum(pop)",
)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            0.1 + 0.2,  # repr round-trip keeps floats exact
            "",
            "tokens and spaces",
            [1, "two", None],
            (1, (2, 3), []),
            {"a": 1, "b": [2.0]},
            {("tuple", "key"): {"nested": (1,)}},  # session keys
            Task.WORD_COUNT,
            TraversalStrategy.TOP_DOWN,
            {1, 2, 3},
            frozenset({"a", "b"}),
        ],
    )
    def test_scalars_and_containers(self, value):
        decoded = roundtrip(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_query_full_knobs(self):
        query = Query(
            task=Task.SEQUENCE_COUNT,
            sequence_length=4,
            top_k=7,
            files=("a.txt", "b.txt"),
            terms=("alpha", "beta"),
            traversal=TraversalStrategy.BOTTOM_UP,
            extras={"tag": "hot", "trace": 3},
        )
        assert roundtrip(query) == query

    def test_relational_query(self):
        query = Query(task=Task.RELATIONAL, extras={"relational": RELATIONAL})
        decoded = roundtrip(query)
        assert decoded == query
        assert decoded.extras["relational"] == RELATIONAL

    def test_mutation_event(self):
        event = MutationEvent(
            kind="append", documents=(("new.txt", "fresh tokens here"),), source=1
        )
        assert roundtrip(event) == event

    def test_engine_config(self):
        config = GTadocConfig(sequence_length=5, use_memory_pool=False)
        assert roundtrip(config) == config

    def test_run_outcome_drops_raw_keeps_everything_else(self):
        outcome = RunOutcome(
            query=Query(task=Task.WORD_COUNT, top_k=3),
            backend="serve_sharded",
            task=Task.WORD_COUNT,
            result={"alpha": 4, "beta": 2},
            perf=RunPerf(
                initialization=PhasePerf(kernel_launches=1, ops=10.0),
                traversal=PhasePerf(kernel_launches=2, ops=20.0, memory_bytes=64.0),
            ),
            raw=object(),  # engine-internal; must not cross the wire
            details={"strategy": TraversalStrategy.TOP_DOWN.value, "cached": False},
        )
        decoded = roundtrip(outcome)
        assert decoded.raw is None
        for field in ("query", "backend", "task", "result", "perf", "details"):
            assert getattr(decoded, field) == getattr(outcome, field)

    def test_service_stats(self):
        corpus = Corpus.from_texts({"a.txt": "alpha beta alpha " * 20})
        service = AnalyticsService(corpus)
        service.submit(Query(task=Task.WORD_COUNT))
        stats = service.stats()
        decoded = roundtrip(stats)
        assert decoded == stats
        assert isinstance(decoded.session_cache, CacheStats)

    def test_codec_is_closed(self):
        refused = [
            object(),
            np.int64(3),
            np.float64(0.5),
            np.arange(3),
            {"nested": [complex(1, 2)]},
            type("LocalPerf", (PhasePerf,), {})(),  # subclasses are not allowlisted
            Corpus,
            len,
        ]
        for value in refused:
            with pytest.raises(TypeError, match="cannot encode"):
                wire.encode_frame(value)


class TestFraming:
    def test_truncated_frame_rejected(self):
        with pytest.raises(wire.WireError, match="truncated"):
            wire.decode_frame(b"\x00\x00")

    def test_length_mismatch_rejected(self):
        frame = wire.encode_frame({"key": "value"})
        with pytest.raises(wire.WireError, match="length mismatch"):
            wire.decode_frame(frame[:-1])

    def test_unknown_global_rejected(self):
        # A well-formed pickle of a class outside the allowlist.
        body = pickle.dumps(Corpus, protocol=5)
        with pytest.raises(wire.WireError, match="refuses global repro.data.corpus.Corpus"):
            wire.decode_frame(framed(body))

    def test_malformed_body_rejected(self):
        body = wire.encode_frame(["tokens", (1, 2)])[4:]
        with pytest.raises(wire.WireError, match="truncated body"):
            wire.decode_frame(framed(body[:-1]))
        with pytest.raises(wire.WireError, match="follow the body's STOP"):
            wire.decode_frame(framed(body + body))
        # Valid opcodes in an order the unpickler cannot execute.
        with pytest.raises(wire.WireError, match="malformed wire body"):
            wire.decode_frame(framed(b"\x80\x05e."))

    @pytest.mark.parametrize("module, name", [("os", "system"), ("builtins", "eval")])
    def test_dangerous_globals_are_never_called(self, monkeypatch, module, name):
        calls = []
        monkeypatch.setattr(
            {"os": os, "builtins": builtins}[module], name, lambda *args: calls.append(args)
        )
        module_bytes, name_bytes = module.encode(), name.encode()
        bodies = [
            # Protocol 0: GLOBAL, then REDUCE on a one-string tuple.
            b"c" + module_bytes + b"\n" + name_bytes + b"\n(S'echo hi'\ntR.",
            # Protocol 4+: STACK_GLOBAL, then REDUCE.
            b"\x80\x05\x8c" + bytes([len(module_bytes)]) + module_bytes
            + b"\x8c" + bytes([len(name_bytes)]) + name_bytes
            + b"\x93\x8c\x07echo hi\x85R.",
        ]
        for body in bodies:
            with pytest.raises(wire.WireError):
                wire.decode_frame(framed(body))
        assert calls == []

    def test_memo_index_cannot_size_the_decoder(self):
        # LONG_BINPUT at index 2**24: CPython's unpickler would grow its
        # memo to 2**25 slots before noticing anything wrong.
        body = b"\x80\x05Nr" + struct.pack("<I", 1 << 24) + b"."
        with pytest.raises(wire.WireError, match="not in the wire format"):
            wire.decode_frame(framed(body))


class TestTraceSpaceProperty:
    """Property-based closure: *everything* the trace synthesizer can
    produce — every task, knob combination, relational spec and mutation
    event — round-trips through the codec unchanged."""

    FILE_NAMES = tuple(f"doc_{index}.txt" for index in range(5))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_synthesized_traces_roundtrip(self, seed):
        config = TraceConfig(
            num_requests=24,
            seed=seed,
            relational_fraction=0.3,
            mutation_fraction=0.2,
            sequence_lengths=(None, 3, 5),
        )
        trace = synthesize_trace(self.FILE_NAMES, config)
        for item in trace:
            decoded = roundtrip(item)
            assert decoded == item
            assert type(decoded) is type(item)


@functools.lru_cache(maxsize=None)
def _real_bodies():
    """Frame bodies of the messages a process shard exchanges."""
    compressed = compress_corpus(
        Corpus.from_texts({"a.txt": "alpha beta gamma " * 30, "b.txt": "beta delta " * 25})
    )
    service = AnalyticsService()
    outcome = service.submit(Query(task=Task.INVERTED_INDEX, top_k=3), source=compressed)
    relational = Query(task=Task.RELATIONAL, extras={"relational": RELATIONAL})
    messages = [
        ("ok", outcome),
        ("ok", service.stats()),
        ("snapshot", wire.corpus_snapshot(compressed)),
        ("submit", {"uid": compressed.uid, "query": relational, "engine_config": GTadocConfig()}),
    ]
    return [wire.encode_frame(message)[4:] for message in messages]


@st.composite
def malformed_bodies(draw):
    body = bytearray(draw(st.sampled_from(_real_bodies())))
    how = draw(st.sampled_from(("truncate", "flip", "random")))
    if how == "truncate":
        return bytes(body[: draw(st.integers(0, len(body) - 1))])
    if how == "flip":
        positions = st.integers(0, len(body) - 1)
        for position, mask in draw(
            st.lists(st.tuples(positions, st.integers(1, 255)), min_size=1, max_size=8)
        ):
            body[position] ^= mask
        return bytes(body)
    return draw(st.binary(max_size=256))


class TestMalformedBodies:
    """Fuzzed bodies behind a correct header either decode or raise
    ``WireError`` — never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(body=malformed_bodies())
    def test_every_malformed_body_is_a_wire_error(self, body):
        try:
            wire.decode_frame(framed(body))
        except wire.WireError:
            pass


class TestCorpusShipping:
    def _compressed(self):
        return compress_corpus(
            Corpus.from_texts(
                {
                    "a.txt": "alpha beta gamma delta " * 25,
                    "b.txt": "epsilon zeta eta theta " * 20,
                }
            )
        )

    def test_snapshot_roundtrip_preserves_identity_and_content(self):
        primary = self._compressed()
        replica = wire.corpus_from_snapshot(wire.corpus_snapshot(primary))
        assert replica.uid == primary.uid
        assert replica.version == primary.version
        assert replica.fingerprint() == primary.fingerprint()
        assert replica.file_names == primary.file_names
        for index in range(len(primary.file_names)):
            assert replica.expand_file_tokens(index) == primary.expand_file_tokens(index)

    def test_append_delta_reproduces_primary_bit_for_bit(self):
        primary = self._compressed()
        replica = wire.corpus_from_snapshot(wire.corpus_snapshot(primary))
        shipped_version, shipped_files = primary.version, len(primary.file_names)

        MutationEvent(
            kind="append", documents=(("c.txt", "iota kappa " * 15),)
        ).apply(primary)
        delta = wire.corpus_delta(primary, shipped_version, shipped_files)
        assert delta is not None
        wire.apply_corpus_delta(replica, delta)
        assert replica.fingerprint() == primary.fingerprint()
        assert replica.version == primary.version
        assert replica.uid == primary.uid

    def test_replace_mutation_forces_snapshot_fallback(self):
        primary = self._compressed()
        shipped_version, shipped_files = primary.version, len(primary.file_names)
        MutationEvent(
            kind="replace", documents=(("a.txt", "rewritten text " * 10),)
        ).apply(primary)
        assert wire.corpus_delta(primary, shipped_version, shipped_files) is None
        # The fallback snapshot still carries the routing identity.
        snapshot = wire.corpus_snapshot(primary)
        assert snapshot["uid"] == primary.uid
        assert snapshot["version"] == primary.version

    def test_snapshot_payload_is_wire_encodable(self):
        primary = self._compressed()
        assert roundtrip(wire.corpus_snapshot(primary)) == wire.corpus_snapshot(primary)

    def test_adopt_snapshot_refreshes_in_place(self):
        primary = self._compressed()
        replica = wire.corpus_from_snapshot(wire.corpus_snapshot(primary))
        MutationEvent(
            kind="replace", documents=(("a.txt", "fresh epoch " * 12),)
        ).apply(primary)
        before = replica
        wire.adopt_corpus_snapshot(replica, wire.corpus_snapshot(primary))
        assert replica is before  # same object: warm sessions can rekey
        assert replica.fingerprint() == primary.fingerprint()
        assert replica.version == primary.version
