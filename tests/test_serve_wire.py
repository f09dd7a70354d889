"""Wire-codec tests: every serving data-plane type crosses the process
boundary losslessly, frames verify their integrity, the codec stays
closed (unknown types fail loudly instead of degrading), every
malformed body is a ``WireError``, the compiled opcode check agrees
with the reference walk, and results cross as their cached snapshots."""

from __future__ import annotations

import builtins
import functools
import os
import pickle
import pickletools
import struct
import tracemalloc

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
from repro.data.generators import generate_dataset
from repro.relational.spec import (
    Aggregate,
    Condition,
    FieldSpec,
    RelationalQuery,
    RowSchema,
)
from repro.serve import AnalyticsService, ServiceConfig, TraceConfig, synthesize_trace
from repro.serve import wire, worker
from repro.serve.caches import CacheStats
from repro.serve.trace import MutationEvent
from tests.test_serve import _assert_type_exact


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


def reference_check_opcodes(body: bytes) -> None:
    """The opcode walk ``wire._check_opcodes`` replaced, one opcode per step.

    It is the reference the compiled check must match: the same bodies
    accepted, and the same ``WireError`` message for every refused one.
    """
    index, end = 0, len(body)
    while index < end:
        opcode = body[index]
        step = wire._STEPS[opcode]
        if step:
            index += step
        elif step is None:
            raise wire.WireError(f"opcode {opcode:#04x} at byte {index} is not in the wire format")
        elif opcode == pickle.STOP[0]:
            if index + 1 != end:
                raise wire.WireError(f"{end - index - 1} bytes follow the body's STOP")
            return
        else:
            start = index + 1 + wire._PREFIX_WIDTHS[opcode]
            index = start + int.from_bytes(body[index + 1:start], "little")
    raise wire.WireError("truncated body: no STOP within the frame")


def _verdict(check, body: bytes):
    """``None`` if ``check`` accepts ``body``, else its ``WireError`` message."""
    try:
        check(body)
    except wire.WireError as error:
        return str(error)
    return None


@functools.lru_cache(maxsize=None)
def _real_bodies():
    """Bodies of the messages a process shard exchanges, small and large.

    The large ones span several of the check's windows: a whole ranked
    inverted index of a generated dataset, its result snapshot, and the
    dataset's corpus snapshot.
    """
    compressed = compress_corpus(
        Corpus.from_texts({"a.txt": "alpha beta gamma " * 30, "b.txt": "beta delta " * 25})
    )
    service = AnalyticsService()
    outcome = service.submit(Query(task=Task.INVERTED_INDEX, top_k=3), source=compressed)
    relational = Query(task=Task.RELATIONAL, extras={"relational": RELATIONAL})
    dataset = compress_corpus(generate_dataset("C", scale=0.05))
    whole = service.submit(Query(task=Task.RANKED_INVERTED_INDEX), source=dataset)
    messages = [
        ("ok", outcome),
        ("ok", service.stats()),
        ("snapshot", wire.corpus_snapshot(compressed)),
        ("submit", {"uid": compressed.uid, "query": relational, "engine_config": GTadocConfig()}),
        ("ok", whole),
        ("snapshot", wire.corpus_snapshot(dataset)),
    ]
    return [wire.encode_frame(message)[4:] for message in messages] + [whole.snapshot]


@st.composite
def malformed_bodies(draw):
    body = bytearray(draw(st.sampled_from(_real_bodies())))
    how = draw(st.sampled_from(("truncate", "flip", "extend", "random")))
    if how == "truncate":
        return bytes(body[: draw(st.integers(0, len(body) - 1))])
    if how == "flip":
        positions = st.integers(0, len(body) - 1)
        for position, mask in draw(
            st.lists(st.tuples(positions, st.integers(1, 255)), min_size=1, max_size=8)
        ):
            body[position] ^= mask
        return bytes(body)
    if how == "extend":
        return bytes(body) + draw(st.binary(min_size=1, max_size=64))
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


class TestOpcodeCheck:
    """The compiled check accepts and refuses exactly what the reference
    walk does, with the same messages, in bounded memory."""

    def test_real_bodies_are_accepted(self):
        for body in _real_bodies():
            assert _verdict(wire._check_opcodes, body) is None
            assert _verdict(reference_check_opcodes, body) is None
        assert max(len(body) for body in _real_bodies()) > 4 * wire._WINDOW

    @settings(max_examples=400, deadline=None)
    @given(body=malformed_bodies())
    def test_check_matches_the_reference_walk(self, body):
        assert _verdict(wire._check_opcodes, body) == _verdict(reference_check_opcodes, body)

    @pytest.mark.parametrize("size", range(254, 259))
    def test_strings_across_a_window_edge(self, size):
        # A string token straddles the first window's edge at every offset.
        body = wire.encode_frame(["x" * (wire._WINDOW - 16 - size), "y" * size, 7])[4:]
        for cut in range(len(body) + 1):
            assert _verdict(wire._check_opcodes, body[:cut]) == _verdict(
                reference_check_opcodes, body[:cut]
            )

    def test_memory_stays_bounded_on_a_large_body(self):
        body = wire.encode_frame(list(range(150_000)))[4:]
        assert sum(1 for _ in pickletools.genops(body)) > 100_000
        tracemalloc.start()
        try:
            wire._check_opcodes(body)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestResultCrossing:
    """A shard's reply carries each result as its cached snapshot."""

    QUERY = Query(task=Task.RANKED_INVERTED_INDEX)

    def _host(self):
        host = worker.ShardHost("crossing", None, ServiceConfig())
        compressed = compress_corpus(generate_dataset("C", scale=0.05))
        host.handle("snapshot", wire.corpus_snapshot(compressed))
        return host, {"uid": compressed.uid, "query": self.QUERY, "engine_config": None}

    @staticmethod
    def _cached_snapshot(host):
        (entry,) = host.service._results._entries.values()
        return entry.value.snapshot

    def test_hit_frame_ships_the_cache_entry_bytes_undecoded(self, monkeypatch):
        host, payload = self._host()
        miss = host.handle("submit", payload)
        cached = self._cached_snapshot(host)
        decoded = []
        loads = pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda data, **kw: decoded.append(data) or loads(data, **kw))
        hit = host.handle("submit", payload)
        frame = wire.encode_frame(("ok", hit))
        assert hit.details["result_cache"] == "hit"
        assert decoded == []
        assert "result" not in vars(hit)
        assert hit.snapshot is cached
        assert cached in frame
        status, received = wire.decode_frame(frame)
        assert status == "ok"
        assert received.snapshot == cached
        _assert_type_exact(received.result, miss.result, "hit")

    def test_miss_pickles_its_result_once(self, monkeypatch):
        host, payload = self._host()
        pickled = []
        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj, **kw: pickled.append(obj) or dumps(obj, **kw))
        miss = host.handle("submit", payload)
        frame = wire.encode_frame(("ok", miss))
        assert len(pickled) == 1 and pickled[0] is miss.result
        cached = self._cached_snapshot(host)
        assert miss.snapshot is cached
        # The frame is that snapshot plus the outcome's small fields.
        assert frame.count(cached) == 1
        assert len(frame) < len(cached) + 1024
        _assert_type_exact(wire.decode_frame(frame)[1].result, miss.result, "miss")

    def test_bad_snapshot_is_a_wire_error_at_the_boundary(self):
        host, payload = self._host()
        miss = host.handle("submit", payload)
        for snapshot, message in [
            (pickle.dumps({"count": np.int64(3)}, protocol=5), "refuses global numpy"),
            (miss.snapshot[:-1], "truncated body"),
            (miss.snapshot + b"x", "follow the body's STOP"),
        ]:
            bad = RunOutcome.from_snapshot(
                snapshot, query=self.QUERY, backend="serve", task=self.QUERY.task
            )
            with pytest.raises(wire.WireError, match=message):
                wire.decode_frame(wire.encode_frame(("ok", bad)))


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
