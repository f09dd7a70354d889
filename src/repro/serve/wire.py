"""Length-prefixed wire codec for the process-shard transport.

A :class:`~repro.serve.transport.ProcessTransport` talks to its worker
over a byte pipe, so everything the serving data plane exchanges —
queries, outcomes, corpus snapshots/deltas, stats — crosses a process
boundary as one frame.  This module is that contract:

* **Trust boundary.**  Frames only travel between a router and the
  worker processes it spawned itself, over the pipe it created for
  them.  Inside that boundary the body codec is stdlib :mod:`pickle`,
  protocol 5: each wire type's fields live only in its own class, and
  the C pickler costs a fraction of a hand-written encoding.  The
  allowlist below keeps the codec closed; it does not make pickle safe
  to accept from a peer outside the boundary, such as a socket.
* **Closed codec.**  Besides builtin scalars and containers, a body may
  hold instances of exactly the classes in :data:`_WIRE_TYPES`.
  Encoding any other instance, class or function raises ``TypeError``,
  so a field that starts carrying an engine object fails loudly in the
  round-trip tests instead of reaching a worker.  Decoding resolves
  globals only from the same allowlist and raises :class:`WireError`
  for any other name without importing or calling it.  A
  :class:`RunOutcome` crosses with ``raw=None``: the engine-internal run
  object stays behind, as it does for cached hits.
* **Malformed bodies.**  Any failure to decode a correctly framed body
  raises :class:`WireError`.  Before the unpickler runs, the body's
  opcodes are walked once: only the opcodes protocol 5 emits for wire
  values are accepted, and every length must end inside the body.
  That keeps decoding bounded by the body's size — CPython's unpickler
  sizes its memo from a ``PUT`` index before checking it.
* **Framing.**  :func:`encode_frame` prefixes the body with its
  big-endian ``uint32`` length; :func:`decode_frame` verifies the
  prefix against the received byte count.  ``multiprocessing`` pipes
  already preserve message boundaries, so the prefix is an integrity
  tripwire against torn writes.
* **Corpus shipping.**  :func:`corpus_snapshot` captures a coherent
  full replica (content + ``uid``/``version``/``fingerprint`` identity)
  under the corpus lock; :func:`corpus_from_snapshot` and
  :func:`adopt_corpus_snapshot` rebuild it worker-side — adopting *in
  place* for a known uid, because serving cores rekey warm state by
  corpus object identity.
"""

from __future__ import annotations

import io
import pickle
import pickletools
import struct
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.analytics.base import Task
from repro.api.outcome import PhasePerf, RunOutcome, RunPerf
from repro.api.query import FrozenExtras, Query
from repro.compression.compressor import CompressedCorpus
from repro.compression.dictionary import Dictionary
from repro.compression.grammar import Grammar, Rule
from repro.core.session import GTadocConfig
from repro.core.strategy import TraversalStrategy
from repro.relational.spec import (
    Aggregate,
    Condition,
    FieldSpec,
    RelationalQuery,
    RowSchema,
)
from repro.serve.caches import CacheStats
from repro.serve.service import ServiceStats
from repro.serve.trace import MutationEvent

__all__ = [
    "WireError",
    "encode_frame",
    "decode_frame",
    "corpus_snapshot",
    "corpus_from_snapshot",
    "adopt_corpus_snapshot",
    "corpus_delta",
    "apply_corpus_delta",
]

#: Frame header: big-endian uint32 body length.
_HEADER = struct.Struct(">I")

#: Pickle protocol of every body; no buffer travels out of band.
_PROTOCOL = 5

#: The classes whose instances a body may hold.  Numpy types are
#: deliberately absent: no array or numpy scalar crosses the wire.
_WIRE_TYPES = frozenset(
    {
        Task,
        TraversalStrategy,
        Query,
        FrozenExtras,
        RelationalQuery,
        RowSchema,
        FieldSpec,
        Condition,
        Aggregate,
        MutationEvent,
        PhasePerf,
        RunPerf,
        RunOutcome,
        GTadocConfig,
        CacheStats,
        ServiceStats,
    }
)
_GLOBALS = {(cls.__module__, cls.__qualname__): cls for cls in _WIRE_TYPES}

#: The opcodes protocol 5 emits for wire values.  Text-argument, memo
#: ``PUT``, extension-registry, persistent-id and out-of-band buffer
#: opcodes are refused.
_OPCODES = frozenset(
    """PROTO FRAME STOP NONE NEWTRUE NEWFALSE BININT BININT1 BININT2 LONG1 LONG4
    BINFLOAT SHORT_BINUNICODE BINUNICODE BINUNICODE8 SHORT_BINBYTES BINBYTES
    BINBYTES8 BYTEARRAY8 EMPTY_LIST APPEND APPENDS EMPTY_DICT SETITEM SETITEMS
    EMPTY_SET ADDITEMS FROZENSET EMPTY_TUPLE TUPLE TUPLE1 TUPLE2 TUPLE3 MARK POP
    POP_MARK MEMOIZE BINGET LONG_BINGET STACK_GLOBAL NEWOBJ REDUCE BUILD""".split()
)
_STOP = pickle.STOP[0]


def _opcode_steps() -> Tuple[List[Optional[int]], List[int]]:
    """Per opcode byte: bytes to step over, and its length-prefix width.

    The step covers the opcode and a fixed-size argument; it is ``0``
    for ``STOP`` and for a length-prefixed argument (whose prefix width
    is then non-zero), and ``None`` for a refused opcode.
    """
    prefix_widths = {
        pickletools.TAKEN_FROM_ARGUMENT1: 1,
        pickletools.TAKEN_FROM_ARGUMENT4: 4,
        pickletools.TAKEN_FROM_ARGUMENT4U: 4,
        pickletools.TAKEN_FROM_ARGUMENT8U: 8,
    }
    steps: List[Optional[int]] = [None] * 256
    widths = [0] * 256
    for opcode in pickletools.opcodes:
        if opcode.name not in _OPCODES:
            continue
        code = ord(opcode.code)
        size = opcode.arg.n if opcode.arg is not None else 0
        if size in prefix_widths:
            steps[code], widths[code] = 0, prefix_widths[size]
        else:
            steps[code] = 0 if code == _STOP else 1 + size
    return steps, widths


_STEPS, _PREFIX_WIDTHS = _opcode_steps()


class WireError(ValueError):
    """A frame or payload that violates the wire contract."""


class _Pickler(pickle.Pickler):
    def reducer_override(self, obj: Any) -> Any:
        # Builtin scalars and containers are pickled before this hook.
        cls = type(obj)
        if cls is RunOutcome and obj.raw is not None:
            return replace(obj, raw=None).__reduce_ex__(_PROTOCOL)
        if cls in _WIRE_TYPES or (isinstance(obj, type) and obj in _WIRE_TYPES):
            return NotImplemented
        raise TypeError(f"wire codec cannot encode {cls.__name__}: {obj!r}")


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        try:
            return _GLOBALS[module, name]
        except KeyError:
            raise WireError(f"wire codec refuses global {module}.{name}") from None


def _check_opcodes(body: bytes) -> None:
    """Walk ``body``'s opcodes without executing them (see module doc)."""
    index, end = 0, len(body)
    while index < end:
        opcode = body[index]
        step = _STEPS[opcode]
        if step:
            index += step
        elif step is None:
            raise WireError(f"opcode {opcode:#04x} at byte {index} is not in the wire format")
        elif opcode == _STOP:
            if index + 1 != end:
                raise WireError(f"{end - index - 1} bytes follow the body's STOP")
            return
        else:
            start = index + 1 + _PREFIX_WIDTHS[opcode]
            index = start + int.from_bytes(body[index + 1:start], "little")
    raise WireError("truncated body: no STOP within the frame")


# ----------------------------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------------------------

def encode_frame(value: Any) -> bytes:
    """One wire frame: uint32 body length + the pickled body."""
    stream = io.BytesIO()
    _Pickler(stream, _PROTOCOL).dump(value)
    body = stream.getvalue()
    return _HEADER.pack(len(body)) + body


def decode_frame(frame: bytes) -> Any:
    """Decode one frame; every malformed frame raises :class:`WireError`."""
    if len(frame) < _HEADER.size:
        raise WireError(f"truncated frame: {len(frame)} bytes")
    (length,) = _HEADER.unpack_from(frame)
    body = frame[_HEADER.size:]
    if len(body) != length:
        raise WireError(
            f"frame length mismatch: header says {length} bytes, got {len(body)}"
        )
    _check_opcodes(body)
    try:
        return _Unpickler(io.BytesIO(body)).load()
    except WireError:
        raise
    except Exception as error:
        raise WireError(f"malformed wire body: {error!r}") from error


# ----------------------------------------------------------------------------------------
# Corpus shipping
# ----------------------------------------------------------------------------------------

def corpus_snapshot(compressed: CompressedCorpus) -> Dict[str, Any]:
    """A coherent full-replica payload of ``compressed``'s current epoch.

    Content (the on-disk serializer's shape) plus identity: ``uid``,
    ``version`` and the current ``fingerprint`` — the worker's replica
    is stamped with all three so routing identity and the mutable-corpora
    epoch protocol survive the process boundary.
    """
    with compressed.lock:
        return {
            "name": compressed.name,
            "file_names": list(compressed.file_names),
            "splitter_ids": list(compressed.splitter_ids),
            "original_size_bytes": compressed.original_size_bytes,
            "original_tokens": compressed.original_tokens,
            "dictionary": compressed.dictionary.to_dict(),
            "rules": [list(rule.symbols) for rule in compressed.grammar],
            "uid": compressed.uid,
            "version": compressed.version,
            "fingerprint": compressed.fingerprint(),
        }


def _snapshot_content(payload: Dict[str, Any]) -> Tuple[Dictionary, Grammar]:
    dictionary = Dictionary.from_dict(payload["dictionary"])
    rules = [
        Rule(rule_id=index, symbols=list(body))
        for index, body in enumerate(payload["rules"])
    ]
    return dictionary, Grammar(rules)


def corpus_from_snapshot(payload: Dict[str, Any]) -> CompressedCorpus:
    """Materialize a fresh replica from a :func:`corpus_snapshot` payload."""
    dictionary, grammar = _snapshot_content(payload)
    replica = CompressedCorpus(
        name=payload["name"],
        dictionary=dictionary,
        grammar=grammar,
        file_names=payload["file_names"],
        splitter_ids=payload["splitter_ids"],
        original_size_bytes=int(payload["original_size_bytes"]),
        original_tokens=int(payload["original_tokens"]),
    )
    replica.align_replica(
        uid=payload["uid"],
        version=payload["version"],
        fingerprint=payload["fingerprint"],
    )
    return replica


def adopt_corpus_snapshot(replica: CompressedCorpus, payload: Dict[str, Any]) -> None:
    """Swap a snapshot into an *existing* replica in place.

    Serving cores rekey warm sessions by corpus object identity when
    they observe a new epoch, so a worker must keep exactly one
    :class:`CompressedCorpus` object per uid for its whole lifetime.
    """
    dictionary, grammar = _snapshot_content(payload)
    with replica.lock:
        replica.adopt_epoch(
            dictionary=dictionary,
            grammar=grammar,
            file_names=payload["file_names"],
            splitter_ids=payload["splitter_ids"],
            original_size_bytes=int(payload["original_size_bytes"]),
            original_tokens=int(payload["original_tokens"]),
        )
        replica.align_replica(
            uid=payload["uid"],
            version=payload["version"],
            fingerprint=payload["fingerprint"],
        )


def corpus_delta(
    compressed: CompressedCorpus, since_version: int, known_files: int
) -> Optional[Dict[str, Any]]:
    """An append-only delta since ``since_version``, or ``None``.

    ``None`` means the delta path is unavailable — the epoch gap left
    the mutation-log window, or a rebuild (replace/remove) intervened —
    and the caller must ship a full snapshot instead.  The delta carries
    the appended files' token streams plus the target identity; applying
    it via :func:`apply_corpus_delta` reproduces the primary's grammar
    bit for bit because online Sequitur appends are deterministic and
    grouping-insensitive.
    """
    with compressed.lock:
        kinds = compressed.mutations_since(since_version)
        if kinds is None or any(kind != "append" for kind in kinds):
            return None
        if known_files > len(compressed.file_names):
            return None
        return {
            "uid": compressed.uid,
            "version": compressed.version,
            "fingerprint": compressed.fingerprint(),
            "appended": [
                [name, compressed.expand_file_tokens(index)]
                for index, name in enumerate(compressed.file_names)
                if index >= known_files
            ],
        }


def apply_corpus_delta(replica: CompressedCorpus, payload: Dict[str, Any]) -> None:
    """Apply an append delta to a replica and re-stamp its identity."""
    appended = {name: list(tokens) for name, tokens in payload["appended"]}
    with replica.lock:
        if appended:
            replica.append_files(appended)
        replica.align_replica(
            uid=payload["uid"],
            version=payload["version"],
            fingerprint=payload["fingerprint"],
        )
