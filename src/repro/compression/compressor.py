"""End-to-end TADOC compression: corpus -> dictionary + grammar + DAG.

The pipeline follows Figure 1 of the paper:

1. tokenize every document and encode words as integers
   (*dictionary conversion*, Figure 1(b)),
2. concatenate the documents' id streams with unique splitter symbols
   at file boundaries,
3. run Sequitur over the combined stream (*CFG construction*,
   Figure 1(c)/(d)) — splitters occur exactly once, so they always stay
   in the root rule, which keeps file boundaries visible at the root,
4. build the DAG view used by every analytics traversal (Figure 1(e)).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.lockcheck import make_lock
from repro.compression.dag import DagStatistics, GrammarDAG
from repro.compression.dictionary import Dictionary
from repro.compression.grammar import Grammar, Rule, is_rule_ref, rule_ref_id
from repro.compression.sequitur import SequiturEncoder
from repro.data.corpus import Corpus, Document

__all__ = ["CompressedCorpus", "TadocCompressor", "compress_corpus"]

#: Internal splitter ids live in their own high range while the grammar
#: is being built online, because canonical splitter ids (``num_words +
#: k``) are only known once the word registry stops growing.  Sequitur
#: depends on symbol *equality* only, and a splitter occurs exactly once
#: per stream, so relabeling splitters at snapshot time is a bijection
#: on terminals that cannot change the grammar's structure.
_SPLITTER_BASE = 1 << 40


class _OnlineGrammarBuilder:
    """Feed documents one at a time into a single live Sequitur stream.

    The builder owns a mutable word registry (string -> id, in
    first-encounter order — exactly the order the batch compressor
    assigns) and a live :class:`SequiturEncoder`.  ``snapshot()``
    materializes the canonical immutable triple (dictionary, grammar,
    splitter ids) at any point; appending more documents afterwards
    keeps the stream — and therefore every later snapshot — identical
    to what compressing the whole corpus from scratch would produce.
    """

    def __init__(self) -> None:
        self._encoder = SequiturEncoder().begin()
        self._word_ids: Dict[str, int] = {}
        self._words: List[str] = []
        self._num_documents = 0

    @property
    def num_documents(self) -> int:
        return self._num_documents

    def _word_id(self, word: str) -> int:
        word_id = self._word_ids.get(word)
        if word_id is None:
            word_id = len(self._words)
            self._word_ids[word] = word_id
            self._words.append(word)
        return word_id

    def append_document(self, tokens: Sequence[str]) -> None:
        """Extend the live stream with one document (and its splitter)."""
        stream: List[int] = []
        if self._num_documents > 0:
            stream.append(_SPLITTER_BASE + (self._num_documents - 1))
        stream.extend(self._word_id(token) for token in tokens)
        self._encoder.extend(stream)
        self._num_documents += 1

    def snapshot(self) -> Tuple[Dictionary, Grammar, List[int]]:
        """Canonical (dictionary, grammar, splitter_ids) for the stream so far."""
        dictionary = Dictionary()
        for word in self._words:
            dictionary.encode_word(word)
        splitter_ids = dictionary.allocate_splitters(max(0, self._num_documents - 1))
        num_words = len(self._words)
        raw = self._encoder.snapshot()
        rules: List[Rule] = []
        for rule in raw:
            symbols: List[int] = []
            for symbol in rule.symbols:
                if not is_rule_ref(symbol) and symbol >= _SPLITTER_BASE:
                    symbol = num_words + (symbol - _SPLITTER_BASE)
                symbols.append(symbol)
            rules.append(Rule(rule_id=rule.rule_id, symbols=symbols))
        return dictionary, Grammar(rules), splitter_ids


@dataclass(frozen=True)
class CompressionStatistics:
    """Table II style statistics for a compressed corpus."""

    original_size_bytes: int
    original_tokens: int
    num_files: int
    num_rules: int
    vocabulary_size: int
    compressed_symbols: int
    compression_ratio: float
    dag: DagStatistics


class CompressedCorpus:
    """A corpus in TADOC compressed form.

    This is the input object of every analytics engine in the library
    (CPU TADOC, parallel TADOC, distributed TADOC and G-TADOC).
    """

    def __init__(
        self,
        name: str,
        dictionary: Dictionary,
        grammar: Grammar,
        file_names: Sequence[str],
        splitter_ids: Sequence[int],
        original_size_bytes: int,
        original_tokens: int,
        builder: Optional[_OnlineGrammarBuilder] = None,
    ) -> None:
        self.name = name
        #: Mutation epoch: bumped once per successful mutation call.
        self.version = 0
        self._uid: Optional[str] = None
        #: Recent mutations as ``(resulting version, kind)`` — sessions
        #: consult this to pick the delta path (append) over a rebuild.
        self._mutation_log: List[Tuple[int, str]] = []
        #: Serializes mutations against readers that need a coherent
        #: multi-attribute view (sessions snapshotting a layout, the
        #: serving layer pairing version with fingerprint).
        self.lock = make_lock("corpus", reentrant=True)
        self._install_epoch(dictionary, grammar, file_names, splitter_ids, original_size_bytes, original_tokens, builder)

    def _install_epoch(
        self,
        dictionary: Dictionary,
        grammar: Grammar,
        file_names: Sequence[str],
        splitter_ids: Sequence[int],
        original_size_bytes: int,
        original_tokens: int,
        builder: Optional[_OnlineGrammarBuilder] = None,
        kind: Optional[str] = None,
    ) -> None:
        """Swap in one epoch's content and derive every field computed from it.

        ``kind`` names the mutation that produced the epoch; it bumps
        ``version`` and enters the mutation log.  Mutators hold the lock.
        """
        self._builder = builder
        self.dictionary = dictionary
        self.grammar = grammar
        self.file_names = list(file_names)
        self.splitter_ids = list(splitter_ids)
        self.original_size_bytes = original_size_bytes
        self.original_tokens = original_tokens
        self.dag = GrammarDAG(grammar)
        self._splitter_set = set(self.splitter_ids)
        self._root_segments = self._compute_root_segments()
        self._fingerprint: Optional[str] = None
        if kind is not None:
            self.version += 1
            self._mutation_log.append((self.version, kind))
            del self._mutation_log[:-64]

    # -- identity ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash identifying this compressed corpus.

        Two corpora with the same files, dictionary and grammar share a
        fingerprint regardless of how (or when) they were built, so the
        value is a safe cache key for anything derived from the
        compressed form — device sessions, query results, serialized
        artifacts.  The display ``name`` does not participate: renaming
        a corpus does not change any query result.  Mutations invalidate
        the memo, so the fingerprint always hashes the *current* epoch's
        content.
        """
        with self.lock:
            if self._fingerprint is None:
                payload = {
                    "file_names": self.file_names,
                    "splitter_ids": self.splitter_ids,
                    "dictionary": self.dictionary.to_dict(),
                    "rules": [rule.symbols for rule in self.grammar],
                }
                canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
                self._fingerprint = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            return self._fingerprint

    @property
    def uid(self) -> str:
        """Stable identity that survives mutations.

        The fingerprint at the corpus's first observation.  Routing
        (shard placement) keys on ``uid`` so a live corpus does not hop
        shards every time it is appended to; caches key on the
        per-epoch :meth:`fingerprint`.  For a corpus that is never
        mutated, ``uid == fingerprint()``.
        """
        with self.lock:
            if self._uid is None:
                self._uid = self.fingerprint()
            return self._uid

    # -- mutation ------------------------------------------------------------------
    def _normalize_documents(
        self,
        documents: Union[Corpus, Mapping[str, Union[str, Sequence[str]]], Iterable[Document]],
    ) -> List[Document]:
        if isinstance(documents, Corpus):
            return list(documents)
        if isinstance(documents, Mapping):
            normalized: List[Document] = []
            for doc_name, content in documents.items():
                if isinstance(content, str):
                    normalized.append(Document(doc_name, content))
                else:
                    normalized.append(Document.from_tokens(doc_name, content))
            return normalized
        out = list(documents)
        for document in out:
            if not isinstance(document, Document):
                raise TypeError("expected Document instances, a Corpus, or a mapping")
        return out

    def _ensure_builder(self) -> _OnlineGrammarBuilder:
        """The live builder, replaying current content if none is attached.

        Corpora that came out of :class:`TadocCompressor` carry their
        builder; deserialized or hand-built ones reconstruct an
        equivalent live stream from their own decompression (which is
        canonical because Sequitur is online and deterministic).
        """
        if self._builder is None:
            builder = _OnlineGrammarBuilder()
            for index in range(len(self.file_names)):
                builder.append_document(self.expand_file_tokens(index))
            self._builder = builder
        return self._builder

    def mutations_since(self, version: int) -> Optional[List[str]]:
        """Mutation kinds applied after ``version``, oldest first.

        ``None`` when ``version`` predates the retained log window (the
        caller must assume the worst and rebuild).
        """
        with self.lock:
            if version >= self.version:
                return []
            kinds = [k for v, k in self._mutation_log if v > version]
            if len(kinds) != self.version - version:
                return None
            return kinds

    # -- replica maintenance -------------------------------------------------------
    def adopt_epoch(
        self,
        *,
        dictionary: Dictionary,
        grammar: Grammar,
        file_names: Sequence[str],
        splitter_ids: Sequence[int],
        original_size_bytes: int,
        original_tokens: int,
    ) -> None:
        """Replace this corpus's entire content in place (replica refresh).

        The object keeps its identity — serving cores rekey warm
        sessions by corpus *object* identity when they observe a new
        epoch, so a shard worker must hold exactly one corpus object per
        uid and refresh it through this method rather than rebuilding.
        The live builder is dropped; a later incremental append lazily
        replays the adopted content through :meth:`_ensure_builder`.
        """
        with self.lock:
            self._install_epoch(
                dictionary, grammar, file_names, splitter_ids, original_size_bytes, original_tokens, kind="rebuild"
            )

    def align_replica(
        self, *, uid: str, version: int, fingerprint: Optional[str] = None
    ) -> None:
        """Stamp this replica with its primary's identity.

        A replica built from a shipped snapshot (or advanced by a
        shipped delta) has the primary's *content* but its own local
        ``uid``/``version`` bookkeeping; this re-stamps both so routing
        identity and the epoch protocol line up across the process
        boundary.  When the primary's version jumped further than the
        local mutation count (several primary mutations shipped as one),
        the newest log entry is re-stamped too — ``mutations_since`` then
        reports the gap honestly and epoch observers fall back to a
        rebuild instead of trusting a wrong delta.  ``fingerprint`` is a
        content tripwire: a mismatch means the replica diverged from its
        primary and raises instead of serving silently wrong answers.
        """
        with self.lock:
            if fingerprint is not None and self.fingerprint() != fingerprint:
                raise ValueError(
                    "replica content diverged from its primary: fingerprint "
                    f"{self.fingerprint()[:12]} != expected {fingerprint[:12]}"
                )
            if version < self.version:
                raise ValueError(
                    f"replica version cannot move backwards ({self.version} -> {version})"
                )
            if (
                version != self.version
                and self._mutation_log
                and self._mutation_log[-1][0] == self.version
            ):
                self._mutation_log[-1] = (version, self._mutation_log[-1][1])
            self.version = version
            self._uid = uid

    def append_files(
        self,
        documents: Union[Corpus, Mapping[str, Union[str, Sequence[str]]], Iterable[Document]],
    ) -> None:
        """Append new files, extending the grammar incrementally in place.

        Appends ride the online Sequitur path: the live encoder consumes
        the new documents' tokens (plus one fresh splitter per file
        boundary), so no existing content is re-encoded.  The result is
        bit-identical — grammar, dictionary, splitter ids, fingerprint —
        to compressing the extended corpus from scratch.
        """
        new_documents = self._normalize_documents(documents)
        if not new_documents:
            return
        with self.lock:
            names = set(self.file_names)
            for document in new_documents:
                if document.name in names:
                    raise ValueError(f"file {document.name!r} already exists in corpus")
                names.add(document.name)
            # uid must capture the pre-mutation identity before content moves.
            _ = self.uid
            builder = self._ensure_builder()
            for document in new_documents:
                builder.append_document(document.tokens)
            dictionary, grammar, splitter_ids = builder.snapshot()
            self._install_epoch(
                dictionary,
                grammar,
                self.file_names + [document.name for document in new_documents],
                splitter_ids,
                self.original_size_bytes + sum(d.size_bytes for d in new_documents),
                self.original_tokens + sum(d.num_tokens for d in new_documents),
                builder,
                kind="append",
            )

    def replace_file(
        self, name: str, content: Union[str, Sequence[str], Document]
    ) -> None:
        """Replace one file's content, rewriting only its root segment's sources.

        Sequitur's invariants are global (a digram freed inside the
        replaced file can merge with content anywhere else), so the
        canonical grammar is re-derived by replaying the kept files'
        token streams through a fresh live builder — still no raw-text
        re-tokenization, and the replay *is* the new live stream, so
        later appends stay incremental.
        """
        if isinstance(content, Document):
            document = Document(name, content.text)
            document._tokens = content._tokens
        elif isinstance(content, str):
            document = Document(name, content)
        else:
            document = Document.from_tokens(name, content)
        with self.lock:
            if name not in self.file_names:
                raise KeyError(name)
            index = self.file_names.index(name)
            _ = self.uid
            self._rebuild_with(
                {index: document}, removed=frozenset()
            )

    def remove_file(self, name: str) -> None:
        """Remove one file; the dictionary and grammar drop orphaned content.

        The grammar is re-derived from the kept files (rules whose only
        references lived in the removed file disappear — refcount GC
        falls out of the replay), keeping every invariant the scratch
        compressor guarantees.
        """
        with self.lock:
            if name not in self.file_names:
                raise KeyError(name)
            if len(self.file_names) == 1:
                raise ValueError("cannot remove the last file of a corpus")
            index = self.file_names.index(name)
            _ = self.uid
            self._rebuild_with({}, removed=frozenset({index}))

    def _rebuild_with(
        self, replacements: Mapping[int, Document], removed: frozenset
    ) -> None:
        """Replay kept + replacement token streams through a fresh builder."""
        builder = _OnlineGrammarBuilder()
        kept_names: List[str] = []
        total_tokens = 0
        total_bytes = 0
        for index, file_name in enumerate(self.file_names):
            if index in removed:
                continue
            if index in replacements:
                document = replacements[index]
                tokens = document.tokens
                size = document.size_bytes
            else:
                tokens = self.expand_file_tokens(index)
                size = len(" ".join(tokens).encode("utf-8"))
            builder.append_document(tokens)
            kept_names.append(file_name)
            total_tokens += len(tokens)
            total_bytes += size
        dictionary, grammar, splitter_ids = builder.snapshot()
        self._install_epoch(dictionary, grammar, kept_names, splitter_ids, total_bytes, total_tokens, builder, kind="rebuild")

    # -- file segmentation -------------------------------------------------------
    def _compute_root_segments(self) -> List[Tuple[int, int]]:
        """Half-open symbol ranges of the root body belonging to each file.

        Splitters occur exactly once in the input so Sequitur can never
        fold them into a sub-rule; they are guaranteed to sit in the
        root body, which this method also verifies.
        """
        root_symbols = self.grammar.root.symbols
        boundaries: List[int] = []
        for position, symbol in enumerate(root_symbols):
            if not is_rule_ref(symbol) and symbol in self._splitter_set:
                boundaries.append(position)
        if len(boundaries) != len(self.file_names) - 1 and len(self.file_names) > 0:
            raise ValueError(
                "splitter symbols missing from the root rule; "
                f"expected {len(self.file_names) - 1}, found {len(boundaries)}"
            )
        segments: List[Tuple[int, int]] = []
        start = 0
        for boundary in boundaries:
            segments.append((start, boundary))
            start = boundary + 1
        segments.append((start, len(root_symbols)))
        return segments

    @property
    def root_file_segments(self) -> List[Tuple[int, int]]:
        """Per-file half-open ranges ``(start, end)`` into the root body."""
        return list(self._root_segments)

    def is_splitter(self, symbol: int) -> bool:
        """True if the (terminal) symbol id is a file splitter."""
        return symbol in self._splitter_set

    # -- decompression -------------------------------------------------------------
    def expand_file_tokens(self, file_index: int) -> List[str]:
        """Fully expand one file back to its word tokens (verification path)."""
        start, end = self._root_segments[file_index]
        ids: List[int] = []
        for symbol in self.grammar.root.symbols[start:end]:
            if is_rule_ref(symbol):
                ids.extend(self.grammar.expand_rule(rule_ref_id(symbol)))
            else:
                ids.append(symbol)
        return self.dictionary.decode_tokens(ids)

    def decompress(self) -> Corpus:
        """Reconstruct the original corpus (used to verify losslessness)."""
        documents = [
            Document.from_tokens(name, self.expand_file_tokens(index))
            for index, name in enumerate(self.file_names)
        ]
        return Corpus(documents, name=self.name)

    # -- statistics ------------------------------------------------------------------
    def statistics(self) -> CompressionStatistics:
        compressed_symbols = self.grammar.total_symbols()
        ratio = (
            self.original_tokens / compressed_symbols if compressed_symbols else 0.0
        )
        return CompressionStatistics(
            original_size_bytes=self.original_size_bytes,
            original_tokens=self.original_tokens,
            num_files=len(self.file_names),
            num_rules=len(self.grammar),
            vocabulary_size=self.dictionary.num_words,
            compressed_symbols=compressed_symbols,
            compression_ratio=ratio,
            dag=self.dag.statistics(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompressedCorpus(name={self.name!r}, files={len(self.file_names)}, "
            f"rules={len(self.grammar)}, vocab={self.dictionary.num_words})"
        )


class TadocCompressor:
    """Compress a :class:`~repro.data.corpus.Corpus` into TADOC form."""

    def compress(self, corpus: Corpus) -> CompressedCorpus:
        builder = _OnlineGrammarBuilder()
        for document in corpus:
            builder.append_document(document.tokens)
        dictionary, grammar, splitter_ids = builder.snapshot()
        return CompressedCorpus(
            name=corpus.name,
            dictionary=dictionary,
            grammar=grammar,
            file_names=corpus.file_names,
            splitter_ids=splitter_ids,
            original_size_bytes=corpus.size_bytes,
            original_tokens=corpus.num_tokens,
            builder=builder,
        )


def compress_corpus(corpus: Corpus) -> CompressedCorpus:
    """Convenience wrapper: ``TadocCompressor().compress(corpus)``."""
    return TadocCompressor().compress(corpus)
