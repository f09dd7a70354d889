"""The :class:`Query` value object: one analytics request, any engine.

A query names the task plus every per-request knob the paper's
CompressDirect interface exposes — the sequence length of
sequence-sensitive tasks, a top-k cut for ranked outputs, an optional
file-subset restriction and an optional term filter — so the same
object can be handed to any registered
:class:`~repro.api.backend.AnalyticsBackend`.  Engines receive the
knobs they can execute natively (G-TADOC pushes the sequence length and
the file subset into its traversal programs); the result-shaping knobs
(``top_k``, ``terms``) are applied uniformly here so every backend
returns comparable results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Mapping, Optional, Tuple, Union

from repro.analytics.base import Task, TaskResult, normalize_result
from repro.analytics.encoded import EncodedResult
from repro.core.strategy import TraversalStrategy
from repro.relational.spec import RelationalQuery

__all__ = ["FrozenExtras", "Query", "as_query", "shape_result", "known_extras_for"]

#: Annotation keys every task accepts: free-form client-side labels
#: (request tracing, cache partitioning).  No engine interprets them,
#: but they participate in equality/hashing like any other extras.
_COMMON_EXTRAS = frozenset({"tag", "trace"})

#: Extras keys each task understands.  Registered tasks reject unknown
#: keys at :class:`Query` construction, so a typo (or an extra aimed at
#: a different task) fails with a clear error instead of being silently
#: ignored or blowing up deep inside plan execution.
_KNOWN_EXTRAS = {task: _COMMON_EXTRAS for task in Task}
_KNOWN_EXTRAS[Task.RELATIONAL] = _COMMON_EXTRAS | {"relational"}


def known_extras_for(task: Task) -> frozenset:
    """The extras keys ``task`` accepts (annotations only for classic tasks)."""
    return _KNOWN_EXTRAS.get(task, _COMMON_EXTRAS)


class FrozenExtras(Mapping):
    """An immutable, hashable mapping of a query's extra knobs.

    A :class:`Query` is meant to be a cache/set key, so its ``extras``
    must hash consistently with equality and must not be mutable after
    the query is published.  The entries are frozen into a sorted tuple
    of ``(key, value)`` pairs at construction: equal extras hash equal
    regardless of insertion order, and there is no mutation surface for
    callers holding a reference.  Keys must be strings and values must
    be hashable (both enforced here, so an unusable query fails at
    construction rather than at cache-insertion time).
    """

    __slots__ = ("_items", "_data")

    def __init__(self, source: Union["FrozenExtras", Mapping, Iterable[Tuple[str, Any]]] = ()):
        if isinstance(source, FrozenExtras):
            self._items: Tuple[Tuple[str, Any], ...] = source._items
            self._data: Mapping[str, Any] = source._data
            return
        data = dict(source)
        for key in data:
            if not isinstance(key, str):
                raise TypeError(f"extras keys must be strings, got {key!r}")
        items = tuple(sorted(data.items()))
        try:
            hash(items)
        except TypeError:
            raise TypeError(
                "extras values must be hashable so the query can be used as a cache key"
            ) from None
        self._items = items
        self._data = data

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenExtras):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    @property
    def items_tuple(self) -> Tuple[Tuple[str, Any], ...]:
        """The frozen ``(key, value)`` pairs, sorted by key."""
        return self._items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrozenExtras({dict(self._items)!r})"


def _normalize_names(value: Optional[Iterable[str]], label: str) -> Optional[Tuple[str, ...]]:
    if value is None:
        return None
    if isinstance(value, str):
        value = (value,)
    names = tuple(dict.fromkeys(value))
    if not names:
        raise ValueError(f"{label} filter must name at least one entry")
    return names


@dataclass(frozen=True)
class Query:
    """One analytics request against any backend.

    Parameters
    ----------
    task:
        The analytics task (a :class:`~repro.analytics.base.Task` or its
        string name).
    sequence_length:
        Word-window length for sequence-sensitive tasks; ``None`` uses
        the backend's configured default.
    top_k:
        Keep only ``top_k`` entries along each task's ranked axis: the
        ``top_k`` highest-count entries of sort/word-count/sequence-count
        results, the first ``top_k`` entries of each per-word posting
        list (ranked and plain inverted index), and each file's ``top_k``
        highest-count words in a term vector.
    files:
        Restrict the query to these files (by name).  Backends that
        support native filtering do only the marginal work for the
        subset.
    terms:
        Restrict the result to these words (sequence counts keep
        n-grams made entirely of the given terms).
    traversal:
        Force a DAG traversal direction on backends that expose one
        (the G-TADOC engine); others ignore it.
    extras:
        Task-specific knobs and client annotations.  Every task accepts
        the annotation keys ``tag``/``trace`` (opaque labels no engine
        interprets); :attr:`Task.RELATIONAL` additionally requires the
        ``relational`` key carrying its :class:`RelationalQuery` spec.
        Unknown keys raise :class:`ValueError` at construction.
    """

    task: Task
    sequence_length: Optional[int] = None
    top_k: Optional[int] = None
    files: Optional[Tuple[str, ...]] = None
    terms: Optional[Tuple[str, ...]] = None
    traversal: Optional[TraversalStrategy] = None
    #: Room for future knobs; frozen into a :class:`FrozenExtras` at
    #: construction so it participates in both equality and hashing —
    #: a Query is a safe cache/set key.
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        task = self.task
        if isinstance(task, str):
            object.__setattr__(self, "task", Task.from_name(task))
        if self.sequence_length is not None and self.sequence_length < 1:
            raise ValueError("sequence_length must be >= 1")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        object.__setattr__(self, "files", _normalize_names(self.files, "files"))
        object.__setattr__(self, "terms", _normalize_names(self.terms, "terms"))
        if self.traversal is not None and not isinstance(self.traversal, TraversalStrategy):
            object.__setattr__(self, "traversal", TraversalStrategy(self.traversal))
        if not isinstance(self.extras, FrozenExtras):
            object.__setattr__(self, "extras", FrozenExtras(self.extras))
        self._validate_extras()

    def _validate_extras(self) -> None:
        """Reject unknown extras and enforce per-task extras contracts."""
        known = known_extras_for(self.task)
        unknown = sorted(set(self.extras) - known)
        if unknown:
            allowed = sorted(known) if known else "none"
            raise ValueError(
                f"unknown extras {unknown} for task {self.task.value!r} "
                f"(allowed extras: {allowed})"
            )
        if self.task is Task.RELATIONAL:
            spec = self.extras.get("relational")
            if not isinstance(spec, RelationalQuery):
                raise ValueError(
                    "relational queries need extras={'relational': RelationalQuery(...)}"
                )
            if self.terms is not None:
                raise ValueError("relational queries do not support a terms filter")
            if self.sequence_length is not None:
                raise ValueError("relational queries do not take a sequence_length")

    @property
    def relational(self) -> Optional[RelationalQuery]:
        """The relational spec carried in extras (``None`` for classic tasks)."""
        return self.extras.get("relational")

    # -- convenience -----------------------------------------------------------------------
    @property
    def is_filtered(self) -> bool:
        """True when the query restricts files or terms."""
        return self.files is not None or self.terms is not None

    def with_task(self, task: Union[Task, str]) -> "Query":
        """The same knobs applied to a different task."""
        return replace(self, task=Task.from_name(task) if isinstance(task, str) else task)

    def describe(self) -> str:
        """A compact human-readable description (CLI/log output)."""
        parts = [self.task.value]
        if self.sequence_length is not None:
            parts.append(f"l={self.sequence_length}")
        if self.top_k is not None:
            parts.append(f"top_k={self.top_k}")
        if self.files is not None:
            parts.append(f"files={len(self.files)}")
        if self.terms is not None:
            parts.append(f"terms={len(self.terms)}")
        if self.traversal is not None:
            parts.append(self.traversal.value)
        return " ".join(parts)


def as_query(query: Union[Query, Task, str]) -> Query:
    """Coerce a task name/enum into a plain :class:`Query`."""
    if isinstance(query, Query):
        return query
    return Query(task=query)


# ----------------------------------------------------------------------------------------
# Uniform result shaping (term filter + top-k), applied by every backend
# ----------------------------------------------------------------------------------------

def _shape_relational(
    result: TaskResult, spec: Optional[RelationalQuery], top_k: Optional[int]
) -> TaskResult:
    """Apply the relational spec's ordering and the query's ``top_k``.

    ``order_by`` sorts descending by the named aggregate with ``None``
    values last; a stable sort over the canonical (group-ascending)
    order keeps ties in group order.  Without an ``order_by`` the
    ``top_k`` cut keeps the first groups in canonical order.
    """
    shaped = list(result)
    if spec is not None and spec.order_by is not None:
        slot = spec.aggregate_labels.index(spec.order_by)
        present = [entry for entry in shaped if entry[1][slot] is not None]
        missing = [entry for entry in shaped if entry[1][slot] is None]
        present.sort(key=lambda entry: entry[1][slot], reverse=True)
        shaped = present + missing
    if top_k is not None:
        shaped = shaped[:top_k]
    return shaped

def _filter_terms(task: Task, result: TaskResult, terms: Tuple[str, ...]) -> TaskResult:
    allowed = set(terms)
    if task in (Task.WORD_COUNT,):
        return {word: count for word, count in result.items() if word in allowed}
    if task is Task.SORT:
        return [(word, count) for word, count in result if word in allowed]
    if task in (Task.INVERTED_INDEX, Task.RANKED_INVERTED_INDEX):
        return {word: entry for word, entry in result.items() if word in allowed}
    if task is Task.TERM_VECTOR:
        return {
            file_name: {word: count for word, count in counts.items() if word in allowed}
            for file_name, counts in result.items()
        }
    if task is Task.SEQUENCE_COUNT:
        return {
            key: count for key, count in result.items() if all(word in allowed for word in key)
        }
    raise ValueError(f"unknown task: {task!r}")  # pragma: no cover - exhaustive over Task


def _truncate_top_k(task: Task, result: TaskResult, top_k: int) -> TaskResult:
    """Cut every task's ranked (or rankable) axis to ``top_k`` entries.

    Per-word/file structures are truncated *within* each entry, mirroring
    ``RANKED_INVERTED_INDEX``: an inverted index keeps each word's first
    ``top_k`` files (name order, the canonical posting order), and a term
    vector keeps each file's ``top_k`` highest-count words (ties broken
    by word, the same order the ranked index uses).
    """
    if task is Task.SORT:
        return result[:top_k]
    # ``heapq.nsmallest`` with the same sort key returns exactly the
    # first ``top_k`` entries of the full sort in O(n log k).
    rank = lambda item: (-item[1], item[0])  # noqa: E731
    if task in (Task.WORD_COUNT, Task.SEQUENCE_COUNT):
        return dict(heapq.nsmallest(top_k, result.items(), key=rank))
    if task is Task.RANKED_INVERTED_INDEX:
        return {word: pairs[:top_k] for word, pairs in result.items()}
    if task is Task.INVERTED_INDEX:
        return {word: files[:top_k] for word, files in result.items()}
    if task is Task.TERM_VECTOR:
        return {
            file_name: dict(heapq.nsmallest(top_k, counts.items(), key=rank))
            for file_name, counts in result.items()
        }
    raise ValueError(f"unknown task: {task!r}")  # pragma: no cover - exhaustive over Task


def shape_result(query: Query, result: Union[EncodedResult, TaskResult]) -> TaskResult:
    """Apply the query's terms filter and top-k, returning a canonical result.

    G-TADOC hands in an id-space :class:`EncodedResult`: the filter, the
    cut and the canonical order run on word ids and integer ranks, and
    only the surviving rows are decoded.  Every other engine (and
    G-TADOC's relational plan) hands in a string result, which is
    normalized first.  Either way shaping is deterministic, so two
    backends given the same query produce equal shaped results whenever
    their raw results agree.
    """
    if isinstance(result, EncodedResult):
        return result.shape(query.terms, query.top_k)
    shaped = normalize_result(query.task, result)
    if query.task is Task.RELATIONAL:
        # Relational shaping is spec-driven (order_by + top_k); a terms
        # filter is rejected at Query construction.
        return _shape_relational(shaped, query.relational, query.top_k)
    if query.terms is not None:
        shaped = _filter_terms(query.task, shaped, query.terms)
    if query.top_k is not None:
        shaped = _truncate_top_k(query.task, shaped, query.top_k)
    return shaped
