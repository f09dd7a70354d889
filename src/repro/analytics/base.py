"""Task enumeration and canonical result shapes.

Every analytics engine in the library (uncompressed reference, CPU
TADOC, parallel TADOC, distributed TADOC, G-TADOC) returns results in
the shapes defined here so that correctness tests can compare them with
plain equality.

Result shapes
-------------
``WORD_COUNT``
    ``{word: corpus-wide count}``
``SORT``
    ``[(word, count), ...]`` sorted by descending count, then word.
``INVERTED_INDEX``
    ``{word: [file name, ...]}`` with file lists sorted by name.
``TERM_VECTOR``
    ``{file name: {word: count}}``
``SEQUENCE_COUNT``
    ``{(w1, ..., wl): count}`` over word *l*-grams (default ``l = 3``)
    that do not cross file boundaries.
``RANKED_INVERTED_INDEX``
    ``{word: [(file name, count), ...]}`` sorted by descending count,
    then file name.
``RELATIONAL``
    ``[(group value, (aggregate values...)), ...]`` sorted by group
    value; a single ``(None, ...)`` entry when the query has no
    ``group_by``.  The query spec travels in ``Query.extras``.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Tuple, Union

__all__ = [
    "Task",
    "TaskResult",
    "SEQUENCE_LENGTH_DEFAULT",
    "normalize_result",
    "results_equal",
]

#: Sequence length used by sequence count unless overridden ("counting
#: three continuous word sequences" in the paper's challenge 3).
SEQUENCE_LENGTH_DEFAULT = 3

#: Union of all task result shapes.
TaskResult = Union[
    Dict[str, int],
    List[Tuple[str, int]],
    Dict[str, List[str]],
    Dict[str, Dict[str, int]],
    Dict[Tuple[str, ...], int],
    Dict[str, List[Tuple[str, int]]],
    List[Tuple[Any, Tuple[Any, ...]]],
]


class Task(str, enum.Enum):
    """The six CompressDirect analytics tasks, plus relational analytics.

    :attr:`RELATIONAL` executes SELECT-style filter/group-by/aggregate
    queries over typed per-file rows (see :mod:`repro.relational`); its
    query spec is carried in ``Query.extras["relational"]``.
    """

    WORD_COUNT = "word_count"
    SORT = "sort"
    INVERTED_INDEX = "inverted_index"
    TERM_VECTOR = "term_vector"
    SEQUENCE_COUNT = "sequence_count"
    RANKED_INVERTED_INDEX = "ranked_inverted_index"
    RELATIONAL = "relational"

    @property
    def is_sequence_sensitive(self) -> bool:
        """True for tasks that need word-order (sequence) information."""
        return self is Task.SEQUENCE_COUNT

    @property
    def is_file_sensitive(self) -> bool:
        """True for tasks whose result is broken down per file."""
        return self in (Task.INVERTED_INDEX, Task.TERM_VECTOR, Task.RANKED_INVERTED_INDEX)

    @classmethod
    def all(cls) -> List["Task"]:
        """The six classic tasks in the paper's evaluation order.

        :attr:`RELATIONAL` is excluded: it is parameterised by a query
        spec, so there is no single default run for a plain batch.
        """
        return [
            cls.WORD_COUNT,
            cls.SORT,
            cls.INVERTED_INDEX,
            cls.TERM_VECTOR,
            cls.SEQUENCE_COUNT,
            cls.RANKED_INVERTED_INDEX,
        ]

    @classmethod
    def from_name(cls, name: str) -> "Task":
        """Parse a task from its string value (case-insensitive)."""
        lowered = name.strip().lower()
        for task in cls:
            if task.value == lowered:
                return task
        raise ValueError(f"unknown task {name!r}; expected one of {[t.value for t in cls]}")


def normalize_result(task: Task, result: Any) -> TaskResult:
    """Bring a raw engine result into the canonical, order-stable shape."""
    if task is Task.WORD_COUNT:
        return dict(result)
    if task is Task.SORT:
        return sorted(dict(result).items(), key=lambda item: (-item[1], item[0]))
    if task is Task.INVERTED_INDEX:
        return {word: sorted(set(files)) for word, files in dict(result).items()}
    if task is Task.TERM_VECTOR:
        return {file_name: dict(counts) for file_name, counts in dict(result).items()}
    if task is Task.SEQUENCE_COUNT:
        return {tuple(key): value for key, value in dict(result).items()}
    if task is Task.RANKED_INVERTED_INDEX:
        return {
            word: sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
            for word, pairs in dict(result).items()
        }
    if task is Task.RELATIONAL:
        entries = [(group, tuple(values)) for group, values in result]
        if len(entries) > 1:
            # A None group only ever occurs alone (no group_by), so the
            # keys here are homogeneous and directly comparable.
            entries.sort(key=lambda entry: entry[0])
        return entries
    raise ValueError(f"unknown task: {task!r}")


def results_equal(task: Task, left: Any, right: Any) -> bool:
    """Compare two engine results for the same task, ignoring ordering noise."""
    return normalize_result(task, left) == normalize_result(task, right)
