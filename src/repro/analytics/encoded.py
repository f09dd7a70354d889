"""G-TADOC results in id space, shaped on integers and decoded last.

TADOC and G-TADOC traverse on dictionary ids and map back to words only
for the output.  :class:`EncodedResult` is one classic task's result as
the integer columns the bulk kernels produce; :meth:`EncodedResult.shape`
applies a query's terms filter, top-k cut and canonical order on those
integers and decodes only the rows that survive, into exactly the
canonical shapes of :mod:`repro.analytics.base` (built from ``str``,
``int``, ``tuple``, ``list`` and ``dict`` only).

Ties that the canonical order breaks on a word's string break on the
word's rank in ``sorted()`` order (:attr:`Dictionary.lexical_ranks`),
and ties on a file name on the file's rank in name order, so no sort
ever compares strings.  Word ids follow first occurrence, not string
order, so they never break a tie themselves.

Per-file rows
-------------
The per-file tasks' rows arrive sorted by ``(file, word id)``, the row
order :mod:`repro.core.vectorized` documents for its per-file count
kernels (a terms filter keeps it), and the three per-file shapers build
on that order instead of re-sorting it:

* a walk over the files in name order is one stable argsort of the
  rows' file-name ranks, which is linear when the file indices already
  follow name order, as they do on every Table II analogue;
* a word's *first-seen rank*, the position of its first row in a walk,
  is one scatter of row positions (``np.minimum.at``) into an array
  indexed by word id, with no ``np.unique``;
* each result is ordered by one argsort of a packed int64 key:
  ``(first-seen rank, name rank)`` for the inverted index (over the
  name-order walk), ``(first-seen rank, -count, name rank)`` for the
  ranked inverted index (over the rows as they arrive) and ``(file,
  -count, lexical rank)`` for a term vector's top-k cut.

Every key's parts tell its rows apart, so the order is unique and the
argsort need not be stable.  A key packs its parts mixed-radix, each
part in ``[0, bound)`` with bounds from the row count, the file count,
the vocabulary and the largest count, when the product of the bounds is
below ``2**63``; the Table II analogues at scale 0.5 need at most 29
bits.  A wider key falls back to ``np.lexsort`` over the parts, which
gives the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analytics.base import Task, TaskResult
from repro.compression.dictionary import Dictionary

__all__ = ["EncodedResult"]

_I64 = np.int64

#: A packed key's parts must span fewer values than this (int64 keys from 0).
_KEY_SPAN = 1 << 63

#: One part of a packed sort key: values, all in ``[0, bound)``.
_KeyPart = Tuple[np.ndarray, int]


def _ranked(counts: np.ndarray, ties: Sequence[np.ndarray], top_k: Optional[int]) -> np.ndarray:
    """Row indices in ``(-count, *ties)`` order, cut to ``top_k``.

    A small cut of a large table first keeps only the rows whose count
    reaches the ``top_k``-th largest (a superset of the answer, ties
    included), so the sort runs on a handful of rows.
    """
    rows = None
    if top_k is not None and top_k < len(counts):
        threshold = np.partition(counts, len(counts) - top_k)[len(counts) - top_k]
        rows = np.flatnonzero(counts >= threshold)
        counts = counts[rows]
        ties = [tie[rows] for tie in ties]
    order = np.lexsort((*reversed(ties), -counts))[:top_k]
    return order if rows is None else rows[order]


def _packed_order(parts: Sequence[_KeyPart]) -> np.ndarray:
    """Row order by ``parts``, compared left to right.

    The parts must tell every row apart.  They pack into one int64 key
    sorted by one argsort when the product of their bounds is below
    ``2**63``; otherwise ``np.lexsort`` orders the rows by the parts.
    """
    if math.prod(bound for _values, bound in parts) >= _KEY_SPAN:
        return np.lexsort([values for values, _bound in reversed(parts)])
    key = parts[0][0]
    for values, bound in parts[1:]:
        key = key * bound + values
    return np.argsort(key)


def _descending(counts: np.ndarray) -> _KeyPart:
    """A key part that puts the highest count first."""
    top = int(counts.max()) if len(counts) else 0
    return top - counts, top + 1


def _first_seen(words: np.ndarray, vocabulary: int) -> _KeyPart:
    """Per row, the position of the first row with its word (one scatter)."""
    rows = np.arange(len(words), dtype=_I64)
    first = np.full(vocabulary, len(words), dtype=_I64)
    np.minimum.at(first, words, rows)
    return first[words], len(words)


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in ``keys``."""
    if not len(keys):
        return np.zeros(0, dtype=_I64)
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _first_k_of_each_group(keys: np.ndarray, top_k: Optional[int]) -> np.ndarray:
    """Mask keeping the first ``top_k`` rows of each run of equal ``keys``."""
    starts = _group_starts(keys)
    sizes = np.diff(np.append(starts, len(keys)))
    position = np.arange(len(keys), dtype=_I64) - np.repeat(starts, sizes)
    return position < top_k


def _bounds(starts: np.ndarray, total: int) -> Tuple[list, list]:
    return starts.tolist(), starts[1:].tolist() + [total]


@dataclass(frozen=True, eq=False)
class EncodedResult:
    """One classic task's result as kernel columns.

    ``words`` holds word ids (``(n,)``) or, for sequence counts, gram
    rows of word ids (``(n, l)``); ``counts`` the matching counts.  The
    per-file tasks also carry ``files``, the file index of each row;
    their rows are sorted by ``(file, word id)``, and ``answered`` names
    the files the result lists (``None``: every file), so a term vector
    keeps a file the filter left empty.  Word and sequence counts keep
    the kernels' row order, which is the order an unranked result lists
    its keys in.  The arrays may be shared with kernel caches and are
    never written.
    """

    task: Task
    dictionary: Dictionary
    file_names: Sequence[str]
    words: np.ndarray
    counts: np.ndarray
    files: Optional[np.ndarray] = None
    answered: Optional[Tuple[int, ...]] = None

    def decode(self) -> TaskResult:
        """The whole canonical result (no terms filter, no top-k)."""
        return self.shape()

    def shape(
        self, terms: Optional[Sequence[str]] = None, top_k: Optional[int] = None
    ) -> TaskResult:
        """Filter to ``terms``, cut to ``top_k``, order, then decode the survivors.

        The filter applies before the cut, and a term absent from the
        dictionary matches nothing.
        """
        words, counts, files = self.words, self.counts, self.files
        keep = None if counts.all() else counts != 0
        if terms is not None:
            dictionary = self.dictionary
            ids = [dictionary.lookup(term) for term in terms if term in dictionary]
            hit = np.isin(words, ids)
            if hit.ndim == 2:
                hit = hit.all(axis=1)
            keep = hit if keep is None else keep & hit
        if keep is not None:
            words, counts = words[keep], counts[keep]
            files = files[keep] if files is not None else None
        task = self.task
        if task is Task.WORD_COUNT or task is Task.SORT:
            return self._corpus(words, counts, top_k)
        if task is Task.SEQUENCE_COUNT:
            return self._sequences(words, counts, top_k)
        if task is Task.TERM_VECTOR:
            return self._term_vector(files, words, counts, top_k)
        if task is Task.INVERTED_INDEX:
            return self._inverted_index(files, words, top_k)
        if task is Task.RANKED_INVERTED_INDEX:
            return self._ranked_inverted_index(files, words, counts, top_k)
        raise ValueError(f"no id-space result for task {task!r}")

    # -- per task -------------------------------------------------------------------
    def _corpus(self, words: np.ndarray, counts: np.ndarray, top_k: Optional[int]) -> TaskResult:
        # Word count lists its keys in kernel order unless a top-k ranks
        # them; sort is always ranked.
        if self.task is Task.SORT or top_k is not None:
            order = _ranked(counts, [self.dictionary.lexical_ranks[words]], top_k)
            words, counts = words[order], counts[order]
        pairs = zip(self.dictionary.decode_array[words].tolist(), counts.tolist())
        return list(pairs) if self.task is Task.SORT else dict(pairs)

    def _sequences(self, grams: np.ndarray, counts: np.ndarray, top_k: Optional[int]) -> TaskResult:
        if top_k is not None:
            # Ranks position by position compare like tuples of strings.
            ranks = self.dictionary.lexical_ranks[grams]
            order = _ranked(counts, list(ranks.T), top_k)
            grams, counts = grams[order], counts[order]
        decoded = map(tuple, self.dictionary.decode_array[grams].tolist())
        return dict(zip(decoded, counts.tolist()))

    def _term_vector(
        self, files: np.ndarray, words: np.ndarray, counts: np.ndarray, top_k: Optional[int]
    ) -> TaskResult:
        if top_k is not None:
            # Each file's highest counts, ties broken by word.
            lexical = self.dictionary.lexical_ranks
            order = _packed_order((
                (files, len(self.file_names)),
                _descending(counts),
                (lexical[words], len(lexical)),
            ))
            files, words, counts = files[order], words[order], counts[order]
            keep = _first_k_of_each_group(files, top_k)
            files, words, counts = files[keep], words[keep], counts[keep]
        answered = self._answered()
        lows = np.searchsorted(files, answered, side="left").tolist()
        highs = np.searchsorted(files, answered, side="right").tolist()
        decoded = self.dictionary.decode_array[words].tolist()
        counts_list = counts.tolist()
        names = self.file_names
        return {
            names[file_index]: dict(zip(decoded[low:high], counts_list[low:high]))
            for file_index, low, high in zip(answered.tolist(), lows, highs)
        }

    def _inverted_index(self, files: np.ndarray, words: np.ndarray, top_k: Optional[int]) -> TaskResult:
        # Words appear in the order a walk over the files in name order
        # meets them; each posting list is in name order.
        ranks = self._file_name_ranks()[files]
        walk = np.argsort(ranks, kind="stable")
        files, words, ranks = files[walk], words[walk], ranks[walk]
        order = _packed_order((
            _first_seen(words, self.dictionary.num_words),
            (ranks, len(self.file_names)),
        ))
        files, words = files[order], words[order]
        if top_k is not None:
            keep = _first_k_of_each_group(words, top_k)
            files, words = files[keep], words[keep]
        starts = _group_starts(words)
        decoded = self.dictionary.decode_array[words[starts]].tolist()
        postings = self._name_array()[files].tolist()
        return {
            word: postings[low:high]
            for word, low, high in zip(decoded, *_bounds(starts, len(words)))
        }

    def _ranked_inverted_index(
        self, files: np.ndarray, words: np.ndarray, counts: np.ndarray, top_k: Optional[int]
    ) -> TaskResult:
        # Words appear in first-occurrence order of the (file, word) rows;
        # each posting list is by count descending, then file name.
        order = _packed_order((
            _first_seen(words, self.dictionary.num_words),
            _descending(counts),
            (self._file_name_ranks()[files], len(self.file_names)),
        ))
        files, words, counts = files[order], words[order], counts[order]
        if top_k is not None:
            keep = _first_k_of_each_group(words, top_k)
            files, words, counts = files[keep], words[keep], counts[keep]
        starts = _group_starts(words)
        decoded = self.dictionary.decode_array[words[starts]].tolist()
        pairs = list(zip(self._name_array()[files].tolist(), counts.tolist()))
        return {
            word: pairs[low:high]
            for word, low, high in zip(decoded, *_bounds(starts, len(words)))
        }

    # -- files ----------------------------------------------------------------------
    def _answered(self) -> np.ndarray:
        if self.answered is None:
            return np.arange(len(self.file_names), dtype=_I64)
        return np.asarray(self.answered, dtype=_I64)

    def _name_array(self) -> np.ndarray:
        names = np.empty(len(self.file_names), dtype=object)
        names[:] = self.file_names
        return names

    def _file_name_ranks(self) -> np.ndarray:
        names = self.file_names
        ranks = np.empty(len(names), dtype=_I64)
        ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names), dtype=_I64)
        return ranks
