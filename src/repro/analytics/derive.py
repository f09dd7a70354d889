"""Result derivation for CPU TADOC: word-id tables to string results.

CPU TADOC (and, through its partition runs, the parallel and
distributed baselines) produces corpus-wide or per-file word-id count
tables, decodes them to strings and derives each task's canonical
shape (see :mod:`repro.analytics.base`) from the decoded tables.
G-TADOC does not use these helpers: its plans return id-space columns
(:mod:`repro.analytics.encoded`) that are filtered, cut and ordered on
integers and decoded only for the rows a query keeps.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analytics.base import Task, normalize_result
from repro.compression.dictionary import Dictionary

__all__ = [
    "decode_word_counts",
    "decode_per_file_counts",
    "word_count_to_sort",
    "per_file_counts_to_term_vector",
    "per_file_counts_to_inverted_index",
    "per_file_counts_to_ranked_inverted_index",
    "decode_sequence_counts",
]


def decode_word_counts(counts: Dict[int, int], dictionary: Dictionary) -> Dict[str, int]:
    """Word-id counts -> word counts."""
    decode = dictionary.decode
    return {decode(word_id): count for word_id, count in counts.items() if count}


def decode_per_file_counts(
    per_file: Sequence[Dict[int, int]],
    file_names: Sequence[str],
    dictionary: Dictionary,
) -> Dict[str, Dict[str, int]]:
    """Per-file word-id counts -> ``{file: {word: count}}``."""
    decode = dictionary.decode
    decoded: Dict[str, Dict[str, int]] = {}
    for file_index, counts in enumerate(per_file):
        decoded[file_names[file_index]] = {
            decode(word_id): count for word_id, count in counts.items() if count
        }
    return decoded


def word_count_to_sort(word_counts: Dict[str, int]) -> List[Tuple[str, int]]:
    return normalize_result(Task.SORT, word_counts)


def per_file_counts_to_term_vector(term_vector: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    return {file_name: dict(counts) for file_name, counts in term_vector.items()}


def per_file_counts_to_inverted_index(term_vector: Dict[str, Dict[str, int]]) -> Dict[str, List[str]]:
    # Visiting files in name order makes every posting list come out
    # already sorted, replacing one sort per word with one per call.
    index: Dict[str, List[str]] = {}
    setdefault = index.setdefault
    for file_name in sorted(term_vector):
        for word, count in term_vector[file_name].items():
            if count:
                setdefault(word, []).append(file_name)
    return index


def per_file_counts_to_ranked_inverted_index(
    term_vector: Dict[str, Dict[str, int]],
) -> Dict[str, List[Tuple[str, int]]]:
    # One ``np.lexsort`` over the flattened (word, count, file) triples
    # replaces a Python sort per word: entries are ordered by word in
    # first-encounter order, then count descending, then file name
    # ascending (via the file's rank in name order), and the sorted run
    # is split at word boundaries.
    word_codes: Dict[str, int] = {}
    file_rank = {name: rank for rank, name in enumerate(sorted(term_vector))}
    codes: List[int] = []
    ranks: List[int] = []
    cnts: List[int] = []
    files: List[str] = []
    for file_name, counts in term_vector.items():
        rank = file_rank[file_name]
        for word, count in counts.items():
            if count:
                codes.append(word_codes.setdefault(word, len(word_codes)))
                ranks.append(rank)
                cnts.append(count)
                files.append(file_name)
    if not codes:
        return {}
    code_arr = np.asarray(codes, dtype=np.int64)
    count_arr = np.asarray(cnts, dtype=np.int64)
    order = np.lexsort((np.asarray(ranks, dtype=np.int64), -count_arr, code_arr))
    sorted_codes = code_arr[order]
    sorted_counts = count_arr[order].tolist()
    sorted_files = [files[i] for i in order.tolist()]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = [0, *boundaries.tolist(), len(order)]
    word_list = list(word_codes)
    return {
        word_list[sorted_codes[start]]: list(
            zip(sorted_files[start:end], sorted_counts[start:end])
        )
        for start, end in zip(starts, starts[1:])
    }


def decode_sequence_counts(
    counts: Dict[Tuple[int, ...], int], dictionary: Dictionary
) -> Dict[Tuple[str, ...], int]:
    """Word-id l-gram counts -> word l-gram counts."""
    if not counts:
        return {}
    length = len(next(iter(counts)))
    # One object-array gather decodes every gram at C speed — far
    # cheaper than a per-word ``decode`` call on large gram tables.
    words = dictionary.decode_array
    ids = np.fromiter(
        chain.from_iterable(counts), dtype=np.int64, count=len(counts) * length
    )
    grams = map(tuple, words[ids].reshape(len(counts), length).tolist())
    return {gram: count for gram, count in zip(grams, counts.values()) if count}
