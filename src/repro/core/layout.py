"""Device-side layout of the compressed corpus (G-TADOC data structures).

Before any kernel runs, G-TADOC lays the grammar out as flat arrays that
GPU threads index by rule id: sub-rule adjacency with multiplicities,
local (direct terminal) word tables, in/out edge counts, parent lists
and the root's per-file segments.  This mirrors the "data structure
preparation" step of the initialization phase in Figure 3 of the paper
and is shared by every task program.

:class:`DeviceRuleLayout` is the one layout every kernel reads, the
bulk ports of :mod:`repro.core.vectorized` and the per-thread
references alike.  Its tables are CSR int64 arrays: row ``i`` of a
``x_*`` table is ``x_off[i]:x_off[i + 1]`` of its value columns, and
``x_count[i]`` is the row's length.  :meth:`DeviceRuleLayout.from_compressed`
builds them from the grammar's symbols in a few data-parallel passes
(``np.unique`` over packed ``(row, symbol)`` keys) rather than a Python
loop per symbol.  A per-thread reader takes a row with the accessor
methods (:meth:`~DeviceRuleLayout.subrules` and friends), which convert
it to Python ints with ``.tolist()`` before it iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.compression.compressor import CompressedCorpus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheduler import FineGrainedScheduler

__all__ = ["DeviceRuleLayout", "Partition"]

_I64 = np.int64

#: A kernel's thread partition: ``(rules, starts, ends)``, one entry per
#: simulated thread, each thread scanning items ``[start, end)`` of its rule.
Partition = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=_I64)
    np.cumsum(counts, out=out[1:])
    return out


def _count_pairs(
    rows: np.ndarray, values: np.ndarray, num_rows: int, first_occurrence: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``(row, value)`` pairs with their multiplicities, as CSR.

    Returns ``(counts per row, values, multiplicities, row of each pair)``.
    Pairs are sorted by ``(row, value)``, or, with ``first_occurrence``,
    by the position of each pair's first occurrence, which for
    non-decreasing ``rows`` keeps them grouped by row.
    """
    base = int(values.max()) + 1 if len(values) else 1
    uniq, first, multiplicity = np.unique(
        rows * base + values, return_index=True, return_counts=True
    )
    if first_occurrence:
        order = np.argsort(first, kind="stable")
        uniq, multiplicity = uniq[order], multiplicity[order]
    pair_rows = uniq // base
    counts = np.bincount(pair_rows, minlength=num_rows).astype(_I64)
    return counts, uniq - pair_rows * base, multiplicity.astype(_I64), pair_rows


def _row_pairs(off: np.ndarray, keys: np.ndarray, vals: np.ndarray, row: int) -> List[Tuple[int, int]]:
    lo, hi = int(off[row]), int(off[row + 1])
    return list(zip(keys[lo:hi].tolist(), vals[lo:hi].tolist()))


@dataclass(eq=False)
class DeviceRuleLayout:
    """Flat-array, kernel-friendly view of a compressed corpus."""

    num_rules: int
    num_files: int
    vocabulary_size: int
    #: Per rule: body length in symbols.
    rule_lengths: np.ndarray
    #: Mean body length of the non-root rules (integer sum, one division).
    average_rule_length: float
    #: Per rule: local words, the rule's direct terminals (splitters
    #: excluded) as ``(word id, count)`` pairs sorted by word id.
    lw_count: np.ndarray
    lw_off: np.ndarray
    lw_keys: np.ndarray
    lw_vals: np.ndarray
    #: Per rule: sub-rules as ``(child id, multiplicity)`` pairs sorted by child id.
    sr_count: np.ndarray
    sr_off: np.ndarray
    sr_child: np.ndarray
    sr_freq: np.ndarray
    #: Per rule: distinct parent rule ids (root included), ascending.
    par_count: np.ndarray
    par_off: np.ndarray
    par_ids: np.ndarray
    #: Per rule: number of distinct non-root parents (drives top-down masks).
    num_in_edges: np.ndarray
    #: Per rule: number of distinct sub-rules (drives bottom-up masks).
    num_out_edges: np.ndarray
    #: Per rule: number of terminals the rule expands to.
    expansion_lengths: np.ndarray
    #: Per rule: occurrence count in the full corpus expansion.
    rule_weights: np.ndarray
    #: Per file: the root's direct terminal words as ``(word id, count)``
    #: pairs in first-occurrence order; ``rw_file`` is each pair's file.
    rw_count: np.ndarray
    rw_off: np.ndarray
    rw_keys: np.ndarray
    rw_vals: np.ndarray
    rw_file: np.ndarray
    #: Per file: the root's direct sub-rules as ``(child id, occurrences)``
    #: pairs in first-occurrence order; ``rc_file`` is each pair's file.
    rc_count: np.ndarray
    rc_off: np.ndarray
    rc_child: np.ndarray
    rc_freq: np.ndarray
    rc_file: np.ndarray
    #: Per rule: occurrences directly under the root (level-2 weights),
    #: and the number of files whose root segment references the rule.
    root_freq: np.ndarray
    files_per_rule: np.ndarray
    #: The root's direct children (ascending) and their root frequencies.
    level2_child: np.ndarray
    level2_freq: np.ndarray
    #: Per file: half-open ``(start, end)`` range of the root body.
    root_segments: List[Tuple[int, int]]
    #: Per rule: raw body symbols (rule references encoded negatively).
    #: ``rule_bodies[0]`` is the root body, splitters included.
    rule_bodies: List[List[int]]
    # Thread partitions, cached per scheduler geometry; the layout is
    # immutable, so they are pure functions of it.
    _group_sizes: Dict[Tuple, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _assignments: Dict[Tuple, Partition] = field(default_factory=dict, init=False, repr=False)
    #: The bottom-up per-file reduce's geometry, keyed by the local tables
    #: it was assembled from (see ``bottomup_per_file_counts_reduce``).
    file_reduce_geom: Optional[Tuple] = field(default=None, init=False, repr=False)

    # -- construction ----------------------------------------------------------------
    @classmethod
    def from_compressed(cls, compressed: CompressedCorpus) -> "DeviceRuleLayout":
        grammar = compressed.grammar
        dag = compressed.dag
        bodies = [list(rule.symbols) for rule in grammar]
        num_rules = len(bodies)
        num_files = len(compressed.file_names)

        rule_lengths = np.fromiter(map(len, bodies), dtype=_I64, count=num_rules)
        symbols = np.fromiter(
            chain.from_iterable(bodies), dtype=_I64, count=int(rule_lengths.sum())
        )
        owner = np.repeat(np.arange(num_rules, dtype=_I64), rule_lengths)
        is_ref = symbols < 0
        is_word = ~is_ref & ~np.isin(symbols, np.asarray(compressed.splitter_ids, dtype=_I64))

        lw_count, lw_keys, lw_vals, _ = _count_pairs(owner[is_word], symbols[is_word], num_rules)
        sr_count, sr_child, sr_freq, sr_parent = _count_pairs(
            owner[is_ref], -symbols[is_ref] - 1, num_rules
        )
        # Parents are the adjacency transposed: sorted by (child, parent).
        par_ids = sr_parent[np.lexsort((sr_parent, sr_child))]
        par_count = np.bincount(sr_child, minlength=num_rules).astype(_I64)
        num_in_edges = par_count.copy()
        num_in_edges[sr_child[: sr_count[0]]] -= 1  # the root's children

        # The root's file segments, position by position.
        segments = list(compressed.root_file_segments)
        starts = np.asarray([start for start, _end in segments], dtype=_I64)
        seg_lengths = np.asarray([end - start for start, end in segments], dtype=_I64)
        total = int(seg_lengths.sum())
        seg_off = _offsets(seg_lengths)
        positions = np.arange(total, dtype=_I64) + np.repeat(starts - seg_off[:-1], seg_lengths)
        files = np.repeat(np.arange(len(segments), dtype=_I64), seg_lengths)
        root_ref, root_word = is_ref[positions], is_word[positions]
        root = symbols[positions]
        rw_count, rw_keys, rw_vals, rw_file = _count_pairs(
            files[root_word], root[root_word], num_files, first_occurrence=True
        )
        rc_count, rc_child, rc_freq, rc_file = _count_pairs(
            files[root_ref], -root[root_ref] - 1, num_files, first_occurrence=True
        )

        root_freq = np.zeros(num_rules, dtype=_I64)
        np.add.at(root_freq, rc_child, rc_freq)
        level2_child = np.flatnonzero(root_freq).astype(_I64)
        non_root = int(rule_lengths[1:].sum())
        return cls(
            num_rules=num_rules,
            num_files=num_files,
            vocabulary_size=compressed.dictionary.num_words,
            rule_lengths=rule_lengths,
            average_rule_length=non_root / max(1, num_rules - 1),
            lw_count=lw_count,
            lw_off=_offsets(lw_count),
            lw_keys=lw_keys,
            lw_vals=lw_vals,
            sr_count=sr_count,
            sr_off=_offsets(sr_count),
            sr_child=sr_child,
            sr_freq=sr_freq,
            par_count=par_count,
            par_off=_offsets(par_count),
            par_ids=par_ids,
            num_in_edges=num_in_edges,
            num_out_edges=sr_count,
            expansion_lengths=np.asarray(dag.expansion_lengths, dtype=_I64),
            rule_weights=np.asarray(dag.weights, dtype=_I64),
            rw_count=rw_count,
            rw_off=_offsets(rw_count),
            rw_keys=rw_keys,
            rw_vals=rw_vals,
            rw_file=rw_file,
            rc_count=rc_count,
            rc_off=_offsets(rc_count),
            rc_child=rc_child,
            rc_freq=rc_freq,
            rc_file=rc_file,
            root_freq=root_freq,
            files_per_rule=np.bincount(rc_child, minlength=num_rules).astype(_I64),
            level2_child=level2_child,
            level2_freq=root_freq[level2_child],
            root_segments=segments,
            rule_bodies=bodies,
        )

    # -- rows for per-thread readers ---------------------------------------------------
    @property
    def root_symbols(self) -> List[int]:
        """The raw root body, splitters included (``rule_bodies[0]``)."""
        return self.rule_bodies[0]

    def local_words(self, rule_id: int) -> List[Tuple[int, int]]:
        """Rule ``rule_id``'s ``(word id, count)`` pairs."""
        return _row_pairs(self.lw_off, self.lw_keys, self.lw_vals, rule_id)

    def subrules(self, rule_id: int) -> List[Tuple[int, int]]:
        """Rule ``rule_id``'s ``(child id, multiplicity)`` pairs."""
        return _row_pairs(self.sr_off, self.sr_child, self.sr_freq, rule_id)

    def parents(self, rule_id: int) -> List[int]:
        """Rule ``rule_id``'s distinct parent ids."""
        return self.par_ids[self.par_off[rule_id] : self.par_off[rule_id + 1]].tolist()

    def root_words(self, file_index: int) -> List[Tuple[int, int]]:
        """File ``file_index``'s direct root ``(word id, count)`` pairs."""
        return _row_pairs(self.rw_off, self.rw_keys, self.rw_vals, file_index)

    def root_subrules(self, file_index: int) -> List[Tuple[int, int]]:
        """File ``file_index``'s direct root ``(child id, occurrences)`` pairs."""
        return _row_pairs(self.rc_off, self.rc_child, self.rc_freq, file_index)

    # -- derived quantities ----------------------------------------------------------------
    @property
    def total_symbols(self) -> int:
        return int(self.rule_lengths.sum())

    def estimated_local_table_entries(self) -> int:
        """Upper bound on the total number of local-table entries (pool sizing)."""
        return len(self.lw_keys) + len(self.sr_child)

    def device_footprint_bytes(self) -> int:
        """Approximate bytes the layout occupies in GPU memory."""
        symbol_bytes = self.total_symbols * 8
        adjacency_bytes = len(self.sr_child) * 16
        word_bytes = len(self.lw_keys) * 16
        metadata_bytes = self.num_rules * 6 * 8
        return symbol_bytes + adjacency_bytes + word_bytes + metadata_bytes

    # -- scheduling ------------------------------------------------------------------
    def partition(
        self, scheduler: "FineGrainedScheduler", rule_ids: np.ndarray, items: np.ndarray
    ) -> Partition:
        """Bulk port of :meth:`FineGrainedScheduler.partition_items`.

        Returns ``(rules, starts, ends)``: one entry per simulated thread,
        in the reference's thread order.  A rule with more than one item
        splits them evenly over ``min(group size, items)`` threads, the
        first ``items % threads`` of which take one extra item.
        """
        key = (scheduler.oversize_threshold, scheduler.max_group_size)
        sizes = self._group_sizes.get(key)
        if sizes is None:
            sizes = np.asarray(scheduler.group_sizes(), dtype=_I64)
            self._group_sizes[key] = sizes
        group = np.where(items > 1, np.minimum(sizes[rule_ids], items), 1)
        lane = np.arange(int(group.sum()), dtype=_I64) - np.repeat(_offsets(group)[:-1], group)
        base, extra = np.divmod(np.repeat(items, group), np.repeat(group, group))
        starts = lane * base + np.minimum(lane, extra)
        return np.repeat(rule_ids, group), starts, starts + base + (lane < extra)

    def assignments(self, scheduler: "FineGrainedScheduler", tag: str) -> Partition:
        """Cached thread partitions for the three unfiltered reduce shapes."""
        key = (tag, scheduler.oversize_threshold, scheduler.max_group_size)
        cached = self._assignments.get(key)
        if cached is None:
            rule_ids = np.arange(0 if tag == "corpus" else 1, self.num_rules, dtype=_I64)
            if tag in ("corpus", "file"):
                items = self.lw_count[rule_ids]
            elif tag == "sequence":
                items = self.rule_lengths[rule_ids]
            else:  # pragma: no cover - internal misuse
                raise ValueError(f"unknown assignment tag: {tag!r}")
            cached = self.partition(scheduler, rule_ids, items)
            self._assignments[key] = cached
        return cached

    def gather_local_words(
        self, rules: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten per-assignment local-word slices into one op stream.

        Returns ``(owner, keys, vals)`` where ``owner[i]`` is the index of
        the assignment that visits pair ``i``; pairs appear in ascending
        assignment order, slice order — exactly the scalar charge order.
        """
        lo = self.lw_off[rules] + starts
        lengths = np.maximum(0, ends - starts)
        total = int(lengths.sum())
        if total == 0:
            empty = np.zeros(0, dtype=_I64)
            return empty, empty, empty
        owner = np.repeat(np.arange(len(rules), dtype=_I64), lengths)
        within = np.arange(total, dtype=_I64) - np.repeat(_offsets(lengths)[:-1], lengths)
        flat = np.repeat(lo, lengths) + within
        return owner, self.lw_keys[flat], self.lw_vals[flat]
