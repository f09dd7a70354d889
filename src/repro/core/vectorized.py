"""Bulk (numpy) kernels: the engine's one runtime kernel path.

The reference kernels in :mod:`repro.core.traversal` and
:mod:`repro.core.sequence` execute every simulated GPU thread as a
Python callback, which specifies each launch faithfully but makes
wall-clock time interpreter-bound.  This module implements the same
kernels as numpy array programs over CSR-style flattened layouts that
are precomputed once per :class:`~repro.core.layout.DeviceRuleLayout`
and cached on it, then records each launch through
:meth:`~repro.gpusim.device.GPUDevice.launch_bulk` with per-thread work
vectors.  The session and the task plans call these functions directly;
only kernels without a bulk port (the head/tail buffers and the
delta-maintenance kernels) still run per thread.

Equivalence contract
--------------------
For every ported kernel the bulk port produces

* **bit-identical results** (all charged quantities and table values are
  integers, and every accumulation is reassociated only over integer
  sums, which float64 represents exactly below 2**53), and
* **identical** :class:`~repro.perf.counters.KernelStats` — the same
  launch count, thread count, per-warp serial ops, totals, atomics and
  conflict counts the per-thread reference records.

``tests/test_kernel_oracle.py`` checks this contract kernel by kernel
against the references, and fails if a kernel launched here has no
comparison.

Result format
-------------
The count kernels return integer columns, not dicts, so the plans can
shape results in id space and decode last
(:class:`~repro.analytics.encoded.EncodedResult`):

* corpus counts: ``(word ids, counts)`` in hash-table insertion order;
* per-file counts: ``(file indices, word ids, counts)`` sorted by
  ``(file, word id)``, with rows only for the requested files;
* sequence counts: ``(gram rows, counts)``, an ``(n, l)`` array of word
  ids in first-occurrence order.

Their references return the same content as dicts (a list of per-file
dicts for per-file counts); the oracle converts between the two.

The hash-table cost model in :func:`_hash_program` mirrors
:meth:`repro.gpusim.hashtable.DeviceHashTable.insert_add` exactly:
an *update* of the key at 0-based chain position ``p`` costs
``2p + 5`` ops / ``16p + 32`` bytes and one tracked atomic, an *insert*
behind ``p`` existing chain nodes costs ``4p + 8`` ops /
``32p + 49`` bytes and one tracked atomic (the bucket-lock CAS).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.layout import DeviceRuleLayout
from repro.core.scheduler import FineGrainedScheduler
from repro.gpusim.device import GPUDevice
from repro.perf import workcosts as wc

__all__ = [
    "FlattenedLayout",
    "flattened",
    "data_structure_prep",
    "compute_rule_weights",
    "compute_file_weights",
    "topdown_word_count_reduce",
    "topdown_per_file_counts_vec",
    "prepare_bottomup_vec",
    "build_local_tables_vec",
    "bottomup_word_count_reduce",
    "bottomup_per_file_counts_reduce",
    "sequence_counts_vec",
    "build_relational_tables_vec",
    "assemble_relational_rows_vec",
    "relational_filter_aggregate_vec",
]

_I64 = np.int64
_F64 = np.float64

#: A kernel's thread partition: ``(rules, starts, ends)``, one entry per
#: simulated thread, each thread scanning items ``[start, end)`` of its rule.
Partition = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Knuth multiplicative constant, as in :class:`DeviceHashTable`.
_HASH_MULT = 2654435761


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=_I64)
    np.cumsum(counts, out=out[1:])
    return out


def _flat_pairs(lists: Sequence[Sequence[Tuple[int, int]]]) -> Tuple[np.ndarray, np.ndarray]:
    first = [pair[0] for entries in lists for pair in entries]
    second = [pair[1] for entries in lists for pair in entries]
    return (
        np.asarray(first, dtype=_I64) if first else np.zeros(0, dtype=_I64),
        np.asarray(second, dtype=_I64) if second else np.zeros(0, dtype=_I64),
    )


def _flat_ints(lists: Sequence[Sequence[int]]) -> np.ndarray:
    flat = [value for entries in lists for value in entries]
    return np.asarray(flat, dtype=_I64) if flat else np.zeros(0, dtype=_I64)


class FlattenedLayout:
    """CSR-style flat-array view of a :class:`DeviceRuleLayout`.

    Built once per layout (see :func:`flattened`) and shared by every
    vectorized kernel, so a launch is a handful of array operations
    instead of a Python loop per simulated thread.
    """

    def __init__(self, layout: DeviceRuleLayout) -> None:
        self.layout = layout
        n = layout.num_rules
        self.num_rules = n
        self.num_files = layout.num_files
        self.vocabulary_size = layout.vocabulary_size
        self.rule_lengths = np.asarray(layout.rule_lengths, dtype=_I64)

        # rule -> local (word, count) pairs, already sorted by word id.
        self.lw_count = np.asarray([len(w) for w in layout.local_words], dtype=_I64)
        self.lw_off = _offsets(self.lw_count)
        self.lw_keys, self.lw_vals = _flat_pairs(layout.local_words)

        # rule -> (sub-rule, multiplicity) adjacency.
        self.sr_count = np.asarray([len(s) for s in layout.subrules], dtype=_I64)
        self.sr_off = _offsets(self.sr_count)
        self.sr_child, self.sr_freq = _flat_pairs(layout.subrules)

        # rule -> distinct parents (root included).
        self.par_count = np.asarray([len(p) for p in layout.parents], dtype=_I64)
        self.par_off = _offsets(self.par_count)
        self.par_ids = _flat_ints(layout.parents)

        self.num_in = np.asarray(layout.num_in_edges, dtype=_I64)
        self.num_out = np.asarray(layout.num_out_edges, dtype=_I64)

        # Root segments per file: direct terminal words and direct
        # sub-rule frequencies, flattened in dict (= first occurrence) order.
        self.rw_count = np.asarray(
            [len(t) for t in layout.root_words_per_file], dtype=_I64
        )
        self.rw_off = _offsets(self.rw_count)
        self.rw_keys = _flat_ints([list(t.keys()) for t in layout.root_words_per_file])
        self.rw_vals = _flat_ints([list(t.values()) for t in layout.root_words_per_file])
        self.rw_file = np.repeat(np.arange(self.num_files, dtype=_I64), self.rw_count)

        self.rc_count = np.asarray(
            [len(t) for t in layout.root_subrule_freq_per_file], dtype=_I64
        )
        self.rc_off = _offsets(self.rc_count)
        self.rc_child = _flat_ints(
            [list(t.keys()) for t in layout.root_subrule_freq_per_file]
        )
        self.rc_freq = _flat_ints(
            [list(t.values()) for t in layout.root_subrule_freq_per_file]
        )
        self.rc_file = np.repeat(np.arange(self.num_files, dtype=_I64), self.rc_count)

        # Aggregate root frequencies (level-2 weights) and the per-rule
        # count of files that reference the rule from the root.
        self.root_freq = np.zeros(n, dtype=_I64)
        np.add.at(self.root_freq, self.rc_child, self.rc_freq)
        self.files_per_rule = np.bincount(self.rc_child, minlength=n).astype(_I64)
        self.level2_child = np.flatnonzero(self.root_freq).astype(_I64)
        self.level2_freq = self.root_freq[self.level2_child]

        self._group_sizes: Dict[Tuple, np.ndarray] = {}
        self._assignments: Dict[Tuple, Partition] = {}

    # -- scheduling ------------------------------------------------------------------
    def partition(
        self, scheduler: FineGrainedScheduler, rule_ids: np.ndarray, items: np.ndarray
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

    def assignments(self, scheduler: FineGrainedScheduler, tag: str) -> Partition:
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
        within = np.arange(total, dtype=_I64) - np.repeat(
            _offsets(lengths)[:-1], lengths
        )
        flat = np.repeat(lo, lengths) + within
        return owner, self.lw_keys[flat], self.lw_vals[flat]


def flattened(layout: DeviceRuleLayout) -> FlattenedLayout:
    """The layout's cached :class:`FlattenedLayout` (built on first use)."""
    cache = getattr(layout, "_vectorized_flat", None)
    if cache is None:
        cache = FlattenedLayout(layout)
        layout._vectorized_flat = cache  # type: ignore[attr-defined]
    return cache


# ----------------------------------------------------------------------------------------
# DeviceHashTable cost model
# ----------------------------------------------------------------------------------------

def _hash_program(
    op_keys: np.ndarray,
    op_values: np.ndarray,
    num_buckets: int,
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
    """Replay a single-launch ``insert_add`` stream against one table.

    ``op_keys``/``op_values`` are the stream in charge order.  Returns
    ``(ops, mem, conflicts, keys, sums)``: per-op op/byte costs (each op
    also performs exactly one tracked atomic), the launch's total atomic
    conflicts (value-slot adds plus bucket-lock CASes), and the table
    contents in node-slot (insertion) order.
    """
    n_ops = len(op_keys)
    if n_ops == 0:
        empty_f = np.zeros(0, dtype=_F64)
        empty_i = np.zeros(0, dtype=_I64)
        return empty_f, empty_f, 0.0, empty_i, empty_i
    keys = np.asarray(op_keys, dtype=_I64)
    uniq, first_idx, inv = np.unique(keys, return_index=True, return_inverse=True)
    if len(uniq) > capacity:
        raise MemoryError("DeviceHashTable capacity exhausted")
    # Node slots are claimed in first-occurrence order.
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=_I64)
    rank[order] = np.arange(len(uniq), dtype=_I64)
    buckets = (uniq * _I64(_HASH_MULT)) % _I64(num_buckets)
    # Chain position = number of earlier-inserted keys in the same bucket.
    sorter = np.lexsort((rank, buckets))
    sorted_buckets = buckets[sorter]
    new_group = np.ones(len(uniq), dtype=bool)
    new_group[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
    group_start = np.maximum.accumulate(
        np.where(new_group, np.arange(len(uniq), dtype=_I64), 0)
    )
    chain_pos = np.empty(len(uniq), dtype=_I64)
    chain_pos[sorter] = np.arange(len(uniq), dtype=_I64) - group_start
    p = chain_pos[inv]
    is_insert = np.arange(n_ops, dtype=_I64) == first_idx[inv]
    ops = np.where(is_insert, 4 * p + 8, 2 * p + 5).astype(_F64)
    mem = np.where(is_insert, 32 * p + 49, 16 * p + 32).astype(_F64)
    # Conflicts: a key seen ``occ`` times gets ``occ - 1`` tracked adds on
    # its value slot; a bucket receiving ``g`` inserts gets ``g`` CASes on
    # its lock.  Each tracked address with ``c`` accesses contributes c-1.
    occ = np.bincount(inv, minlength=len(uniq))
    value_conflicts = int(np.maximum(0, occ - 2).sum())
    lock_conflicts = int(len(uniq) - len(np.unique(buckets)))
    sums = np.zeros(len(uniq), dtype=_I64)
    np.add.at(sums, inv, np.asarray(op_values, dtype=_I64))
    return ops, mem, float(value_conflicts + lock_conflicts), uniq[order], sums[order]


def _table_geometry(expected_keys: int) -> Tuple[int, int]:
    """Mirror :meth:`DeviceHashTable.sized_for`."""
    expected = max(1, int(expected_keys))
    return max(8, expected * 2), max(8, int(expected * 1.5) + 8)


def _thread_sums(owner: np.ndarray, values: np.ndarray, num_threads: int) -> np.ndarray:
    return np.bincount(owner, weights=values, minlength=num_threads).astype(_F64)


# ----------------------------------------------------------------------------------------
# Initialization phase
# ----------------------------------------------------------------------------------------

def data_structure_prep(layout: DeviceRuleLayout, device: GPUDevice) -> None:
    """Bulk port of ``dataStructurePrepKernel`` (Figure 3's left box)."""
    flat = flattened(layout)
    n = flat.num_rules
    num_threads = max(1, n)
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    lengths = flat.rule_lengths.astype(_F64)
    ops[:n] = wc.SYMBOL_VISIT_OPS * lengths + wc.MASK_CHECK_OPS
    mem[:n] = wc.SYMBOL_VISIT_BYTES * lengths
    device.launch_bulk(
        "dataStructurePrepKernel", num_threads, thread_ops=ops, thread_memory_bytes=mem
    )


# ----------------------------------------------------------------------------------------
# Top-down traversal (Algorithm 1)
# ----------------------------------------------------------------------------------------

def compute_rule_weights(layout: DeviceRuleLayout, device: GPUDevice) -> List[int]:
    """Bulk port of Algorithm 1's weight propagation (scalar weights)."""
    flat = flattened(layout)
    n = flat.num_rules
    weights = np.zeros(n, dtype=_I64)
    weights[0] = 1
    if n <= 1:
        return weights.tolist()

    weights[1:] = flat.root_freq[1:]
    num_threads = n - 1
    init_ops = np.full(num_threads, wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS, dtype=_F64)
    init_mem = np.full(num_threads, 16.0, dtype=_F64)
    device.launch_bulk(
        "initTopDownMaskKernel", num_threads, thread_ops=init_ops, thread_memory_bytes=init_mem
    )

    cur_in = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(flat.num_in[1:] == 0) + 1)
    while True:
        ops = np.full(num_threads, wc.MASK_CHECK_OPS, dtype=_F64)
        mem = np.full(num_threads, 4.0, dtype=_F64)
        atomics = np.zeros(num_threads, dtype=_F64)
        touch_counts = np.zeros(n, dtype=_I64)
        heap = list(pending)
        heapq.heapify(heap)
        pending = []
        hit_any = False
        while heap:
            r = heapq.heappop(heap)
            tid = r - 1
            lo, hi = int(flat.sr_off[r]), int(flat.sr_off[r + 1])
            cs = flat.sr_child[lo:hi]
            fs = flat.sr_freq[lo:hi]
            edges = hi - lo
            if edges:
                weights[cs] += fs * weights[r]
                cur_in[cs] += 1
                touch_counts[cs] += 1
                newly = cs[cur_in[cs] == flat.num_in[cs]]
            else:
                newly = ()
            hits = len(newly)
            # Each edge: EDGE_VISIT + two tracked atomic adds; each child
            # that becomes ready charges one extra MASK op to this thread.
            ops[tid] += (wc.EDGE_VISIT_OPS + 2.0) * edges + wc.MASK_CHECK_OPS * hits
            mem[tid] += (wc.EDGE_VISIT_BYTES + 16.0) * edges
            atomics[tid] += 2.0 * edges
            for child in newly:
                hit_any = True
                c = int(child)
                if c > r:
                    heapq.heappush(heap, c)
                else:
                    pending.append(c)
        # Both the weights[] and cur_in_edges[] atomics are tracked per
        # child address, so each contested child counts twice.
        conflicts = 2.0 * float(np.maximum(0, touch_counts - 1).sum())
        device.launch_bulk(
            "topDownKernel",
            num_threads,
            thread_ops=ops,
            thread_memory_bytes=mem,
            thread_atomic_ops=atomics,
            atomic_conflicts=conflicts,
        )
        if not hit_any:
            break
    return weights.tolist()


class FileWeights(list):
    """``List[Dict[int, int]]`` of per-rule file weights + a dense matrix.

    Behaves exactly like the scalar return value of
    :func:`repro.core.traversal.compute_file_weights_topdown`; the
    ``dense`` attribute carries the ``[num_rules, num_files]`` int64
    matrix the vectorized reduce kernels consume directly.
    """

    dense: Optional[np.ndarray] = None


def _dense_file_weights(
    flat: FlattenedLayout, file_weights: Sequence[Dict[int, int]]
) -> np.ndarray:
    dense = getattr(file_weights, "dense", None)
    if dense is not None:
        return dense
    matrix = np.zeros((flat.num_rules, flat.num_files), dtype=_I64)
    for rule_id, table in enumerate(file_weights):
        for file_index, weight in table.items():
            matrix[rule_id, file_index] = weight
    return matrix


def compute_file_weights(layout: DeviceRuleLayout, device: GPUDevice) -> FileWeights:
    """Bulk port of the per-file weight propagation (file-sensitive tasks)."""
    flat = flattened(layout)
    n, num_files = flat.num_rules, flat.num_files
    matrix = np.zeros((n, num_files), dtype=_I64)
    if n <= 1:
        result = FileWeights(dict() for _ in range(n))
        result.dense = matrix
        return result

    # Init kernel: every non-root rule loads its root-segment counts.
    matrix[flat.rc_child, flat.rc_file] = flat.rc_freq
    matrix[0, :] = 0
    num_threads = n - 1
    k = flat.files_per_rule[1:].astype(_F64)
    init_ops = wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS * k
    init_mem = 16.0 + 8.0 * k
    device.launch_bulk(
        "initTopDownFileMaskKernel",
        num_threads,
        thread_ops=init_ops,
        thread_memory_bytes=init_mem,
    )

    cur_in = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(flat.num_in[1:] == 0) + 1)
    while True:
        ops = np.full(num_threads, wc.MASK_CHECK_OPS, dtype=_F64)
        mem = np.full(num_threads, 4.0, dtype=_F64)
        atomics = np.zeros(num_threads, dtype=_F64)
        touch_counts = np.zeros(n, dtype=_I64)
        heap = list(pending)
        heapq.heapify(heap)
        pending = []
        hit_any = False
        while heap:
            r = heapq.heappop(heap)
            tid = r - 1
            lo, hi = int(flat.sr_off[r]), int(flat.sr_off[r + 1])
            cs = flat.sr_child[lo:hi]
            fs = flat.sr_freq[lo:hi]
            edges = hi - lo
            row = matrix[r]
            # The rule's own table is final here: all parents fired already.
            spread = int(np.count_nonzero(row))
            if edges:
                matrix[cs] += fs[:, None] * row
                cur_in[cs] += 1
                touch_counts[cs] += 1
                newly = cs[cur_in[cs] == flat.num_in[cs]]
            else:
                newly = ()
            # Per edge: EDGE_VISIT, per carried file entry a weight update
            # (+1 op) with an untracked atomic, plus the tracked
            # cur_in_edges atomic add.  No readiness charge in this kernel.
            ops[tid] += edges * (
                wc.EDGE_VISIT_OPS + (wc.WEIGHT_UPDATE_OPS + 1.0) * spread + 1.0
            )
            mem[tid] += edges * (wc.EDGE_VISIT_BYTES + wc.SYMBOL_VISIT_BYTES * spread + 8.0)
            atomics[tid] += edges * (spread + 1.0)
            for child in newly:
                hit_any = True
                c = int(child)
                if c > r:
                    heapq.heappush(heap, c)
                else:
                    pending.append(c)
        conflicts = float(np.maximum(0, touch_counts - 1).sum())
        device.launch_bulk(
            "topDownFileKernel",
            num_threads,
            thread_ops=ops,
            thread_memory_bytes=mem,
            thread_atomic_ops=atomics,
            atomic_conflicts=conflicts,
        )
        if not hit_any:
            break

    result = FileWeights(
        {int(f): int(matrix[rule_id, f]) for f in np.flatnonzero(matrix[rule_id])}
        for rule_id in range(n)
    )
    result.dense = matrix
    return result


def topdown_word_count_reduce(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    device: GPUDevice,
    weights: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Bulk port of the top-down ``reduceResultKernel``: ``(word ids, counts)``."""
    flat = flattened(layout)
    rules, starts, ends = flat.assignments(scheduler, "corpus")
    num_threads = max(1, len(rules))
    weights_arr = np.asarray(weights, dtype=_I64)
    thread_weight = weights_arr[rules]

    active = thread_weight != 0
    owner, keys, vals = flat.gather_local_words(
        rules[active] if active.any() else rules[:0],
        starts[active] if active.any() else starts[:0],
        ends[active] if active.any() else ends[:0],
    )
    if len(owner):
        active_tids = np.flatnonzero(active).astype(_I64)
        owner = active_tids[owner]
        vals = vals * thread_weight[owner]

    num_buckets, capacity = _table_geometry(flat.vocabulary_size)
    hash_ops, hash_mem, conflicts, out_keys, out_vals = _hash_program(
        keys, vals, num_buckets, capacity
    )
    ops = np.full(num_threads, wc.MASK_CHECK_OPS, dtype=_F64)
    mem = np.full(num_threads, 8.0, dtype=_F64)
    ops[len(rules):] = 0.0
    mem[len(rules):] = 0.0
    ops += _thread_sums(owner, wc.SYMBOL_VISIT_OPS + hash_ops, num_threads)
    mem += _thread_sums(owner, wc.SYMBOL_VISIT_BYTES + hash_mem, num_threads)
    atomics = _thread_sums(owner, np.ones(len(owner), dtype=_F64), num_threads)
    device.launch_bulk(
        "reduceResultKernel",
        num_threads,
        thread_ops=ops,
        thread_memory_bytes=mem,
        thread_atomic_ops=atomics,
        atomic_conflicts=conflicts,
    )
    return out_keys, out_vals


def _merge_file_words(
    files: np.ndarray, words: np.ndarray, counts: np.ndarray, vocabulary_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``counts`` per ``(file, word id)`` in one global merge.

    Word ids are always < ``vocabulary_size``, so ``(file, word)`` packs
    into a single int64 and the sorted unique keys are the ``(file, word
    id)`` row order.  Returns ``(file indices, word ids, sums, inverse)``,
    where ``inverse`` maps each input entry to its row.
    """
    vocab = max(1, int(vocabulary_size))
    uniq, inverse = np.unique(files * vocab + words, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.bincount(inverse, weights=counts, minlength=len(uniq)).astype(_I64)
    uniq_files = uniq // vocab
    return uniq_files, uniq - uniq_files * vocab, sums, inverse


def _file_rows(
    flat: FlattenedLayout, columns: np.ndarray, file_indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(file indices, word ids, counts)`` of ``file_indices`` (ascending).

    ``columns`` holds those files' weight columns: every nonzero ``(rule,
    file)`` weight scales the rule's local words, and each file adds its
    root's own words.
    """
    rules, at = np.nonzero(columns)
    owner, keys, vals = flat.gather_local_words(
        rules, np.zeros(len(rules), dtype=_I64), flat.lw_count[rules]
    )
    wanted = np.zeros(flat.num_files, dtype=bool)
    wanted[file_indices] = True
    root = wanted[flat.rw_file]
    files, words, counts, _inverse = _merge_file_words(
        np.concatenate([file_indices[at][owner], flat.rw_file[root]]),
        np.concatenate([keys, flat.rw_keys[root]]),
        np.concatenate([vals * columns[rules, at][owner], flat.rw_vals[root]]),
        flat.vocabulary_size,
    )
    return files, words, counts


def topdown_per_file_counts_vec(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    device: GPUDevice,
    file_weights: Sequence[Dict[int, int]],
    file_indices: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bulk port of the top-down per-file reduce kernels.

    Covers both the unfiltered pair (``reduceFileResultKernel`` +
    ``rootWordsKernel``) and the restricted single-launch
    ``reduceFileSubsetKernel``.  Returns ``(file indices, word ids,
    counts)`` sorted by ``(file, word id)``.
    """
    flat = flattened(layout)
    matrix = _dense_file_weights(flat, file_weights)

    if file_indices is not None:
        allowed_order = sorted(frozenset(file_indices))
        allowed_cols = np.asarray(allowed_order, dtype=_I64)
        sub = matrix[:, allowed_cols] if len(allowed_cols) else matrix[:, :0]
        sub_nnz = np.count_nonzero(sub, axis=1).astype(_I64)
        rule_ids = np.flatnonzero(sub_nnz[1:]).astype(_I64) + 1
        rules, starts, ends = flat.partition(scheduler, rule_ids, flat.lw_count[rule_ids])
        num_threads = max(1, len(rules) + len(allowed_order))
        ops = np.zeros(num_threads, dtype=_F64)
        mem = np.zeros(num_threads, dtype=_F64)
        atomics = np.zeros(num_threads, dtype=_F64)
        if len(rules):
            spans = np.maximum(0, ends - starts).astype(_F64)
            spread = sub_nnz[rules].astype(_F64)
            a = np.arange(len(rules))
            ops[a] = wc.MASK_CHECK_OPS + spans * (
                wc.SYMBOL_VISIT_OPS + wc.HASH_UPDATE_OPS * spread
            )
            mem[a] = 8.0 + spans * (
                wc.SYMBOL_VISIT_BYTES + wc.HASH_UPDATE_BYTES * spread
            )
            atomics[a] = spans * spread
        file_tids = len(rules) + np.arange(len(allowed_order))
        ops[file_tids] = wc.HASH_UPDATE_OPS * flat.rw_count[allowed_cols]
        mem[file_tids] = wc.HASH_UPDATE_BYTES * flat.rw_count[allowed_cols]
        device.launch_bulk(
            "reduceFileSubsetKernel",
            num_threads,
            thread_ops=ops,
            thread_memory_bytes=mem,
            thread_atomic_ops=atomics,
        )
        return _file_rows(flat, sub, allowed_cols)

    rules, starts, ends = flat.assignments(scheduler, "file")
    if len(rules):
        spans = np.maximum(0, ends - starts).astype(_F64)
        spread = np.count_nonzero(matrix, axis=1).astype(_F64)[rules]
        ops = wc.MASK_CHECK_OPS + spans * (wc.SYMBOL_VISIT_OPS + wc.HASH_UPDATE_OPS * spread)
        mem = 8.0 + spans * (wc.SYMBOL_VISIT_BYTES + wc.HASH_UPDATE_BYTES * spread)
        atomics = spans * spread
        device.launch_bulk(
            "reduceFileResultKernel",
            len(rules),
            thread_ops=ops,
            thread_memory_bytes=mem,
            thread_atomic_ops=atomics,
        )

    num_threads = max(1, flat.num_files)
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    ops[: flat.num_files] = wc.HASH_UPDATE_OPS * flat.rw_count
    mem[: flat.num_files] = wc.HASH_UPDATE_BYTES * flat.rw_count
    device.launch_bulk(
        "rootWordsKernel", num_threads, thread_ops=ops, thread_memory_bytes=mem
    )
    return _file_rows(flat, matrix, np.arange(flat.num_files, dtype=_I64))


# ----------------------------------------------------------------------------------------
# Bottom-up traversal (Algorithm 2)
# ----------------------------------------------------------------------------------------

def _launch_bottomup_init_mask(flat: FlattenedLayout, device: GPUDevice) -> None:
    n = flat.num_rules
    device.launch_bulk(
        "initBottomUpMaskKernel",
        n,
        thread_ops=np.full(n, wc.MASK_CHECK_OPS, dtype=_F64),
        thread_memory_bytes=np.full(n, 8.0, dtype=_F64),
    )


def prepare_bottomup_vec(layout: DeviceRuleLayout, device: GPUDevice) -> List[int]:
    """Bulk port of ``genRuleParentsKernel`` + the local-table bound pass."""
    flat = flattened(layout)
    n = flat.num_rules
    edges = flat.sr_count.astype(_F64)
    device.launch_bulk(
        "genRuleParentsKernel",
        n,
        thread_ops=wc.EDGE_VISIT_OPS * edges,
        thread_memory_bytes=wc.EDGE_VISIT_BYTES * edges,
    )

    _launch_bottomup_init_mask(flat, device)

    bounds = np.zeros(n, dtype=_I64)
    cur_out = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(flat.num_out == 0))
    while True:
        ops = np.full(n, wc.MASK_CHECK_OPS, dtype=_F64)
        mem = np.full(n, 4.0, dtype=_F64)
        atomics = np.zeros(n, dtype=_F64)
        touch_counts = np.zeros(n, dtype=_I64)
        heap = [int(r) for r in pending]
        heapq.heapify(heap)
        pending = []
        hit_any = False
        while heap:
            r = heapq.heappop(heap)
            if r == 0:
                # The root only terminates the traversal; no extra work.
                continue
            lo, hi = int(flat.sr_off[r]), int(flat.sr_off[r + 1])
            cs = flat.sr_child[lo:hi]
            degree = hi - lo
            bounds[r] = min(
                int(flat.lw_count[r]) + int(bounds[cs].sum()), flat.vocabulary_size
            )
            plo, phi = int(flat.par_off[r]), int(flat.par_off[r + 1])
            ps = flat.par_ids[plo:phi]
            num_parents = phi - plo
            if num_parents:
                cur_out[ps] += 1
                touch_counts[ps] += 1
                newly = ps[cur_out[ps] == flat.num_out[ps]]
            else:
                newly = ()
            ops[r] += (
                wc.SYMBOL_VISIT_OPS
                + wc.EDGE_VISIT_OPS * degree
                + (wc.WEIGHT_UPDATE_OPS + 1.0) * num_parents
            )
            mem[r] += 8.0 + wc.EDGE_VISIT_BYTES * degree + 16.0 * num_parents
            atomics[r] += float(num_parents)
            for parent in newly:
                hit_any = True
                p = int(parent)
                if p > r:
                    heapq.heappush(heap, p)
                else:
                    pending.append(p)
        conflicts = float(np.maximum(0, touch_counts - 1).sum())
        device.launch_bulk(
            "genLocTblBoundKernel",
            n,
            thread_ops=ops,
            thread_memory_bytes=mem,
            thread_atomic_ops=atomics,
            atomic_conflicts=conflicts,
        )
        if not hit_any:
            break
    return bounds.tolist()


class LocalTables(list):
    """``List[Dict[int, int]]`` of per-rule tables + flat array mirrors.

    ``key_arrays[r]`` / ``val_arrays[r]`` hold rule ``r``'s table in its
    dict (insertion) order, which downstream reduce kernels depend on
    for bit-identical hash-table charge streams.
    """

    key_arrays: List[np.ndarray]
    val_arrays: List[np.ndarray]


def _table_arrays(
    local_tables: Sequence[Dict[int, int]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    keys = getattr(local_tables, "key_arrays", None)
    vals = getattr(local_tables, "val_arrays", None)
    if keys is not None and vals is not None:
        return keys, vals
    keys = [np.asarray(list(t.keys()), dtype=_I64) for t in local_tables]
    vals = [np.asarray(list(t.values()), dtype=_I64) for t in local_tables]
    return keys, vals


def build_local_tables_vec(
    layout: DeviceRuleLayout, device: GPUDevice
) -> LocalTables:
    """Bulk port of the ``genLocTblKernel`` wavefront (Algorithm 2's build)."""
    flat = flattened(layout)
    n = flat.num_rules
    _launch_bottomup_init_mask(flat, device)

    key_arrays: List[np.ndarray] = [np.zeros(0, dtype=_I64) for _ in range(n)]
    val_arrays: List[np.ndarray] = [np.zeros(0, dtype=_I64) for _ in range(n)]
    cur_out = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(flat.num_out == 0))
    while True:
        ops = np.full(n, wc.MASK_CHECK_OPS, dtype=_F64)
        mem = np.full(n, 4.0, dtype=_F64)
        atomics = np.zeros(n, dtype=_F64)
        touch_counts = np.zeros(n, dtype=_I64)
        heap = [int(r) for r in pending]
        heapq.heapify(heap)
        pending = []
        hit_any = False
        while heap:
            r = heapq.heappop(heap)
            if r == 0:
                # Results are gathered at level-2 nodes, never at the root.
                continue
            lo, hi = int(flat.lw_off[r]), int(flat.lw_off[r + 1])
            key_parts = [flat.lw_keys[lo:hi]]
            val_parts = [flat.lw_vals[lo:hi]]
            own_entries = hi - lo
            slo, shi = int(flat.sr_off[r]), int(flat.sr_off[r + 1])
            child_entries = 0
            for child, freq in zip(
                flat.sr_child[slo:shi].tolist(), flat.sr_freq[slo:shi].tolist()
            ):
                child_keys = key_arrays[child]
                child_entries += len(child_keys)
                if len(child_keys):
                    key_parts.append(child_keys)
                    val_parts.append(val_arrays[child] * freq)
            merged_keys = np.concatenate(key_parts)
            merged_vals = np.concatenate(val_parts)
            if len(merged_keys):
                uniq, first_idx, inv = np.unique(
                    merged_keys, return_index=True, return_inverse=True
                )
                sums = np.zeros(len(uniq), dtype=_I64)
                np.add.at(sums, inv, merged_vals)
                order = np.argsort(first_idx, kind="stable")
                key_arrays[r] = uniq[order]
                val_arrays[r] = sums[order]
            degree = shi - slo
            plo, phi = int(flat.par_off[r]), int(flat.par_off[r + 1])
            ps = flat.par_ids[plo:phi]
            num_parents = phi - plo
            if num_parents:
                cur_out[ps] += 1
                touch_counts[ps] += 1
                newly = ps[cur_out[ps] == flat.num_out[ps]]
            else:
                newly = ()
            ops[r] += (
                wc.HASH_UPDATE_OPS * (own_entries + child_entries)
                + wc.EDGE_VISIT_OPS * degree
                + (wc.WEIGHT_UPDATE_OPS + 1.0) * num_parents
            )
            mem[r] += (
                wc.HASH_UPDATE_BYTES * (own_entries + child_entries)
                + wc.EDGE_VISIT_BYTES * degree
                + 16.0 * num_parents
            )
            atomics[r] += float(num_parents)
            for parent in newly:
                hit_any = True
                p = int(parent)
                if p > r:
                    heapq.heappush(heap, p)
                else:
                    pending.append(p)
        conflicts = float(np.maximum(0, touch_counts - 1).sum())
        device.launch_bulk(
            "genLocTblKernel",
            n,
            thread_ops=ops,
            thread_memory_bytes=mem,
            thread_atomic_ops=atomics,
            atomic_conflicts=conflicts,
        )
        if not hit_any:
            break

    tables = LocalTables(
        dict(zip(key_arrays[r].tolist(), val_arrays[r].tolist())) for r in range(n)
    )
    tables.key_arrays = key_arrays
    tables.val_arrays = val_arrays
    return tables


def bottomup_word_count_reduce(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    local_tables: Sequence[Dict[int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Bulk port of the bottom-up ``reduceResultKernel``: ``(word ids, counts)``."""
    flat = flattened(layout)
    key_arrays, val_arrays = _table_arrays(local_tables)
    num_threads = 1 + len(flat.level2_child)

    # Charge-order op stream: the root's own terminal words (thread 0),
    # then each level-2 child's table scaled by its root frequency.
    lo, hi = int(flat.lw_off[0]), int(flat.lw_off[1])
    key_parts = [flat.lw_keys[lo:hi]]
    val_parts = [flat.lw_vals[lo:hi]]
    owner_parts = [np.zeros(hi - lo, dtype=_I64)]
    for index, (child, freq) in enumerate(
        zip(flat.level2_child.tolist(), flat.level2_freq.tolist())
    ):
        child_keys = key_arrays[child]
        if len(child_keys):
            key_parts.append(child_keys)
            val_parts.append(val_arrays[child] * freq)
            owner_parts.append(np.full(len(child_keys), 1 + index, dtype=_I64))
    keys = np.concatenate(key_parts)
    vals = np.concatenate(val_parts)
    owner = np.concatenate(owner_parts)

    num_buckets, capacity = _table_geometry(flat.vocabulary_size)
    hash_ops, hash_mem, conflicts, out_keys, out_vals = _hash_program(
        keys, vals, num_buckets, capacity
    )
    ops = np.full(num_threads, wc.MASK_CHECK_OPS, dtype=_F64)
    mem = np.full(num_threads, 8.0, dtype=_F64)
    ops[0] = 0.0
    mem[0] = 0.0
    ops += _thread_sums(owner, wc.SYMBOL_VISIT_OPS + hash_ops, num_threads)
    mem += _thread_sums(owner, wc.SYMBOL_VISIT_BYTES + hash_mem, num_threads)
    atomics = _thread_sums(owner, np.ones(len(owner), dtype=_F64), num_threads)
    device.launch_bulk(
        "reduceResultKernel",
        num_threads,
        thread_ops=ops,
        thread_memory_bytes=mem,
        thread_atomic_ops=atomics,
        atomic_conflicts=conflicts,
    )
    return out_keys, out_vals


def bottomup_per_file_counts_reduce(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    local_tables: Sequence[Dict[int, int]],
    file_indices: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bulk port of the bottom-up ``reduceFileResultKernel``.

    Returns ``(file indices, word ids, counts)`` sorted by ``(file, word id)``.
    """
    flat = flattened(layout)
    targets = sorted(set(file_indices)) if file_indices is not None else None

    # The unfiltered contribution stream (which child table feeds which
    # file, scaled by which frequency) is a pure function of the layout
    # and the session's cached local tables, so assemble it once per
    # local-tables build; only the merged sums are recomputed per query.
    if targets is None:
        cached = getattr(flat, "file_reduce_geom", None)
        if cached is not None and cached[0] is local_tables:
            num_threads, ops, mem, inv, vals, uniq_files, uniq_words = cached[1]
            sums = np.bincount(inv, weights=vals, minlength=len(uniq_words)).astype(_I64)
            device.launch_bulk(
                "reduceFileResultKernel",
                num_threads,
                thread_ops=ops,
                thread_memory_bytes=mem,
            )
            return uniq_files, uniq_words, sums

    key_arrays, val_arrays = _table_arrays(local_tables)
    table_sizes = np.asarray([len(k) for k in key_arrays], dtype=_I64)
    uniq_files = uniq_words = sums = np.zeros(0, dtype=_I64)

    files = targets if targets is not None else list(range(flat.num_files))
    num_threads = max(1, len(files))
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    key_parts: List[np.ndarray] = []
    val_parts: List[np.ndarray] = []
    owner_parts: List[np.ndarray] = []
    for tid, file_index in enumerate(files):
        if file_index >= flat.num_files:
            continue
        rwc = int(flat.rw_count[file_index])
        lo, hi = int(flat.rc_off[file_index]), int(flat.rc_off[file_index + 1])
        children = flat.rc_child[lo:hi]
        degree = hi - lo
        entries = int(table_sizes[children].sum())
        ops[tid] = (
            wc.HASH_UPDATE_OPS * (rwc + entries) + wc.EDGE_VISIT_OPS * degree
        )
        mem[tid] = (
            wc.HASH_UPDATE_BYTES * (rwc + entries) + wc.EDGE_VISIT_BYTES * degree
        )
        # Contribution stream for this file (merged globally below).
        rlo, rhi = int(flat.rw_off[file_index]), int(flat.rw_off[file_index + 1])
        if rhi > rlo:
            key_parts.append(flat.rw_keys[rlo:rhi])
            val_parts.append(flat.rw_vals[rlo:rhi])
            owner_parts.append(np.full(rhi - rlo, file_index, dtype=_I64))
        for child, freq in zip(children.tolist(), flat.rc_freq[lo:hi].tolist()):
            child_keys = key_arrays[child]
            if len(child_keys):
                key_parts.append(child_keys)
                val_parts.append(val_arrays[child] * freq)
                owner_parts.append(np.full(len(child_keys), file_index, dtype=_I64))
    if key_parts:
        vals = np.concatenate(val_parts)
        uniq_files, uniq_words, sums, inv = _merge_file_words(
            np.concatenate(owner_parts), np.concatenate(key_parts), vals, flat.vocabulary_size
        )
        if targets is None:
            flat.file_reduce_geom = (
                local_tables,
                (num_threads, ops, mem, inv, vals, uniq_files, uniq_words),
            )
    device.launch_bulk(
        "reduceFileResultKernel", num_threads, thread_ops=ops, thread_memory_bytes=mem
    )
    return uniq_files, uniq_words, sums


# ----------------------------------------------------------------------------------------
# Sequence counting (Figure 8)
# ----------------------------------------------------------------------------------------

class _Skeleton:
    """Flat-array skeleton of one symbol sequence (see ``_build_skeleton``).

    ``off[i]`` is the skeleton row where element ``i``'s contribution
    starts, so any element slice of the source maps to a row slice here.
    Window validity over the *full* skeleton is precomputed once; a
    thread's windows are a slice of it further masked by its element
    ownership range.
    """

    __slots__ = ("words", "elem", "inside", "off", "base_valid", "first_elem", "length")

    def __init__(self, symbols: Sequence[int], buffers, sequence_length: int) -> None:
        from repro.compression.grammar import is_rule_ref, rule_ref_id

        words: List[int] = []
        elem: List[int] = []
        inside: List[bool] = []
        gaps: List[bool] = []
        off = np.zeros(len(symbols) + 1, dtype=_I64)
        for local_index, symbol in enumerate(symbols):
            off[local_index] = len(words)
            if not is_rule_ref(symbol):
                words.append(symbol)
                elem.append(local_index)
                inside.append(False)
                gaps.append(False)
                continue
            child = rule_ref_id(symbol)
            short = buffers.short_expansions[child]
            if short is not None:
                for word in short:
                    words.append(word)
                    elem.append(local_index)
                    inside.append(True)
                    gaps.append(False)
                continue
            for word in buffers.heads[child]:
                words.append(word)
                elem.append(local_index)
                inside.append(True)
                gaps.append(False)
            words.append(-1)
            elem.append(-1)
            inside.append(False)
            gaps.append(True)
            for word in buffers.tails[child]:
                words.append(word)
                elem.append(local_index)
                inside.append(True)
                gaps.append(False)
        off[len(symbols)] = len(words)
        self.off = off
        self.words = np.asarray(words, dtype=_I64) if words else np.zeros(0, dtype=_I64)
        self.elem = np.asarray(elem, dtype=_I64) if elem else np.zeros(0, dtype=_I64)
        self.inside = np.asarray(inside, dtype=bool)
        self.length = len(words)

        length = sequence_length
        total_windows = max(0, self.length - length + 1)
        gap_arr = np.asarray(gaps, dtype=_I64) if gaps else np.zeros(0, dtype=_I64)
        gapc = np.zeros(self.length + 1, dtype=_I64)
        np.cumsum(gap_arr, out=gapc[1:])
        has_gap = (gapc[length:] - gapc[:-length]) > 0 if total_windows else np.zeros(0, dtype=bool)
        if total_windows:
            first_inside = self.inside[:total_windows]
            last_inside = self.inside[length - 1 : length - 1 + total_windows]
            same_elem = (
                self.elem[:total_windows] == self.elem[length - 1 : length - 1 + total_windows]
            )
            contained = first_inside & last_inside & same_elem
            self.base_valid = ~has_gap & ~contained
            self.first_elem = self.elem[:total_windows]
        else:
            self.base_valid = np.zeros(0, dtype=bool)
            self.first_elem = np.zeros(0, dtype=_I64)


def _skeleton_cache(buffers, layout: DeviceRuleLayout) -> Dict:
    cache = getattr(buffers, "_vec_skeletons", None)
    if cache is None or cache.get("layout") is not layout:
        cache = {"layout": layout}
        buffers._vec_skeletons = cache  # type: ignore[attr-defined]
    return cache


def _rule_skeleton(cache: Dict, layout: DeviceRuleLayout, buffers, rule_id: int) -> _Skeleton:
    skeleton = cache.get(rule_id)
    if skeleton is None:
        skeleton = _Skeleton(layout.rule_bodies[rule_id], buffers, buffers.sequence_length)
        cache[rule_id] = skeleton
    return skeleton


def _root_skeleton(cache: Dict, layout: DeviceRuleLayout, buffers) -> _Skeleton:
    skeleton = cache.get("root")
    if skeleton is None:
        skeleton = _Skeleton(layout.root_symbols, buffers, buffers.sequence_length)
        cache["root"] = skeleton
    return skeleton


def _windows_for_span(
    skeleton: _Skeleton,
    sequence_length: int,
    element_start: int,
    element_end: int,
    extended_end: int,
) -> Tuple[int, int, np.ndarray]:
    """``(num_elements, num_window_starts, valid_window_rows)`` for one thread.

    The thread scans elements ``[element_start, extended_end)`` and owns
    windows whose first word's element lies in
    ``[element_start, element_end)`` — exactly the scalar slicing.
    """
    lo = int(skeleton.off[element_start])
    hi = int(skeleton.off[extended_end])
    num_windows = max(0, (hi - lo) - sequence_length + 1)
    if num_windows == 0:
        return extended_end - element_start, 0, np.zeros(0, dtype=_I64)
    valid = (
        skeleton.base_valid[lo : lo + num_windows]
        & (skeleton.first_elem[lo : lo + num_windows] >= element_start)
        & (skeleton.first_elem[lo : lo + num_windows] < element_end)
    )
    return extended_end - element_start, num_windows, lo + np.flatnonzero(valid).astype(_I64)


def sequence_counts_vec(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    device: GPUDevice,
    buffers,
    weights: Sequence[int],
    sequence_length: int,
    file_indices: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bulk port of the Figure-8 sequence kernels (rule + root + merge).

    Returns ``(gram rows, counts)``: an ``(n, sequence_length)`` array of
    word ids in first-occurrence order and the matching counts.
    """
    flat = flattened(layout)
    allowed = frozenset(file_indices) if file_indices is not None else None
    overlap = sequence_length - 1
    cache = _skeleton_cache(buffers, layout)
    window_offsets = np.arange(sequence_length, dtype=_I64)

    weights_arr = np.asarray(weights, dtype=_I64)
    # Unfiltered queries always run the same assignment set against the
    # same weights, so the launch arrays and the concatenated window
    # stream are pure functions of (layout, scheduler, length).  Cache
    # them on the session's sequence buffers: repeated sequence queries
    # then skip the per-assignment Python loops while replaying exactly
    # the same simulated launches.
    stream = None
    if allowed is None:
        stream = cache.get("stream")
        if stream is not None and not np.array_equal(stream["weights"], weights_arr):
            stream = None
    if stream is not None:
        rule_launch = stream["rule_launch"]
        if rule_launch is not None:
            device.launch_bulk(
                "sequenceRuleKernel",
                rule_launch[0],
                thread_ops=rule_launch[1],
                thread_memory_bytes=rule_launch[2],
            )
        root_launch = stream["root_launch"]
        device.launch_bulk(
            "sequenceRootKernel",
            root_launch[0],
            thread_ops=root_launch[1],
            thread_memory_bytes=root_launch[2],
        )
        mat = stream["mat"]
        values = stream["values"]
        return _sequence_merge(layout, device, mat, values, sequence_length, stream=stream)

    key_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    rule_launch = None

    if allowed is None:
        rules, starts, ends = flat.assignments(scheduler, "sequence")
    else:
        rule_ids = np.flatnonzero(weights_arr[1 : layout.num_rules]).astype(_I64) + 1
        rules, starts, ends = flat.partition(scheduler, rule_ids, flat.rule_lengths[rule_ids])

    if len(rules):
        num_threads = len(rules)
        ops = np.full(num_threads, wc.MASK_CHECK_OPS, dtype=_F64)
        mem = np.full(num_threads, 8.0, dtype=_F64)
        threads = zip(rules.tolist(), starts.tolist(), ends.tolist())
        for tid, (rule_id, start, end) in enumerate(threads):
            weight = int(weights[rule_id])
            if weight == 0 or end <= start:
                continue
            skeleton = _rule_skeleton(cache, layout, buffers, rule_id)
            body_length = int(flat.rule_lengths[rule_id])
            extended_end = min(body_length, end + overlap)
            num_elements, num_windows, valid_rows = _windows_for_span(
                skeleton, sequence_length, start, end, extended_end
            )
            num_valid = len(valid_rows)
            ops[tid] += (
                wc.SYMBOL_VISIT_OPS * num_elements
                + wc.SYMBOL_VISIT_OPS * num_windows
                + wc.HASH_UPDATE_OPS * num_valid
            )
            mem[tid] += (
                wc.SYMBOL_VISIT_BYTES * num_elements + wc.HASH_UPDATE_BYTES * num_valid
            )
            if num_valid:
                key_parts.append(skeleton.words[valid_rows[:, None] + window_offsets])
                weight_parts.append(np.full(num_valid, weight, dtype=_I64))
        rule_launch = (num_threads, ops, mem)
        device.launch_bulk(
            "sequenceRuleKernel", num_threads, thread_ops=ops, thread_memory_bytes=mem
        )

    # Root segments, chunked exactly like the scalar path.
    chunk = max(32, int(scheduler.oversize_threshold * max(1.0, layout.average_rule_length)))
    root_work: List[Tuple[int, int, int]] = []
    for file_index, (segment_start, segment_end) in enumerate(layout.root_segments):
        if allowed is not None and file_index not in allowed:
            continue
        length = segment_end - segment_start
        for offset in range(0, max(1, length), chunk):
            start = segment_start + offset
            end = min(segment_end, start + chunk)
            root_work.append((file_index, start, end))

    num_threads = max(1, len(root_work))
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    root_skeleton = _root_skeleton(cache, layout, buffers) if root_work else None
    for tid, (file_index, start, end) in enumerate(root_work):
        _segment_start, segment_end = layout.root_segments[file_index]
        extended_end = min(segment_end, end + overlap)
        num_elements, num_windows, valid_rows = _windows_for_span(
            root_skeleton, sequence_length, start, end, extended_end
        )
        num_valid = len(valid_rows)
        ops[tid] = (
            wc.SYMBOL_VISIT_OPS * num_elements
            + wc.SYMBOL_VISIT_OPS * num_windows
            + wc.HASH_UPDATE_OPS * num_valid
        )
        mem[tid] = wc.SYMBOL_VISIT_BYTES * num_elements + wc.HASH_UPDATE_BYTES * num_valid
        if num_valid:
            key_parts.append(root_skeleton.words[valid_rows[:, None] + window_offsets])
            weight_parts.append(np.ones(num_valid, dtype=_I64))
    root_launch = (num_threads, ops, mem)
    device.launch_bulk(
        "sequenceRootKernel", num_threads, thread_ops=ops, thread_memory_bytes=mem
    )

    if key_parts:
        mat = np.concatenate(key_parts, axis=0)
        values = np.concatenate(weight_parts)
    else:
        mat = np.zeros((0, sequence_length), dtype=_I64)
        values = np.zeros(0, dtype=_I64)
    stream = None
    if allowed is None:
        stream = {
            "weights": weights_arr,
            "rule_launch": rule_launch,
            "root_launch": root_launch,
            "mat": mat,
            "values": values,
        }
        cache["stream"] = stream
    return _sequence_merge(layout, device, mat, values, sequence_length, stream=stream)


def _sequence_merge(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    mat: np.ndarray,
    values: np.ndarray,
    sequence_length: int,
    stream: Optional[Dict] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold the window stream into interned (first-occurrence ordered)
    keys, then replay the global-table merge kernel.

    The interning geometry (which window row maps to which unique key,
    and the first-occurrence key order) is a pure function of the
    window stream, so when a cached ``stream`` is supplied it is
    computed once and reattached; only the per-query sums and the
    merge-kernel replay stay live.
    """
    geom = stream.get("merge_geom") if stream is not None else None
    if geom is not None:
        inv, order, num_unique, rows = geom
        num_entries = len(rows)
        if num_entries:
            sums = np.bincount(inv, weights=values, minlength=num_unique).astype(_I64)
            ordered_sums = sums[order]
        else:
            ordered_sums = np.zeros(0, dtype=_I64)
    elif len(mat):
        # Valid windows never contain gap markers, so every entry of
        # ``mat`` is a word id in ``[0, vocabulary_size)``.  When the
        # packed key fits an int64, collapse each l-gram row to a single
        # integer: 1-D ``np.unique`` is several times faster than the
        # row-wise (``axis=0``) form.
        base = max(2, int(layout.vocabulary_size))
        if base ** sequence_length < (1 << 62):
            packed = mat[:, 0].copy()
            for column in range(1, sequence_length):
                packed *= base
                packed += mat[:, column]
            uniq, first_idx, inv = np.unique(
                packed, return_index=True, return_inverse=True
            )
            unique_rows = mat[first_idx]
        else:
            uniq, first_idx, inv = np.unique(
                mat, axis=0, return_index=True, return_inverse=True
            )
            unique_rows = uniq
        inv = np.asarray(inv, dtype=_I64).reshape(-1)
        order = np.argsort(first_idx, kind="stable")
        sums = np.bincount(inv, weights=values, minlength=len(first_idx)).astype(_I64)
        ordered_sums = sums[order]
        rows = unique_rows[order]
        num_entries = len(rows)
        if stream is not None:
            stream["merge_geom"] = (inv, order, len(first_idx), rows)
    else:
        rows = np.zeros((0, sequence_length), dtype=_I64)
        ordered_sums = np.zeros(0, dtype=_I64)
        num_entries = 0
        if stream is not None:
            stream["merge_geom"] = (np.zeros(0, dtype=_I64), np.zeros(0, dtype=_I64), 0, rows)

    num_threads = max(1, num_entries)
    num_buckets, capacity = _table_geometry(max(1, num_entries))
    hash_ops, hash_mem, conflicts, _out_keys, out_vals = _hash_program(
        np.arange(num_entries, dtype=_I64), ordered_sums, num_buckets, capacity
    )
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    atomics = np.zeros(num_threads, dtype=_F64)
    if num_entries:
        ops[:num_entries] = wc.HASH_UPDATE_OPS + hash_ops
        mem[:num_entries] = wc.HASH_UPDATE_BYTES + hash_mem
        atomics[:num_entries] = 1.0
    device.launch_bulk(
        "sequenceMergeKernel",
        num_threads,
        thread_ops=ops,
        thread_memory_bytes=mem,
        thread_atomic_ops=atomics,
        atomic_conflicts=conflicts,
    )
    return rows, out_vals


# ----------------------------------------------------------------------------------------
# Relational analytics (vector ports of the traversal.py relational kernels)
# ----------------------------------------------------------------------------------------

def build_relational_tables_vec(
    layout: DeviceRuleLayout, device: GPUDevice, schema, dictionary
):
    """Bulk port of the ``relParseKernel`` wavefront.

    The per-rule parse states themselves come from the same pure fold
    (:func:`repro.relational.compute.fold_symbol_states`) the scalar
    kernel uses; only the charge accounting is replayed as per-round
    thread vectors, exactly mirroring :func:`build_local_tables_vec`.
    """
    from repro.relational import compute as rc

    flat = flattened(layout)
    n = flat.num_rules
    device.launch_bulk(
        "initRelationalMaskKernel",
        n,
        thread_ops=np.full(n, wc.MASK_CHECK_OPS, dtype=_F64),
        thread_memory_bytes=np.full(n, 8.0, dtype=_F64),
    )

    anchors = rc.anchor_ids(schema, dictionary)
    caps = rc.schema_caps(schema)
    body_lengths = np.asarray(
        [len(body) for body in layout.rule_bodies], dtype=_F64
    )
    states = [rc.empty_state(len(anchors)) for _ in range(n)]
    cur_out = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(flat.num_out == 0))
    while True:
        ops = np.full(n, wc.MASK_CHECK_OPS, dtype=_F64)
        mem = np.full(n, 4.0, dtype=_F64)
        atomics = np.zeros(n, dtype=_F64)
        touch_counts = np.zeros(n, dtype=_I64)
        heap = [int(r) for r in pending]
        heapq.heapify(heap)
        pending = []
        hit_any = False
        while heap:
            r = heapq.heappop(heap)
            if r == 0:
                # Per-file states come from the root segments, never
                # from the root rule itself.
                continue
            states[r] = rc.fold_symbol_states(
                layout.rule_bodies[r], states, anchors, caps
            )
            slo, shi = int(flat.sr_off[r]), int(flat.sr_off[r + 1])
            degree = shi - slo
            plo, phi = int(flat.par_off[r]), int(flat.par_off[r + 1])
            ps = flat.par_ids[plo:phi]
            num_parents = phi - plo
            if num_parents:
                cur_out[ps] += 1
                touch_counts[ps] += 1
                newly = ps[cur_out[ps] == flat.num_out[ps]]
            else:
                newly = ()
            ops[r] += (
                wc.SYMBOL_VISIT_OPS * body_lengths[r]
                + wc.EDGE_VISIT_OPS * degree
                + (wc.WEIGHT_UPDATE_OPS + 1.0) * num_parents
            )
            mem[r] += (
                wc.SYMBOL_VISIT_BYTES * body_lengths[r]
                + wc.EDGE_VISIT_BYTES * degree
                + 16.0 * num_parents
            )
            atomics[r] += float(num_parents)
            for parent in newly:
                hit_any = True
                p = int(parent)
                if p > r:
                    heapq.heappush(heap, p)
                else:
                    pending.append(p)
        conflicts = float(np.maximum(0, touch_counts - 1).sum())
        device.launch_bulk(
            "relParseKernel",
            n,
            thread_ops=ops,
            thread_memory_bytes=mem,
            thread_atomic_ops=atomics,
            atomic_conflicts=conflicts,
        )
        if not hit_any:
            break
    return states


def assemble_relational_rows_vec(
    layout: DeviceRuleLayout, device: GPUDevice, schema, states, dictionary
):
    """Bulk port of ``relAssembleRowsKernel`` (one thread per file)."""
    from repro.relational import compute as rc

    anchors = rc.anchor_ids(schema, dictionary)
    caps = rc.schema_caps(schema)
    num_fields = len(schema.fields)
    num_files = layout.num_files
    num_threads = max(1, num_files)
    seg_lengths = np.zeros(num_threads, dtype=_F64)
    rows = [None] * num_files
    for file_index, (start, end) in enumerate(layout.root_segments):
        seg_lengths[file_index] = float(end - start)
        state = rc.fold_symbol_states(
            layout.root_symbols[start:end], states, anchors, caps
        )
        rows[file_index] = rc.typed_row(
            rc.extract_symbols(state, schema), schema, decode=dictionary.decode
        )
    ops = wc.SYMBOL_VISIT_OPS * seg_lengths
    mem = wc.SYMBOL_VISIT_BYTES * seg_lengths
    if num_files:
        ops[:num_files] += wc.HASH_UPDATE_OPS * num_fields
        mem[:num_files] += wc.HASH_UPDATE_BYTES * num_fields
    device.launch_bulk(
        "relAssembleRowsKernel",
        num_threads,
        thread_ops=ops,
        thread_memory_bytes=mem,
    )
    return rows


def relational_filter_aggregate_vec(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    spec,
    rows,
    file_indices=None,
):
    """Bulk port of ``relFilterKernel`` + ``relAggregateKernel``."""
    from repro.relational import compute as rc

    schema = spec.schema
    targets = (
        sorted(set(file_indices))
        if file_indices is not None
        else list(range(layout.num_files))
    )
    num_targets = len(targets)
    num_threads = max(1, num_targets)
    num_conditions = len(spec.predicate)
    num_aggs = len(spec.aggregates)
    group_index = (
        schema.field_index(spec.group_by) if spec.group_by is not None else None
    )

    passed = [rc.evaluate_predicate(rows[file_index], spec) for file_index in targets]
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    if num_targets:
        ops[:num_targets] = wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS * num_conditions
        mem[:num_targets] = 4.0 + 8.0 * num_conditions
    device.launch_bulk(
        "relFilterKernel",
        num_threads,
        thread_ops=ops,
        thread_memory_bytes=mem,
    )

    # Host-side group directory (slot per distinct group, insertion order)
    # and per-group contributing-row counts for conflict accounting.
    slots: Dict = {}
    group_sizes: List[int] = []
    contributes = np.zeros(num_threads, dtype=bool)
    for position, file_index in enumerate(targets):
        if not passed[position]:
            continue
        group = None if group_index is None else rows[file_index][group_index]
        if group_index is not None and group is None:
            continue
        slot = slots.get(group)
        if slot is None:
            slots[group] = len(slots)
            group_sizes.append(0)
            slot = slots[group]
        group_sizes[slot] += 1
        contributes[position] = True
    device.record.host_counter.charge(
        compute_ops=2.0 * num_targets, memory_bytes=8.0 * max(1, len(slots))
    )

    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    atomics = np.zeros(num_threads, dtype=_F64)
    if num_targets:
        ops[:num_targets] = wc.MASK_CHECK_OPS
        mem[:num_targets] = 4.0
    ops[contributes] += wc.HASH_UPDATE_OPS + (wc.WEIGHT_UPDATE_OPS + 1.0) * num_aggs
    mem[contributes] += wc.HASH_UPDATE_BYTES + 16.0 * num_aggs
    atomics[contributes] = float(num_aggs)
    conflicts = float(num_aggs * sum(max(0, size - 1) for size in group_sizes))
    device.launch_bulk(
        "relAggregateKernel",
        num_threads,
        thread_ops=ops,
        thread_memory_bytes=mem,
        thread_atomic_ops=atomics,
        atomic_conflicts=conflicts,
    )
    return rc.execute_relational([rows[file_index] for file_index in targets], spec)
