"""Bulk (numpy) kernels: the engine's one runtime kernel path.

The reference kernels in :mod:`repro.core.traversal` and
:mod:`repro.core.sequence` execute every simulated GPU thread as a
Python callback, which specifies each launch faithfully but makes
wall-clock time interpreter-bound.  This module implements the same
kernels as numpy array programs over the CSR arrays of
:class:`~repro.core.layout.DeviceRuleLayout`, the one device layout,
then records each launch through
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

The per-file row order is a contract: the shaper orders the three
per-file tasks with one packed-key argsort that builds on it (a walk in
name order, first-seen ranks by one scatter) instead of re-sorting the
rows, and ``tests/test_encoded_shaping.py`` checks it under both
strategies, with and without a file subset, and after a delta sync.

Their references return the same content as dicts (a list of per-file
dicts for per-file counts); the oracle converts between the two.

Hash-table cost model
---------------------
:func:`_hash_geometry` mirrors
:meth:`repro.gpusim.hashtable.DeviceHashTable.insert_add` exactly:
an *update* of the key at 0-based chain position ``p`` costs
``2p + 5`` ops / ``16p + 32`` bytes and one tracked atomic, an *insert*
behind ``p`` existing chain nodes costs ``4p + 8`` ops /
``32p + 49`` bytes and one tracked atomic (the bucket-lock CAS).  Chain
positions, costs, conflicts and slot order depend on the key stream
alone, so pricing a launch is split in two: the key-only geometry
(per-op costs, conflicts, first-occurrence slot order and the inverse
map from ops to keys) and the value fold
(:func:`_fold`: ``np.bincount(inverse, weights=values)[order]``).

Kernel memo
-----------
An unfiltered reduce's key stream is fixed for a whole corpus epoch, so
each one memoizes its launch vectors, key geometry and op values on the
layout (:meth:`~repro.core.layout.DeviceRuleLayout.memo`): top-down and
bottom-up corpus counts, top-down and bottom-up per-file counts, and
sequence counts per length (its window skeletons, launches, interned
grams and merge table; the merge table's keys are the gram indices
``0..n-1``, so its fold is the identity).  An entry is used only while
its inputs are the very session-state objects the caller passes (rule
weights, file weights, local tables, sequence buffers, and the
scheduler), so ``invalidate()``, ``configure()`` and a delta sync, which
replace them, also retire it; the layout itself lives for one epoch.
The first query of an epoch fills an entry by doing the per-query work,
and later ones run only the fold and the launches.  File-subset queries
bypass the memo and build their launches and geometry per query.  The
session-state arrays they read are memoized the same way where the state
does not carry them: a delta sync's plain-list file weights and local
tables get their dense matrix (:func:`dense_file_weights`) and table
arrays once per epoch.  The functions here keep no other state across
calls (lint rule ``kernel-memo``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.layout import DeviceRuleLayout
from repro.core.scheduler import FineGrainedScheduler
from repro.gpusim.device import GPUDevice
from repro.perf import workcosts as wc

__all__ = [
    "data_structure_prep",
    "compute_rule_weights",
    "compute_file_weights",
    "dense_file_weights",
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

#: Knuth multiplicative constant, as in :class:`DeviceHashTable`.
_HASH_MULT = 2654435761


# ----------------------------------------------------------------------------------------
# DeviceHashTable cost model
# ----------------------------------------------------------------------------------------

class _HashGeometry(NamedTuple):
    """The key-only half of one launch's ``insert_add`` stream."""

    #: Per-op ops and bytes; each op also performs exactly one tracked atomic.
    ops: np.ndarray
    mem: np.ndarray
    #: The launch's atomic conflicts: value-slot adds plus bucket-lock CASes.
    conflicts: float
    #: The table's keys in node-slot (insertion) order.
    keys: np.ndarray
    #: Per op, and per node slot, its key's index among the sorted keys.
    inverse: np.ndarray
    order: np.ndarray


def _hash_geometry(op_keys: np.ndarray, num_buckets: int, capacity: int) -> _HashGeometry:
    """Replay the keys of a single-launch ``insert_add`` stream against one table.

    ``op_keys`` is the stream in charge order.  Chain positions, costs,
    conflicts and slot order depend on the keys alone; the table's
    values are ``_fold(inverse, op_values, len(keys), order)``.
    """
    if len(op_keys) == 0:
        empty_f = np.zeros(0, dtype=_F64)
        empty_i = np.zeros(0, dtype=_I64)
        return _HashGeometry(empty_f, empty_f, 0.0, empty_i, empty_i, empty_i)
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
    is_insert = np.arange(len(keys), dtype=_I64) == first_idx[inv]
    ops = np.where(is_insert, 4 * p + 8, 2 * p + 5).astype(_F64)
    mem = np.where(is_insert, 32 * p + 49, 16 * p + 32).astype(_F64)
    # Conflicts: a key seen ``occ`` times gets ``occ - 1`` tracked adds on
    # its value slot; a bucket receiving ``g`` inserts gets ``g`` CASes on
    # its lock.  Each tracked address with ``c`` accesses contributes c-1.
    occ = np.bincount(inv, minlength=len(uniq))
    value_conflicts = int(np.maximum(0, occ - 2).sum())
    lock_conflicts = int(len(uniq) - len(np.unique(buckets)))
    return _HashGeometry(
        ops, mem, float(value_conflicts + lock_conflicts), uniq[order], inv, order
    )


def _fold(
    inverse: np.ndarray, values: np.ndarray, size: int, order: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sum ``values`` into ``size`` slots by ``inverse``, then take the slots in ``order``."""
    sums = np.bincount(inverse, weights=values, minlength=size).astype(_I64)
    return sums if order is None else sums[order]


class _Launch(NamedTuple):
    """One launch's per-thread work, as :meth:`GPUDevice.launch_bulk` takes it."""

    num_threads: int
    thread_ops: np.ndarray
    thread_memory_bytes: np.ndarray
    thread_atomic_ops: Optional[np.ndarray] = None
    atomic_conflicts: float = 0.0


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
    n = layout.num_rules
    num_threads = max(1, n)
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    lengths = layout.rule_lengths.astype(_F64)
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
    n = layout.num_rules
    weights = np.zeros(n, dtype=_I64)
    weights[0] = 1
    if n <= 1:
        return weights.tolist()

    weights[1:] = layout.root_freq[1:]
    num_threads = n - 1
    init_ops = np.full(num_threads, wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS, dtype=_F64)
    init_mem = np.full(num_threads, 16.0, dtype=_F64)
    device.launch_bulk(
        "initTopDownMaskKernel", num_threads, thread_ops=init_ops, thread_memory_bytes=init_mem
    )

    cur_in = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(layout.num_in_edges[1:] == 0) + 1)
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
            lo, hi = int(layout.sr_off[r]), int(layout.sr_off[r + 1])
            cs = layout.sr_child[lo:hi]
            fs = layout.sr_freq[lo:hi]
            edges = hi - lo
            if edges:
                weights[cs] += fs * weights[r]
                cur_in[cs] += 1
                touch_counts[cs] += 1
                newly = cs[cur_in[cs] == layout.num_in_edges[cs]]
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


def dense_file_weights(
    layout: DeviceRuleLayout, file_weights: Sequence[Dict[int, int]]
) -> np.ndarray:
    """``file_weights`` as the ``[num_rules, num_files]`` int64 matrix.

    :func:`compute_file_weights` returns it with its tables; tables
    without it (a delta sync's plain lists) fill it once per state
    object, through the layout's memo.
    """
    dense = getattr(file_weights, "dense", None)
    if dense is not None:
        return dense
    return layout.memo(
        "dense file weights", (file_weights,), lambda: _fill_dense_file_weights(layout, file_weights)
    )


def _fill_dense_file_weights(
    layout: DeviceRuleLayout, file_weights: Sequence[Dict[int, int]]
) -> np.ndarray:
    matrix = np.zeros((layout.num_rules, layout.num_files), dtype=_I64)
    for rule_id, table in enumerate(file_weights):
        for file_index, weight in table.items():
            matrix[rule_id, file_index] = weight
    return matrix


def compute_file_weights(layout: DeviceRuleLayout, device: GPUDevice) -> FileWeights:
    """Bulk port of the per-file weight propagation (file-sensitive tasks)."""
    n, num_files = layout.num_rules, layout.num_files
    matrix = np.zeros((n, num_files), dtype=_I64)
    if n <= 1:
        result = FileWeights(dict() for _ in range(n))
        result.dense = matrix
        return result

    # Init kernel: every non-root rule loads its root-segment counts.
    matrix[layout.rc_child, layout.rc_file] = layout.rc_freq
    matrix[0, :] = 0
    num_threads = n - 1
    k = layout.files_per_rule[1:].astype(_F64)
    init_ops = wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS * k
    init_mem = 16.0 + 8.0 * k
    device.launch_bulk(
        "initTopDownFileMaskKernel",
        num_threads,
        thread_ops=init_ops,
        thread_memory_bytes=init_mem,
    )

    cur_in = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(layout.num_in_edges[1:] == 0) + 1)
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
            lo, hi = int(layout.sr_off[r]), int(layout.sr_off[r + 1])
            cs = layout.sr_child[lo:hi]
            fs = layout.sr_freq[lo:hi]
            edges = hi - lo
            row = matrix[r]
            # The rule's own table is final here: all parents fired already.
            spread = int(np.count_nonzero(row))
            if edges:
                matrix[cs] += fs[:, None] * row
                cur_in[cs] += 1
                touch_counts[cs] += 1
                newly = cs[cur_in[cs] == layout.num_in_edges[cs]]
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


class _ReducePlan(NamedTuple):
    """A corpus-table reduce: its launch, its table's slots and its op values."""

    launch: _Launch
    #: The table's keys, and the inverse map and slot order of its geometry.
    keys: np.ndarray
    inverse: np.ndarray
    order: np.ndarray
    values: np.ndarray

    def fold(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(word ids, counts)`` in hash-table insertion order."""
        return self.keys, _fold(self.inverse, self.values, len(self.keys), self.order)


def _reduce_plan(
    layout: DeviceRuleLayout,
    owner: np.ndarray,
    keys: np.ndarray,
    vals: np.ndarray,
    ops: np.ndarray,
    mem: np.ndarray,
) -> _ReducePlan:
    """Price a corpus-table reduce whose threads do ``ops``/``mem`` besides their inserts."""
    num_threads = len(ops)
    table = _hash_geometry(keys, *_table_geometry(layout.vocabulary_size))
    ops = ops + _thread_sums(owner, wc.SYMBOL_VISIT_OPS + table.ops, num_threads)
    mem = mem + _thread_sums(owner, wc.SYMBOL_VISIT_BYTES + table.mem, num_threads)
    atomics = _thread_sums(owner, np.ones(len(owner), dtype=_F64), num_threads)
    launch = _Launch(num_threads, ops, mem, atomics, table.conflicts)
    return _ReducePlan(launch, table.keys, table.inverse, table.order, vals)


def topdown_word_count_reduce(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    device: GPUDevice,
    weights: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Bulk port of the top-down ``reduceResultKernel``: ``(word ids, counts)``."""
    plan = layout.memo(
        "top-down corpus reduce",
        (weights, scheduler),
        lambda: _topdown_corpus_plan(layout, scheduler, weights),
    )
    device.launch_bulk("reduceResultKernel", **plan.launch._asdict())
    return plan.fold()


def _topdown_corpus_plan(
    layout: DeviceRuleLayout, scheduler: FineGrainedScheduler, weights: Sequence[int]
) -> _ReducePlan:
    rules, starts, ends = layout.assignments(scheduler, "corpus")
    num_threads = max(1, len(rules))
    thread_weight = np.asarray(weights, dtype=_I64)[rules]
    active = thread_weight != 0
    owner, keys, vals = layout.gather_local_words(rules[active], starts[active], ends[active])
    if len(owner):
        owner = np.flatnonzero(active)[owner]
        vals = vals * thread_weight[owner]
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    ops[: len(rules)] = wc.MASK_CHECK_OPS
    mem[: len(rules)] = 8.0
    return _reduce_plan(layout, owner, keys, vals, ops, mem)


class _FileRows(NamedTuple):
    """A ``(file, word id, value)`` stream merged into per-file rows."""

    #: The rows, sorted by ``(file, word id)``.
    files: np.ndarray
    words: np.ndarray
    #: Per stream entry, its row; and the entries' values.
    inverse: np.ndarray
    values: np.ndarray

    def fold(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(file indices, word ids, counts)``."""
        return self.files, self.words, _fold(self.inverse, self.values, len(self.words))


def _merge_file_words(
    files: np.ndarray, words: np.ndarray, values: np.ndarray, vocabulary_size: int
) -> _FileRows:
    """Merge a contribution stream into one row per ``(file, word id)``.

    Word ids are always < ``vocabulary_size``, so ``(file, word)`` packs
    into a single int64 and the sorted unique keys are the ``(file, word
    id)`` row order.
    """
    vocab = max(1, int(vocabulary_size))
    uniq, inverse = np.unique(files * vocab + words, return_inverse=True)
    uniq_files = uniq // vocab
    return _FileRows(uniq_files, uniq - uniq_files * vocab, inverse.reshape(-1), values)


def _file_rows(
    layout: DeviceRuleLayout, columns: np.ndarray, file_indices: np.ndarray
) -> _FileRows:
    """The rows of ``file_indices`` (ascending).

    ``columns`` holds those files' weight columns: every nonzero ``(rule,
    file)`` weight scales the rule's local words, and each file adds its
    root's own words.
    """
    rules, at = np.nonzero(columns)
    owner, keys, vals = layout.gather_local_words(
        rules, np.zeros(len(rules), dtype=_I64), layout.lw_count[rules]
    )
    wanted = np.zeros(layout.num_files, dtype=bool)
    wanted[file_indices] = True
    root = wanted[layout.rw_file]
    return _merge_file_words(
        np.concatenate([file_indices[at][owner], layout.rw_file[root]]),
        np.concatenate([keys, layout.rw_keys[root]]),
        np.concatenate([vals * columns[rules, at][owner], layout.rw_vals[root]]),
        layout.vocabulary_size,
    )


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
    if file_indices is not None:
        matrix = dense_file_weights(layout, file_weights)
        allowed_order = sorted(frozenset(file_indices))
        allowed_cols = np.asarray(allowed_order, dtype=_I64)
        sub = matrix[:, allowed_cols] if len(allowed_cols) else matrix[:, :0]
        sub_nnz = np.count_nonzero(sub, axis=1).astype(_I64)
        rule_ids = np.flatnonzero(sub_nnz[1:]).astype(_I64) + 1
        rules, starts, ends = layout.partition(scheduler, rule_ids, layout.lw_count[rule_ids])
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
        ops[file_tids] = wc.HASH_UPDATE_OPS * layout.rw_count[allowed_cols]
        mem[file_tids] = wc.HASH_UPDATE_BYTES * layout.rw_count[allowed_cols]
        device.launch_bulk(
            "reduceFileSubsetKernel",
            num_threads,
            thread_ops=ops,
            thread_memory_bytes=mem,
            thread_atomic_ops=atomics,
        )
        return _file_rows(layout, sub, allowed_cols).fold()

    reduce_launch, root_launch, rows = layout.memo(
        "top-down per-file reduce",
        (file_weights, scheduler),
        lambda: _topdown_files_plan(layout, scheduler, file_weights),
    )
    if reduce_launch is not None:
        device.launch_bulk("reduceFileResultKernel", **reduce_launch._asdict())
    device.launch_bulk("rootWordsKernel", **root_launch._asdict())
    return rows.fold()


def _topdown_files_plan(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    file_weights: Sequence[Dict[int, int]],
) -> Tuple[Optional[_Launch], _Launch, _FileRows]:
    """The unfiltered pair's launches and the rows of every file."""
    matrix = dense_file_weights(layout, file_weights)
    rules, starts, ends = layout.assignments(scheduler, "file")
    reduce_launch = None
    if len(rules):
        spans = np.maximum(0, ends - starts).astype(_F64)
        spread = np.count_nonzero(matrix, axis=1).astype(_F64)[rules]
        reduce_launch = _Launch(
            len(rules),
            wc.MASK_CHECK_OPS + spans * (wc.SYMBOL_VISIT_OPS + wc.HASH_UPDATE_OPS * spread),
            8.0 + spans * (wc.SYMBOL_VISIT_BYTES + wc.HASH_UPDATE_BYTES * spread),
            spans * spread,
        )

    num_threads = max(1, layout.num_files)
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    ops[: layout.num_files] = wc.HASH_UPDATE_OPS * layout.rw_count
    mem[: layout.num_files] = wc.HASH_UPDATE_BYTES * layout.rw_count
    rows = _file_rows(layout, matrix, np.arange(layout.num_files, dtype=_I64))
    return reduce_launch, _Launch(num_threads, ops, mem), rows


# ----------------------------------------------------------------------------------------
# Bottom-up traversal (Algorithm 2)
# ----------------------------------------------------------------------------------------

def _launch_bottomup_init_mask(layout: DeviceRuleLayout, device: GPUDevice) -> None:
    n = layout.num_rules
    device.launch_bulk(
        "initBottomUpMaskKernel",
        n,
        thread_ops=np.full(n, wc.MASK_CHECK_OPS, dtype=_F64),
        thread_memory_bytes=np.full(n, 8.0, dtype=_F64),
    )


def prepare_bottomup_vec(layout: DeviceRuleLayout, device: GPUDevice) -> List[int]:
    """Bulk port of ``genRuleParentsKernel`` + the local-table bound pass."""
    n = layout.num_rules
    edges = layout.sr_count.astype(_F64)
    device.launch_bulk(
        "genRuleParentsKernel",
        n,
        thread_ops=wc.EDGE_VISIT_OPS * edges,
        thread_memory_bytes=wc.EDGE_VISIT_BYTES * edges,
    )

    _launch_bottomup_init_mask(layout, device)

    bounds = np.zeros(n, dtype=_I64)
    cur_out = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(layout.num_out_edges == 0))
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
            lo, hi = int(layout.sr_off[r]), int(layout.sr_off[r + 1])
            cs = layout.sr_child[lo:hi]
            degree = hi - lo
            bounds[r] = min(
                int(layout.lw_count[r]) + int(bounds[cs].sum()), layout.vocabulary_size
            )
            plo, phi = int(layout.par_off[r]), int(layout.par_off[r + 1])
            ps = layout.par_ids[plo:phi]
            num_parents = phi - plo
            if num_parents:
                cur_out[ps] += 1
                touch_counts[ps] += 1
                newly = ps[cur_out[ps] == layout.num_out_edges[ps]]
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
    layout: DeviceRuleLayout, local_tables: Sequence[Dict[int, int]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Each table's keys and values as arrays, in the table's order.

    :func:`build_local_tables_vec` returns them with its tables; tables
    without them (a delta sync's plain lists) list them once per state
    object, through the layout's memo.
    """
    keys = getattr(local_tables, "key_arrays", None)
    vals = getattr(local_tables, "val_arrays", None)
    if keys is not None and vals is not None:
        return keys, vals
    return layout.memo("table arrays", (local_tables,), lambda: _list_table_arrays(local_tables))


def _list_table_arrays(
    local_tables: Sequence[Dict[int, int]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    keys = [np.asarray(list(t.keys()), dtype=_I64) for t in local_tables]
    vals = [np.asarray(list(t.values()), dtype=_I64) for t in local_tables]
    return keys, vals


def build_local_tables_vec(
    layout: DeviceRuleLayout, device: GPUDevice
) -> LocalTables:
    """Bulk port of the ``genLocTblKernel`` wavefront (Algorithm 2's build)."""
    n = layout.num_rules
    _launch_bottomup_init_mask(layout, device)

    key_arrays: List[np.ndarray] = [np.zeros(0, dtype=_I64) for _ in range(n)]
    val_arrays: List[np.ndarray] = [np.zeros(0, dtype=_I64) for _ in range(n)]
    cur_out = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(layout.num_out_edges == 0))
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
            lo, hi = int(layout.lw_off[r]), int(layout.lw_off[r + 1])
            key_parts = [layout.lw_keys[lo:hi]]
            val_parts = [layout.lw_vals[lo:hi]]
            own_entries = hi - lo
            slo, shi = int(layout.sr_off[r]), int(layout.sr_off[r + 1])
            child_entries = 0
            for child, freq in zip(
                layout.sr_child[slo:shi].tolist(), layout.sr_freq[slo:shi].tolist()
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
            plo, phi = int(layout.par_off[r]), int(layout.par_off[r + 1])
            ps = layout.par_ids[plo:phi]
            num_parents = phi - plo
            if num_parents:
                cur_out[ps] += 1
                touch_counts[ps] += 1
                newly = ps[cur_out[ps] == layout.num_out_edges[ps]]
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
    plan = layout.memo(
        "bottom-up corpus reduce",
        (local_tables,),
        lambda: _bottomup_corpus_plan(layout, local_tables),
    )
    device.launch_bulk("reduceResultKernel", **plan.launch._asdict())
    return plan.fold()


def _bottomup_corpus_plan(
    layout: DeviceRuleLayout, local_tables: Sequence[Dict[int, int]]
) -> _ReducePlan:
    key_arrays, val_arrays = _table_arrays(layout, local_tables)
    num_threads = 1 + len(layout.level2_child)

    # Charge-order op stream: the root's own terminal words (thread 0),
    # then each level-2 child's table scaled by its root frequency.
    lo, hi = int(layout.lw_off[0]), int(layout.lw_off[1])
    key_parts = [layout.lw_keys[lo:hi]]
    val_parts = [layout.lw_vals[lo:hi]]
    owner_parts = [np.zeros(hi - lo, dtype=_I64)]
    for index, (child, freq) in enumerate(
        zip(layout.level2_child.tolist(), layout.level2_freq.tolist())
    ):
        child_keys = key_arrays[child]
        if len(child_keys):
            key_parts.append(child_keys)
            val_parts.append(val_arrays[child] * freq)
            owner_parts.append(np.full(len(child_keys), 1 + index, dtype=_I64))

    ops = np.full(num_threads, wc.MASK_CHECK_OPS, dtype=_F64)
    mem = np.full(num_threads, 8.0, dtype=_F64)
    ops[0] = 0.0
    mem[0] = 0.0
    return _reduce_plan(
        layout,
        np.concatenate(owner_parts),
        np.concatenate(key_parts),
        np.concatenate(val_parts),
        ops,
        mem,
    )


def bottomup_per_file_counts_reduce(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    local_tables: Sequence[Dict[int, int]],
    file_indices: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bulk port of the bottom-up ``reduceFileResultKernel``.

    Returns ``(file indices, word ids, counts)`` sorted by ``(file, word id)``.
    """
    if file_indices is None:
        launch, rows = layout.memo(
            "bottom-up per-file reduce",
            (local_tables,),
            lambda: _bottomup_files_plan(layout, local_tables, range(layout.num_files)),
        )
    else:
        launch, rows = _bottomup_files_plan(layout, local_tables, sorted(set(file_indices)))
    device.launch_bulk("reduceFileResultKernel", **launch._asdict())
    return rows.fold()


def _bottomup_files_plan(
    layout: DeviceRuleLayout,
    local_tables: Sequence[Dict[int, int]],
    files: Sequence[int],
) -> Tuple[_Launch, _FileRows]:
    """One thread per file of ``files``: its launch and the files' rows."""
    key_arrays, val_arrays = _table_arrays(layout, local_tables)
    table_sizes = np.asarray([len(k) for k in key_arrays], dtype=_I64)
    num_threads = max(1, len(files))
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    empty = np.zeros(0, dtype=_I64)
    key_parts: List[np.ndarray] = [empty]
    val_parts: List[np.ndarray] = [empty]
    owner_parts: List[np.ndarray] = [empty]
    for tid, file_index in enumerate(files):
        if file_index >= layout.num_files:
            continue
        rwc = int(layout.rw_count[file_index])
        lo, hi = int(layout.rc_off[file_index]), int(layout.rc_off[file_index + 1])
        children = layout.rc_child[lo:hi]
        degree = hi - lo
        entries = int(table_sizes[children].sum())
        ops[tid] = (
            wc.HASH_UPDATE_OPS * (rwc + entries) + wc.EDGE_VISIT_OPS * degree
        )
        mem[tid] = (
            wc.HASH_UPDATE_BYTES * (rwc + entries) + wc.EDGE_VISIT_BYTES * degree
        )
        # Contribution stream for this file (merged globally below).
        rlo, rhi = int(layout.rw_off[file_index]), int(layout.rw_off[file_index + 1])
        if rhi > rlo:
            key_parts.append(layout.rw_keys[rlo:rhi])
            val_parts.append(layout.rw_vals[rlo:rhi])
            owner_parts.append(np.full(rhi - rlo, file_index, dtype=_I64))
        for child, freq in zip(children.tolist(), layout.rc_freq[lo:hi].tolist()):
            child_keys = key_arrays[child]
            if len(child_keys):
                key_parts.append(child_keys)
                val_parts.append(val_arrays[child] * freq)
                owner_parts.append(np.full(len(child_keys), file_index, dtype=_I64))
    rows = _merge_file_words(
        np.concatenate(owner_parts),
        np.concatenate(key_parts),
        np.concatenate(val_parts),
        layout.vocabulary_size,
    )
    return _Launch(num_threads, ops, mem), rows


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


def _skeleton(skeletons: Dict[int, _Skeleton], layout: DeviceRuleLayout, buffers, rule_id: int) -> _Skeleton:
    """Rule ``rule_id``'s skeleton (rule 0: the root body), built on first use."""
    skeleton = skeletons.get(rule_id)
    if skeleton is None:
        skeleton = _Skeleton(layout.rule_bodies[rule_id], buffers, buffers.sequence_length)
        skeletons[rule_id] = skeleton
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


class _SequencePlan(NamedTuple):
    """One sequence count's launches, its interned grams and its window values."""

    rule_launch: Optional[_Launch]
    root_launch: _Launch
    merge_launch: _Launch
    #: The distinct grams in first-occurrence order, one row each.
    rows: np.ndarray
    #: Per window, and per gram row, its gram's index among the sorted grams.
    inverse: np.ndarray
    order: np.ndarray
    #: Per window, its occurrence weight.
    values: np.ndarray

    def fold(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(gram rows, counts)``.

        The merge table's keys are the gram rows' indices, each inserted
        once and in order, so its values are the interned sums themselves.
        """
        return self.rows, _fold(self.inverse, self.values, len(self.rows), self.order)


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
    if file_indices is None:
        plan = layout.memo(
            ("sequence count", sequence_length),
            (buffers, weights, scheduler),
            lambda: _sequence_plan(layout, scheduler, buffers, weights, sequence_length, None),
        )
    else:
        plan = _sequence_plan(
            layout, scheduler, buffers, weights, sequence_length, frozenset(file_indices)
        )
    if plan.rule_launch is not None:
        device.launch_bulk("sequenceRuleKernel", **plan.rule_launch._asdict())
    device.launch_bulk("sequenceRootKernel", **plan.root_launch._asdict())
    device.launch_bulk("sequenceMergeKernel", **plan.merge_launch._asdict())
    return plan.fold()


def _sequence_plan(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    buffers,
    weights: Sequence[int],
    sequence_length: int,
    allowed: Optional[frozenset],
) -> _SequencePlan:
    """Scan the windows of every weighted rule and of the root segments
    (of the ``allowed`` files only, if given), intern them and price the
    three launches."""
    overlap = sequence_length - 1
    skeletons = layout.memo(("skeletons", sequence_length), (buffers,), dict)
    window_offsets = np.arange(sequence_length, dtype=_I64)
    key_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    rule_launch = None

    if allowed is None:
        rules, starts, ends = layout.assignments(scheduler, "sequence")
    else:
        weights_arr = np.asarray(weights, dtype=_I64)
        rule_ids = np.flatnonzero(weights_arr[1 : layout.num_rules]).astype(_I64) + 1
        rules, starts, ends = layout.partition(scheduler, rule_ids, layout.rule_lengths[rule_ids])

    if len(rules):
        num_threads = len(rules)
        ops = np.full(num_threads, wc.MASK_CHECK_OPS, dtype=_F64)
        mem = np.full(num_threads, 8.0, dtype=_F64)
        threads = zip(rules.tolist(), starts.tolist(), ends.tolist())
        for tid, (rule_id, start, end) in enumerate(threads):
            weight = int(weights[rule_id])
            if weight == 0 or end <= start:
                continue
            skeleton = _skeleton(skeletons, layout, buffers, rule_id)
            body_length = int(layout.rule_lengths[rule_id])
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
        rule_launch = _Launch(num_threads, ops, mem)

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
    root_skeleton = _skeleton(skeletons, layout, buffers, 0) if root_work else None
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
    root_launch = _Launch(num_threads, ops, mem)

    if key_parts:
        mat = np.concatenate(key_parts, axis=0)
        values = np.concatenate(weight_parts)
    else:
        mat = np.zeros((0, sequence_length), dtype=_I64)
        values = np.zeros(0, dtype=_I64)
    rows, inverse, order = _intern_grams(mat, sequence_length, layout.vocabulary_size)

    # The global-table merge: one thread per distinct gram.
    num_entries = len(rows)
    num_threads = max(1, num_entries)
    table = _hash_geometry(
        np.arange(num_entries, dtype=_I64), *_table_geometry(max(1, num_entries))
    )
    ops = np.zeros(num_threads, dtype=_F64)
    mem = np.zeros(num_threads, dtype=_F64)
    atomics = np.zeros(num_threads, dtype=_F64)
    if num_entries:
        ops[:num_entries] = wc.HASH_UPDATE_OPS + table.ops
        mem[:num_entries] = wc.HASH_UPDATE_BYTES + table.mem
        atomics[:num_entries] = 1.0
    merge_launch = _Launch(num_threads, ops, mem, atomics, table.conflicts)
    return _SequencePlan(rule_launch, root_launch, merge_launch, rows, inverse, order, values)


def _intern_grams(
    mat: np.ndarray, sequence_length: int, vocabulary_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intern the window rows of ``mat``: ``(distinct grams, inverse, order)``.

    The grams come in first-occurrence order; ``inverse`` maps each
    window, and ``order`` each gram, to its index among the sorted grams.
    """
    if not len(mat):
        empty = np.zeros(0, dtype=_I64)
        return np.zeros((0, sequence_length), dtype=_I64), empty, empty
    # Valid windows never contain gap markers, so every entry of ``mat``
    # is a word id in ``[0, vocabulary_size)``.  When the packed key fits
    # an int64, collapse each l-gram row to a single integer: 1-D
    # ``np.unique`` is several times faster than the row-wise
    # (``axis=0``) form.
    base = max(2, int(vocabulary_size))
    if base ** sequence_length < (1 << 62):
        packed = mat[:, 0].copy()
        for column in range(1, sequence_length):
            packed *= base
            packed += mat[:, column]
        _uniq, first_idx, inverse = np.unique(packed, return_index=True, return_inverse=True)
        unique_rows = mat[first_idx]
    else:
        unique_rows, first_idx, inverse = np.unique(
            mat, axis=0, return_index=True, return_inverse=True
        )
    order = np.argsort(first_idx, kind="stable")
    return unique_rows[order], np.asarray(inverse, dtype=_I64).reshape(-1), order


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

    n = layout.num_rules
    device.launch_bulk(
        "initRelationalMaskKernel",
        n,
        thread_ops=np.full(n, wc.MASK_CHECK_OPS, dtype=_F64),
        thread_memory_bytes=np.full(n, 8.0, dtype=_F64),
    )

    anchors = rc.anchor_ids(schema, dictionary)
    caps = rc.schema_caps(schema)
    body_lengths = layout.rule_lengths.astype(_F64)
    states = [rc.empty_state(len(anchors)) for _ in range(n)]
    cur_out = np.zeros(n, dtype=_I64)
    pending = sorted(np.flatnonzero(layout.num_out_edges == 0))
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
            slo, shi = int(layout.sr_off[r]), int(layout.sr_off[r + 1])
            degree = shi - slo
            plo, phi = int(layout.par_off[r]), int(layout.par_off[r + 1])
            ps = layout.par_ids[plo:phi]
            num_parents = phi - plo
            if num_parents:
                cur_out[ps] += 1
                touch_counts[ps] += 1
                newly = ps[cur_out[ps] == layout.num_out_edges[ps]]
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
