"""Per-thread reference kernels: preparation and DAG traversals (Algorithms 1 and 2).

Every function here launches simulated GPU kernels through
:meth:`~repro.gpusim.device.GPUDevice.launch`, which calls one Python
function per simulated thread.  They are the specification of the
kernels, not the runtime path: the engine runs their bulk ports in
:mod:`repro.core.vectorized`, and ``tests/test_kernel_oracle.py`` checks
every port against its reference here, kernel by kernel, for equal
results and an equal :class:`~repro.perf.counters.GpuRunRecord`.  The
traversals follow the paper's algorithms closely:

* **top-down** (Algorithm 1): rule weights (occurrence counts, or
  per-file occurrence counts for file-sensitive tasks) are pushed from
  the root towards the leaves; readiness is tracked with per-rule
  masks driven by in-edge counters; a final reduce kernel folds every
  rule's local word table, scaled by its weight, into a global
  thread-safe hash table.
* **bottom-up** (Algorithm 2): per-rule local tables are sized with a
  light-weight bound pass, allocated from the G-TADOC memory pool,
  filled leaves-first (masks driven by out-edge counters), and finally
  the root plus its direct (level-2) children are reduced into the
  result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.layout import DeviceRuleLayout
from repro.core.scheduler import FineGrainedScheduler
from repro.gpusim.device import GPUDevice
from repro.gpusim.hashtable import DeviceHashTable
from repro.gpusim.memory_pool import MemoryPool
from repro.perf import workcosts as wc

__all__ = [
    "data_structure_prep",
    "compute_rule_weights_topdown",
    "compute_file_weights_topdown",
    "topdown_word_count",
    "bottomup_word_count",
    "topdown_per_file_counts",
    "bottomup_per_file_counts",
    "prepare_bottomup",
    "allocate_local_tables",
    "build_local_tables_bottomup",
    "build_relational_tables",
    "assemble_relational_rows",
    "relational_filter_aggregate",
]


# ----------------------------------------------------------------------------------------
# Initialization phase
# ----------------------------------------------------------------------------------------

def data_structure_prep(layout: DeviceRuleLayout, device: GPUDevice) -> None:
    """``dataStructurePrepKernel``: Figure 3's data-structure preparation."""
    rule_lengths = layout.rule_lengths.tolist()

    def prep_kernel(tid: int, ctx) -> None:
        rule_id = tid
        if rule_id >= layout.num_rules:
            return
        # Each thread formats its rule's adjacency and local word table
        # into the device layout (the "data structure preparation" +
        # "light-weight scanning" box of Figure 3).
        length = rule_lengths[rule_id]
        ctx.charge(
            ops=wc.SYMBOL_VISIT_OPS * length + wc.MASK_CHECK_OPS,
            memory_bytes=wc.SYMBOL_VISIT_BYTES * length,
        )

    device.launch("dataStructurePrepKernel", prep_kernel, max(1, layout.num_rules))


# ----------------------------------------------------------------------------------------
# Top-down traversal (Algorithm 1)
# ----------------------------------------------------------------------------------------

def compute_rule_weights_topdown(layout: DeviceRuleLayout, device: GPUDevice) -> List[int]:
    """Propagate rule occurrence weights from the root (Algorithm 1, lines 1-7).

    Returns ``weights[r]`` = number of times rule ``r`` occurs in the
    corpus expansion.  The root's weight is 1 by definition.
    """
    num_rules = layout.num_rules
    weights = [0] * num_rules
    weights[0] = 1
    cur_in_edges = [0] * num_rules
    masks = [False] * num_rules
    num_in_edges = layout.num_in_edges.tolist()
    root_frequencies = layout.root_freq.tolist()

    def init_mask_kernel(tid: int, ctx) -> None:
        rule_id = tid + 1  # the root is excluded, as in the paper
        if rule_id >= num_rules:
            return
        ctx.charge(ops=wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS, memory_bytes=16.0)
        weights[rule_id] = root_frequencies[rule_id]
        cur_in_edges[rule_id] = 0
        masks[rule_id] = num_in_edges[rule_id] == 0

    if num_rules > 1:
        device.launch("initTopDownMaskKernel", init_mask_kernel, max(1, num_rules - 1))

    stop = False
    while not stop:
        stop = True

        def topdown_kernel(tid: int, ctx) -> None:
            nonlocal stop
            rule_id = tid + 1
            if rule_id >= num_rules:
                return
            ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=4.0)
            if not masks[rule_id]:
                return
            for child, frequency in layout.subrules(rule_id):
                ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
                ctx.atomic_add(weights, child, frequency * weights[rule_id])
                ctx.atomic_add(cur_in_edges, child, 1)
                if cur_in_edges[child] == num_in_edges[child]:
                    masks[child] = True
                    stop = False
                    ctx.charge(ops=wc.MASK_CHECK_OPS)
            masks[rule_id] = False

        if num_rules > 1:
            device.launch("topDownKernel", topdown_kernel, max(1, num_rules - 1))
        else:
            break
    return weights


def topdown_word_count(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    device: GPUDevice,
    weights: Optional[List[int]] = None,
) -> Dict[int, int]:
    """Corpus-wide word counts via the top-down traversal (Algorithm 1)."""
    if weights is None:
        weights = compute_rule_weights_topdown(layout, device)
    table = DeviceHashTable.sized_for(layout.vocabulary_size)

    rule_ids = list(range(layout.num_rules))
    items = layout.lw_count[rule_ids].tolist()
    assignments = scheduler.partition_items(rule_ids, items)

    def reduce_kernel(tid: int, ctx) -> None:
        assignment = assignments[tid]
        rule_weight = weights[assignment.rule_id]
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=8.0)
        if rule_weight == 0:
            return
        local = layout.local_words(assignment.rule_id)
        for word_id, count in local[assignment.start : assignment.end]:
            ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
            table.insert_add(word_id, count * rule_weight, ctx)

    device.launch("reduceResultKernel", reduce_kernel, max(1, len(assignments)))
    return table.to_dict()


def compute_file_weights_topdown(
    layout: DeviceRuleLayout, device: GPUDevice
) -> List[Dict[int, int]]:
    """Propagate per-file occurrence weights from the root.

    Instead of a scalar occurrence weight, every rule carries a small
    table ``{file index: occurrences within that file}`` — this is the
    "file information" the paper describes transmitting from the root,
    and is exactly why the top-down strategy becomes expensive when the
    corpus has very many files (section VI-C).  The tables only depend
    on the DAG, so they are shared by every file-sensitive task.
    """
    num_rules = layout.num_rules
    file_weights: List[Dict[int, int]] = [dict() for _ in range(num_rules)]
    cur_in_edges = [0] * num_rules
    masks = [False] * num_rules
    num_in_edges = layout.num_in_edges.tolist()
    # Each rule's root occurrences per file, in file order.
    root_files: List[List[Tuple[int, int]]] = [[] for _ in range(num_rules)]
    for child, file_index, count in zip(
        layout.rc_child.tolist(), layout.rc_file.tolist(), layout.rc_freq.tolist()
    ):
        root_files[child].append((file_index, count))

    def init_mask_kernel(tid: int, ctx) -> None:
        rule_id = tid + 1
        if rule_id >= num_rules:
            return
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=16.0)
        for file_index, count in root_files[rule_id]:
            file_weights[rule_id][file_index] = count
            ctx.charge(ops=wc.WEIGHT_UPDATE_OPS, memory_bytes=8.0)
        masks[rule_id] = num_in_edges[rule_id] == 0

    if num_rules > 1:
        device.launch("initTopDownFileMaskKernel", init_mask_kernel, max(1, num_rules - 1))

    stop = False
    while not stop:
        stop = True

        def topdown_kernel(tid: int, ctx) -> None:
            nonlocal stop
            rule_id = tid + 1
            if rule_id >= num_rules:
                return
            ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=4.0)
            if not masks[rule_id]:
                return
            own_weights = file_weights[rule_id]
            for child, frequency in layout.subrules(rule_id):
                ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
                child_weights = file_weights[child]
                for file_index, weight in own_weights.items():
                    ctx.charge(
                        ops=wc.WEIGHT_UPDATE_OPS + 1.0, memory_bytes=wc.SYMBOL_VISIT_BYTES
                    )
                    ctx.atomic_ops += 1.0
                    child_weights[file_index] = child_weights.get(file_index, 0) + frequency * weight
                ctx.atomic_add(cur_in_edges, child, 1)
                if cur_in_edges[child] == num_in_edges[child]:
                    masks[child] = True
                    stop = False
            masks[rule_id] = False

        if num_rules > 1:
            device.launch("topDownFileKernel", topdown_kernel, max(1, num_rules - 1))
        else:
            break
    return file_weights


def topdown_per_file_counts(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    device: GPUDevice,
    file_weights: Optional[List[Dict[int, int]]] = None,
    file_indices: Optional[Sequence[int]] = None,
) -> List[Dict[int, int]]:
    """Per-file word counts via top-down propagation of file weights.

    When ``file_weights`` is supplied (e.g. cached by a session), only
    the reduce kernels run; otherwise the propagation pass runs first.

    When ``file_indices`` restricts the query to a file subset, the
    reduce pass only visits rules whose file weights intersect the
    subset and only accumulates into the requested files, and the root's
    direct words are folded into the same (single) kernel launch — a
    restricted query does strictly marginal work.
    """
    num_rules = layout.num_rules
    if file_weights is None:
        file_weights = compute_file_weights_topdown(layout, device)
    per_file_counts: List[Dict[int, int]] = [dict() for _ in range(layout.num_files)]

    if file_indices is not None:
        allowed = frozenset(file_indices)
        allowed_order = sorted(allowed)
        rule_ids = [
            rule_id
            for rule_id in range(1, num_rules)
            if any(file_index in allowed for file_index in file_weights[rule_id])
        ]
        items = layout.lw_count[rule_ids].tolist()
        assignments = scheduler.partition_items(rule_ids, items) if rule_ids else []

        def subset_kernel(tid: int, ctx) -> None:
            if tid < len(assignments):
                assignment = assignments[tid]
                rule_id = assignment.rule_id
                ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=8.0)
                weights = {
                    file_index: weight
                    for file_index, weight in file_weights[rule_id].items()
                    if file_index in allowed
                }
                if not weights:
                    return
                local = layout.local_words(rule_id)[assignment.start : assignment.end]
                for word_id, count in local:
                    ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
                    for file_index, weight in weights.items():
                        ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
                        ctx.atomic_ops += 1.0
                        table = per_file_counts[file_index]
                        table[word_id] = table.get(word_id, 0) + count * weight
                return
            index = tid - len(assignments)
            if index >= len(allowed_order):
                return
            file_index = allowed_order[index]
            for word_id, count in layout.root_words(file_index):
                ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
                table = per_file_counts[file_index]
                table[word_id] = table.get(word_id, 0) + count

        device.launch(
            "reduceFileSubsetKernel",
            subset_kernel,
            max(1, len(assignments) + len(allowed_order)),
        )
        return per_file_counts
    rule_ids = list(range(1, num_rules)) if num_rules > 1 else []
    items = layout.lw_count[rule_ids].tolist()
    assignments = scheduler.partition_items(rule_ids, items) if rule_ids else []

    def reduce_kernel(tid: int, ctx) -> None:
        assignment = assignments[tid]
        rule_id = assignment.rule_id
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=8.0)
        weights = file_weights[rule_id]
        if not weights:
            return
        local = layout.local_words(rule_id)[assignment.start : assignment.end]
        for word_id, count in local:
            ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
            for file_index, weight in weights.items():
                ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
                ctx.atomic_ops += 1.0
                table = per_file_counts[file_index]
                table[word_id] = table.get(word_id, 0) + count * weight

    if assignments:
        device.launch("reduceFileResultKernel", reduce_kernel, len(assignments))

    # The root's direct terminals are attributed to their files separately.
    def root_words_kernel(tid: int, ctx) -> None:
        file_index = tid
        if file_index >= layout.num_files:
            return
        for word_id, count in layout.root_words(file_index):
            ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
            table = per_file_counts[file_index]
            table[word_id] = table.get(word_id, 0) + count

    device.launch("rootWordsKernel", root_words_kernel, max(1, layout.num_files))
    return per_file_counts


# ----------------------------------------------------------------------------------------
# Bottom-up traversal (Algorithm 2)
# ----------------------------------------------------------------------------------------

def _bottomup_bound_pass(
    layout: DeviceRuleLayout, device: GPUDevice
) -> List[int]:
    """genLocTblBoundKernel loop: upper bound of every rule's local table."""
    num_rules = layout.num_rules
    bounds = [0] * num_rules
    cur_out_edges = [0] * num_rules
    masks = [False] * num_rules
    num_out_edges = layout.num_out_edges.tolist()

    def init_mask_kernel(tid: int, ctx) -> None:
        rule_id = tid
        if rule_id >= num_rules:
            return
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=8.0)
        masks[rule_id] = num_out_edges[rule_id] == 0

    device.launch("initBottomUpMaskKernel", init_mask_kernel, num_rules)

    stop = False
    while not stop:
        stop = True

        def bound_kernel(tid: int, ctx) -> None:
            nonlocal stop
            rule_id = tid
            if rule_id >= num_rules:
                return
            ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=4.0)
            if not masks[rule_id]:
                return
            if rule_id == 0:
                # The root is never accumulated into (it holds file
                # information); it only terminates the traversal.
                masks[0] = False
                return
            bound = int(layout.lw_count[rule_id])
            ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=8.0)
            for child, _frequency in layout.subrules(rule_id):
                ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
                bound += bounds[child]
            bounds[rule_id] = min(bound, layout.vocabulary_size)
            for parent in layout.parents(rule_id):
                ctx.charge(ops=wc.WEIGHT_UPDATE_OPS, memory_bytes=8.0)
                ctx.atomic_add(cur_out_edges, parent, 1)
                if cur_out_edges[parent] == num_out_edges[parent]:
                    masks[parent] = True
                    stop = False
            masks[rule_id] = False

        device.launch("genLocTblBoundKernel", bound_kernel, num_rules)
    return bounds


def allocate_local_tables(memory_pool: MemoryPool, bounds: Sequence[int]) -> None:
    """Reserve every rule's local table in the pool (idempotent).

    Rules whose table is already resident (a session reusing its pool
    across tasks) are skipped, so bounds passes and table builds can both
    ensure the allocation without double-allocating an owner.
    """
    for rule_id, bound in enumerate(bounds):
        owner = f"locTbl[{rule_id}]"
        if memory_pool.allocation_of(owner) is None:
            memory_pool.allocate(owner, 2 * max(1, bound))


def prepare_bottomup(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    memory_pool: Optional[MemoryPool] = None,
) -> List[int]:
    """Initialization-phase half of Algorithm 2.

    Generates the child->parent pointers, runs the light-weight bound
    pass that sizes every rule's local table, and (when a memory pool is
    supplied) allocates those tables from the pool.  Returns the bounds.
    """
    num_rules = layout.num_rules

    def gen_parents_kernel(tid: int, ctx) -> None:
        rule_id = tid
        if rule_id >= num_rules:
            return
        for _child, _frequency in layout.subrules(rule_id):
            ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)

    device.launch("genRuleParentsKernel", gen_parents_kernel, num_rules)

    bounds = _bottomup_bound_pass(layout, device)

    if memory_pool is not None:
        allocate_local_tables(memory_pool, bounds)
    return bounds


def build_local_tables_bottomup(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    memory_pool: Optional[MemoryPool] = None,
    bounds: Optional[List[int]] = None,
) -> Tuple[List[Dict[int, int]], List[int]]:
    """Build subtree-complete local word tables for every rule (Algorithm 2).

    Returns ``(local_tables, bounds)`` where ``local_tables[r]`` maps
    word id to the number of occurrences in one expansion of rule ``r``.
    When ``bounds`` is not supplied, the initialization-phase half
    (:func:`prepare_bottomup`) is run first.  When both a pool and
    precomputed ``bounds`` are supplied, the per-rule tables are still
    guaranteed pool residency (the allocations the bound pass made are
    reused, missing ones are added).
    """
    num_rules = layout.num_rules
    if bounds is None:
        bounds = prepare_bottomup(layout, device, memory_pool)
    elif memory_pool is not None:
        allocate_local_tables(memory_pool, bounds)

    local_tables: List[Dict[int, int]] = [dict() for _ in range(num_rules)]
    cur_out_edges = [0] * num_rules
    masks = [False] * num_rules
    num_out_edges = layout.num_out_edges.tolist()

    def init_mask_kernel(tid: int, ctx) -> None:
        rule_id = tid
        if rule_id >= num_rules:
            return
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=8.0)
        masks[rule_id] = num_out_edges[rule_id] == 0

    device.launch("initBottomUpMaskKernel", init_mask_kernel, num_rules)

    stop = False
    while not stop:
        stop = True

        def loc_tbl_kernel(tid: int, ctx) -> None:
            nonlocal stop
            rule_id = tid
            if rule_id >= num_rules:
                return
            ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=4.0)
            if not masks[rule_id]:
                return
            if rule_id == 0:
                # Results are gathered at the root's direct children
                # (level-2 nodes), never at the root itself.
                masks[0] = False
                return
            table = local_tables[rule_id]
            for word_id, count in layout.local_words(rule_id):
                ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
                table[word_id] = table.get(word_id, 0) + count
            for child, frequency in layout.subrules(rule_id):
                ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
                for word_id, count in local_tables[child].items():
                    ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
                    table[word_id] = table.get(word_id, 0) + count * frequency
            for parent in layout.parents(rule_id):
                ctx.charge(ops=wc.WEIGHT_UPDATE_OPS, memory_bytes=8.0)
                ctx.atomic_add(cur_out_edges, parent, 1)
                if cur_out_edges[parent] == num_out_edges[parent]:
                    masks[parent] = True
                    stop = False
            masks[rule_id] = False

        device.launch("genLocTblKernel", loc_tbl_kernel, num_rules)
    return local_tables, bounds


def bottomup_word_count(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    memory_pool: Optional[MemoryPool] = None,
    local_tables: Optional[List[Dict[int, int]]] = None,
) -> Dict[int, int]:
    """Corpus-wide word counts via the bottom-up traversal (Algorithm 2)."""
    if local_tables is None:
        local_tables, _bounds = build_local_tables_bottomup(layout, device, memory_pool)
    table = DeviceHashTable.sized_for(layout.vocabulary_size)

    # Level-2 nodes: the root's direct children, with their root frequencies.
    level2_items = list(zip(layout.level2_child.tolist(), layout.level2_freq.tolist()))

    def reduce_kernel(tid: int, ctx) -> None:
        if tid == 0:
            # The root's own terminal words.
            for word_id, count in layout.local_words(0):
                ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
                table.insert_add(word_id, count, ctx)
            return
        index = tid - 1
        if index >= len(level2_items):
            return
        child, root_frequency = level2_items[index]
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=8.0)
        for word_id, count in local_tables[child].items():
            ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
            table.insert_add(word_id, count * root_frequency, ctx)

    device.launch("reduceResultKernel", reduce_kernel, 1 + len(level2_items))
    return table.to_dict()


def bottomup_per_file_counts(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    memory_pool: Optional[MemoryPool] = None,
    local_tables: Optional[List[Dict[int, int]]] = None,
    file_indices: Optional[Sequence[int]] = None,
) -> List[Dict[int, int]]:
    """Per-file word counts via the bottom-up traversal.

    Local tables are built once (subtree-complete), then each file's
    result is assembled from the root segment belonging to that file:
    its direct terminal words plus its direct sub-rules' local tables
    scaled by their in-file occurrence counts.  A ``file_indices``
    subset restricts the reduce to the requested files only.
    """
    if local_tables is None:
        local_tables, _bounds = build_local_tables_bottomup(layout, device, memory_pool)
    per_file_counts: List[Dict[int, int]] = [dict() for _ in range(layout.num_files)]
    targets = sorted(set(file_indices)) if file_indices is not None else None

    def reduce_kernel(tid: int, ctx) -> None:
        if targets is not None:
            if tid >= len(targets):
                return
            file_index = targets[tid]
        else:
            file_index = tid
        if file_index >= layout.num_files:
            return
        result = per_file_counts[file_index]
        for word_id, count in layout.root_words(file_index):
            ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
            result[word_id] = result.get(word_id, 0) + count
        for child, frequency in layout.root_subrules(file_index):
            ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
            for word_id, count in local_tables[child].items():
                ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
                result[word_id] = result.get(word_id, 0) + count * frequency

    num_threads = len(targets) if targets is not None else layout.num_files
    device.launch("reduceFileResultKernel", reduce_kernel, max(1, num_threads))
    return per_file_counts


# ----------------------------------------------------------------------------------------
# Relational analytics (compressed-domain rows; see repro.relational)
# ----------------------------------------------------------------------------------------

def build_relational_tables(
    layout: DeviceRuleLayout, device: GPUDevice, schema, dictionary
):
    """Per-rule relational parse states via the bottom-up wavefront.

    Every rule gets the :mod:`repro.relational.compute` parse-state
    summary of its expansion, built leaves-first with the same
    out-edge-counter readiness protocol Algorithm 2 uses for local word
    tables.  The states depend only on the grammar and the schema, so a
    session memoizes them per schema (like ``LOCAL_TABLES``) and every
    relational query over that schema pays only marginal kernels.
    """
    from repro.relational import compute as rc

    anchors = rc.anchor_ids(schema, dictionary)
    caps = rc.schema_caps(schema)
    num_anchors = len(anchors)
    num_rules = layout.num_rules
    states = [rc.empty_state(num_anchors) for _ in range(num_rules)]
    cur_out_edges = [0] * num_rules
    masks = [False] * num_rules
    num_out_edges = layout.num_out_edges.tolist()

    def init_mask_kernel(tid: int, ctx) -> None:
        rule_id = tid
        if rule_id >= num_rules:
            return
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=8.0)
        masks[rule_id] = num_out_edges[rule_id] == 0

    device.launch("initRelationalMaskKernel", init_mask_kernel, num_rules)

    stop = False
    while not stop:
        stop = True

        def parse_kernel(tid: int, ctx) -> None:
            nonlocal stop
            rule_id = tid
            if rule_id >= num_rules:
                return
            ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=4.0)
            if not masks[rule_id]:
                return
            if rule_id == 0:
                # Per-file states are assembled from the root segments,
                # never at the root itself.
                masks[0] = False
                return
            body = layout.rule_bodies[rule_id]
            ctx.charge(
                ops=wc.SYMBOL_VISIT_OPS * len(body),
                memory_bytes=wc.SYMBOL_VISIT_BYTES * len(body),
            )
            for _child, _frequency in layout.subrules(rule_id):
                ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
            states[rule_id] = rc.fold_symbol_states(body, states, anchors, caps)
            for parent in layout.parents(rule_id):
                ctx.charge(ops=wc.WEIGHT_UPDATE_OPS, memory_bytes=8.0)
                ctx.atomic_add(cur_out_edges, parent, 1)
                if cur_out_edges[parent] == num_out_edges[parent]:
                    masks[parent] = True
                    stop = False
            masks[rule_id] = False

        device.launch("relParseKernel", parse_kernel, num_rules)
    return states


def assemble_relational_rows(
    layout: DeviceRuleLayout, device: GPUDevice, schema, states, dictionary
):
    """Typed per-file rows from the per-rule parse states (one launch).

    One thread per file walks the file's root segment, combining
    terminal-token states with the memoized states of the root's direct
    sub-rules, then extracts and types the schema's fields — the
    compressed-domain equivalent of parsing the decompressed file text.
    """
    from repro.relational import compute as rc

    anchors = rc.anchor_ids(schema, dictionary)
    caps = rc.schema_caps(schema)
    num_fields = len(schema.fields)
    rows = [None] * layout.num_files

    def assemble_kernel(tid: int, ctx) -> None:
        file_index = tid
        if file_index >= layout.num_files:
            return
        start, end = layout.root_segments[file_index]
        ctx.charge(
            ops=wc.SYMBOL_VISIT_OPS * (end - start) + wc.HASH_UPDATE_OPS * num_fields,
            memory_bytes=wc.SYMBOL_VISIT_BYTES * (end - start)
            + wc.HASH_UPDATE_BYTES * num_fields,
        )
        state = rc.fold_symbol_states(
            layout.root_symbols[start:end], states, anchors, caps
        )
        rows[file_index] = rc.typed_row(
            rc.extract_symbols(state, schema), schema, decode=dictionary.decode
        )

    device.launch("relAssembleRowsKernel", assemble_kernel, max(1, layout.num_files))
    return rows


def relational_filter_aggregate(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    spec,
    rows,
    file_indices: Optional[Sequence[int]] = None,
):
    """Marginal per-query kernels: predicate filter + grouped aggregation.

    With the per-file rows memoized on the session, a relational query
    costs exactly two launches: ``relFilterKernel`` evaluates every
    predicate term on every considered row (no short-circuit — the
    charge is data-independent), and ``relAggregateKernel`` folds the
    passing rows into per-group aggregate cells with one tracked atomic
    per (group, aggregate) update, so contended groups surface as atomic
    conflicts.  The result values come from the shared
    :func:`repro.relational.compute.execute_relational`, which every
    engine uses — results agree across backends by construction.
    """
    from repro.relational import compute as rc

    schema = spec.schema
    targets = (
        sorted(set(file_indices)) if file_indices is not None else list(range(layout.num_files))
    )
    num_conditions = len(spec.predicate)
    num_aggs = len(spec.aggregates)
    group_index = schema.field_index(spec.group_by) if spec.group_by is not None else None
    passed = [False] * layout.num_files

    def filter_kernel(tid: int, ctx) -> None:
        if tid >= len(targets):
            return
        file_index = targets[tid]
        ctx.charge(
            ops=wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS * num_conditions,
            memory_bytes=4.0 + 8.0 * num_conditions,
        )
        passed[file_index] = rc.evaluate_predicate(rows[file_index], spec)

    device.launch("relFilterKernel", filter_kernel, max(1, len(targets)))

    # Host-side control: the group directory that maps group values to
    # aggregate-cell slots (proportional to rows considered + groups).
    slots: Dict = {}
    for file_index in targets:
        if not passed[file_index]:
            continue
        group = None if group_index is None else rows[file_index][group_index]
        if group_index is not None and group is None:
            continue
        if group not in slots:
            slots[group] = len(slots)
    device.record.host_counter.charge(
        compute_ops=2.0 * len(targets), memory_bytes=8.0 * max(1, len(slots))
    )
    cells = [0.0] * max(1, len(slots) * num_aggs)

    def aggregate_kernel(tid: int, ctx) -> None:
        if tid >= len(targets):
            return
        file_index = targets[tid]
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=4.0)
        if not passed[file_index]:
            return
        row = rows[file_index]
        group = None if group_index is None else row[group_index]
        if group_index is not None and group is None:
            return
        ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
        base = slots[group] * num_aggs
        for offset in range(num_aggs):
            ctx.charge(ops=wc.WEIGHT_UPDATE_OPS, memory_bytes=8.0)
            ctx.atomic_add(cells, base + offset, 1.0)

    device.launch("relAggregateKernel", aggregate_kernel, max(1, len(targets)))
    return rc.execute_relational([rows[file_index] for file_index in targets], spec)
