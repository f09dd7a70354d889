"""Sequence support: head/tail buffers and sequence counting (§IV-C/IV-D).

Sequence-sensitive tasks (counting *l*-word sequences) need word order,
which a per-rule word table cannot provide.  The original CPU TADOC
falls back to a recursive DFS that is effectively a decompression; the
paper's G-TADOC instead gives every rule a *head* and a *tail* buffer —
the first and last ``l - 1`` words of the rule's expansion — so that a
sequence crossing rule boundaries can be counted by the parent rule
without expanding the child (Figure 6).

The implementation has the paper's two phases:

1. **Initialization** (Figure 7): an iterative masked kernel fills the
   head/tail buffers leaves-first; a rule fails and retries in the next
   round if a needed child's buffer is not ready yet.  Rules whose full
   expansion is short (at most ``2*(l-1)`` words) additionally
   materialise that expansion, which is the content Equation 1 bounds.
2. **Graph traversal** (Figure 8): every rule counts the *l*-grams that
   start in its own body and are not fully contained in a single
   sub-rule occurrence (those are counted by the sub-rule itself),
   using the children's head/tail buffers to cross element boundaries;
   each count is scaled by the rule's occurrence weight and merged into
   a global thread-safe hash table.  The root is processed per file
   segment so sequences never cross file boundaries.

Phase 1's ``initHeadTailKernel`` has no bulk port, so the engine runs it
from here.  Phase 2's :func:`sequence_counts` is the per-thread
reference of :func:`repro.core.vectorized.sequence_counts_vec`, which
the engine runs instead; ``tests/test_kernel_oracle.py`` checks the two
kernel by kernel.

Counting scheme
---------------
Every *l*-gram occurrence in the corpus is attributed to exactly one
rule: the deepest rule whose body the occurrence is *not* fully inside a
single element of.  Summing, per rule, the number of such anchored
*l*-grams times the rule's occurrence weight therefore counts every
occurrence exactly once — this is the invariant the tests check against
the uncompressed reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compression.grammar import is_rule_ref, rule_ref_id
from repro.core.layout import DeviceRuleLayout
from repro.core.scheduler import FineGrainedScheduler
from repro.gpusim.device import GPUDevice
from repro.gpusim.hashtable import DeviceHashTable
from repro.gpusim.memory_pool import MemoryPool
from repro.perf import workcosts as wc

__all__ = [
    "SequenceBuffers",
    "build_sequence_buffers",
    "sequence_counts",
    "head_tail_upper_limit",
    "head_tail_allocations",
    "allocate_head_tail_buffers",
]

#: Skeleton marker for the unmaterialised middle of a long sub-rule.
_GAP = None


def head_tail_upper_limit(rule_length: int, num_subrules: int, sequence_length: int) -> int:
    """Equation 1: upper limit of the per-rule sequence buffer space."""
    return rule_length + (sequence_length - 1) * num_subrules - (sequence_length - 1)


def head_tail_allocations(
    layout: DeviceRuleLayout, sequence_length: int
) -> List[Tuple[str, int]]:
    """Pool owner and size in words of every non-root rule's head/tail buffer.

    Owners are length-qualified so a session can keep buffers for
    several sequence lengths in one pool.
    """
    limit = max(0, sequence_length - 1)
    lengths, degrees = layout.rule_lengths.tolist(), layout.sr_count.tolist()
    allocations = []
    for rule_id in range(1, layout.num_rules):
        upper = head_tail_upper_limit(lengths[rule_id], degrees[rule_id], sequence_length)
        owner = f"headTail[l={sequence_length}][{rule_id}]"
        allocations.append((owner, max(1, 2 * limit + max(0, upper))))
    return allocations


def allocate_head_tail_buffers(
    memory_pool: MemoryPool, layout: DeviceRuleLayout, sequence_length: int
) -> None:
    """Carve one length's head/tail buffers out of the pool (idempotent)."""
    for owner, words in head_tail_allocations(layout, sequence_length):
        if memory_pool.allocation_of(owner) is None:
            memory_pool.allocate(owner, words)


@dataclass
class SequenceBuffers:
    """Per-rule head/tail buffers plus short-rule materialisations."""

    sequence_length: int
    heads: List[List[int]]
    tails: List[List[int]]
    #: Full expansion for rules no longer than ``2*(sequence_length-1)`` words.
    short_expansions: List[Optional[List[int]]]
    #: Number of initialization rounds the masked kernel needed.
    rounds: int = 0


def _gather_prefix(
    layout: DeviceRuleLayout,
    rule_id: int,
    limit: int,
    heads: List[Optional[List[int]]],
    short_expansions: List[Optional[List[int]]],
    ready: List[bool],
    ctx,
) -> Optional[List[int]]:
    """First ``limit`` expansion words of a rule, or ``None`` if a child is not ready."""
    words: List[int] = []
    for symbol in layout.rule_bodies[rule_id]:
        if len(words) >= limit:
            break
        ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
        if is_rule_ref(symbol):
            child = rule_ref_id(symbol)
            if not ready[child]:
                return None
            short = short_expansions[child]
            words.extend(short if short is not None else heads[child])
        else:
            words.append(symbol)
    return words[:limit]


def _gather_suffix(
    layout: DeviceRuleLayout,
    rule_id: int,
    limit: int,
    tails: List[Optional[List[int]]],
    short_expansions: List[Optional[List[int]]],
    ready: List[bool],
    ctx,
) -> Optional[List[int]]:
    """Last ``limit`` expansion words of a rule, or ``None`` if a child is not ready."""
    words: List[int] = []
    for symbol in reversed(layout.rule_bodies[rule_id]):
        if len(words) >= limit:
            break
        ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
        if is_rule_ref(symbol):
            child = rule_ref_id(symbol)
            if not ready[child]:
                return None
            short = short_expansions[child]
            source = short if short is not None else tails[child]
            words.extend(reversed(source))
        else:
            words.append(symbol)
    return list(reversed(words[:limit]))


def build_sequence_buffers(
    layout: DeviceRuleLayout,
    device: GPUDevice,
    sequence_length: int,
    memory_pool: Optional[MemoryPool] = None,
) -> SequenceBuffers:
    """Phase 1 (Figure 7): fill every rule's head and tail buffers."""
    if sequence_length < 1:
        raise ValueError("sequence_length must be >= 1")
    num_rules = layout.num_rules
    limit = max(0, sequence_length - 1)
    short_limit = 2 * limit

    heads: List[Optional[List[int]]] = [None] * num_rules
    tails: List[Optional[List[int]]] = [None] * num_rules
    short_expansions: List[Optional[List[int]]] = [None] * num_rules
    ready = [False] * num_rules
    # The root never feeds another rule's buffers.
    ready[0] = True
    heads[0] = []
    tails[0] = []
    expansion_lengths = layout.expansion_lengths.tolist()

    if memory_pool is not None:
        allocate_head_tail_buffers(memory_pool, layout, sequence_length)

    rounds = 0
    while not all(ready):
        rounds += 1
        progressed = False

        def head_tail_kernel(tid: int, ctx) -> None:
            nonlocal progressed
            rule_id = tid + 1
            if rule_id >= num_rules:
                return
            ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=4.0)
            if ready[rule_id]:
                return
            head = _gather_prefix(layout, rule_id, limit, heads, short_expansions, ready, ctx)
            if head is None:
                return
            tail = _gather_suffix(layout, rule_id, limit, tails, short_expansions, ready, ctx)
            if tail is None:
                return
            short: Optional[List[int]] = None
            if expansion_lengths[rule_id] <= short_limit:
                short = _gather_prefix(
                    layout,
                    rule_id,
                    expansion_lengths[rule_id],
                    heads,
                    short_expansions,
                    ready,
                    ctx,
                )
                if short is None:
                    return
            heads[rule_id] = head
            tails[rule_id] = tail
            short_expansions[rule_id] = short
            ready[rule_id] = True
            progressed = True

        if num_rules <= 1:
            break
        device.launch("initHeadTailKernel", head_tail_kernel, max(1, num_rules - 1))
        if not progressed:
            raise RuntimeError("head/tail initialization made no progress (cyclic grammar?)")
    return SequenceBuffers(
        sequence_length=sequence_length,
        heads=[head if head is not None else [] for head in heads],
        tails=[tail if tail is not None else [] for tail in tails],
        short_expansions=short_expansions,
        rounds=rounds,
    )


def _build_skeleton(
    symbols: Sequence[int],
    element_offset: int,
    buffers: SequenceBuffers,
    ctx,
) -> List[Optional[Tuple[int, int, bool]]]:
    """Skeleton entries ``(word, global element index, inside-sub-rule)``.

    Long sub-rules contribute their head, a gap marker and their tail;
    short sub-rules contribute their full expansion; terminals
    contribute themselves.
    """
    skeleton: List[Optional[Tuple[int, int, bool]]] = []
    for local_index, symbol in enumerate(symbols):
        element_index = element_offset + local_index
        ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
        if not is_rule_ref(symbol):
            skeleton.append((symbol, element_index, False))
            continue
        child = rule_ref_id(symbol)
        short = buffers.short_expansions[child]
        if short is not None:
            for word in short:
                skeleton.append((word, element_index, True))
            continue
        for word in buffers.heads[child]:
            skeleton.append((word, element_index, True))
        skeleton.append(_GAP)
        for word in buffers.tails[child]:
            skeleton.append((word, element_index, True))
    return skeleton


def _count_windows(
    skeleton: List[Optional[Tuple[int, int, bool]]],
    sequence_length: int,
    weight: int,
    sink: Dict[Tuple[int, ...], int],
    ctx,
    element_range: Optional[Tuple[int, int]] = None,
) -> None:
    """Count valid windows into ``sink``.

    A window is valid when it contains no gap marker and is not fully
    contained in a single sub-rule element.  When ``element_range`` is
    given, only windows whose first word belongs to an element inside
    the half-open range are counted (thread-group slicing).
    """
    length = sequence_length
    for start in range(len(skeleton) - length + 1):
        window = skeleton[start : start + length]
        ctx.charge(ops=wc.SYMBOL_VISIT_OPS)
        if any(entry is _GAP for entry in window):
            continue
        first_element = window[0][1]
        if element_range is not None and not (element_range[0] <= first_element < element_range[1]):
            continue
        if window[0][2] and all(
            entry[1] == first_element and entry[2] for entry in window
        ):
            # Fully contained in one sub-rule occurrence; that sub-rule
            # counts it itself.
            continue
        key = tuple(entry[0] for entry in window)
        ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
        sink[key] = sink.get(key, 0) + weight


def sequence_counts(
    layout: DeviceRuleLayout,
    scheduler: FineGrainedScheduler,
    device: GPUDevice,
    buffers: SequenceBuffers,
    weights: Sequence[int],
    sequence_length: int,
    file_indices: Optional[Sequence[int]] = None,
) -> Dict[Tuple[int, ...], int]:
    """Phase 2 (Figure 8): count word *l*-grams over the whole corpus.

    With a ``file_indices`` subset, only root segments of the requested
    files are scanned; callers must supply ``weights`` restricted to the
    subset (occurrences of each rule within the requested files) so
    rule-anchored windows are scaled correctly.
    """
    if sequence_length != buffers.sequence_length:
        raise ValueError("sequence_length does not match the prepared buffers")
    allowed = frozenset(file_indices) if file_indices is not None else None

    local_counts: Dict[Tuple[int, ...], int] = {}
    overlap = sequence_length - 1

    # Every non-root rule counts the windows anchored in its own body.
    # Under a file filter, rules that never occur in the subset (zero
    # restricted weight) are dropped before scheduling so the kernel only
    # covers marginal work.
    rule_ids = list(range(1, layout.num_rules))
    if allowed is not None:
        rule_ids = [rule_id for rule_id in rule_ids if weights[rule_id] != 0]
    items = layout.rule_lengths[rule_ids].tolist()
    assignments = scheduler.partition_items(rule_ids, items) if rule_ids else []

    def rule_kernel(tid: int, ctx) -> None:
        assignment = assignments[tid]
        rule_id = assignment.rule_id
        weight = weights[rule_id]
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=8.0)
        if weight == 0 or assignment.span <= 0:
            return
        body = layout.rule_bodies[rule_id]
        end = min(len(body), assignment.end + overlap)
        skeleton = _build_skeleton(body[assignment.start : end], assignment.start, buffers, ctx)
        _count_windows(
            skeleton,
            sequence_length,
            weight,
            local_counts,
            ctx,
            element_range=(assignment.start, assignment.end),
        )

    if assignments:
        device.launch("sequenceRuleKernel", rule_kernel, len(assignments))

    # The root is processed per file segment (so sequences never cross
    # files); long segments are split into chunks handled by separate
    # threads, with the same start-element ownership rule.
    chunk = max(32, int(scheduler.oversize_threshold * max(1.0, layout.average_rule_length)))
    root_work: List[Tuple[int, int, int]] = []  # (file_index, start, end) in segment coordinates
    for file_index, (segment_start, segment_end) in enumerate(layout.root_segments):
        if allowed is not None and file_index not in allowed:
            continue
        length = segment_end - segment_start
        for offset in range(0, max(1, length), chunk):
            start = segment_start + offset
            end = min(segment_end, start + chunk)
            root_work.append((file_index, start, end))

    def root_kernel(tid: int, ctx) -> None:
        if tid >= len(root_work):
            return
        file_index, start, end = root_work[tid]
        segment_start, segment_end = layout.root_segments[file_index]
        extended_end = min(segment_end, end + overlap)
        symbols = layout.root_symbols[start:extended_end]
        skeleton = _build_skeleton(symbols, start, buffers, ctx)
        _count_windows(
            skeleton,
            sequence_length,
            1,
            local_counts,
            ctx,
            element_range=(start, end),
        )

    device.launch("sequenceRootKernel", root_kernel, max(1, len(root_work)))

    # Merge into the global thread-safe table (Figure 8's insert protocol);
    # the intermediate keys are interned to integer ids for the table.
    table = DeviceHashTable.sized_for(max(1, len(local_counts)))
    key_ids: Dict[Tuple[int, ...], int] = {}
    keys_by_id: List[Tuple[int, ...]] = []
    entries = list(local_counts.items())

    def merge_kernel(tid: int, ctx) -> None:
        if tid >= len(entries):
            return
        key, value = entries[tid]
        ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
        key_id = key_ids.get(key)
        if key_id is None:
            key_id = len(keys_by_id)
            key_ids[key] = key_id
            keys_by_id.append(key)
        table.insert_add(key_id, value, ctx)

    device.launch("sequenceMergeKernel", merge_kernel, max(1, len(entries)))
    return {keys_by_id[key_id]: count for key_id, count in table.items()}
