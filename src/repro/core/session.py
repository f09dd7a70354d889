"""Long-lived device session state: build once, serve many queries.

TADOC's compressed data structures are meant to be built once and then
reused across many analytics queries, and the paper's Figure 3 draws the
same line on the GPU: the initialization phase *prepares* device state
that the traversal phase only *consumes*.  The seed engine nevertheless
re-ran the whole initialization phase — and rebuilt every shared
traversal structure — on each :meth:`GTadoc.run` call.

:class:`DeviceSession` is the serving-path fix.  It owns the long-lived
pieces of a G-TADOC deployment:

* the device layout (:class:`~repro.core.layout.DeviceRuleLayout`),
* the init-phase prep record (data-structure preparation kernel, host
  control work, and the PCIe transfer for datasets that do not fit in
  GPU memory),
* the bottom-up local-table bounds and the subtree-complete local
  tables themselves,
* the top-down rule weights and per-file weight tables,
* per-length sequence head/tail buffers, and
* one shared self-maintained :class:`~repro.gpusim.memory_pool.MemoryPool`.

Each piece is built lazily, exactly once, on its own
:class:`~repro.perf.counters.GpuRunRecord`; the session queues those
construction records so a batch of tasks can charge them a single time
(:meth:`drain_new_records`) while every task's own record reflects only
its marginal traversal work.  :meth:`configure` invalidates the cached
state when the engine configuration changes (the layout survives — it
does not depend on the configuration).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.lockcheck import make_lock
from repro.compression.compressor import CompressedCorpus
from repro.core import vectorized
from repro.core.layout import DeviceRuleLayout
from repro.core.scheduler import DEFAULT_OVERSIZE_THRESHOLD, FineGrainedScheduler
from repro.core.sequence import build_sequence_buffers, head_tail_upper_limit
from repro.core.traversal import allocate_local_tables
from repro.gpusim.device import GPUDevice
from repro.gpusim.memory_pool import MemoryPool
from repro.perf.counters import GpuRunRecord

__all__ = [
    "GTadocConfig",
    "StateKey",
    "BASE_INIT",
    "BOTTOMUP_BOUNDS",
    "LOCAL_TABLES",
    "RULE_WEIGHTS",
    "FILE_WEIGHTS",
    "sequence_buffers_key",
    "relational_tables_key",
    "relational_rows_key",
    "DeviceSession",
]


@dataclass(frozen=True)
class GTadocConfig:
    """Tunable parameters of the engine (paper §IV-B "Parameter selection")."""

    #: Sequence length for sequence-sensitive tasks.
    sequence_length: int = 3
    #: A rule gets a thread group once it exceeds this multiple of the
    #: average elements-per-thread (paper default: 16).
    oversize_threshold: float = DEFAULT_OVERSIZE_THRESHOLD
    #: Upper bound on a rule's thread-group size.
    max_group_size: int = 256
    #: Manage per-rule buffers through the self-maintained memory pool.
    use_memory_pool: bool = True
    #: Charge PCIe transfers of the compressed data (large datasets that do
    #: not fit in GPU memory; see §VI-A "Methodology").
    needs_pcie_transfer: bool = False


@dataclass(frozen=True)
class StateKey:
    """Identity of one piece of cached session state.

    ``param`` disambiguates parameterised families: the sequence-length
    of per-length head/tail buffers, or the (hashable, frozen)
    :class:`~repro.relational.spec.RowSchema` of relational parse state.
    """

    kind: str
    param: Optional[Any] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.kind if self.param is None else f"{self.kind}[{self.param}]"


#: Figure 3's left box: data-structure prep, host control, PCIe transfer.
BASE_INIT = StateKey("base_init")
#: Light-weight scanning half of Algorithm 2 (parents + local-table bounds).
BOTTOMUP_BOUNDS = StateKey("bottomup_bounds")
#: Subtree-complete per-rule local word tables (Algorithm 2's build pass).
LOCAL_TABLES = StateKey("local_tables")
#: Scalar rule occurrence weights (Algorithm 1's propagation).
RULE_WEIGHTS = StateKey("rule_weights")
#: Per-rule ``{file index: occurrences}`` weight tables (file-sensitive tasks).
FILE_WEIGHTS = StateKey("file_weights")


def sequence_buffers_key(sequence_length: int) -> StateKey:
    """State key of the head/tail buffers for one sequence length."""
    return StateKey("sequence_buffers", int(sequence_length))


def relational_tables_key(schema: Any) -> StateKey:
    """State key of one schema's per-rule relational parse states."""
    return StateKey("relational_tables", schema)


def relational_rows_key(schema: Any) -> StateKey:
    """State key of one schema's assembled per-file typed rows."""
    return StateKey("relational_rows", schema)


#: State built during the Figure-3 initialization phase; everything else
#: is shared graph-traversal state.
_INIT_PHASE_KINDS = frozenset({"base_init", "bottomup_bounds", "sequence_buffers"})


@dataclass
class _CachedState:
    """One built piece of state plus the work it took to build."""

    key: StateKey
    value: Any
    record: GpuRunRecord
    phase: str  # "initialization" | "traversal"


class DeviceSession:
    """Long-lived, lazily-built, cached device state for one corpus."""

    def __init__(
        self,
        compressed: CompressedCorpus,
        config: Optional[GTadocConfig] = None,
        layout: Optional[DeviceRuleLayout] = None,
    ) -> None:
        self.compressed = compressed
        self.config = config or GTadocConfig()
        self._layout = layout
        self._scheduler: Optional[FineGrainedScheduler] = None
        self._memory_pool: Optional[MemoryPool] = None
        self._memory_pool_built = False
        self._states: Dict[StateKey, _CachedState] = {}
        self._pending: List[_CachedState] = []
        #: Corpus epoch the cached state (and layout) was built against.
        self._built_version = compressed.version
        # Re-entrant so a batch can hold the lock across several
        # ensure/state/drain calls (the engine and the serving layer do).
        self._lock = make_lock("session", reentrant=True)

    @property
    def lock(self) -> threading.RLock:
        """The session's lock; hold it to make a multi-call sequence atomic.

        Every state-touching method acquires it internally, so single
        calls are always safe.  Callers that need *attribution* to be
        atomic as well — e.g. a batch that drains construction records
        after running its tasks — hold the lock across the whole
        sequence (it is re-entrant).
        """
        return self._lock

    # -- shared pieces -----------------------------------------------------------------
    @property
    def layout(self) -> DeviceRuleLayout:
        """The device layout (built once, survives invalidation)."""
        with self._lock:
            if self._layout is None:
                with self.compressed.lock:
                    self._layout = DeviceRuleLayout.from_compressed(self.compressed)
            return self._layout

    @property
    def scheduler(self) -> FineGrainedScheduler:
        """The fine-grained thread scheduler for the current config."""
        with self._lock:
            if self._scheduler is None:
                self._scheduler = FineGrainedScheduler(
                    self.layout,
                    oversize_threshold=self.config.oversize_threshold,
                    max_group_size=self.config.max_group_size,
                )
            return self._scheduler

    @property
    def memory_pool(self) -> Optional[MemoryPool]:
        """The shared self-maintained pool (``None`` when disabled)."""
        with self._lock:
            if not self._memory_pool_built:
                self._memory_pool_built = True
                if self.config.use_memory_pool:
                    layout = self.layout
                    sequence_slack = layout.num_rules * (4 * self.config.sequence_length + 8)
                    capacity = 4 * layout.estimated_local_table_entries() + sequence_slack + 4096
                    self._memory_pool = MemoryPool(capacity=capacity)
            return self._memory_pool

    @property
    def memory_pool_bytes(self) -> int:
        """Bytes currently carved out of the pool (0 when disabled/unused)."""
        if self._memory_pool is None:
            return 0
        return self._memory_pool.used_bytes

    # -- lifecycle --------------------------------------------------------------------------
    def fresh(self) -> "DeviceSession":
        """A state-free session sharing this session's layout.

        Used by :meth:`GTadoc.run` so a single-task run still performs the
        full per-query work (the seed semantics benchmarks compare against),
        without re-flattening the grammar into a new layout.
        """
        with self._lock:
            session = DeviceSession(self.compressed, self.config, layout=self._layout)
            # The shared layout belongs to this session's built epoch, not
            # necessarily the corpus's current one.
            session._built_version = self._built_version
            return session

    def configure(self, config: GTadocConfig) -> None:
        """Adopt ``config``; invalidate cached state if it differs."""
        with self._lock:
            if config != self.config:
                self.config = config
                self.invalidate()

    def invalidate(self) -> None:
        """Drop every cached piece of state except the layout."""
        with self._lock:
            self._states.clear()
            self._pending.clear()
            self._scheduler = None
            self._memory_pool = None
            self._memory_pool_built = False

    # -- incremental corpus maintenance ------------------------------------------------------
    @property
    def built_version(self) -> int:
        """Corpus epoch this session's cached state was built against."""
        with self._lock:
            return self._built_version

    def sync_with_corpus(self) -> str:
        """Catch the session up with its (possibly mutated) corpus.

        Returns ``"none"`` (already current), ``"delta"`` (cached state
        was delta-updated in place for the changed rules only), or
        ``"rebuild"`` (cached state was dropped for a full lazy rebuild
        — the correctness fallback whenever the mutation was not a
        prefix-stable append or the delta would not be cheaper).
        """
        with self._lock:
            corpus = self.compressed
            with corpus.lock:
                version = corpus.version
                if version == self._built_version:
                    return "none"
                if self._layout is None or not self._states:
                    # Nothing built yet: just adopt the new epoch.
                    self.invalidate()
                    self._layout = None
                    self._built_version = version
                    return "rebuild"
                kinds = corpus.mutations_since(self._built_version)
                if kinds is None or any(kind != "append" for kind in kinds):
                    self._rebuild_for(version)
                    return "rebuild"
                from repro.core.delta import compute_grammar_delta

                delta = compute_grammar_delta(self._layout, corpus)
                if delta is None or delta.changed_fraction > 0.5:
                    self._rebuild_for(version)
                    return "rebuild"
                self._apply_delta(delta)
                self._built_version = version
                return "delta"

    def _rebuild_for(self, version: int) -> None:
        self.invalidate()
        self._layout = None
        self._built_version = version

    def _apply_delta(self, delta) -> None:
        """Delta-update every cached state family for the changed rules.

        Each updated family gets a fresh construction record queued on
        the pending list, so the (small) delta work is attributed to the
        next batch exactly like first-time construction would be.
        """
        from repro.core import delta as gd

        self._layout = delta.new_layout
        self._scheduler = None

        def rebuilt(key: StateKey, value: Any, record: GpuRunRecord) -> None:
            phase = "initialization" if key.kind in _INIT_PHASE_KINDS else "traversal"
            entry = _CachedState(key=key, value=value, record=record, phase=phase)
            self._states[key] = entry
            self._pending.append(entry)

        # The pool's owner ids are rule ids, which the new epoch renumbers:
        # re-carve a fresh pool for the new layout (host-side bookkeeping,
        # no kernels), sized by the same policy as first construction.
        old_states = dict(self._states)
        self._memory_pool = None
        self._memory_pool_built = False
        pool = self.memory_pool  # rebuilt against the new layout

        if BASE_INIT in old_states:
            record = GpuRunRecord()
            rebuilt(BASE_INIT, gd.delta_prep(delta, GPUDevice(record=record)), record)

        bounds: Optional[List[int]] = None
        if BOTTOMUP_BOUNDS in old_states:
            record = GpuRunRecord()
            bounds = gd.delta_bounds(delta, old_states[BOTTOMUP_BOUNDS].value, GPUDevice(record=record))
            if pool is not None:
                allocate_local_tables(pool, bounds)
            rebuilt(BOTTOMUP_BOUNDS, bounds, record)

        if LOCAL_TABLES in old_states:
            record = GpuRunRecord()
            rebuilt(
                LOCAL_TABLES,
                gd.delta_local_tables(delta, old_states[LOCAL_TABLES].value, GPUDevice(record=record)),
                record,
            )

        if RULE_WEIGHTS in old_states:
            record = GpuRunRecord()
            rebuilt(
                RULE_WEIGHTS,
                gd.delta_rule_weights(delta, old_states[RULE_WEIGHTS].value, GPUDevice(record=record)),
                record,
            )

        if FILE_WEIGHTS in old_states:
            record = GpuRunRecord()
            rebuilt(
                FILE_WEIGHTS,
                gd.delta_file_weights(delta, old_states[FILE_WEIGHTS].value, GPUDevice(record=record)),
                record,
            )

        for key, entry in old_states.items():
            if key.kind == "sequence_buffers":
                if pool is not None:
                    self._reserve_sequence_capacity(pool, key.param)
                    self._allocate_sequence_owners(pool, key.param)
                record = GpuRunRecord()
                rebuilt(
                    key, gd.delta_sequence_buffers(delta, entry.value, GPUDevice(record=record)), record
                )
            elif key.kind == "relational_tables":
                record = GpuRunRecord()
                states = gd.delta_relational_tables(
                    delta, entry.value, key.param, self.compressed.dictionary, GPUDevice(record=record)
                )
                if states is None:
                    # New anchor words: the schema's states cannot survive;
                    # drop them for a lazy rebuild on next use.
                    self._states.pop(key, None)
                else:
                    rebuilt(key, states, record)
            elif key.kind == "relational_rows":
                # Rows cover every file (old and new): always rebuilt, but
                # lazily — assembling them is a single launch.
                self._states.pop(key, None)

    def _allocate_sequence_owners(self, pool: MemoryPool, sequence_length: int) -> None:
        """Carve one length's head/tail buffers out of the pool (idempotent)."""
        layout = self.layout
        limit = max(0, sequence_length - 1)
        for rule_id in range(1, layout.num_rules):
            owner = f"headTail[l={sequence_length}][{rule_id}]"
            if pool.allocation_of(owner) is not None:
                continue
            upper = head_tail_upper_limit(
                layout.rule_lengths[rule_id], len(layout.subrules[rule_id]), sequence_length
            )
            pool.allocate(owner, max(1, 2 * limit + max(0, upper)))

    # -- cached state -------------------------------------------------------------------------
    def has_state(self, key: StateKey) -> bool:
        with self._lock:
            return key in self._states

    @property
    def cached_keys(self) -> Tuple[StateKey, ...]:
        with self._lock:
            return tuple(self._states)

    def ensure(self, *keys: StateKey) -> None:
        """Build any of ``keys`` not yet cached (dependencies included)."""
        with self._lock:
            for key in keys:
                self._ensure(key)

    def state(self, key: StateKey) -> Any:
        """The cached value for ``key``, building it on first use."""
        with self._lock:
            return self._ensure(key).value

    def drain_new_records(self) -> Tuple[GpuRunRecord, GpuRunRecord]:
        """Collect construction work queued since the last drain.

        Returns ``(init_record, shared_traversal_record)``: the first holds
        Figure-3 initialization-phase work, the second shared traversal
        structures (local tables, rule/file weights).  Draining charges each
        piece of state exactly once over the session's lifetime.  Callers
        that must attribute the drained work to a specific batch hold
        :attr:`lock` across the batch's ensure/traverse/drain sequence.
        """
        with self._lock:
            init_record = GpuRunRecord()
            shared_record = GpuRunRecord()
            for entry in self._pending:
                target = init_record if entry.phase == "initialization" else shared_record
                target.merge(entry.record)
            self._pending.clear()
            return init_record, shared_record

    # -- builders ----------------------------------------------------------------------------------
    def _ensure(self, key: StateKey) -> _CachedState:
        with self._lock:
            cached = self._states.get(key)
            if cached is not None:
                return cached
            # Dependencies are ensured first so the pending queue stays in
            # construction order (bounds before tables, etc.).
            if key == LOCAL_TABLES:
                self._ensure(BOTTOMUP_BOUNDS)
            elif key.kind == "relational_rows":
                self._ensure(relational_tables_key(key.param))
            record = GpuRunRecord()
            device = GPUDevice(record=record)
            value = self._build(key, device)
            phase = "initialization" if key.kind in _INIT_PHASE_KINDS else "traversal"
            entry = _CachedState(key=key, value=value, record=record, phase=phase)
            self._states[key] = entry
            self._pending.append(entry)
            return entry

    def _build(self, key: StateKey, device: GPUDevice) -> Any:
        layout = self.layout
        if key == BASE_INIT:
            return self._build_base_init(device)
        if key == BOTTOMUP_BOUNDS:
            bounds = vectorized.prepare_bottomup_vec(layout, device)
            pool = self.memory_pool
            if pool is not None:
                allocate_local_tables(pool, bounds)
            return bounds
        if key == LOCAL_TABLES:
            # The bounds pass, always built first, already carved the tables.
            return vectorized.build_local_tables_vec(layout, device)
        if key == RULE_WEIGHTS:
            return vectorized.compute_rule_weights(layout, device)
        if key == FILE_WEIGHTS:
            return vectorized.compute_file_weights(layout, device)
        if key.kind == "relational_tables":
            return vectorized.build_relational_tables_vec(
                layout, device, key.param, self.compressed.dictionary
            )
        if key.kind == "relational_rows":
            states = self._states[relational_tables_key(key.param)].value
            return vectorized.assemble_relational_rows_vec(
                layout, device, key.param, states, self.compressed.dictionary
            )
        if key.kind == "sequence_buffers":
            # The pool is provisioned for the configured sequence length;
            # other lengths size their requirement and grow the pool in one
            # step, so their buffers are pooled (and accounted) too.
            pool = self.memory_pool
            if pool is not None:
                self._reserve_sequence_capacity(pool, key.param)
            return build_sequence_buffers(layout, device, key.param, memory_pool=pool)
        raise KeyError(f"unknown session state: {key!r}")

    def _reserve_sequence_capacity(self, pool: MemoryPool, sequence_length: int) -> None:
        """Size the pool for one length's head/tail buffers before building them."""
        layout = self.layout
        limit = max(0, sequence_length - 1)
        needed = 0
        for rule_id in range(1, layout.num_rules):
            if pool.allocation_of(f"headTail[l={sequence_length}][{rule_id}]") is not None:
                continue
            upper = head_tail_upper_limit(
                layout.rule_lengths[rule_id], len(layout.subrules[rule_id]), sequence_length
            )
            # Worst case one alignment gap per allocation.
            needed += max(1, 2 * limit + max(0, upper)) + pool.alignment
        if needed == 0:
            return
        if sequence_length == self.config.sequence_length:
            # The base capacity already budgets this length; top up only a
            # shortfall.
            if needed > pool.free_words:
                pool.reserve(needed - pool.free_words)
        else:
            # Off-config lengths bring their own capacity in full: the
            # existing free words are headroom budgeted for local tables
            # and the configured length, and must stay available to them.
            pool.reserve(needed)

    def _build_base_init(self, device: GPUDevice) -> bool:
        """Initialization work every task shares (Figure 3, left box)."""
        layout = self.layout
        if self.config.needs_pcie_transfer:
            device.transfer_to_device(layout.device_footprint_bytes())
        # Host-side control: preparing launch configurations and the result
        # buffers is proportional to the number of rules, not to the data.
        device.record.host_counter.charge(
            compute_ops=4.0 * layout.num_rules, memory_bytes=8.0 * layout.num_rules
        )
        vectorized.data_structure_prep(layout, device)
        return True
