"""The G-TADOC engine: session state, task programs, result assembly.

:class:`GTadoc` is the library's main entry point (the equivalent of
the CompressDirect GPU interfaces in section V of the paper).  A run
has the two phases of Figure 3:

* **initialization** — device data-structure preparation, light-weight
  scanning (in-edge/parent generation, local-table bound pass for
  bottom-up traversals, head/tail buffers for sequence tasks), memory
  pool sizing and, for datasets that do not fit in GPU memory, the
  PCIe transfer of the compressed data;
* **graph traversal** — the top-down or bottom-up traversal chosen by
  the adaptive strategy selector, followed by result reduction/merging
  into global thread-safe tables.

The engine is layered: a :class:`~repro.core.session.DeviceSession`
owns the long-lived cached device state, :mod:`~repro.core.plans` runs
a *program* (the state a set of tasks needs plus one traversal pass per
result family), and the engine's one executor picks each task's
strategy and attributes the work records.

* :meth:`GTadoc.run` executes one task on a *fresh* session — a
  one-task :meth:`GTadoc.run_batch` whose shared construction is folded
  into the task's records: the full per-query cost, recorded per phase,
  exactly as the paper measures a single run.
* :meth:`GTadoc.run_batch` runs one program per task against the
  engine's persistent session: initialization and shared-state
  construction are charged once at batch level, and each task's record
  reflects only its marginal traversal work.  :meth:`GTadoc.run_all` is
  a batch over all six CompressDirect tasks.
* :meth:`GTadoc.run_fused` runs one program for all tasks, so each
  family's primitive runs once for the whole batch (the serving
  layer's micro-batches).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.analytics.base import Task, TaskResult, normalize_result
from repro.analytics.encoded import EncodedResult
from repro.compression.compressor import CompressedCorpus
from repro.core.layout import DeviceRuleLayout
from repro.core.plans import DEFAULT_PARAMS, TASK_FAMILIES, PlanResult, QueryParams, run_program
from repro.core.session import DeviceSession, GTadocConfig
from repro.core.strategy import StrategyDecision, TraversalStrategy, TraversalStrategySelector
from repro.gpusim.device import GPUDevice
from repro.perf.counters import GpuRunRecord
from repro.relational.spec import RelationalQuery

__all__ = ["GTadocConfig", "GTadocRunResult", "GTadocBatchResult", "GTadoc"]


@dataclass
class GTadocRunResult:
    """Everything one task of a :class:`GTadoc` call produces.

    From :meth:`GTadoc.run`, every field covers the whole fresh-session
    run.  From :meth:`GTadoc.run_batch` and :meth:`GTadoc.run_fused`,
    every field is marginal: ``init_record`` holds only the task's own
    initialization work (usually none — shared initialization is charged
    once on the batch); ``traversal_record`` holds the kernels of the
    task's program and ``memory_pool_bytes`` the pool growth from just
    before that program ensured its state (cumulative pool usage lives
    on the batch result); and ``scheduler_summary`` is empty — the
    scheduler is shared session state, so its summary is reported once
    on the batch.  ``run_batch`` runs one program per task;
    ``run_fused`` runs one program for the whole batch and reports its
    kernels and pool growth on the first task, with an empty record and
    0 on the others.

    ``output`` is what the task's program returned: for the six classic
    tasks an id-space :class:`~repro.analytics.encoded.EncodedResult`,
    which :func:`repro.api.shape_result` filters, cuts and orders before
    decoding only the rows a query keeps; for relational queries the row
    list.  ``result`` is the whole canonical result, decoded (or
    canonicalized) on first access and cached.
    """

    task: Task
    output: PlanResult
    strategy: TraversalStrategy
    strategy_decision: Optional[StrategyDecision]
    init_record: GpuRunRecord
    traversal_record: GpuRunRecord
    memory_pool_bytes: int
    scheduler_summary: Dict[str, float] = field(default_factory=dict)
    _result: Optional[TaskResult] = field(default=None, init=False, repr=False, compare=False)

    @property
    def result(self) -> TaskResult:
        """The whole canonical result (no query shape applied)."""
        if self._result is None:
            output = self.output
            if isinstance(output, EncodedResult):
                self._result = output.decode()
            else:
                self._result = normalize_result(self.task, output)
        return self._result

    @property
    def total_kernel_launches(self) -> int:
        return self.init_record.num_launches + self.traversal_record.num_launches


@dataclass
class GTadocBatchResult(Mapping):
    """Outcome of :meth:`GTadoc.run_batch` or :meth:`GTadoc.run_fused`: per-task results + shared records.

    Behaves as a mapping from :class:`Task` to :class:`GTadocRunResult`,
    so existing ``run_all`` callers keep working.  Shared figures are
    reported here, once per batch: ``init_record`` holds the Figure-3
    initialization work, ``shared_record`` the shared traversal-state
    construction (local tables, rule/file weights),
    ``memory_pool_bytes`` the session's cumulative pool usage,
    ``scheduler_summary`` the shared fine-grained scheduler's summary,
    and ``sync`` what catching the session up with its corpus did first
    (:meth:`~repro.core.session.DeviceSession.sync_with_corpus`:
    ``"none"``, ``"delta"`` or ``"rebuild"``).
    """

    results: Dict[Task, GTadocRunResult]
    init_record: GpuRunRecord
    shared_record: GpuRunRecord
    memory_pool_bytes: int
    scheduler_summary: Dict[str, float] = field(default_factory=dict)
    sync: str = "none"

    # -- mapping interface ----------------------------------------------------------------
    def __getitem__(self, task: Union[Task, str]) -> GTadocRunResult:
        if isinstance(task, str):
            try:
                task = Task.from_name(task)
            except ValueError:
                raise KeyError(task) from None
        return self.results[task]

    def __iter__(self) -> Iterator[Task]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    # -- aggregates -----------------------------------------------------------------------
    @property
    def tasks(self) -> List[Task]:
        return list(self.results)

    @property
    def total_kernel_launches(self) -> int:
        """Batch-level launches: shared init + shared state + per-task marginals."""
        return (
            self.init_record.num_launches
            + self.shared_record.num_launches
            + sum(result.total_kernel_launches for result in self.results.values())
        )

    @property
    def shared_kernel_launches(self) -> int:
        return self.init_record.num_launches + self.shared_record.num_launches


class GTadoc:
    """GPU-based text analytics directly on TADOC-compressed data."""

    def __init__(self, compressed: CompressedCorpus, config: Optional[GTadocConfig] = None) -> None:
        self.compressed = compressed
        self._session = DeviceSession(compressed, config or GTadocConfig())

    # -- shared pieces -----------------------------------------------------------------
    @property
    def session(self) -> DeviceSession:
        """The engine's persistent device session (batch/serving state)."""
        return self._session

    @property
    def config(self) -> GTadocConfig:
        return self._session.config

    @config.setter
    def config(self, config: GTadocConfig) -> None:
        self._session.configure(config)

    def configure(self, config: GTadocConfig) -> None:
        """Adopt a new config, invalidating cached session state if it changed."""
        self._session.configure(config)

    @property
    def layout(self) -> DeviceRuleLayout:
        """The device layout (built once and reused across runs)."""
        return self._session.layout

    # -- public API -----------------------------------------------------------------------
    def run(
        self,
        task: Union[Task, str],
        traversal: Optional[TraversalStrategy] = None,
        *,
        sequence_length: Optional[int] = None,
        file_indices: Optional[Iterable[int]] = None,
        relational: Optional["RelationalQuery"] = None,
    ) -> GTadocRunResult:
        """Execute ``task`` and return its result plus per-phase work records.

        Runs on a fresh session, so every call pays the full Figure-3
        initialization — the per-query cost the paper's figures measure.
        Use :meth:`run_batch` to amortize initialization across tasks.

        ``sequence_length`` overrides the configured length for this call
        only; ``file_indices`` restricts the task to a file subset (the
        traversal then performs only the marginal work for those files).
        ``relational`` carries the query spec required by
        :attr:`~repro.analytics.base.Task.RELATIONAL`.  The unified
        front door for these per-query knobs is
        :class:`repro.api.Query` via :func:`repro.api.open_backend`.
        """
        # Catch the persistent session up with any corpus mutations first,
        # so the fresh session inherits a current-epoch layout.
        self._session.sync_with_corpus()
        batch = self.run_batch(
            [task],
            traversal,
            self._session.fresh(),
            sequence_length=sequence_length,
            file_indices=file_indices,
            relational=relational,
        )
        (run,) = batch.values()
        # A single run's traversal includes the shared state it built.
        traversal_record = GpuRunRecord()
        traversal_record.merge(batch.shared_record)
        traversal_record.merge(run.traversal_record)
        return dataclasses.replace(
            run,
            init_record=batch.init_record,
            traversal_record=traversal_record,
            memory_pool_bytes=batch.memory_pool_bytes,
            scheduler_summary=batch.scheduler_summary,
        )

    def run_batch(
        self,
        tasks: Optional[Iterable[Union[Task, str]]] = None,
        traversal: Optional[TraversalStrategy] = None,
        session: Optional[DeviceSession] = None,
        *,
        sequence_length: Optional[int] = None,
        file_indices: Optional[Iterable[int]] = None,
        relational: Optional["RelationalQuery"] = None,
    ) -> GTadocBatchResult:
        """Execute several tasks against one shared session, one program each.

        Initialization and shared-state construction are performed (and
        recorded) once — on the batch's ``init_record``/``shared_record`` —
        while every task's :class:`GTadocRunResult` carries only its
        marginal traversal kernels.  Results are bit-identical to fresh
        single-task :meth:`run` calls.

        By default the engine's persistent session is used, so repeated
        batches on the same engine amortize even further (a second batch
        charges no initialization at all).  Pass an explicit ``session``
        (e.g. ``engine.session.fresh()``) to measure one batch in
        isolation.
        """
        params = self._params(sequence_length, file_indices, relational)
        return self._execute(tasks, traversal, session, params, fuse=False)

    def run_fused(
        self,
        tasks: Optional[Iterable[Union[Task, str]]] = None,
        traversal: Optional[TraversalStrategy] = None,
        session: Optional[DeviceSession] = None,
        *,
        sequence_length: Optional[int] = None,
        file_indices: Optional[Iterable[int]] = None,
        relational: Optional["RelationalQuery"] = None,
    ) -> GTadocBatchResult:
        """Serve several tasks from one fused traversal pass.

        Where :meth:`run_batch` runs one program per task, a fused batch
        runs one program for all of them, walking the shared rule
        structure once per result family: the per-file counts answer
        every file-sensitive task and any co-batched corpus-wide task,
        so the batch launches strictly fewer kernels whenever tasks
        share a family.  Results are bit-identical to :meth:`run_batch`;
        the fused kernels are recorded once, on the batch's first task,
        and each task's ``strategy`` reports what its family primitive
        actually executed (its own selector decision is kept in
        ``strategy_decision``).
        """
        params = self._params(sequence_length, file_indices, relational)
        return self._execute(tasks, traversal, session, params, fuse=True)

    def run_all(self, traversal: Optional[TraversalStrategy] = None) -> GTadocBatchResult:
        """Run every task (evaluation order) as one batch.

        The Figure-3 initialization phase and all shared traversal state
        are charged exactly once for the whole batch.
        """
        return self.run_batch(Task.all(), traversal=traversal)

    # -- program execution ---------------------------------------------------------------------
    @staticmethod
    def _params(
        sequence_length: Optional[int],
        file_indices: Optional[Iterable[int]],
        relational: Optional["RelationalQuery"] = None,
    ) -> QueryParams:
        """Normalize per-query knobs into a :class:`QueryParams`."""
        if sequence_length is None and file_indices is None and relational is None:
            return DEFAULT_PARAMS
        return QueryParams(
            sequence_length=sequence_length,
            file_indices=tuple(file_indices) if file_indices is not None else None,
            relational=relational,
        )

    def _execute(
        self,
        tasks: Optional[Iterable[Union[Task, str]]],
        traversal: Optional[TraversalStrategy],
        session: Optional[DeviceSession],
        params: QueryParams,
        fuse: bool,
    ) -> GTadocBatchResult:
        """Run one program per task, or one program for all tasks if ``fuse``."""
        requested_tasks = Task.all() if tasks is None else tasks
        # Duplicates collapse to one execution (results are keyed by task),
        # keeping the batch's work records consistent with what ran.
        task_list = list(
            dict.fromkeys(Task.from_name(t) if isinstance(t, str) else t for t in requested_tasks)
        )
        session = session if session is not None else self._session
        # The session lock is held across the whole batch so concurrent
        # batches on one session serialize and the drained construction
        # records are attributed to the batch that actually built them.
        with session.lock:
            sync = session.sync_with_corpus()
            if params.filtered:
                num_files = session.layout.num_files
                for file_index in params.file_indices:
                    if not 0 <= file_index < num_files:
                        raise ValueError(
                            f"file index {file_index} out of range (corpus has {num_files} files)"
                        )
            selector = TraversalStrategySelector(session.layout) if traversal is None else None
            decisions: Dict[Task, Optional[StrategyDecision]] = {}
            strategies: Dict[Task, TraversalStrategy] = {}
            for task in task_list:
                decision = selector.select(task) if selector is not None else None
                strategy = TASK_FAMILIES[task].strategy
                if strategy is None:
                    strategy = decision.strategy if decision is not None else traversal
                decisions[task] = decision
                strategies[task] = strategy
            programs = [strategies] if fuse else [{task: strategy} for task, strategy in strategies.items()]
            results: Dict[Task, GTadocRunResult] = {}
            for program in programs:
                record = GpuRunRecord()
                pool_before = session.memory_pool_bytes
                outputs, executed = run_program(session, GPUDevice(record=record), program, params)
                # A program's kernels and pool growth are reported on its first task.
                for position, task in enumerate(program):
                    results[task] = GTadocRunResult(
                        task=task,
                        output=outputs[task],
                        strategy=executed[task],
                        strategy_decision=decisions[task],
                        init_record=GpuRunRecord(),
                        traversal_record=record if position == 0 else GpuRunRecord(),
                        memory_pool_bytes=(
                            session.memory_pool_bytes - pool_before if position == 0 else 0
                        ),
                    )
            init_record, shared_record = session.drain_new_records()
            return GTadocBatchResult(
                results=results,
                init_record=init_record,
                shared_record=shared_record,
                memory_pool_bytes=session.memory_pool_bytes,
                scheduler_summary=session.scheduler.summary(),
                sync=sync,
            )
