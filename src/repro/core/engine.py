"""The G-TADOC engine: session state, task plans, result assembly.

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
owns the long-lived cached device state, the
:mod:`~repro.core.plans` registry declares what each task needs and how
its marginal traversal runs, and the engine orchestrates the two.

* :meth:`GTadoc.run` executes one task on a *fresh* session — the full
  per-query cost, recorded per phase, exactly as the paper measures a
  single run.
* :meth:`GTadoc.run_batch` executes many tasks against the engine's
  persistent session: initialization and shared-state construction are
  charged once at batch level, and each task's record reflects only its
  marginal traversal work.  :meth:`GTadoc.run_all` is a batch over all
  six CompressDirect tasks.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.analytics.base import Task, TaskResult, normalize_result
from repro.analytics.encoded import EncodedResult
from repro.compression.compressor import CompressedCorpus
from repro.core.layout import DeviceRuleLayout
from repro.core.plans import (
    DEFAULT_PARAMS,
    PlanResult,
    QueryParams,
    TaskPlan,
    fused_execution_strategies,
    fused_required_state,
    plan_for,
    run_fused_program,
)
from repro.core.session import BASE_INIT, DeviceSession, GTadocConfig
from repro.core.strategy import StrategyDecision, TraversalStrategy, TraversalStrategySelector
from repro.gpusim.device import GPUDevice
from repro.perf.counters import GpuRunRecord
from repro.relational.spec import RelationalQuery

__all__ = ["GTadocConfig", "GTadocRunResult", "GTadocBatchResult", "GTadoc"]


@dataclass
class GTadocRunResult:
    """Everything one :meth:`GTadoc.run` call produces.

    For results coming out of :meth:`GTadoc.run_batch`, every field is
    marginal: ``init_record`` holds only the task's own initialization
    work (usually none — shared initialization is charged once on the
    batch), ``traversal_record`` only its marginal traversal kernels,
    ``memory_pool_bytes`` only the pool growth the task caused
    (cumulative pool usage lives on the batch result), and
    ``scheduler_summary`` is empty — the scheduler is shared session
    state, so its summary is reported once on the batch.

    ``output`` is what the task's plan returned: for the six classic
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
    """Outcome of :meth:`GTadoc.run_batch`: per-task results + shared records.

    Behaves as a mapping from :class:`Task` to :class:`GTadocRunResult`,
    so existing ``run_all`` callers keep working.  Shared figures are
    reported here, once per batch: ``init_record`` holds the Figure-3
    initialization work, ``shared_record`` the shared traversal-state
    construction (local tables, rule/file weights),
    ``memory_pool_bytes`` the session's cumulative pool usage, and
    ``scheduler_summary`` the shared fine-grained scheduler's summary.
    """

    results: Dict[Task, GTadocRunResult]
    init_record: GpuRunRecord
    shared_record: GpuRunRecord
    memory_pool_bytes: int
    scheduler_summary: Dict[str, float] = field(default_factory=dict)

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
        params = self._params(sequence_length, file_indices, relational)
        # Catch the persistent session up with any corpus mutations first,
        # so the fresh session inherits a current-epoch layout.
        self._session.sync_with_corpus()
        session = self._session.fresh()
        task, output, strategy, decision, marginal = self._execute_task(
            session, task, traversal, params
        )
        init_record, shared_record = session.drain_new_records()
        traversal_record = GpuRunRecord()
        traversal_record.merge(shared_record)
        traversal_record.merge(marginal)
        return GTadocRunResult(
            task=task,
            output=output,
            strategy=strategy,
            strategy_decision=decision,
            init_record=init_record,
            traversal_record=traversal_record,
            memory_pool_bytes=session.memory_pool_bytes,
            scheduler_summary=session.scheduler.summary(),
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
        """Execute several tasks against one shared session.

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
        requested_tasks = Task.all() if tasks is None else tasks
        task_list = [Task.from_name(t) if isinstance(t, str) else t for t in requested_tasks]
        # Duplicates collapse to one execution (results are keyed by task),
        # keeping the batch's work records consistent with what ran.
        task_list = list(dict.fromkeys(task_list))
        session = session if session is not None else self._session
        results: Dict[Task, GTadocRunResult] = {}
        # The session lock is held across the whole batch so concurrent
        # batches on one session serialize and the drained construction
        # records are attributed to the batch that actually built them.
        with session.lock:
            session.sync_with_corpus()
            for requested in task_list:
                pool_before = session.memory_pool_bytes
                task, output, strategy, decision, marginal = self._execute_task(
                    session, requested, traversal, params
                )
                results[task] = GTadocRunResult(
                    task=task,
                    output=output,
                    strategy=strategy,
                    strategy_decision=decision,
                    init_record=GpuRunRecord(),
                    traversal_record=marginal,
                    memory_pool_bytes=session.memory_pool_bytes - pool_before,
                )
            init_record, shared_record = session.drain_new_records()
            return GTadocBatchResult(
                results=results,
                init_record=init_record,
                shared_record=shared_record,
                memory_pool_bytes=session.memory_pool_bytes,
                scheduler_summary=session.scheduler.summary(),
            )

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

        Where :meth:`run_batch` runs each task's marginal program
        back-to-back, a fused batch walks the shared rule structure once
        per result family: the per-file counts answer every
        file-sensitive task and any co-batched corpus-wide task, so the
        batch launches strictly fewer kernels whenever tasks share a
        family.  Results are bit-identical to :meth:`run_batch`; the
        fused kernels are recorded once, on the batch's first task, and
        each task's ``strategy`` reports what its family primitive
        actually executed (its own selector decision is kept in
        ``strategy_decision``).
        """
        params = self._params(sequence_length, file_indices, relational)
        requested_tasks = Task.all() if tasks is None else tasks
        task_list = [Task.from_name(t) if isinstance(t, str) else t for t in requested_tasks]
        task_list = list(dict.fromkeys(task_list))
        session = session if session is not None else self._session
        with session.lock:
            session.sync_with_corpus()
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
                plan: TaskPlan = plan_for(task)
                decision: Optional[StrategyDecision] = None
                if selector is not None:
                    decision = selector.select(task)
                    strategy = decision.strategy
                else:
                    strategy = traversal
                if plan.fixed_strategy is not None:
                    strategy = plan.fixed_strategy
                decisions[task] = decision
                strategies[task] = strategy
            executed = fused_execution_strategies(strategies)
            session.ensure(BASE_INIT)
            session.ensure(*fused_required_state(strategies, session.config, params))
            fused = GpuRunRecord()
            device = GPUDevice(record=fused)
            pool_before = session.memory_pool_bytes
            outputs = run_fused_program(session, device, strategies, params)
            results: Dict[Task, GTadocRunResult] = {}
            for position, task in enumerate(task_list):
                results[task] = GTadocRunResult(
                    task=task,
                    output=outputs[task],
                    strategy=executed[task],
                    strategy_decision=decisions[task],
                    init_record=GpuRunRecord(),
                    traversal_record=fused if position == 0 else GpuRunRecord(),
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
            )

    def run_all(self, traversal: Optional[TraversalStrategy] = None) -> GTadocBatchResult:
        """Run every task (evaluation order) as one batch.

        The Figure-3 initialization phase and all shared traversal state
        are charged exactly once for the whole batch.
        """
        return self.run_batch(Task.all(), traversal=traversal)

    # -- plan execution ------------------------------------------------------------------------
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

    def _execute_task(
        self,
        session: DeviceSession,
        task: Union[Task, str],
        traversal: Optional[TraversalStrategy],
        params: QueryParams = DEFAULT_PARAMS,
    ) -> Tuple[Task, PlanResult, TraversalStrategy, Optional[StrategyDecision], GpuRunRecord]:
        """Ensure required state on ``session``, then run the marginal program."""
        if isinstance(task, str):
            task = Task.from_name(task)
        plan: TaskPlan = plan_for(task)

        decision: Optional[StrategyDecision] = None
        if traversal is None:
            decision = TraversalStrategySelector(session.layout).select(task)
            strategy = decision.strategy
        else:
            strategy = traversal
        if plan.fixed_strategy is not None:
            strategy = plan.fixed_strategy

        if params.filtered:
            num_files = session.layout.num_files
            for file_index in params.file_indices:
                if not 0 <= file_index < num_files:
                    raise ValueError(
                        f"file index {file_index} out of range (corpus has {num_files} files)"
                    )

        session.ensure(BASE_INIT)
        session.ensure(*plan.required_state(strategy, session.config, params))

        marginal = GpuRunRecord()
        device = GPUDevice(record=marginal)
        output = plan.traverse(session, device, strategy, params)
        return task, output, strategy, decision, marginal
