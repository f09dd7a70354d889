"""Declarative task plans: required session state + traversal program.

The seed engine dispatched tasks through an ``if/elif`` ladder and
threaded unused parameters into every task program.  This module replaces
that with a registry: each :class:`~repro.analytics.base.Task` maps to a
:class:`TaskPlan` that declares

* which :class:`~repro.core.session.DeviceSession` state the traversal
  needs for a given strategy (``requires``), and
* the *marginal* traversal program (``traverse``) that consumes the
  session state and launches only the task-specific kernels.

Plans are parameterised per query through :class:`QueryParams`: a query
may override the engine's configured sequence length (the session keeps
per-length head/tail buffers side by side) and may restrict the task to
a subset of files, in which case the traversal programs only perform the
marginal work for that subset — corpus-wide tasks switch to the per-file
machinery restricted to the subset, file-sensitive tasks reduce only the
requested files, and sequence counting restricts both the root segments
and the per-rule occurrence weights to the subset.

The engine ensures the required state on the session (charging its
construction once per session), then runs the plan's traversal on a
per-task device/record.  Adding a new analytics task means registering a
plan here — no engine changes.

The six classic tasks return id-space results
(:class:`~repro.analytics.encoded.EncodedResult`): the integer columns
the bulk kernels produce, which the query's shape cuts and orders before
anything is decoded.  Relational plans return their row list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analytics.base import Task, TaskResult
from repro.analytics.encoded import EncodedResult
from repro.core.session import (
    BOTTOMUP_BOUNDS,
    FILE_WEIGHTS,
    LOCAL_TABLES,
    RULE_WEIGHTS,
    DeviceSession,
    GTadocConfig,
    StateKey,
    relational_rows_key,
    relational_tables_key,
    sequence_buffers_key,
)
from repro.core import vectorized
from repro.core.strategy import TraversalStrategy
from repro.relational.spec import RelationalQuery
from repro.gpusim.device import GPUDevice

__all__ = [
    "QueryParams",
    "DEFAULT_PARAMS",
    "TaskPlan",
    "PLAN_REGISTRY",
    "plan_for",
    "fused_execution_strategies",
    "fused_required_state",
    "run_fused_program",
]


@dataclass(frozen=True)
class QueryParams:
    """Per-query knobs a plan execution honours.

    ``sequence_length`` overrides the engine config for sequence-sensitive
    tasks (``None`` means "use the configured default"); ``file_indices``
    restricts the query to a subset of files so the traversal does only
    the marginal work for those files; ``relational`` carries the query
    spec for :attr:`~repro.analytics.base.Task.RELATIONAL`.
    """

    sequence_length: Optional[int] = None
    file_indices: Optional[Tuple[int, ...]] = None
    relational: Optional[RelationalQuery] = None

    def __post_init__(self) -> None:
        if self.sequence_length is not None and self.sequence_length < 1:
            raise ValueError("sequence_length must be >= 1")
        if self.file_indices is not None:
            object.__setattr__(self, "file_indices", tuple(sorted(set(self.file_indices))))
            if not self.file_indices:
                raise ValueError("file_indices must name at least one file")
        if self.relational is not None and not isinstance(self.relational, RelationalQuery):
            raise ValueError(
                f"relational must be a RelationalQuery, got {type(self.relational).__name__}"
            )

    def effective_sequence_length(self, config: GTadocConfig) -> int:
        return self.sequence_length if self.sequence_length is not None else config.sequence_length

    @property
    def filtered(self) -> bool:
        return self.file_indices is not None


#: The "plain query" every seed entry point implicitly used.
DEFAULT_PARAMS = QueryParams()

#: What a plan returns: id-space columns, or a relational row list.
PlanResult = Union[EncodedResult, TaskResult]

RequiresFn = Callable[[TraversalStrategy, GTadocConfig, QueryParams], Tuple[StateKey, ...]]
TraverseFn = Callable[[DeviceSession, GPUDevice, TraversalStrategy, QueryParams], PlanResult]


@dataclass(frozen=True)
class TaskPlan:
    """One task's declarative execution plan."""

    task: Task
    #: Session state the traversal consumes under a given strategy/config/query.
    requires: RequiresFn
    #: Marginal traversal program: session state in, plan result out.
    traverse: TraverseFn
    #: Strategy this task always uses, overriding selector and caller
    #: (sequence count has its own head/tail pipeline).
    fixed_strategy: Optional[TraversalStrategy] = None

    def required_state(
        self,
        strategy: TraversalStrategy,
        config: GTadocConfig,
        params: QueryParams = DEFAULT_PARAMS,
    ) -> Tuple[StateKey, ...]:
        return self.requires(strategy, config, params)


# ----------------------------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------------------------

def _corpus_counts(
    session: DeviceSession, device: GPUDevice, strategy: TraversalStrategy
) -> Tuple[np.ndarray, np.ndarray]:
    """Corpus-wide ``(word ids, counts)`` under ``strategy``."""
    if strategy is TraversalStrategy.TOP_DOWN:
        return vectorized.topdown_word_count_reduce(
            session.layout, session.scheduler, device, session.state(RULE_WEIGHTS)
        )
    return vectorized.bottomup_word_count_reduce(
        session.layout, device, session.state(LOCAL_TABLES)
    )


def _per_file_counts(
    session: DeviceSession,
    device: GPUDevice,
    strategy: TraversalStrategy,
    params: QueryParams,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-file ``(file indices, word ids, counts)``, restricted to the query's subset if any."""
    if strategy is TraversalStrategy.TOP_DOWN:
        return vectorized.topdown_per_file_counts_vec(
            session.layout, session.scheduler, device, session.state(FILE_WEIGHTS), params.file_indices
        )
    return vectorized.bottomup_per_file_counts_reduce(
        session.layout, device, session.state(LOCAL_TABLES), params.file_indices
    )


def _sum_over_files(
    per_file: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Corpus ``(word ids, counts)`` from per-file rows, in first-seen row order."""
    _files, words, counts = per_file
    uniq, first, inverse = np.unique(words, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=counts, minlength=len(uniq)).astype(np.int64)
    order = np.argsort(first, kind="stable")
    return uniq[order], sums[order]


def _encoded(
    session: DeviceSession,
    task: Task,
    columns: Tuple[np.ndarray, ...],
    params: QueryParams = DEFAULT_PARAMS,
) -> EncodedResult:
    """Wrap kernel columns (``(words, counts)`` or ``(files, words, counts)``) as ``task``'s result."""
    compressed = session.compressed
    *files, words, counts = columns
    return EncodedResult(
        task=task,
        dictionary=compressed.dictionary,
        file_names=compressed.file_names,
        words=words,
        counts=counts,
        files=files[0] if files else None,
        answered=params.file_indices,
    )


# ----------------------------------------------------------------------------------------
# Corpus-wide counts (word count, sort)
# ----------------------------------------------------------------------------------------

def _corpus_requires(
    strategy: TraversalStrategy, config: GTadocConfig, params: QueryParams = DEFAULT_PARAMS
) -> Tuple[StateKey, ...]:
    if params.filtered:
        # Restricted corpus-wide counts go through the per-file machinery.
        if strategy is TraversalStrategy.TOP_DOWN:
            return (FILE_WEIGHTS,)
        return (BOTTOMUP_BOUNDS, LOCAL_TABLES)
    if strategy is TraversalStrategy.TOP_DOWN:
        return (RULE_WEIGHTS,)
    return (BOTTOMUP_BOUNDS, LOCAL_TABLES)


def _make_corpus_traverse(task: Task) -> TraverseFn:
    def traverse(
        session: DeviceSession,
        device: GPUDevice,
        strategy: TraversalStrategy,
        params: QueryParams = DEFAULT_PARAMS,
    ) -> EncodedResult:
        if params.filtered:
            counts = _sum_over_files(_per_file_counts(session, device, strategy, params))
        else:
            counts = _corpus_counts(session, device, strategy)
        return _encoded(session, task, counts)

    return traverse


# ----------------------------------------------------------------------------------------
# File-sensitive counts (inverted index, term vector, ranked inverted index)
# ----------------------------------------------------------------------------------------

def _file_requires(
    strategy: TraversalStrategy, config: GTadocConfig, params: QueryParams = DEFAULT_PARAMS
) -> Tuple[StateKey, ...]:
    if strategy is TraversalStrategy.TOP_DOWN:
        return (FILE_WEIGHTS,)
    return (BOTTOMUP_BOUNDS, LOCAL_TABLES)


def _make_file_traverse(task: Task) -> TraverseFn:
    def traverse(
        session: DeviceSession,
        device: GPUDevice,
        strategy: TraversalStrategy,
        params: QueryParams = DEFAULT_PARAMS,
    ) -> EncodedResult:
        return _encoded(session, task, _per_file_counts(session, device, strategy, params), params)

    return traverse


# ----------------------------------------------------------------------------------------
# Sequence count
# ----------------------------------------------------------------------------------------

def _sequence_requires(
    strategy: TraversalStrategy, config: GTadocConfig, params: QueryParams = DEFAULT_PARAMS
) -> Tuple[StateKey, ...]:
    length = params.effective_sequence_length(config)
    if params.filtered:
        # Restricted weights (occurrences within the subset) derive from
        # the per-file weight tables instead of the scalar rule weights.
        return (sequence_buffers_key(length), FILE_WEIGHTS)
    return (sequence_buffers_key(length), RULE_WEIGHTS)


def _sequence_traverse(
    session: DeviceSession,
    device: GPUDevice,
    strategy: TraversalStrategy,
    params: QueryParams = DEFAULT_PARAMS,
) -> EncodedResult:
    length = params.effective_sequence_length(session.config)
    buffers = session.state(sequence_buffers_key(length))
    if params.filtered:
        file_weights = session.state(FILE_WEIGHTS)
        allowed = set(params.file_indices)
        weights = [
            sum(count for file_index, count in per_rule.items() if file_index in allowed)
            for per_rule in file_weights
        ]
        # Deriving the restricted weights is host-side control work.
        device.record.host_counter.charge(
            compute_ops=float(sum(len(per_rule) for per_rule in file_weights)),
            memory_bytes=8.0 * len(file_weights),
        )
    else:
        weights = session.state(RULE_WEIGHTS)
    if length != buffers.sequence_length:
        raise ValueError("sequence_length does not match the prepared buffers")
    counts = vectorized.sequence_counts_vec(
        session.layout, session.scheduler, device, buffers, weights, length, params.file_indices
    )
    return _encoded(session, Task.SEQUENCE_COUNT, counts)


# ----------------------------------------------------------------------------------------
# Relational analytics (filter / group-by / aggregate on the grammar)
# ----------------------------------------------------------------------------------------

def _relational_spec(params: QueryParams) -> RelationalQuery:
    if params.relational is None:
        raise ValueError(
            "the relational task needs a RelationalQuery spec "
            "(pass relational=... / Query.extras['relational'])"
        )
    return params.relational


def _relational_requires(
    strategy: TraversalStrategy, config: GTadocConfig, params: QueryParams = DEFAULT_PARAMS
) -> Tuple[StateKey, ...]:
    schema = _relational_spec(params).schema
    return (relational_tables_key(schema), relational_rows_key(schema))


def _relational_traverse(
    session: DeviceSession,
    device: GPUDevice,
    strategy: TraversalStrategy,
    params: QueryParams = DEFAULT_PARAMS,
) -> TaskResult:
    spec = _relational_spec(params)
    rows = session.state(relational_rows_key(spec.schema))
    return vectorized.relational_filter_aggregate_vec(
        session.layout, device, spec, rows, params.file_indices
    )


# ----------------------------------------------------------------------------------------
# Cross-query fusion (serving micro-batches)
# ----------------------------------------------------------------------------------------

#: Tasks answered from corpus-wide word counts.
_CORPUS_TASKS = (Task.WORD_COUNT, Task.SORT)
#: Tasks answered from per-file word counts.
_FILE_TASKS = (Task.INVERTED_INDEX, Task.TERM_VECTOR, Task.RANKED_INVERTED_INDEX)


def _fused_families(
    tasks: List[Task],
) -> Tuple[List[Task], List[Task], List[Task], List[Task]]:
    """Split ``tasks`` into (corpus, file, sequence, relational) families."""
    corpus = [task for task in tasks if task in _CORPUS_TASKS]
    files = [task for task in tasks if task in _FILE_TASKS]
    sequences = [task for task in tasks if task is Task.SEQUENCE_COUNT]
    relational = [task for task in tasks if task is Task.RELATIONAL]
    return corpus, files, sequences, relational


def fused_execution_strategies(
    strategies: Dict[Task, TraversalStrategy],
) -> Dict[Task, TraversalStrategy]:
    """The strategy each task actually *executes* under in a fused pass.

    A family's primitive runs once, under the strategy of the family's
    first task, and every task served from that primitive reports the
    primitive's strategy (each task's own selector decision is still
    recorded separately).  Corpus-wide tasks co-batched with
    file-sensitive tasks are derived from the per-file primitive, so
    they adopt the file family's strategy.
    """
    corpus, files, _sequences, _relational = _fused_families(list(strategies))
    executed = dict(strategies)
    if files:
        lead = strategies[files[0]]
        for task in files + corpus:
            executed[task] = lead
    elif corpus:
        lead = strategies[corpus[0]]
        for task in corpus:
            executed[task] = lead
    return executed


def fused_required_state(
    strategies: Dict[Task, TraversalStrategy],
    config: GTadocConfig,
    params: QueryParams = DEFAULT_PARAMS,
) -> Tuple[StateKey, ...]:
    """Session state one fused pass over ``strategies`` consumes.

    Only the primitives that actually run are required — e.g. a corpus
    task derived from a co-batched per-file primitive never pulls in
    the scalar rule weights.
    """
    corpus, files, sequences, relational = _fused_families(list(strategies))
    executed = fused_execution_strategies(strategies)
    keys: List[StateKey] = []

    def extend(new_keys: Tuple[StateKey, ...]) -> None:
        for key in new_keys:
            if key not in keys:
                keys.append(key)

    if files:
        extend(_file_requires(executed[files[0]], config, params))
    elif corpus:
        extend(_corpus_requires(executed[corpus[0]], config, params))
    if sequences:
        extend(_sequence_requires(TraversalStrategy.TOP_DOWN, config, params))
    if relational:
        extend(_relational_requires(TraversalStrategy.BOTTOM_UP, config, params))
    return tuple(keys)


def run_fused_program(
    session: DeviceSession,
    device: GPUDevice,
    strategies: Dict[Task, TraversalStrategy],
    params: QueryParams = DEFAULT_PARAMS,
) -> Dict[Task, PlanResult]:
    """Serve every task in ``strategies`` from one shared traversal pass.

    Each result family's primitive runs exactly once on ``device``: the
    per-file counts feed all file-sensitive tasks *and* (by host-side
    aggregation) any co-batched corpus-wide tasks, the corpus-wide
    reduce runs only when no per-file primitive is needed, and sequence
    counting keeps its own head/tail pipeline.  Results are identical
    to per-task execution; the caller attributes the fused record.
    """
    executed = fused_execution_strategies(strategies)
    corpus_tasks, file_tasks, sequence_tasks, relational_tasks = _fused_families(
        list(strategies)
    )
    results: Dict[Task, PlanResult] = {}

    per_file: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    if file_tasks or (corpus_tasks and params.filtered):
        lead = file_tasks[0] if file_tasks else corpus_tasks[0]
        per_file = _per_file_counts(session, device, executed[lead], params)

    if corpus_tasks:
        if per_file is not None:
            counts = _sum_over_files(per_file)
            if not params.filtered:
                # Host-side aggregation standing in for the corpus reduce
                # kernel: one op per per-file entry, 8 bytes per file.
                device.record.host_counter.charge(
                    compute_ops=float(len(per_file[0])),
                    memory_bytes=8.0 * session.layout.num_files,
                )
        else:
            counts = _corpus_counts(session, device, executed[corpus_tasks[0]])
        for task in corpus_tasks:
            results[task] = _encoded(session, task, counts)

    for task in file_tasks:
        results[task] = _encoded(session, task, per_file, params)

    if sequence_tasks:
        results[Task.SEQUENCE_COUNT] = _sequence_traverse(
            session, device, TraversalStrategy.TOP_DOWN, params
        )

    if relational_tasks:
        results[Task.RELATIONAL] = _relational_traverse(
            session, device, TraversalStrategy.BOTTOM_UP, params
        )
    return results


PLAN_REGISTRY: Dict[Task, TaskPlan] = {
    Task.WORD_COUNT: TaskPlan(
        task=Task.WORD_COUNT,
        requires=_corpus_requires,
        traverse=_make_corpus_traverse(Task.WORD_COUNT),
    ),
    Task.SORT: TaskPlan(
        task=Task.SORT,
        requires=_corpus_requires,
        traverse=_make_corpus_traverse(Task.SORT),
    ),
    Task.INVERTED_INDEX: TaskPlan(
        task=Task.INVERTED_INDEX,
        requires=_file_requires,
        traverse=_make_file_traverse(Task.INVERTED_INDEX),
    ),
    Task.TERM_VECTOR: TaskPlan(
        task=Task.TERM_VECTOR,
        requires=_file_requires,
        traverse=_make_file_traverse(Task.TERM_VECTOR),
    ),
    Task.SEQUENCE_COUNT: TaskPlan(
        task=Task.SEQUENCE_COUNT,
        requires=_sequence_requires,
        traverse=_sequence_traverse,
        fixed_strategy=TraversalStrategy.TOP_DOWN,
    ),
    Task.RANKED_INVERTED_INDEX: TaskPlan(
        task=Task.RANKED_INVERTED_INDEX,
        requires=_file_requires,
        traverse=_make_file_traverse(Task.RANKED_INVERTED_INDEX),
    ),
    Task.RELATIONAL: TaskPlan(
        task=Task.RELATIONAL,
        requires=_relational_requires,
        traverse=_relational_traverse,
        # Parse states are built leaves-first over the grammar DAG and
        # memoized per schema; there is no top-down formulation.
        fixed_strategy=TraversalStrategy.BOTTOM_UP,
    ),
}


def plan_for(task: Task) -> TaskPlan:
    """The registered plan for ``task`` (raises on unknown tasks)."""
    if isinstance(task, str):
        task = Task.from_name(task)
    try:
        return PLAN_REGISTRY[task]
    except KeyError:
        raise KeyError(f"no task plan registered for {task!r}") from None
