"""Task programs: the session state a set of tasks needs + one traversal pass.

G-TADOC answers every task from a few shared traversal results over one
rule DAG.  :data:`TASK_FAMILIES` gives each
:class:`~repro.analytics.base.Task` its result *family* — the primitive
its answer is read from:

* ``corpus``: corpus-wide word counts (word count, sort),
* ``files``: per-file word counts (inverted index, term vector, ranked
  inverted index),
* ``sequence``: sequence counts, from their own head/tail pipeline,
* ``relational``: relational rows, from parse states built per schema.

A *program* maps tasks to the traversal strategy each was given.
:func:`run_program` ensures the session state the program's families
consume (:func:`required_state`, charged once per session), then runs
each family's primitive once on the caller's device: the per-file
counts answer every file-sensitive task and, by host-side aggregation,
any co-batched corpus-wide task, and the corpus-wide reduce runs only
when no per-file primitive is needed.  The engine runs one program per
task for :meth:`~repro.core.engine.GTadoc.run_batch` and one program
for all tasks for :meth:`~repro.core.engine.GTadoc.run_fused`.  Adding
a task means giving it a family here — no engine changes.

Programs are parameterised per query through :class:`QueryParams`: a
query may override the engine's configured sequence length (the session
keeps per-length head/tail buffers side by side) and may restrict the
tasks to a subset of files, in which case the traversal does only the
marginal work for that subset — corpus-wide tasks switch to the per-file
machinery restricted to the subset, file-sensitive tasks reduce only the
requested files, and sequence counting restricts both the root segments
and the per-rule occurrence weights to the subset.

The six classic tasks return id-space results
(:class:`~repro.analytics.encoded.EncodedResult`): the integer columns
the bulk kernels produce, which the query's shape cuts and orders before
anything is decoded.  Relational programs return their row list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.analytics.base import Task, TaskResult
from repro.analytics.encoded import EncodedResult
from repro.core.session import (
    BASE_INIT,
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
    "TaskFamily",
    "TASK_FAMILIES",
    "execution_strategies",
    "required_state",
    "run_program",
]


@dataclass(frozen=True)
class QueryParams:
    """Per-query knobs a program execution honours.

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

#: What a program returns per task: id-space columns, or a relational row list.
PlanResult = Union[EncodedResult, TaskResult]


class TaskFamily(NamedTuple):
    """A task's result family, and the strategy it always runs under (if any)."""

    name: str
    #: Overrides both the selector and the caller's traversal choice.
    strategy: Optional[TraversalStrategy] = None


TASK_FAMILIES: Dict[Task, TaskFamily] = {
    Task.WORD_COUNT: TaskFamily("corpus"),
    Task.SORT: TaskFamily("corpus"),
    Task.INVERTED_INDEX: TaskFamily("files"),
    Task.TERM_VECTOR: TaskFamily("files"),
    # Sequence count has its own head/tail pipeline over a top-down
    # weight pass.
    Task.SEQUENCE_COUNT: TaskFamily("sequence", TraversalStrategy.TOP_DOWN),
    Task.RANKED_INVERTED_INDEX: TaskFamily("files"),
    # Parse states are built leaves-first over the grammar DAG and
    # memoized per schema; there is no top-down formulation.
    Task.RELATIONAL: TaskFamily("relational", TraversalStrategy.BOTTOM_UP),
}


# ----------------------------------------------------------------------------------------
# Family primitives
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


def _sequence_counts(
    session: DeviceSession, device: GPUDevice, params: QueryParams
) -> EncodedResult:
    length = params.effective_sequence_length(session.config)
    buffers = session.state(sequence_buffers_key(length))
    if params.filtered:
        file_weights = session.state(FILE_WEIGHTS)
        matrix = vectorized.dense_file_weights(session.layout, file_weights)
        weights = matrix[:, list(params.file_indices)].sum(axis=1)
        # Deriving the restricted weights is host-side control work: one
        # op per (rule, file) weight.
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


def _relational_spec(params: QueryParams) -> RelationalQuery:
    if params.relational is None:
        raise ValueError(
            "the relational task needs a RelationalQuery spec "
            "(pass relational=... / Query.extras['relational'])"
        )
    return params.relational


def _relational_rows(session: DeviceSession, device: GPUDevice, params: QueryParams) -> TaskResult:
    spec = _relational_spec(params)
    rows = session.state(relational_rows_key(spec.schema))
    return vectorized.relational_filter_aggregate_vec(
        session.layout, device, spec, rows, params.file_indices
    )


# ----------------------------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------------------------

class _Program(NamedTuple):
    """A program's tasks split by family, and the strategy each task executes under."""

    corpus: List[Task]
    files: List[Task]
    sequence: bool
    relational: bool
    executed: Dict[Task, TraversalStrategy]


def _program(strategies: Dict[Task, TraversalStrategy]) -> _Program:
    families: Dict[str, List[Task]] = {"corpus": [], "files": [], "sequence": [], "relational": []}
    for task in strategies:
        families[TASK_FAMILIES[task].name].append(task)
    corpus, files = families["corpus"], families["files"]
    executed = dict(strategies)
    # A family's primitive runs once, under its first task's strategy.
    # Corpus tasks co-batched with file tasks are derived from the
    # per-file primitive, so they adopt its strategy.
    lead = files or corpus
    if lead:
        for task in files + corpus:
            executed[task] = strategies[lead[0]]
    return _Program(corpus, files, bool(families["sequence"]), bool(families["relational"]), executed)


def _required_state(
    program: _Program, config: GTadocConfig, params: QueryParams
) -> Tuple[StateKey, ...]:
    keys: List[StateKey] = []
    lead = program.files or program.corpus
    if lead:
        if program.executed[lead[0]] is TraversalStrategy.TOP_DOWN:
            # Restricted corpus-wide counts go through the per-file machinery.
            keys.append(FILE_WEIGHTS if program.files or params.filtered else RULE_WEIGHTS)
        else:
            keys += [BOTTOMUP_BOUNDS, LOCAL_TABLES]
    if program.sequence:
        keys.append(sequence_buffers_key(params.effective_sequence_length(config)))
        # Restricted weights (occurrences within the subset) derive from
        # the per-file weight tables instead of the scalar rule weights.
        weights = FILE_WEIGHTS if params.filtered else RULE_WEIGHTS
        if weights not in keys:
            keys.append(weights)
    if program.relational:
        schema = _relational_spec(params).schema
        keys += [relational_tables_key(schema), relational_rows_key(schema)]
    return tuple(keys)


def execution_strategies(
    strategies: Dict[Task, TraversalStrategy],
) -> Dict[Task, TraversalStrategy]:
    """The strategy each task of a program actually *executes* under.

    A family's primitive runs once, under the strategy of the family's
    first task, and every task served from that primitive reports the
    primitive's strategy (each task's own selector decision is still
    recorded separately).  Corpus-wide tasks co-batched with
    file-sensitive tasks are derived from the per-file primitive, so
    they adopt the file family's strategy.
    """
    return _program(strategies).executed


def required_state(
    strategies: Dict[Task, TraversalStrategy],
    config: GTadocConfig,
    params: QueryParams = DEFAULT_PARAMS,
) -> Tuple[StateKey, ...]:
    """Session state one program over ``strategies`` consumes.

    Only the primitives that actually run are required — e.g. a corpus
    task derived from a co-batched per-file primitive never pulls in
    the scalar rule weights.
    """
    return _required_state(_program(strategies), config, params)


def run_program(
    session: DeviceSession,
    device: GPUDevice,
    strategies: Dict[Task, TraversalStrategy],
    params: QueryParams = DEFAULT_PARAMS,
) -> Tuple[Dict[Task, PlanResult], Dict[Task, TraversalStrategy]]:
    """Serve every task in ``strategies`` from one shared traversal pass.

    Ensures the Figure-3 initialization and the program's
    :func:`required_state` on ``session`` (their construction is
    recorded on the session), then runs each family's primitive exactly
    once on ``device``.  Returns each task's result and the strategy it
    executed under (:func:`execution_strategies`); the caller
    attributes ``device``'s record.
    """
    program = _program(strategies)
    session.ensure(BASE_INIT)
    session.ensure(*_required_state(program, session.config, params))
    executed = program.executed
    results: Dict[Task, PlanResult] = {}

    per_file: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    if program.files or (program.corpus and params.filtered):
        lead = (program.files or program.corpus)[0]
        per_file = _per_file_counts(session, device, executed[lead], params)

    if program.corpus:
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
            counts = _corpus_counts(session, device, executed[program.corpus[0]])
        for task in program.corpus:
            results[task] = _encoded(session, task, counts)

    for task in program.files:
        results[task] = _encoded(session, task, per_file, params)

    if program.sequence:
        results[Task.SEQUENCE_COUNT] = _sequence_counts(session, device, params)

    if program.relational:
        results[Task.RELATIONAL] = _relational_rows(session, device, params)
    return results, executed
