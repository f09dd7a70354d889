"""Synthetic request traces for exercising the serving layer.

A serving workload is not a benchmark grid: requests repeat (users ask
the same hot queries), mix tasks, and sprinkle per-query knobs.  The
generator here produces a deterministic, seeded trace with exactly that
shape so the CLI (``gtadoc serve-bench``), the serving tests and the
serving examples all replay the same kind of traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analytics.base import Task
from repro.api.query import Query
from repro.compression.compressor import CompressedCorpus
from repro.data.corpus import tokenize
from repro.relational.spec import (
    Aggregate,
    Condition,
    FieldSpec,
    RelationalQuery,
    RowSchema,
)

__all__ = [
    "MutationEvent",
    "TraceConfig",
    "synthesize_trace",
    "default_relational_specs",
]

#: Largest file subset a restricted query may name (capped at the
#: corpus size).
_MAX_SUBSET_FILES = 2


def default_relational_specs(
    keys: Sequence[str] = ("w1", "w2")
) -> Tuple[RelationalQuery, ...]:
    """A small spec family for relational traffic in synthetic traces.

    The schema is keyed on ``keys`` (each field's value is the token
    following its key), which matches the synthetic datasets' ``wN``
    vocabulary.  On corpora where the keys never occur the rows parse to
    all-``None`` fields and every query deterministically returns no
    groups — still a valid end-to-end exercise of the relational path.
    """
    first, second = keys[0], keys[1 % len(keys)]
    schema = RowSchema(
        fields=(FieldSpec("head", key=first), FieldSpec("tail", key=second))
    )
    return (
        RelationalQuery(schema=schema, group_by="head"),
        RelationalQuery(
            schema=schema,
            group_by="tail",
            aggregates=(Aggregate("count"), Aggregate("min", "head")),
        ),
        RelationalQuery(
            schema=schema,
            predicate=(Condition("head", "ne", second),),
            group_by="head",
            order_by="count",
        ),
    )


@dataclass(frozen=True)
class MutationEvent:
    """One corpus mutation inside a request trace.

    Replays treat mutation events as barriers: in-flight queries of the
    current phase drain, the mutation is applied to the *live* corpus
    through its incremental API, and the trace continues — the serving
    tiers then observe the new epoch lazily on the next routed query.
    The serial baseline applies the same event to its token snapshot and
    recompresses from scratch, so a mutating replay doubles as an
    end-to-end incremental-vs-scratch equivalence check.
    """

    #: ``"append"`` (new files) or ``"replace"`` (rewrite existing files).
    kind: str
    #: ``(file name, text)`` pairs the event introduces or rewrites.
    documents: Tuple[Tuple[str, str], ...]
    #: Index of the corpus this event mutates (multi-corpus traces).
    source: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("append", "replace"):
            raise ValueError(f"mutation kind must be 'append' or 'replace', got {self.kind!r}")
        if not self.documents:
            raise ValueError("a mutation event needs at least one document")
        if self.source < 0:
            raise ValueError("source index must be non-negative")

    def apply(self, compressed: CompressedCorpus) -> None:
        """Apply this event to a live corpus via the incremental API."""
        if self.kind == "append":
            compressed.append_files({name: text for name, text in self.documents})
        else:
            for name, text in self.documents:
                compressed.replace_file(name, text)

    def apply_to_documents(self, streams: Dict[str, List[str]]) -> None:
        """Apply this event to a ``{file name: tokens}`` snapshot in place."""
        for name, text in self.documents:
            if self.kind == "append" and name in streams:
                raise ValueError(f"append of existing file {name!r}")
            if self.kind == "replace" and name not in streams:
                raise KeyError(f"replace of unknown file {name!r}")
            streams[name] = tokenize(text)


@dataclass(frozen=True)
class TraceConfig:
    """Shape of a synthetic request trace."""

    num_requests: int = 64
    seed: int = 17
    #: Probability that a request repeats an earlier query verbatim
    #: (hot queries; these are what the result cache serves).
    repeat_fraction: float = 0.35
    #: Probability that a fresh query asks for a top-k cut.
    top_k_fraction: float = 0.4
    #: Probability that a fresh query restricts itself to a file subset.
    file_subset_fraction: float = 0.2
    #: Sequence lengths a sequence-count query may ask for (``None``
    #: uses the engine default).
    sequence_lengths: Tuple[Optional[int], ...] = (None, None, 4)
    tasks: Tuple[Task, ...] = tuple(Task.all())
    #: Probability that a fresh request is a relational query (drawn
    #: from :attr:`relational_specs`) instead of a classic task.
    relational_fraction: float = 0.0
    #: Relational specs relational requests draw from; empty uses
    #: :func:`default_relational_specs`.
    relational_specs: Tuple[RelationalQuery, ...] = ()
    #: Probability that a trace slot is a :class:`MutationEvent` (an
    #: append of fresh live files, occasionally a replace) instead of a
    #: query.  Mutating traces model live corpora: replays apply the
    #: events through the incremental mutation API mid-trace.
    mutation_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        fractions = (
            self.repeat_fraction,
            self.top_k_fraction,
            self.file_subset_fraction,
            self.relational_fraction,
            self.mutation_fraction,
        )
        for fraction in fractions:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError("trace fractions must be within [0, 1]")
        for spec in self.relational_specs:
            if not isinstance(spec, RelationalQuery):
                raise ValueError("relational_specs must hold RelationalQuery specs")


def synthesize_trace(
    file_names: Sequence[str], config: Optional[TraceConfig] = None
) -> List[Union[Query, MutationEvent]]:
    """A deterministic mixed-task trace over a corpus's files.

    ``file_names`` may come from a raw or compressed corpus
    (:attr:`CompressedCorpus.file_names`); the same names and config
    always produce the same trace.  With
    :attr:`TraceConfig.mutation_fraction` on, the trace interleaves
    :class:`MutationEvent` entries between queries.
    """
    if isinstance(file_names, CompressedCorpus):  # convenience
        file_names = file_names.file_names
    config = config or TraceConfig()
    rng = random.Random(config.seed)
    trace: List[Union[Query, MutationEvent]] = []
    num_mutations = 0
    # Repeats are drawn uniformly from the *distinct* fresh queries seen
    # so far, never from the trace itself: sampling the trace would pick
    # repeats-of-repeats, compounding weight onto whichever queries came
    # first instead of modelling a stable set of hot queries.
    distinct: List[Query] = []
    seen: set = set()
    relational_specs = config.relational_specs or default_relational_specs()
    for _ in range(config.num_requests):
        # Only draw when the knob is on, so non-mutating traces keep
        # their exact seeded shape.
        if config.mutation_fraction > 0.0 and rng.random() < config.mutation_fraction:
            num_mutations += 1
            # Appends carry fresh vocabulary (live-ingest shape — and the
            # structurally-stable case the session delta path exercises);
            # the occasional replace rewrites an original file, forcing
            # the rebuild fallback.
            fresh = [f"live{num_mutations}w{j}" for j in range(6)]
            body = " ".join(rng.choice(fresh) for _ in range(rng.randint(8, 24)))
            if file_names and rng.random() < 0.25:
                trace.append(
                    MutationEvent(
                        kind="replace",
                        documents=((rng.choice(list(file_names)), body),),
                    )
                )
            else:
                trace.append(
                    MutationEvent(
                        kind="append", documents=((f"live-{num_mutations}", body),)
                    )
                )
            continue
        if distinct and rng.random() < config.repeat_fraction:
            trace.append(rng.choice(distinct))
            continue
        # Only draw when the knob is on, so traces generated before the
        # relational family existed keep their exact seeded shape.
        relational = (
            config.relational_fraction > 0.0
            and rng.random() < config.relational_fraction
        )
        task = Task.RELATIONAL if relational else rng.choice(config.tasks)
        top_k = rng.choice((5, 10, 20)) if rng.random() < config.top_k_fraction else None
        files = None
        if len(file_names) > 1 and rng.random() < config.file_subset_fraction:
            count = rng.randint(1, min(_MAX_SUBSET_FILES, len(file_names)))
            files = tuple(rng.sample(list(file_names), count))
        if relational:
            query = Query(
                task=task,
                top_k=top_k,
                files=files,
                extras={"relational": rng.choice(relational_specs)},
            )
            trace.append(query)
            if query not in seen:
                seen.add(query)
                distinct.append(query)
            continue
        sequence_length = (
            rng.choice(config.sequence_lengths) if task.is_sequence_sensitive else None
        )
        query = Query(task=task, sequence_length=sequence_length, top_k=top_k, files=files)
        trace.append(query)
        if query not in seen:
            seen.add(query)
            distinct.append(query)
    return trace
