"""Sequential CPU TADOC (the paper's baseline, reference [2]).

This is a complete single-threaded implementation of TADOC's analytics
over the compressed DAG, with the same two phases the paper times:

* **initialization** — building the per-rule data structures (local
  word tables, sub-rule adjacency, in/out edge counts) by scanning
  every rule body once, sequentially;
* **DAG traversal** — the per-task traversal.  Word count and sort use
  the top-down weight propagation of Figure 2; the file-sensitive tasks
  build subtree-complete local tables bottom-up and assemble per-file
  results from the root's file segments; the sequence-sensitive tasks
  (sequence count, ranked inverted index) follow the recursive
  expansion approach the paper attributes to [2], whose cost is close
  to scanning the uncompressed text — which is precisely why G-TADOC's
  speedups on those two tasks are an order of magnitude larger.

The engine counts its work in a :class:`~repro.perf.counters.CostCounter`
per phase; modelled seconds come from
:class:`~repro.perf.cost_model.CpuCostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analytics.base import SEQUENCE_LENGTH_DEFAULT, Task, TaskResult, normalize_result
from repro.analytics.derive import (
    decode_per_file_counts,
    decode_sequence_counts,
    decode_word_counts,
    per_file_counts_to_inverted_index,
    per_file_counts_to_ranked_inverted_index,
    per_file_counts_to_term_vector,
    word_count_to_sort,
)
from repro.compression.compressor import CompressedCorpus
from repro.core.layout import DeviceRuleLayout
from repro.perf import workcosts as wc
from repro.perf.counters import CostCounter

__all__ = ["CpuTadoc", "CpuTadocRunResult"]


@dataclass
class CpuTadocRunResult:
    """Result and per-phase work of one sequential TADOC run."""

    task: Task
    result: TaskResult
    init_counter: CostCounter
    traversal_counter: CostCounter

    @property
    def total_counter(self) -> CostCounter:
        return self.init_counter + self.traversal_counter


class CpuTadoc:
    """Sequential TADOC analytics over a compressed corpus."""

    def __init__(
        self,
        compressed: CompressedCorpus,
        sequence_length: int = SEQUENCE_LENGTH_DEFAULT,
    ) -> None:
        self.compressed = compressed
        self.sequence_length = sequence_length
        self._layout: Optional[DeviceRuleLayout] = None

    # -- shared structures ---------------------------------------------------------------
    @property
    def layout(self) -> DeviceRuleLayout:
        if self._layout is None:
            self._layout = DeviceRuleLayout.from_compressed(self.compressed)
        return self._layout

    def _init_phase(self) -> CostCounter:
        """Sequentially build the per-rule tables (counted, not re-executed)."""
        counter = CostCounter()
        layout = self.layout
        total_symbols = layout.total_symbols
        terminal_entries = len(layout.lw_keys)
        edge_entries = len(layout.sr_child)
        counter.charge(
            compute_ops=wc.SYMBOL_VISIT_OPS * total_symbols
            + wc.EDGE_VISIT_OPS * edge_entries
            + 2.0 * terminal_entries,
            memory_bytes=wc.SYMBOL_VISIT_BYTES * total_symbols
            + wc.EDGE_VISIT_BYTES * edge_entries,
            # Registering every rule's local words into its table is a
            # hash-heavy part of the preparation; only a fraction of those
            # probes miss the caches during this mostly-sequential scan.
            hash_ops=0.3 * terminal_entries,
        )
        # Result containers and per-rule metadata.
        counter.charge(
            compute_ops=8.0 * layout.num_rules, memory_bytes=48.0 * layout.num_rules
        )
        return counter

    # -- traversal helpers ------------------------------------------------------------------
    def _rule_weights(self, counter: CostCounter) -> List[int]:
        """Top-down occurrence weights (Figure 2's propagation), sequentially."""
        layout = self.layout
        weights = layout.rule_weights.tolist()  # functional values
        edge_entries = len(layout.sr_child)
        counter.charge(
            compute_ops=(wc.EDGE_VISIT_OPS + wc.WEIGHT_UPDATE_OPS) * edge_entries,
            memory_bytes=wc.EDGE_VISIT_BYTES * edge_entries,
            branch_ops=float(layout.num_rules),
        )
        return weights

    def _corpus_word_counts(self, counter: CostCounter) -> Dict[int, int]:
        layout = self.layout
        weights = self._rule_weights(counter)
        counts: Dict[int, int] = {}
        for rule_id in range(layout.num_rules):
            weight = weights[rule_id]
            if weight == 0:
                continue
            local = layout.local_words(rule_id)
            counter.charge(
                compute_ops=wc.SYMBOL_VISIT_OPS * len(local),
                memory_bytes=wc.SYMBOL_VISIT_BYTES * len(local),
                hash_ops=float(len(local)),
            )
            for word_id, count in local:
                counts[word_id] = counts.get(word_id, 0) + count * weight
        return counts

    def _per_file_counts(self, counter: CostCounter) -> List[Dict[int, int]]:
        """Per-file word counts via sequential top-down file-weight propagation.

        Every rule carries a small ``{file index: occurrences}`` table
        that its parents fill in; local words scaled by those weights
        give the per-file counts.  This is the single-pass scheme of [2]
        (Figure 2 generalised with file information).
        """
        layout = self.layout
        file_weights: List[Dict[int, int]] = [dict() for _ in range(layout.num_rules)]
        for file_index in range(layout.num_files):
            for child, count in layout.root_subrules(file_index):
                counter.charge(compute_ops=wc.WEIGHT_UPDATE_OPS, memory_bytes=8.0)
                file_weights[child][file_index] = (
                    file_weights[child].get(file_index, 0) + count
                )
        for rule_id in self.compressed.dag.topological_order():
            if rule_id == 0:
                continue
            own = file_weights[rule_id]
            for child, frequency in layout.subrules(rule_id):
                child_weights = file_weights[child]
                counter.charge(
                    compute_ops=wc.EDGE_VISIT_OPS,
                    memory_bytes=wc.EDGE_VISIT_BYTES,
                    hash_ops=float(len(own)),
                )
                for file_index, weight in own.items():
                    child_weights[file_index] = (
                        child_weights.get(file_index, 0) + frequency * weight
                    )

        per_file: List[Dict[int, int]] = [dict() for _ in range(layout.num_files)]
        for file_index in range(layout.num_files):
            root_words = layout.root_words(file_index)
            counter.charge(hash_ops=float(len(root_words)))
            result = per_file[file_index]
            for word_id, count in root_words:
                result[word_id] = result.get(word_id, 0) + count
        for rule_id in range(1, layout.num_rules):
            weights = file_weights[rule_id]
            if not weights:
                continue
            local = layout.local_words(rule_id)
            counter.charge(
                compute_ops=wc.SYMBOL_VISIT_OPS * len(local),
                memory_bytes=wc.SYMBOL_VISIT_BYTES * len(local),
                hash_ops=float(len(local) * len(weights)),
            )
            for word_id, count in local:
                for file_index, weight in weights.items():
                    table = per_file[file_index]
                    table[word_id] = table.get(word_id, 0) + count * weight
        return per_file

    def _file_index_range(self, file_indices: Optional[Tuple[int, ...]]) -> List[int]:
        """The files a run touches: all of them, or the query's subset."""
        if file_indices is None:
            return list(range(self.layout.num_files))
        return list(file_indices)

    def _expand_file_ids(self, file_index: int, counter: CostCounter) -> List[int]:
        """Recursive (DFS) expansion of one file, as [2] does for sequence tasks."""
        layout = self.layout
        start, end = layout.root_segments[file_index]
        output: List[int] = []
        stack: List[int] = list(reversed(layout.root_symbols[start:end]))
        from repro.compression.grammar import is_rule_ref, rule_ref_id

        while stack:
            symbol = stack.pop()
            counter.charge(compute_ops=wc.SYMBOL_VISIT_OPS, memory_bytes=wc.SYMBOL_VISIT_BYTES)
            if is_rule_ref(symbol):
                stack.extend(reversed(layout.rule_bodies[rule_ref_id(symbol)]))
            else:
                output.append(symbol)
        return output

    def _sequence_counts_by_expansion(
        self,
        counter: CostCounter,
        length: Optional[int] = None,
        file_indices: Optional[Tuple[int, ...]] = None,
    ) -> Dict[Tuple[int, ...], int]:
        length = self.sequence_length if length is None else length
        counts: Dict[Tuple[int, ...], int] = {}
        for file_index in self._file_index_range(file_indices):
            ids = self._expand_file_ids(file_index, counter)
            windows = max(0, len(ids) - length + 1)
            counter.charge(
                compute_ops=wc.TOKEN_SCAN_OPS * windows,
                memory_bytes=wc.TOKEN_SCAN_BYTES * windows,
                hash_ops=float(windows),
            )
            for start in range(windows):
                key = tuple(ids[start : start + length])
                counts[key] = counts.get(key, 0) + 1
        return counts

    def relational_rows(
        self,
        schema,
        counter: CostCounter,
        file_indices: Optional[Tuple[int, ...]] = None,
    ) -> List["rc.RowValues"]:
        """Typed per-file rows by recursive expansion ([2]'s approach).

        The sequential baseline expands every considered file to its
        word ids and parses the row with the shared monoid fold —
        bit-identical values to the compressed-domain kernels, at a cost
        proportional to the decompressed text.
        """
        from repro.relational import compute as rc

        dictionary = self.compressed.dictionary
        rows: List[rc.RowValues] = []
        for file_index in self._file_index_range(file_indices):
            ids = self._expand_file_ids(file_index, counter)
            counter.charge(
                compute_ops=wc.TOKEN_SCAN_OPS * len(ids),
                memory_bytes=wc.TOKEN_SCAN_BYTES * len(ids),
                hash_ops=float(len(schema.fields)),
            )
            tokens = [dictionary.decode(word_id) for word_id in ids]
            rows.append(rc.row_from_tokens(tokens, schema))
        return rows

    def _per_file_counts_by_expansion(
        self, counter: CostCounter, file_indices: Optional[Tuple[int, ...]] = None
    ) -> List[Dict[int, int]]:
        per_file: List[Dict[int, int]] = []
        for file_index in self._file_index_range(file_indices):
            ids = self._expand_file_ids(file_index, counter)
            counter.charge(
                compute_ops=wc.TOKEN_SCAN_OPS * len(ids),
                memory_bytes=wc.TOKEN_SCAN_BYTES * len(ids),
                hash_ops=float(len(ids)),
            )
            counts: Dict[int, int] = {}
            for word_id in ids:
                counts[word_id] = counts.get(word_id, 0) + 1
            per_file.append(counts)
        return per_file

    # -- public API --------------------------------------------------------------------------
    def run(
        self,
        task: Task,
        *,
        sequence_length: Optional[int] = None,
        file_indices: Optional[Tuple[int, ...]] = None,
        relational=None,
    ) -> CpuTadocRunResult:
        """Run ``task`` sequentially on the compressed corpus.

        ``sequence_length`` overrides the engine default for this call;
        ``file_indices`` restricts the result to a subset of files (the
        expansion-based tasks then only expand those files);
        ``relational`` is the query spec for :attr:`Task.RELATIONAL`.
        """
        if isinstance(task, str):
            task = Task.from_name(task)
        if file_indices is not None:
            file_indices = tuple(sorted(set(file_indices)))
        init_counter = self._init_phase()
        traversal_counter = CostCounter()
        dictionary = self.compressed.dictionary
        file_names = self.compressed.file_names
        if file_indices is None:
            subset_names = list(file_names)
        else:
            subset_names = [file_names[index] for index in file_indices]

        if task in (Task.WORD_COUNT, Task.SORT):
            if file_indices is None:
                counts = self._corpus_word_counts(traversal_counter)
            else:
                per_file = self._per_file_counts(traversal_counter)
                counts = {}
                for file_index in file_indices:
                    for word_id, count in per_file[file_index].items():
                        counts[word_id] = counts.get(word_id, 0) + count
            word_counts = decode_word_counts(counts, dictionary)
            if task is Task.SORT:
                keys = max(1, len(word_counts))
                traversal_counter.charge(
                    compute_ops=wc.SORT_OPS_PER_KEY * keys * max(1.0, float(int(keys).bit_length()))
                )
                result: TaskResult = word_count_to_sort(word_counts)
            else:
                result = word_counts
        elif task in (Task.INVERTED_INDEX, Task.TERM_VECTOR):
            per_file = self._per_file_counts(traversal_counter)
            if file_indices is not None:
                per_file = [per_file[index] for index in file_indices]
            term_vector = decode_per_file_counts(per_file, subset_names, dictionary)
            if task is Task.TERM_VECTOR:
                result = per_file_counts_to_term_vector(term_vector)
            else:
                result = per_file_counts_to_inverted_index(term_vector)
        elif task is Task.RANKED_INVERTED_INDEX:
            # As characterised in the paper, [2] handles this task close to
            # the uncompressed implementation: per-file expansion + ranking.
            per_file = self._per_file_counts_by_expansion(
                traversal_counter, file_indices=file_indices
            )
            term_vector = decode_per_file_counts(per_file, subset_names, dictionary)
            entries = sum(len(counts) for counts in term_vector.values())
            traversal_counter.charge(
                compute_ops=wc.SORT_OPS_PER_KEY * max(1, entries) * 8.0
            )
            result = per_file_counts_to_ranked_inverted_index(term_vector)
        elif task is Task.SEQUENCE_COUNT:
            counts = self._sequence_counts_by_expansion(
                traversal_counter, length=sequence_length, file_indices=file_indices
            )
            result = decode_sequence_counts(counts, dictionary)
        elif task is Task.RELATIONAL:
            from repro.relational import compute as rc

            if relational is None:
                raise ValueError("the relational task needs a RelationalQuery spec")
            rows = self.relational_rows(
                relational.schema, traversal_counter, file_indices=file_indices
            )
            traversal_counter.charge(
                compute_ops=(wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS * len(relational.predicate))
                * len(rows),
                memory_bytes=wc.RESULT_ENTRY_BYTES * len(rows),
                hash_ops=float(len(rows)),
            )
            result = rc.execute_relational(rows, relational)
        else:  # pragma: no cover - exhaustive over Task
            raise ValueError(f"unknown task: {task!r}")

        return CpuTadocRunResult(
            task=task,
            result=normalize_result(task, result),
            init_counter=init_counter,
            traversal_counter=traversal_counter,
        )

    def run_all(self) -> Dict[Task, CpuTadocRunResult]:
        return {task: self.run(task) for task in Task.all()}
