"""Per-kernel oracle: every bulk kernel against its per-thread reference.

The engine runs only the bulk (numpy) kernels of
:mod:`repro.core.vectorized`.  The per-thread kernels in
:mod:`repro.core.traversal` and :mod:`repro.core.sequence` are their
specification, and this module is where the two meet.  Each comparison
runs a reference kernel and its bulk port on two fresh
:class:`~repro.gpusim.device.GPUDevice` objects, each fed the inputs its
own side produced upstream, and asserts

* equal results, and
* equal :class:`~repro.perf.counters.GpuRunRecord` objects: every
  kernel's :class:`~repro.perf.counters.KernelStats` in launch order, the
  host counter and the PCIe bytes.

The count kernels return integer columns where their references return
dicts; :func:`_as_dicts` puts a bulk result in the reference's format.
Word and gram counts must also list their keys in the reference's
order (an unranked result keeps it), and per-file rows must be sorted
by ``(file, word id)``, the order id-space shaping relies on.

The matrix covers the Table II analogues A-E at scale 0.05 and a
six-row relational corpus, both traversal families, sequence lengths 2,
3 and 4, and every file-subset-aware kernel with and without a two-file
subset.  The kernel names compared must equal the set ``vectorized.py``
launches, so a new bulk kernel without a comparison here fails.  The
bulk kernels' numpy thread partition is compared with
``FineGrainedScheduler.partition_items`` on its own, and a last test
checks that the engine never interprets a kernel that has a bulk port.
"""

from __future__ import annotations

import ast
import functools
import inspect
from typing import Callable, Set

import numpy as np
import pytest

from repro.analytics.base import Task
from repro.compression.compressor import compress_corpus
from repro.core import sequence, traversal, vectorized
from repro.core.engine import GTadoc
from repro.core.layout import DeviceRuleLayout
from repro.core.scheduler import FineGrainedScheduler
from repro.core.strategy import TraversalStrategy
from repro.data.corpus import Corpus
from repro.data.generators import generate_dataset
from repro.gpusim.device import GPUDevice
from repro.gpusim.memory_pool import MemoryPool
from repro.relational.spec import Aggregate, Condition, FieldSpec, RelationalQuery, RowSchema

SEQUENCE_LENGTHS = (2, 3, 4)

_ROWS = (
    ("alice", "30", "nyc"),
    ("bob", "25", "sfo"),
    ("carol", "41", "chi"),
    ("dave", "30", "nyc"),
    ("erin", "29", "chi"),
    ("frank", "oops", "nyc"),
)

_ROW_SPEC = RelationalQuery(
    schema=RowSchema(
        fields=(
            FieldSpec("name", "str", column=0),
            FieldSpec("age", "int", column=1),
            FieldSpec("city", "str", column=2),
        ),
        delimiter=",",
    ),
    predicate=(Condition("age", "ge", 29),),
    group_by="city",
    aggregates=(Aggregate("count"), Aggregate("avg", "age")),
)


def _bulk_kernel_names() -> Set[str]:
    """Kernel-name literals passed to ``launch_bulk`` in ``vectorized.py``."""
    tree = ast.parse(inspect.getsource(vectorized))
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "launch_bulk"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def _corpus(key: str):
    if key == "rows":
        texts = {
            f"row_{index}.txt": f"{name} , {age} , {city}"
            for index, (name, age, city) in enumerate(_ROWS)
        }
        return compress_corpus(Corpus.from_texts(texts, name="relational-rows"))
    return compress_corpus(generate_dataset(key, scale=0.05))


def _as_dicts(columns, num_files: int):
    """A bulk count kernel's columns in its reference's dict format.

    ``(word ids, counts)`` becomes ``{word id: count}``, ``(gram rows,
    counts)`` becomes ``{gram: count}`` and ``(file indices, word ids,
    counts)`` becomes one ``{word id: count}`` per file of the corpus.
    """
    *files, words, counts = columns
    keys = map(tuple, words.tolist()) if words.ndim == 2 else words.tolist()
    if not files:
        return dict(zip(keys, counts.tolist()))
    rows = list(zip(files[0].tolist(), words.tolist()))
    assert rows == sorted(set(rows)), "per-file rows are not sorted by (file, word id)"
    per_file = [dict() for _ in range(num_files)]
    for file_index, word, count in zip(files[0].tolist(), keys, counts.tolist()):
        per_file[file_index][word] = count
    return per_file


def _relational_spec(key: str, compressed) -> RelationalQuery:
    """The row corpus's delimited schema; elsewhere, group by a frequent word's follower."""
    if key == "rows":
        return _ROW_SPEC
    anchor = compressed.dictionary.decode(0)
    return RelationalQuery(
        schema=RowSchema(fields=(FieldSpec("after", key=anchor),)), group_by="after"
    )


def _restricted(file_weights, subset):
    """Per-rule occurrences within ``subset``, as the sequence plan derives them."""
    allowed = set(subset)
    return [
        sum(count for file_index, count in per_rule.items() if file_index in allowed)
        for per_rule in file_weights
    ]


class _Oracle:
    """Runs reference/bulk pairs on fresh devices and records the names compared."""

    def __init__(self) -> None:
        self.compared: Set[str] = set()

    def __call__(self, label: str, reference: Callable, bulk: Callable, as_reference=None):
        ref_device, bulk_device = GPUDevice(), GPUDevice()
        expected = reference(ref_device)
        got = bulk(bulk_device)
        if as_reference is not None:
            got = as_reference(got)
            if isinstance(expected, dict):
                assert list(got) == list(expected), f"{label}: key orders differ"
        assert got == expected, f"{label}: results differ"
        assert bulk_device.record == ref_device.record, f"{label}: records differ"
        self.compared.update(kernel.name for kernel in ref_device.record.kernels)
        return expected, got


@pytest.mark.parametrize("key", ["A", "B", "C", "D", "E", "rows"])
def test_bulk_kernels_match_their_reference(key):
    compressed = _corpus(key)
    layout = DeviceRuleLayout.from_compressed(compressed)
    scheduler = FineGrainedScheduler(layout)
    subsets = (None, (0, layout.num_files - 1))
    oracle = _Oracle()

    oracle(
        "prep",
        lambda device: traversal.data_structure_prep(layout, device),
        lambda device: vectorized.data_structure_prep(layout, device),
    )

    # Bottom-up family (Algorithm 2).
    capacity = 4 * layout.estimated_local_table_entries() + 4096
    ref_pool, bulk_pool = MemoryPool(capacity), MemoryPool(capacity)

    def bulk_prepare(device):
        bounds = vectorized.prepare_bottomup_vec(layout, device)
        traversal.allocate_local_tables(bulk_pool, bounds)
        return bounds

    bounds, _ = oracle(
        "prepare_bottomup",
        lambda device: traversal.prepare_bottomup(layout, device, ref_pool),
        bulk_prepare,
    )
    assert bulk_pool.used_bytes == ref_pool.used_bytes > 0
    ref_tables, bulk_tables = oracle(
        "local tables",
        lambda device: traversal.build_local_tables_bottomup(layout, device, bounds=bounds)[0],
        lambda device: vectorized.build_local_tables_vec(layout, device),
    )
    as_dicts = functools.partial(_as_dicts, num_files=layout.num_files)
    oracle(
        "bottom-up word count",
        lambda device: traversal.bottomup_word_count(layout, device, local_tables=ref_tables),
        lambda device: vectorized.bottomup_word_count_reduce(layout, device, bulk_tables),
        as_dicts,
    )
    for subset in subsets:
        oracle(
            f"bottom-up per-file counts, files {subset}",
            lambda device: traversal.bottomup_per_file_counts(
                layout, device, local_tables=ref_tables, file_indices=subset
            ),
            lambda device: vectorized.bottomup_per_file_counts_reduce(
                layout, device, bulk_tables, subset
            ),
            as_dicts,
        )

    # Top-down family (Algorithm 1).
    ref_weights, bulk_weights = oracle(
        "rule weights",
        lambda device: traversal.compute_rule_weights_topdown(layout, device),
        lambda device: vectorized.compute_rule_weights(layout, device),
    )
    oracle(
        "top-down word count",
        lambda device: traversal.topdown_word_count(layout, scheduler, device, weights=ref_weights),
        lambda device: vectorized.topdown_word_count_reduce(layout, scheduler, device, bulk_weights),
        as_dicts,
    )
    ref_file_weights, bulk_file_weights = oracle(
        "file weights",
        lambda device: traversal.compute_file_weights_topdown(layout, device),
        lambda device: vectorized.compute_file_weights(layout, device),
    )
    for subset in subsets:
        oracle(
            f"top-down per-file counts, files {subset}",
            lambda device: traversal.topdown_per_file_counts(
                layout, scheduler, device, file_weights=ref_file_weights, file_indices=subset
            ),
            lambda device: vectorized.topdown_per_file_counts_vec(
                layout, scheduler, device, bulk_file_weights, subset
            ),
            as_dicts,
        )

    # Sequence counting (Figure 8); the head/tail buffers have no bulk port.
    for length in SEQUENCE_LENGTHS:
        buffers = sequence.build_sequence_buffers(layout, GPUDevice(), length)
        for subset in subsets:
            if subset is None:
                ref_input, bulk_input = ref_weights, bulk_weights
            else:
                ref_input = _restricted(ref_file_weights, subset)
                bulk_input = _restricted(bulk_file_weights, subset)
            oracle(
                f"sequence counts, length {length}, files {subset}",
                lambda device: sequence.sequence_counts(
                    layout, scheduler, device, buffers, ref_input, length, subset
                ),
                lambda device: vectorized.sequence_counts_vec(
                    layout, scheduler, device, buffers, bulk_input, length, subset
                ),
                as_dicts,
            )

    # Relational parse, assembly, filter and aggregate.
    spec = _relational_spec(key, compressed)
    dictionary = compressed.dictionary
    ref_states, bulk_states = oracle(
        "relational parse states",
        lambda device: traversal.build_relational_tables(layout, device, spec.schema, dictionary),
        lambda device: vectorized.build_relational_tables_vec(layout, device, spec.schema, dictionary),
    )
    ref_rows, bulk_rows = oracle(
        "relational rows",
        lambda device: traversal.assemble_relational_rows(
            layout, device, spec.schema, ref_states, dictionary
        ),
        lambda device: vectorized.assemble_relational_rows_vec(
            layout, device, spec.schema, bulk_states, dictionary
        ),
    )
    for subset in subsets:
        oracle(
            f"relational filter and aggregate, files {subset}",
            lambda device: traversal.relational_filter_aggregate(
                layout, device, spec, ref_rows, subset
            ),
            lambda device: vectorized.relational_filter_aggregate_vec(
                layout, device, spec, bulk_rows, subset
            ),
        )

    assert oracle.compared == _bulk_kernel_names()


@pytest.mark.parametrize("key", ["A", "B", "C", "D", "E"])
def test_thread_partitions_match_partition_items(key):
    """The bulk kernels' numpy thread partition against ``partition_items``.

    Covers the three cached unfiltered shapes and the file-subset shape
    for two subsets, under the paper's scheduler and under one that
    splits most rules, so uneven splits are compared too.
    """
    layout = DeviceRuleLayout.from_compressed(_corpus(key))
    flat = layout
    file_weights = traversal.compute_file_weights_topdown(layout, GPUDevice())
    n = layout.num_rules
    local_items = layout.lw_count.tolist()
    subsets = ((0, layout.num_files - 1), tuple(range(0, layout.num_files, 2)))
    schedulers = (
        FineGrainedScheduler(layout),
        FineGrainedScheduler(layout, oversize_threshold=0.25, max_group_size=5),
    )
    split_threads = 0
    for scheduler in schedulers:
        cases = [
            ("corpus", list(range(n)), local_items, flat.assignments(scheduler, "corpus")),
            ("file", list(range(1, n)), local_items[1:], flat.assignments(scheduler, "file")),
            (
                "sequence",
                list(range(1, n)),
                list(layout.rule_lengths[1:]),
                flat.assignments(scheduler, "sequence"),
            ),
        ]
        for subset in subsets:
            rule_ids = [r for r in range(1, n) if any(f in subset for f in file_weights[r])]
            port = flat.partition(
                scheduler, np.asarray(rule_ids, dtype=np.int64), flat.lw_count[rule_ids]
            )
            cases.append((f"files {subset}", rule_ids, [local_items[r] for r in rule_ids], port))
        for label, rule_ids, items, port in cases:
            expected = scheduler.partition_items(rule_ids, items)
            got = list(zip(*(column.tolist() for column in port)))
            assert got == [(a.rule_id, a.start, a.end) for a in expected], label
            split_threads += sum(1 for a in expected if a.group_size > 1)
    assert split_threads > 0


def test_engine_never_interprets_a_ported_kernel(monkeypatch):
    interpreted = []
    launch = GPUDevice.launch

    def recording_launch(self, name, *args, **kwargs):
        interpreted.append(name)
        return launch(self, name, *args, **kwargs)

    monkeypatch.setattr(GPUDevice, "launch", recording_launch)
    compressed = _corpus("A")
    engine = GTadoc(compressed)
    for strategy in (TraversalStrategy.TOP_DOWN, TraversalStrategy.BOTTOM_UP):
        for file_indices in (None, [0]):
            engine.run_batch(Task.all(), traversal=strategy, file_indices=file_indices)
    engine.run_fused(Task.all(), sequence_length=4)
    engine.run_batch([Task.RELATIONAL], relational=_relational_spec("A", compressed))
    compressed.append_files({"appended.txt": "fresh0 fresh1 fresh2 fresh0 fresh1 fresh3"})
    assert engine.session.sync_with_corpus() == "delta"

    # Only kernels without a bulk port run per thread: the head/tail
    # buffers and the delta-maintenance kernels.
    assert "initHeadTailKernel" in interpreted
    assert any(name.startswith("delta") for name in interpreted)
    assert not set(interpreted) & _bulk_kernel_names()
