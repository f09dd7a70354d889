"""Tests for the session/plan execution architecture.

Covers the batch execution path (``GTadoc.run_batch`` / ``run_all``),
the :class:`DeviceSession` state cache with config invalidation, the
task family table, and the amortization regression: a batch must charge
the Figure-3 initialization phase exactly once and launch strictly fewer
kernels than the equivalent sequence of fresh single-task runs.
"""

from __future__ import annotations

import pytest

from repro.analytics.base import Task
from repro.analytics.reference import UncompressedAnalytics
from repro.core.engine import GTadoc, GTadocBatchResult, GTadocConfig
from repro.core.plans import TASK_FAMILIES, execution_strategies, required_state
from repro.core.session import (
    BASE_INIT,
    BOTTOMUP_BOUNDS,
    FILE_WEIGHTS,
    LOCAL_TABLES,
    RULE_WEIGHTS,
    DeviceSession,
    sequence_buffers_key,
)
from repro.core.strategy import TraversalStrategy


def _all_batch_records(batch: GTadocBatchResult):
    yield batch.init_record
    yield batch.shared_record
    for result in batch.values():
        yield result.init_record
        yield result.traversal_record


def _count_kernel(batch: GTadocBatchResult, name: str) -> int:
    return sum(
        1 for record in _all_batch_records(batch) for kernel in record.kernels if kernel.name == name
    )


class TestBatchEquivalence:
    @pytest.mark.parametrize("task", Task.all())
    def test_batch_results_bit_identical_to_single_runs(self, few_files_compressed, task):
        batch = GTadoc(few_files_compressed).run_batch()
        fresh = GTadoc(few_files_compressed).run(task)
        assert batch[task].result == fresh.result
        assert batch[task].strategy is fresh.strategy

    @pytest.mark.parametrize("task", Task.all())
    def test_batch_equivalence_many_files(self, many_files_compressed, task):
        batch = GTadoc(many_files_compressed).run_batch()
        fresh = GTadoc(many_files_compressed).run(task)
        assert batch[task].result == fresh.result

    def test_batch_accepts_task_subsets_and_strings(self, tiny_compressed):
        batch = GTadoc(tiny_compressed).run_batch(["word_count", Task.SORT])
        assert batch.tasks == [Task.WORD_COUNT, Task.SORT]
        assert batch["word_count"].result == batch[Task.WORD_COUNT].result

    def test_batch_deduplicates_repeated_tasks(self, tiny_compressed):
        batch = GTadoc(tiny_compressed).run_batch([Task.WORD_COUNT, "word_count", Task.SORT])
        assert batch.tasks == [Task.WORD_COUNT, Task.SORT]
        # One marginal execution per distinct task.
        single = GTadoc(tiny_compressed).run_batch([Task.WORD_COUNT, Task.SORT])
        assert batch.total_kernel_launches == single.total_kernel_launches

    def test_unknown_string_key_raises_key_error(self, tiny_compressed):
        batch = GTadoc(tiny_compressed).run_batch([Task.WORD_COUNT])
        assert "bogus" not in batch
        assert batch.get("bogus") is None
        with pytest.raises(KeyError):
            batch["bogus"]

    def test_forced_traversal_respected_in_batch(self, few_files_compressed):
        batch = GTadoc(few_files_compressed).run_batch(
            [Task.WORD_COUNT, Task.TERM_VECTOR], traversal=TraversalStrategy.BOTTOM_UP
        )
        assert batch[Task.WORD_COUNT].strategy is TraversalStrategy.BOTTOM_UP
        assert batch[Task.TERM_VECTOR].strategy is TraversalStrategy.BOTTOM_UP

    def test_batch_is_mapping(self, tiny_compressed):
        batch = GTadoc(tiny_compressed).run_all()
        assert set(batch) == set(Task.all())
        assert len(batch) == len(Task.all())
        assert Task.WORD_COUNT in batch


class TestAmortization:
    def test_init_phase_runs_exactly_once_in_run_all(self, few_files_compressed):
        batch = GTadoc(few_files_compressed).run_all()
        assert _count_kernel(batch, "dataStructurePrepKernel") == 1
        # The shared init lives on the batch record, not on any task.
        for result in batch.values():
            assert result.init_record.num_launches == 0

    def test_run_all_launches_strictly_below_per_run_sum(self, few_files_compressed):
        batch = GTadoc(few_files_compressed).run_all()
        per_run_sum = sum(
            GTadoc(few_files_compressed).run(task).total_kernel_launches for task in Task.all()
        )
        assert batch.total_kernel_launches < per_run_sum

    def test_run_all_launches_strictly_below_per_run_sum_many_files(self, many_files_compressed):
        batch = GTadoc(many_files_compressed).run_all()
        per_run_sum = sum(
            GTadoc(many_files_compressed).run(task).total_kernel_launches for task in Task.all()
        )
        assert batch.total_kernel_launches < per_run_sum

    def test_second_batch_charges_no_shared_work(self, few_files_compressed):
        engine = GTadoc(few_files_compressed)
        first = engine.run_all()
        second = engine.run_all()
        assert first.shared_kernel_launches > 0
        assert second.shared_kernel_launches == 0
        for task in Task.all():
            assert second[task].result == first[task].result

    def test_pcie_transfer_charged_once_per_batch(self, few_files_compressed):
        engine = GTadoc(few_files_compressed, config=GTadocConfig(needs_pcie_transfer=True))
        batch = engine.run_all()
        assert batch.init_record.pcie_bytes > 0
        for result in batch.values():
            assert result.init_record.pcie_bytes == 0
            assert result.traversal_record.pcie_bytes == 0

    def test_marginal_records_contain_only_task_kernels(self, few_files_compressed):
        batch = GTadoc(few_files_compressed).run_batch(
            [Task.WORD_COUNT], traversal=TraversalStrategy.BOTTOM_UP
        )
        marginal_names = {
            kernel.name for kernel in batch[Task.WORD_COUNT].traversal_record.kernels
        }
        assert marginal_names == {"reduceResultKernel"}
        shared_names = {kernel.name for kernel in batch.shared_record.kernels}
        assert "genLocTblKernel" in shared_names
        init_names = {kernel.name for kernel in batch.init_record.kernels}
        assert "genLocTblBoundKernel" in init_names
        assert "dataStructurePrepKernel" in init_names


class TestDeviceSession:
    def test_state_built_once_and_cached(self, tiny_compressed):
        session = DeviceSession(tiny_compressed)
        first = session.state(RULE_WEIGHTS)
        second = session.state(RULE_WEIGHTS)
        assert first is second

    def test_local_tables_pull_in_bounds_dependency(self, tiny_compressed):
        session = DeviceSession(tiny_compressed)
        session.ensure(LOCAL_TABLES)
        assert session.has_state(BOTTOMUP_BOUNDS)

    def test_fresh_shares_layout_but_not_state(self, tiny_compressed):
        session = DeviceSession(tiny_compressed)
        session.ensure(BASE_INIT, RULE_WEIGHTS)
        clone = session.fresh()
        assert clone.layout is session.layout
        assert not clone.has_state(RULE_WEIGHTS)

    def test_drain_splits_phases(self, tiny_compressed):
        session = DeviceSession(tiny_compressed)
        session.ensure(BASE_INIT, BOTTOMUP_BOUNDS, LOCAL_TABLES, RULE_WEIGHTS)
        init_record, shared_record = session.drain_new_records()
        init_names = {kernel.name for kernel in init_record.kernels}
        shared_names = {kernel.name for kernel in shared_record.kernels}
        assert "dataStructurePrepKernel" in init_names
        assert "genLocTblBoundKernel" in init_names
        assert "genLocTblKernel" in shared_names
        assert "topDownKernel" in shared_names
        # A second drain with nothing new is empty.
        init_record, shared_record = session.drain_new_records()
        assert init_record.num_launches == 0
        assert shared_record.num_launches == 0

    def test_configure_with_changed_config_invalidates(self, tiny_compressed):
        session = DeviceSession(tiny_compressed)
        session.ensure(RULE_WEIGHTS, sequence_buffers_key(3))
        session.configure(GTadocConfig(sequence_length=4))
        assert not session.has_state(RULE_WEIGHTS)
        assert not session.has_state(sequence_buffers_key(3))
        assert session.cached_keys == ()

    def test_configure_with_same_config_keeps_state(self, tiny_compressed):
        session = DeviceSession(tiny_compressed, GTadocConfig())
        session.ensure(RULE_WEIGHTS)
        session.configure(GTadocConfig())
        assert session.has_state(RULE_WEIGHTS)

    def test_layout_survives_invalidation(self, tiny_compressed):
        session = DeviceSession(tiny_compressed)
        layout = session.layout
        session.invalidate()
        assert session.layout is layout

    def test_per_length_sequence_buffers_coexist(self, tiny_compressed):
        session = DeviceSession(tiny_compressed)
        three = session.state(sequence_buffers_key(3))
        four = session.state(sequence_buffers_key(4))
        assert three.sequence_length == 3
        assert four.sequence_length == 4
        assert session.has_state(sequence_buffers_key(3))
        assert session.has_state(sequence_buffers_key(4))

    def test_engine_configure_recomputes_sequence_results(self, tiny_compressed, tiny_corpus):
        engine = GTadoc(tiny_compressed)
        first = engine.run_batch([Task.SEQUENCE_COUNT])[Task.SEQUENCE_COUNT].result
        engine.configure(GTadocConfig(sequence_length=4))
        second = engine.run_batch([Task.SEQUENCE_COUNT])[Task.SEQUENCE_COUNT].result
        reference = UncompressedAnalytics(tiny_corpus, sequence_length=4)
        assert second == reference.run(Task.SEQUENCE_COUNT)
        assert first != second


class TestMemoryPool:
    def test_bottomup_batch_reports_pooled_bytes(self, few_files_compressed):
        batch = GTadoc(few_files_compressed).run_batch(
            [Task.WORD_COUNT, Task.TERM_VECTOR], traversal=TraversalStrategy.BOTTOM_UP
        )
        assert batch.memory_pool_bytes > 0
        assert batch[Task.WORD_COUNT].memory_pool_bytes > 0

    def test_pool_shared_without_double_allocation(self, few_files_compressed):
        # Two bottom-up tasks plus sequence count on one session: the pool
        # must serve local tables and head/tail buffers side by side.
        engine = GTadoc(few_files_compressed)
        batch = engine.run_batch(
            [Task.WORD_COUNT, Task.INVERTED_INDEX, Task.SEQUENCE_COUNT],
            traversal=TraversalStrategy.BOTTOM_UP,
        )
        pool = engine.session.memory_pool
        assert pool is not None
        assert pool.check_no_overlap()
        assert batch.memory_pool_bytes == pool.used_bytes

    def test_per_task_pool_bytes_are_marginal_and_order_independent(self, few_files_compressed):
        tasks = [Task.WORD_COUNT, Task.SEQUENCE_COUNT]
        forward = GTadoc(few_files_compressed).run_batch(
            tasks, traversal=TraversalStrategy.BOTTOM_UP
        )
        reverse = GTadoc(few_files_compressed).run_batch(
            list(reversed(tasks)), traversal=TraversalStrategy.BOTTOM_UP
        )
        for task in tasks:
            # Marginal attribution is stable across batch orderings, modulo
            # the pool's 32-byte alignment padding landing on either side.
            difference = abs(forward[task].memory_pool_bytes - reverse[task].memory_pool_bytes)
            assert difference <= 64
        assert forward.memory_pool_bytes == sum(
            result.memory_pool_bytes for result in forward.values()
        )

    def test_pool_disabled_reports_zero(self, few_files_compressed):
        engine = GTadoc(few_files_compressed, config=GTadocConfig(use_memory_pool=False))
        batch = engine.run_batch([Task.WORD_COUNT], traversal=TraversalStrategy.BOTTOM_UP)
        assert batch.memory_pool_bytes == 0

    def test_single_run_pools_local_tables(self, few_files_compressed):
        outcome = GTadoc(few_files_compressed).run(
            Task.WORD_COUNT, traversal=TraversalStrategy.BOTTOM_UP
        )
        assert outcome.memory_pool_bytes > 0

    @pytest.mark.parametrize("traversal", list(TraversalStrategy))
    @pytest.mark.parametrize("task", Task.all())
    def test_one_task_fused_and_batched_report_equal_pool_bytes(
        self, few_files_compressed, task, traversal
    ):
        # Both entry points report the pool growth from just before the
        # task's program ensured its state.
        engine = GTadoc(few_files_compressed)
        batched = engine.run_batch([task], traversal=traversal, session=engine.session.fresh())
        fused = engine.run_fused([task], traversal=traversal, session=engine.session.fresh())
        assert fused[task].memory_pool_bytes == batched[task].memory_pool_bytes


class TestPlanRegistry:
    """Each task's plan is its row of the family table, run by the one executor."""

    def test_every_task_has_a_plan(self):
        # Every task — the classic six plus relational — has a family;
        # ``Task.all()`` names only the spec-free classic tasks.
        assert set(TASK_FAMILIES) == set(Task)
        assert set(Task.all()) == set(Task) - {Task.RELATIONAL}

    def test_unknown_task_rejected(self, tiny_compressed):
        with pytest.raises(ValueError):
            GTadoc(tiny_compressed).run_batch(["not_a_task"])

    def test_corpus_plan_state_requirements(self):
        config = GTadocConfig()
        assert required_state({Task.WORD_COUNT: TraversalStrategy.TOP_DOWN}, config) == (
            RULE_WEIGHTS,
        )
        assert required_state({Task.WORD_COUNT: TraversalStrategy.BOTTOM_UP}, config) == (
            BOTTOMUP_BOUNDS,
            LOCAL_TABLES,
        )

    def test_file_plan_state_requirements(self):
        assert required_state({Task.TERM_VECTOR: TraversalStrategy.TOP_DOWN}, GTadocConfig()) == (
            FILE_WEIGHTS,
        )

    def test_co_batched_corpus_tasks_read_the_per_file_primitive(self):
        program = {
            Task.WORD_COUNT: TraversalStrategy.BOTTOM_UP,
            Task.TERM_VECTOR: TraversalStrategy.TOP_DOWN,
        }
        assert execution_strategies(program) == {
            Task.WORD_COUNT: TraversalStrategy.TOP_DOWN,
            Task.TERM_VECTOR: TraversalStrategy.TOP_DOWN,
        }
        # The corpus task pulls in neither the rule weights nor local tables.
        assert required_state(program, GTadocConfig()) == (FILE_WEIGHTS,)

    def test_sequence_plan_fixed_strategy_and_state(self):
        assert TASK_FAMILIES[Task.SEQUENCE_COUNT].strategy is TraversalStrategy.TOP_DOWN
        config = GTadocConfig(sequence_length=4)
        assert sequence_buffers_key(4) in required_state(
            {Task.SEQUENCE_COUNT: TraversalStrategy.TOP_DOWN}, config
        )
