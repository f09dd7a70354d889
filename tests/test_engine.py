"""Integration tests for the G-TADOC engine (all tasks vs the reference)."""

from __future__ import annotations

import pytest

from repro.analytics.base import Task, results_equal
from repro.core.engine import GTadoc, GTadocConfig
from repro.core.strategy import TraversalStrategy
from repro.core.tuning import GreedyParameterTuner
from repro.perf.specs import TESLA_V100


@pytest.fixture(scope="module")
def tiny_engine(tiny_compressed) -> GTadoc:
    return GTadoc(tiny_compressed)


@pytest.fixture(scope="module")
def many_files_engine(many_files_compressed) -> GTadoc:
    return GTadoc(many_files_compressed)


@pytest.fixture(scope="module")
def few_files_engine(few_files_compressed) -> GTadoc:
    return GTadoc(few_files_compressed)


class TestCorrectness:
    @pytest.mark.parametrize("task", Task.all())
    def test_tiny_corpus_all_tasks(self, tiny_engine, tiny_reference, task):
        outcome = tiny_engine.run(task)
        assert results_equal(task, outcome.result, tiny_reference.run(task))

    @pytest.mark.parametrize("task", Task.all())
    def test_many_files_all_tasks(self, many_files_engine, many_files_reference, task):
        outcome = many_files_engine.run(task)
        assert results_equal(task, outcome.result, many_files_reference.run(task))

    @pytest.mark.parametrize("task", Task.all())
    def test_few_files_all_tasks(self, few_files_engine, few_files_reference, task):
        outcome = few_files_engine.run(task)
        assert results_equal(task, outcome.result, few_files_reference.run(task))

    @pytest.mark.parametrize(
        "task",
        [t for t in Task.all() if t is not Task.SEQUENCE_COUNT],
    )
    @pytest.mark.parametrize("strategy", [TraversalStrategy.TOP_DOWN, TraversalStrategy.BOTTOM_UP])
    def test_forced_traversal_directions(self, few_files_engine, few_files_reference, task, strategy):
        outcome = few_files_engine.run(task, traversal=strategy)
        assert outcome.strategy is strategy
        assert results_equal(task, outcome.result, few_files_reference.run(task))

    def test_single_file_corpus(self, single_file_compressed, single_file_corpus):
        from repro.analytics.reference import UncompressedAnalytics

        engine = GTadoc(single_file_compressed)
        reference = UncompressedAnalytics(single_file_corpus)
        for task in Task.all():
            assert results_equal(task, engine.run(task).result, reference.run(task))

    def test_string_task_names_accepted(self, tiny_engine, tiny_reference):
        outcome = tiny_engine.run("word_count")
        assert results_equal(Task.WORD_COUNT, outcome.result, tiny_reference.run(Task.WORD_COUNT))

    def test_custom_sequence_length(self, tiny_compressed, tiny_corpus):
        from repro.analytics.reference import UncompressedAnalytics

        engine = GTadoc(tiny_compressed, config=GTadocConfig(sequence_length=4))
        reference = UncompressedAnalytics(tiny_corpus, sequence_length=4)
        outcome = engine.run(Task.SEQUENCE_COUNT)
        assert results_equal(Task.SEQUENCE_COUNT, outcome.result, reference.run(Task.SEQUENCE_COUNT))

    def test_run_all_covers_every_task(self, tiny_engine):
        outcomes = tiny_engine.run_all()
        assert set(outcomes) == set(Task.all())


class TestExecutionMetadata:
    def test_phases_are_recorded_separately(self, few_files_engine):
        outcome = few_files_engine.run(Task.WORD_COUNT)
        assert outcome.init_record.num_launches >= 1
        assert outcome.traversal_record.num_launches >= 2

    def test_topdown_kernels_present(self, few_files_engine):
        outcome = few_files_engine.run(Task.WORD_COUNT, traversal=TraversalStrategy.TOP_DOWN)
        names = {kernel.name for kernel in outcome.traversal_record.kernels}
        assert "topDownKernel" in names
        assert "reduceResultKernel" in names

    def test_bottomup_kernels_split_across_phases(self, few_files_engine):
        outcome = few_files_engine.run(Task.WORD_COUNT, traversal=TraversalStrategy.BOTTOM_UP)
        init_names = {kernel.name for kernel in outcome.init_record.kernels}
        traversal_names = {kernel.name for kernel in outcome.traversal_record.kernels}
        assert "genLocTblBoundKernel" in init_names
        assert "genLocTblKernel" in traversal_names

    def test_sequence_kernels_split_across_phases(self, few_files_engine):
        outcome = few_files_engine.run(Task.SEQUENCE_COUNT)
        init_names = {kernel.name for kernel in outcome.init_record.kernels}
        traversal_names = {kernel.name for kernel in outcome.traversal_record.kernels}
        assert "initHeadTailKernel" in init_names
        assert "sequenceRuleKernel" in traversal_names
        assert "sequenceMergeKernel" in traversal_names

    def test_memory_pool_used_by_default(self, few_files_engine):
        outcome = few_files_engine.run(Task.WORD_COUNT, traversal=TraversalStrategy.BOTTOM_UP)
        assert outcome.memory_pool_bytes > 0

    def test_memory_pool_can_be_disabled(self, few_files_compressed):
        engine = GTadoc(few_files_compressed, config=GTadocConfig(use_memory_pool=False))
        outcome = engine.run(Task.WORD_COUNT, traversal=TraversalStrategy.BOTTOM_UP)
        assert outcome.memory_pool_bytes == 0

    def test_pcie_transfer_recorded_when_enabled(self, few_files_compressed):
        engine = GTadoc(few_files_compressed, config=GTadocConfig(needs_pcie_transfer=True))
        outcome = engine.run(Task.WORD_COUNT)
        assert outcome.init_record.pcie_bytes > 0

    def test_strategy_decision_absent_when_forced(self, few_files_engine):
        outcome = few_files_engine.run(Task.WORD_COUNT, traversal=TraversalStrategy.TOP_DOWN)
        assert outcome.strategy_decision is None

    def test_strategy_decision_present_when_selected(self, few_files_engine):
        outcome = few_files_engine.run(Task.WORD_COUNT)
        assert outcome.strategy_decision is not None

    def test_scheduler_summary_reported(self, few_files_engine):
        outcome = few_files_engine.run(Task.WORD_COUNT)
        assert outcome.scheduler_summary["rules"] == few_files_engine.layout.num_rules

    def test_scheduler_summary_is_a_copy_per_batch(self, few_files_engine):
        first = few_files_engine.run_fused([Task.WORD_COUNT])
        first.scheduler_summary["rules"] = -1.0
        first.scheduler_summary.clear()
        second = few_files_engine.run_fused([Task.WORD_COUNT])
        assert second.scheduler_summary["rules"] == few_files_engine.layout.num_rules
        assert second.scheduler_summary is not first.scheduler_summary

    def test_atomic_traffic_recorded(self, few_files_engine):
        outcome = few_files_engine.run(Task.WORD_COUNT, traversal=TraversalStrategy.TOP_DOWN)
        assert sum(kernel.atomic_ops for kernel in outcome.traversal_record.kernels) > 0

    def test_layout_cached_across_runs(self, few_files_engine):
        first = few_files_engine.layout
        few_files_engine.run(Task.SORT)
        assert few_files_engine.layout is first


class TestTuning:
    def test_greedy_tuner_returns_candidate_from_grid(self, tiny_compressed):
        tuner = GreedyParameterTuner(
            tiny_compressed,
            TESLA_V100,
            threshold_candidates=(8.0, 16.0),
            group_candidates=(64, 128),
        )
        outcome = tuner.tune()
        assert outcome.config.oversize_threshold in (8.0, 16.0)
        assert outcome.config.max_group_size in (64, 128)
        assert set(outcome.evaluated) == {"oversize_threshold", "max_group_size"}

    def test_tuned_config_still_correct(self, tiny_compressed, tiny_reference):
        tuner = GreedyParameterTuner(
            tiny_compressed, TESLA_V100, threshold_candidates=(4.0,), group_candidates=(32,)
        )
        config = tuner.tune().config
        engine = GTadoc(tiny_compressed, config=config)
        outcome = engine.run(Task.WORD_COUNT)
        assert results_equal(Task.WORD_COUNT, outcome.result, tiny_reference.run(Task.WORD_COUNT))
