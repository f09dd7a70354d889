"""Tests for the experiment harness, aggregation, table formatting and the CLI."""

from __future__ import annotations

import re

import pytest

from repro.analytics.base import Task
from repro.bench.aggregate import geometric_mean, summarize_rows
from repro.bench.experiment import ExperimentConfig, ExperimentRunner
from repro.bench.tables import format_table, save_report
from repro.cli import build_parser, main
from repro.perf.counters import PhaseTiming
from repro.perf.platforms import CLUSTER_PLATFORM, PASCAL, VOLTA


@pytest.fixture(scope="module")
def small_runner() -> ExperimentRunner:
    """A runner over very small analogues so harness tests stay fast."""
    return ExperimentRunner(
        ExperimentConfig(dataset_scale=0.04, cluster_datasets=("C",), pcie_datasets=("C",))
    )


class TestExperimentRunner:
    def test_bundle_is_cached(self, small_runner):
        assert small_runner.bundle("D") is small_runner.bundle("D")

    def test_extrapolation_factor_above_one(self, small_runner):
        assert small_runner.bundle("D").extrapolation_factor > 1.0

    def test_gtadoc_and_cpu_results_agree(self, small_runner):
        gtadoc = small_runner.gtadoc_run("D", Task.WORD_COUNT)
        cpu = small_runner.cpu_tadoc_run("D", Task.WORD_COUNT)
        assert gtadoc.result == cpu.result

    def test_phase_timings_positive(self, small_runner):
        timing = small_runner.gtadoc_times("D", Task.WORD_COUNT, PASCAL)
        assert timing.initialization > 0
        assert timing.traversal > 0

    def test_gpu_platform_required_for_gtadoc_times(self, small_runner):
        with pytest.raises(ValueError):
            small_runner.gtadoc_times("D", Task.WORD_COUNT, CLUSTER_PLATFORM)

    def test_speedup_row_shows_gtadoc_winning(self, small_runner):
        row = small_runner.speedup_row("D", Task.WORD_COUNT, PASCAL)
        assert row.speedup_total > 1.0

    def test_sequence_tasks_speed_up_more_than_word_count(self, small_runner):
        """The paper's key per-task ordering."""
        word_count = small_runner.speedup_row("B", Task.WORD_COUNT, PASCAL).speedup_total
        sequence = small_runner.speedup_row("B", Task.SEQUENCE_COUNT, PASCAL).speedup_total
        assert sequence > word_count

    def test_baseline_for_dataset_c_is_cluster(self, small_runner):
        baseline_name, _times = small_runner.baseline_times("C", Task.WORD_COUNT, PASCAL)
        assert "cluster" in baseline_name

    def test_baseline_for_dataset_b_is_sequential(self, small_runner):
        baseline_name, _times = small_runner.baseline_times("B", Task.WORD_COUNT, PASCAL)
        assert "sequential" in baseline_name

    def test_speedup_grid_dimensions(self, small_runner):
        rows = small_runner.speedup_grid(datasets=["B", "D"], platforms=[PASCAL, VOLTA])
        assert len(rows) == 2 * 6 * 2

    def test_volta_not_slower_than_pascal(self, small_runner):
        pascal = small_runner.gtadoc_times("B", Task.WORD_COUNT, PASCAL).total
        volta = small_runner.gtadoc_times("B", Task.WORD_COUNT, VOLTA).total
        assert volta <= pascal * 1.5

    def test_gpu_uncompressed_times_positive(self, small_runner):
        timing = small_runner.gpu_uncompressed_times("B", Task.SORT, VOLTA)
        assert timing.total > 0

    def test_batch_amortization_reduces_work(self, small_runner):
        stats = small_runner.batch_amortization("D")
        assert stats.results_match
        assert stats.batch_launches < stats.sequential_launches
        assert stats.batch_ops < stats.sequential_ops
        assert stats.batch_init_launches < stats.sequential_init_launches
        assert 0.0 < stats.launch_reduction < 1.0
        assert 0.0 < stats.ops_reduction < 1.0

    def test_batch_run_cached(self, small_runner):
        assert small_runner.gtadoc_batch_run("D") is small_runner.gtadoc_batch_run("D")

    def test_runner_goes_through_backend_registry(self, small_runner):
        from repro.api import AnalyticsBackend

        backend = small_runner.backend("D", "gtadoc")
        assert isinstance(backend, AnalyticsBackend)
        assert backend is small_runner.backend("D", "gtadoc")
        # The runner's per-query semantics stay fresh-session (paper cost).
        assert not backend.amortize

    def test_runner_backends_cover_all_engines(self, small_runner):
        for name in ("cpu", "distributed", "gpu_uncompressed"):
            backend = small_runner.backend("D", name)
            assert backend.capabilities().name == name


class TestAggregation:
    def test_geometric_mean_basics(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0, 5]) == pytest.approx(5.0)

    def test_summarize_rows_keys(self, small_runner):
        rows = small_runner.speedup_grid(datasets=["B", "D"], platforms=[PASCAL])
        summary = summarize_rows(rows)
        for key in (
            "overall_speedup",
            "single_node_speedup",
            "sequence_count_speedup",
            "initialization_speedup",
            "traversal_speedup",
        ):
            assert summary[key] > 0

    def test_time_savings_between_zero_and_one(self, small_runner):
        rows = small_runner.speedup_grid(datasets=["D"], platforms=[PASCAL])
        summary = summarize_rows(rows)
        assert 0.0 <= summary["initialization_time_saving"] <= 1.0
        assert 0.0 <= summary["traversal_time_saving"] <= 1.0


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len({len(line) for line in lines[3:]}) <= 2

    def test_save_report_writes_file(self, tmp_path):
        path = save_report("unit_test_report", "hello", directory=tmp_path)
        assert path.read_text().strip() == "hello"


class TestPhaseTimingHelpers:
    def test_zero_time_gives_infinite_speedup(self):
        fast = PhaseTiming(initialization=0.0, traversal=0.0)
        slow = PhaseTiming(initialization=1.0, traversal=1.0)
        speedups = fast.speedup_over(slow)
        assert speedups["total"] == float("inf")


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["compress", "--dataset", "D", "--output", "x.json"])
        assert args.command == "compress"

    def test_compress_run_info_workflow(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        assert main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)]) == 0
        assert compressed_path.exists()

        assert main(["info", "--compressed", str(compressed_path)]) == 0
        captured = capsys.readouterr()
        assert "compression ratio" in captured.out

        assert main(["run", "--compressed", str(compressed_path), "--task", "word_count"]) == 0
        captured = capsys.readouterr()
        assert "top results" in captured.out

    def test_run_with_forced_traversal(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(
            [
                "run",
                "--compressed",
                str(compressed_path),
                "--task",
                "sequence_count",
                "--traversal",
                "top_down",
            ]
        ) == 0
        assert "sequence_count" in capsys.readouterr().out

    def test_compress_from_directory(self, tmp_path, capsys):
        source = tmp_path / "texts"
        source.mkdir()
        (source / "a.txt").write_text("alpha beta alpha beta gamma")
        (source / "b.txt").write_text("alpha beta gamma delta")
        output = tmp_path / "dir.json"
        assert main(["compress", "--input-dir", str(source), "--output", str(output)]) == 0
        assert output.exists()

    def test_run_all_tasks_as_batch(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(["run", "--compressed", str(compressed_path), "--task", "all"]) == 0
        out = capsys.readouterr().out
        assert "initialization charged once" in out
        # ``--task all`` covers the classic tasks; relational needs a
        # schema spec and has its own subcommand.
        for task in Task.all():
            assert task.value in out
        assert "relational" not in out

    def test_run_task_list_as_batch(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(
            ["run", "--compressed", str(compressed_path), "--task", "word_count,sort"]
        ) == 0
        out = capsys.readouterr().out
        assert "word_count" in out and "sort" in out
        assert "marginal launches" in out

    def test_run_rejects_unknown_task(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(["run", "--compressed", str(compressed_path), "--task", "bogus"]) == 2

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_run_rejects_non_positive_top(self, tmp_path, capsys, top):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(
            ["run", "--compressed", str(compressed_path), "--task", "word_count", "--top", top]
        ) == 2
        err = capsys.readouterr().err
        assert "--top must be a positive integer" in err

    def test_run_rejects_non_positive_sequence_length(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(
            [
                "run",
                "--compressed",
                str(compressed_path),
                "--task",
                "sequence_count",
                "--sequence-length",
                "0",
            ]
        ) == 2
        assert "--sequence-length must be a positive integer" in capsys.readouterr().err

    def test_run_with_sequence_length_flag(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(
            [
                "run",
                "--compressed",
                str(compressed_path),
                "--task",
                "sequence_count",
                "--sequence-length",
                "4",
                "--top",
                "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sequence_count" in out
        # Each preview row is a 4-gram: four words plus the count column.
        preview = [line for line in out.splitlines() if line.startswith("  ") and "\t" in line]
        assert preview and all(len(line.split("\t")[0].split()) == 4 for line in preview)

    @pytest.mark.parametrize("backend", ["cpu", "reference"])
    def test_run_with_alternative_backends(self, tmp_path, capsys, backend):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(
            [
                "run",
                "--compressed",
                str(compressed_path),
                "--task",
                "word_count",
                "--backend",
                backend,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"backend: {backend}" in out
        assert "top results" in out

    def test_run_rejects_traversal_on_unsupporting_backend(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(
            [
                "run",
                "--compressed",
                str(compressed_path),
                "--task",
                "word_count",
                "--backend",
                "cpu",
                "--traversal",
                "bottom_up",
            ]
        ) == 2
        assert "does not support --traversal" in capsys.readouterr().err

    def test_single_and_batch_backend_results_agree(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        main(
            ["run", "--compressed", str(compressed_path), "--task", "word_count", "--top", "5"]
        )
        single_out = capsys.readouterr().out
        main(
            [
                "run",
                "--compressed",
                str(compressed_path),
                "--task",
                "word_count,sort",
                "--top",
                "5",
            ]
        )
        batch_out = capsys.readouterr().out
        single_preview = [line for line in single_out.splitlines() if "\t" in line]
        assert single_preview
        for line in single_preview:
            assert line in batch_out

    def test_bench_rejects_cluster_platform(self, capsys):
        assert main(["bench", "--platform", "10-node cluster", "--datasets", "D"]) == 2

    def test_bench_prints_speedups(self, capsys):
        assert main(["bench", "--platform", "Pascal", "--datasets", "D", "--scale", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "word_count" in out

    def test_serve_bench_replays_trace(self, capsys):
        assert main(
            [
                "serve-bench",
                "--dataset",
                "D",
                "--scale",
                "0.05",
                "--requests",
                "24",
                "--clients",
                "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "result-cache hit rate" in out
        assert "results match serial" in out and "NO" not in out
        assert "launch reduction" in out

    def test_serve_bench_without_serial_baseline(self, tmp_path, capsys):
        compressed_path = tmp_path / "d.json"
        main(["compress", "--dataset", "D", "--scale", "0.05", "--output", str(compressed_path)])
        capsys.readouterr()
        assert main(
            [
                "serve-bench",
                "--compressed",
                str(compressed_path),
                "--requests",
                "16",
                "--no-serial-baseline",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "served launches/query" in out
        assert "serial launches/query" not in out

    def test_serve_bench_rejects_bad_arguments(self, capsys):
        assert main(["serve-bench", "--dataset", "D", "--requests", "0"]) == 2
        assert "--requests" in capsys.readouterr().err

    def test_serve_bench_async_replays_trace(self, capsys):
        assert main(
            [
                "serve-bench",
                "--dataset",
                "D",
                "--scale",
                "0.05",
                "--requests",
                "16",
                "--async",
                "--clients",
                "16",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "asyncio" in out
        assert re.search(r"clients\s*\|\s*16\b", out)
        assert "results match serial" in out and "NO" not in out

    def test_serve_bench_sharded_replays_trace(self, capsys):
        assert main(
            [
                "serve-bench",
                "--dataset",
                "D",
                "--scale",
                "0.05",
                "--requests",
                "24",
                "--clients",
                "4",
                "--shards",
                "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "threads+sharded" in out
        assert "queries per shard" in out
        assert "results match serial" in out and "NO" not in out

    def test_serve_bench_sharded_async_replays_trace(self, capsys):
        assert main(
            [
                "serve-bench",
                "--dataset",
                "D",
                "--scale",
                "0.05",
                "--requests",
                "16",
                "--shards",
                "2",
                "--async",
                "--clients",
                "16",
                "--no-serial-baseline",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "asyncio+sharded" in out
        assert "placement network" in out

    def test_serve_bench_rejects_processes_without_shards(self, capsys, monkeypatch):
        def no_dataset(*_args, **_kwargs):
            raise AssertionError("the dataset was generated before the arguments were checked")

        monkeypatch.setattr("repro.cli.generate_dataset", no_dataset)
        assert main(["serve-bench", "--dataset", "D", "--processes"]) == 2
        assert "--processes" in capsys.readouterr().err

    def test_serve_bench_process_shards_replay_trace(self, capsys):
        assert main(
            [
                "serve-bench",
                "--dataset",
                "D",
                "--scale",
                "0.05",
                "--requests",
                "12",
                "--shards",
                "2",
                "--processes",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert re.search(r"shard transport\s*\|\s*process\b", out)
        assert re.search(r"results match serial\s*\|\s*yes\b", out)

    @pytest.mark.parametrize("flag", ["--shards", "--replicas", "--clients"])
    @pytest.mark.parametrize("bad", ["0", "-1", "bogus"])
    def test_serve_bench_rejects_bad_shard_counts_at_parse_time(self, capsys, flag, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-bench", "--dataset", "D", flag, bad])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
