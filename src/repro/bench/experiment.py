"""Experiment runner: every engine, every dataset, every platform.

The runner opens every engine through the unified backend registry
(:func:`repro.api.open_backend`) and issues
:class:`~repro.api.query.Query` objects against the
:class:`~repro.api.backend.AnalyticsBackend` protocol — the same front
door the CLI and the examples use.  Functional runs are cached (they
are platform-independent) and priced under each platform's cost model,
applying the paper-scale extrapolation described in
:mod:`repro.perf.extrapolation`.  It produces :class:`SpeedupRow`
records — one per (dataset, task, platform) — which the benchmark
scripts turn into the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analytics.base import Task
from repro.api import AnalyticsBackend, Query, open_backend
from repro.baselines.cpu_tadoc import CpuTadocRunResult
from repro.baselines.distributed import DistributedRunResult
from repro.baselines.gpu_uncompressed import GpuUncompressedRunResult
from repro.compression.compressor import CompressedCorpus, compress_corpus
from repro.core.engine import GTadoc, GTadocBatchResult, GTadocConfig, GTadocRunResult
from repro.core.strategy import TraversalStrategy
from repro.data.corpus import Corpus
from repro.data.generators import DATASET_SPECS, DatasetSpec, generate_dataset
from repro.perf.cost_model import ClusterCostModel, CpuCostModel, GpuCostModel
from repro.perf.counters import PhaseTiming
from repro.perf.extrapolation import (
    dataset_scale_factor,
    extrapolate_counter,
    extrapolate_gpu_record,
)
from repro.perf.platforms import CLUSTER_PLATFORM, Platform, list_platforms

__all__ = [
    "ExperimentConfig",
    "DatasetBundle",
    "SpeedupRow",
    "BatchAmortization",
    "ExperimentRunner",
]


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiments."""

    #: Token-volume multiplier of the synthetic analogues.
    dataset_scale: float = 0.25
    #: Generator seed (results are deterministic for a given seed).
    seed: int = 2021
    #: Sequence length for sequence count.
    sequence_length: int = 3
    #: Extrapolate measured work to the paper's Table II scale.
    extrapolate_to_paper_scale: bool = True
    #: Dataset keys whose compressed data does not fit GPU memory at paper
    #: scale and therefore pays PCIe transfers (the paper's "large datasets").
    pcie_datasets: Tuple[str, ...] = ("C",)
    #: Dataset keys whose TADOC baseline runs on the 10-node cluster.
    cluster_datasets: Tuple[str, ...] = ("C",)


@dataclass
class DatasetBundle:
    """A generated dataset analogue plus its compressed form."""

    key: str
    spec: DatasetSpec
    corpus: Corpus
    compressed: CompressedCorpus
    extrapolation_factor: float

    @property
    def uses_cluster_baseline(self) -> bool:
        return self.spec.cluster_baseline


@dataclass
class SpeedupRow:
    """One cell of Figure 9/10: a dataset x task x platform comparison."""

    dataset: str
    task: str
    platform: str
    baseline: str
    gtadoc: PhaseTiming
    tadoc: PhaseTiming

    @property
    def speedup_total(self) -> float:
        return self.tadoc.total / self.gtadoc.total if self.gtadoc.total else float("inf")

    @property
    def speedup_initialization(self) -> float:
        if self.gtadoc.initialization <= 0:
            return float("inf")
        return self.tadoc.initialization / self.gtadoc.initialization

    @property
    def speedup_traversal(self) -> float:
        if self.gtadoc.traversal <= 0:
            return float("inf")
        return self.tadoc.traversal / self.gtadoc.traversal


@dataclass
class BatchAmortization:
    """Batched vs. per-task execution of one dataset's full task suite.

    ``sequential_*`` totals are summed over fresh single-task runs;
    ``batch_*`` totals come from one :meth:`GTadoc.run_batch` over the
    same tasks (shared init + shared state + per-task marginals).
    """

    dataset: str
    tasks: Tuple[Task, ...]
    sequential_launches: int
    batch_launches: int
    sequential_ops: float
    batch_ops: float
    sequential_init_launches: int
    batch_init_launches: int
    sequential_init_ops: float
    batch_init_ops: float
    results_match: bool

    @property
    def launch_reduction(self) -> float:
        """Fraction of kernel launches removed by batching."""
        if self.sequential_launches <= 0:
            return 0.0
        return 1.0 - self.batch_launches / self.sequential_launches

    @property
    def ops_reduction(self) -> float:
        """Fraction of simulated compute ops removed by batching."""
        if self.sequential_ops <= 0:
            return 0.0
        return 1.0 - self.batch_ops / self.sequential_ops


class ExperimentRunner:
    """Prepare datasets, run engines once, price them per platform."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()
        self._bundles: Dict[str, DatasetBundle] = {}
        self._gtadoc_runs: Dict[Tuple[str, Task, Optional[TraversalStrategy]], GTadocRunResult] = {}
        self._gtadoc_batches: Dict[
            Tuple[str, Tuple[Task, ...], Optional[TraversalStrategy]], GTadocBatchResult
        ] = {}
        self._cpu_runs: Dict[Tuple[str, Task], CpuTadocRunResult] = {}
        self._distributed_runs: Dict[Tuple[str, Task], DistributedRunResult] = {}
        self._gpu_uncompressed_runs: Dict[Tuple[str, Task], GpuUncompressedRunResult] = {}
        self._backends: Dict[Tuple[str, str], AnalyticsBackend] = {}

    # -- dataset preparation ----------------------------------------------------------------
    def bundle(self, key: str) -> DatasetBundle:
        """Generate and compress dataset ``key`` (cached)."""
        if key not in self._bundles:
            spec = DATASET_SPECS[key].scaled(self.config.dataset_scale)
            corpus = generate_dataset(key, scale=self.config.dataset_scale, seed=self.config.seed)
            compressed = compress_corpus(corpus)
            if self.config.extrapolate_to_paper_scale:
                factor = dataset_scale_factor(spec.paper_rules, len(compressed.grammar))
            else:
                factor = 1.0
            self._bundles[key] = DatasetBundle(
                key=key,
                spec=spec,
                corpus=corpus,
                compressed=compressed,
                extrapolation_factor=factor,
            )
        return self._bundles[key]

    # -- backends (one registry front door for every engine) -------------------------------------
    def backend(self, key: str, name: str) -> AnalyticsBackend:
        """The (cached) registered backend ``name`` for dataset ``key``.

        The G-TADOC backend is opened with ``amortize=False`` so each
        query pays the full per-query cost the paper's figures measure
        (use :meth:`gtadoc_batch_run` for the amortized serving path).
        """
        cache_key = (key, name)
        if cache_key not in self._backends:
            bundle = self.bundle(key)
            options: Dict[str, object] = {}
            source: object = bundle.corpus
            if name == "gtadoc":
                source = bundle.compressed
                options = {
                    "config": GTadocConfig(
                        sequence_length=self.config.sequence_length,
                        needs_pcie_transfer=key in self.config.pcie_datasets,
                    ),
                    "amortize": False,
                }
            elif name == "cpu":
                source = bundle.compressed
                options = {"sequence_length": self.config.sequence_length}
            elif name in ("parallel", "distributed", "gpu_uncompressed", "reference"):
                options = {"sequence_length": self.config.sequence_length}
                if name == "gpu_uncompressed":
                    options["needs_pcie_transfer"] = key in self.config.pcie_datasets
            self._backends[cache_key] = open_backend(name, source, **options)
        return self._backends[cache_key]

    # -- engine runs (functional, cached) --------------------------------------------------------
    def gtadoc_engine(self, key: str) -> GTadoc:
        """The (cached) G-TADOC engine for dataset ``key``."""
        return self.backend(key, "gtadoc").engine

    def gtadoc_run(
        self, key: str, task: Task, traversal: Optional[TraversalStrategy] = None
    ) -> GTadocRunResult:
        cache_key = (key, task, traversal)
        if cache_key not in self._gtadoc_runs:
            outcome = self.backend(key, "gtadoc").run(Query(task=task, traversal=traversal))
            self._gtadoc_runs[cache_key] = outcome.raw
        return self._gtadoc_runs[cache_key]

    def gtadoc_batch_run(
        self,
        key: str,
        tasks: Optional[Tuple[Task, ...]] = None,
        traversal: Optional[TraversalStrategy] = None,
    ) -> GTadocBatchResult:
        """One amortized batch over ``tasks`` (cached, isolated session).

        The batch runs on a fresh session so the recorded shared work is
        exactly one batch's worth, regardless of what ran before.
        """
        tasks = tuple(Task.all() if tasks is None else tasks)
        cache_key = (key, tasks, traversal)
        if cache_key not in self._gtadoc_batches:
            engine = self.gtadoc_engine(key)
            self._gtadoc_batches[cache_key] = engine.run_batch(
                tasks, traversal=traversal, session=engine.session.fresh()
            )
        return self._gtadoc_batches[cache_key]

    def batch_amortization(
        self, key: str, tasks: Optional[Tuple[Task, ...]] = None
    ) -> BatchAmortization:
        """Compare one batched execution with per-task runs on dataset ``key``."""
        tasks = tuple(Task.all() if tasks is None else tasks)
        singles = [self.gtadoc_run(key, task) for task in tasks]
        batch = self.gtadoc_batch_run(key, tasks)

        sequential_launches = sum(run.total_kernel_launches for run in singles)
        sequential_ops = sum(
            run.init_record.total_ops + run.traversal_record.total_ops for run in singles
        )
        sequential_init_launches = sum(run.init_record.num_launches for run in singles)
        sequential_init_ops = sum(run.init_record.total_ops for run in singles)

        batch_launches = batch.total_kernel_launches
        batch_ops = (
            batch.init_record.total_ops
            + batch.shared_record.total_ops
            + sum(
                result.init_record.total_ops + result.traversal_record.total_ops
                for result in batch.values()
            )
        )
        results_match = all(batch[task].result == self.gtadoc_run(key, task).result for task in tasks)
        return BatchAmortization(
            dataset=key,
            tasks=tasks,
            sequential_launches=sequential_launches,
            batch_launches=batch_launches,
            sequential_ops=sequential_ops,
            batch_ops=batch_ops,
            sequential_init_launches=sequential_init_launches,
            batch_init_launches=batch.init_record.num_launches,
            sequential_init_ops=sequential_init_ops,
            batch_init_ops=batch.init_record.total_ops,
            results_match=results_match,
        )

    def cpu_tadoc_run(self, key: str, task: Task) -> CpuTadocRunResult:
        cache_key = (key, task)
        if cache_key not in self._cpu_runs:
            self._cpu_runs[cache_key] = self.backend(key, "cpu").run(Query(task=task)).raw
        return self._cpu_runs[cache_key]

    def distributed_run(self, key: str, task: Task) -> DistributedRunResult:
        cache_key = (key, task)
        if cache_key not in self._distributed_runs:
            self._distributed_runs[cache_key] = (
                self.backend(key, "distributed").run(Query(task=task)).raw
            )
        return self._distributed_runs[cache_key]

    def gpu_uncompressed_run(self, key: str, task: Task) -> GpuUncompressedRunResult:
        cache_key = (key, task)
        if cache_key not in self._gpu_uncompressed_runs:
            self._gpu_uncompressed_runs[cache_key] = (
                self.backend(key, "gpu_uncompressed").run(Query(task=task)).raw
            )
        return self._gpu_uncompressed_runs[cache_key]

    # -- pricing --------------------------------------------------------------------------------------
    def _factor(self, key: str) -> float:
        return self.bundle(key).extrapolation_factor

    def gtadoc_times(self, key: str, task: Task, platform: Platform) -> PhaseTiming:
        """Modelled G-TADOC phase times on ``platform`` for (dataset, task)."""
        if platform.gpu is None:
            raise ValueError(f"platform {platform.key} has no GPU")
        run = self.gtadoc_run(key, task)
        factor = self._factor(key)
        gpu_model = GpuCostModel(platform.gpu)
        host_model = CpuCostModel(platform.cpu)
        init_record = extrapolate_gpu_record(run.init_record, factor)
        traversal_record = extrapolate_gpu_record(run.traversal_record, factor)
        return PhaseTiming(
            initialization=gpu_model.time_seconds(init_record, host_model),
            traversal=gpu_model.time_seconds(traversal_record, host_model),
        )

    def cpu_tadoc_times(self, key: str, task: Task, platform: Platform) -> PhaseTiming:
        """Modelled sequential TADOC phase times on ``platform``'s CPU."""
        run = self.cpu_tadoc_run(key, task)
        factor = self._factor(key)
        model = CpuCostModel(platform.cpu, threads=1)
        return PhaseTiming(
            initialization=model.time_seconds(extrapolate_counter(run.init_counter, factor)),
            traversal=model.time_seconds(extrapolate_counter(run.traversal_counter, factor)),
        )

    def cluster_times(self, key: str, task: Task) -> PhaseTiming:
        """Modelled distributed TADOC phase times on the 10-node cluster."""
        run = self.distributed_run(key, task)
        factor = self._factor(key)
        cluster_model = ClusterCostModel(
            node_spec=CLUSTER_PLATFORM.cpu,
            num_nodes=CLUSTER_PLATFORM.num_nodes,
            network_bandwidth_gb_s=CLUSTER_PLATFORM.network_bandwidth_gb_s,
            network_latency_s=CLUSTER_PLATFORM.network_latency_s,
        )
        init_counters = [
            extrapolate_counter(counter, factor) for counter in run.per_node_init_counters()
        ]
        traversal_counters = [
            extrapolate_counter(counter, factor) for counter in run.per_node_traversal_counters()
        ]
        shuffle = extrapolate_counter(run.shuffle_counter, factor)
        # The final merge is a distributed reduce: the merge work is spread
        # across the nodes (each reduces a key range), not run on a single
        # driver thread.
        merge_model = CpuCostModel(CLUSTER_PLATFORM.cpu, threads=cluster_model.threads_per_node)
        merge_counter = extrapolate_counter(run.merge_counter, factor).scaled(
            1.0 / CLUSTER_PLATFORM.num_nodes
        )
        merge_time = merge_model.time_seconds(merge_counter)
        return PhaseTiming(
            initialization=cluster_model.time_seconds(init_counters, None, num_stages=1),
            traversal=cluster_model.time_seconds(traversal_counters, shuffle, num_stages=1)
            + merge_time,
        )

    def gpu_uncompressed_times(self, key: str, task: Task, platform: Platform) -> PhaseTiming:
        """Modelled GPU uncompressed-analytics time on ``platform``."""
        if platform.gpu is None:
            raise ValueError(f"platform {platform.key} has no GPU")
        run = self.gpu_uncompressed_run(key, task)
        # Uncompressed work scales with tokens, not rules; keep the ratio of
        # tokens to rules fixed by reusing the same extrapolation factor.
        record = extrapolate_gpu_record(run.record, self._factor(key))
        model = GpuCostModel(platform.gpu)
        return PhaseTiming(initialization=0.0, traversal=model.time_seconds(record))

    # -- grids --------------------------------------------------------------------------------------------
    def baseline_times(self, key: str, task: Task, platform: Platform) -> Tuple[str, PhaseTiming]:
        """The paper's TADOC baseline for (dataset, platform): cluster for C."""
        if key in self.config.cluster_datasets:
            return "TADOC (10-node cluster)", self.cluster_times(key, task)
        return "TADOC (sequential CPU)", self.cpu_tadoc_times(key, task, platform)

    def speedup_row(self, key: str, task: Task, platform: Platform) -> SpeedupRow:
        baseline_name, tadoc_times = self.baseline_times(key, task, platform)
        return SpeedupRow(
            dataset=key,
            task=task.value,
            platform=platform.key,
            baseline=baseline_name,
            gtadoc=self.gtadoc_times(key, task, platform),
            tadoc=tadoc_times,
        )

    def speedup_grid(
        self,
        datasets: Optional[List[str]] = None,
        tasks: Optional[List[Task]] = None,
        platforms: Optional[List[Platform]] = None,
    ) -> List[SpeedupRow]:
        """The full Figure 9/10 grid (datasets x tasks x GPU platforms)."""
        datasets = datasets or sorted(DATASET_SPECS)
        tasks = tasks or Task.all()
        platforms = platforms or list_platforms(gpu_only=True)
        rows: List[SpeedupRow] = []
        for platform in platforms:
            for dataset in datasets:
                for task in tasks:
                    rows.append(self.speedup_row(dataset, task, platform))
        return rows
