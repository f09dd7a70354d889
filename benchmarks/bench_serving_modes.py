"""Serving wall-clock — vectorized kernels and fused micro-batches.

The simulated kernels execute in one of two modes
(:attr:`~repro.core.session.GTadocConfig.kernel_mode`): the seed's
interpreted ``"scalar"`` path, which calls a Python callback per
simulated thread, and the ``"vector"`` path, which executes the same
kernels as numpy bulk operations over session-cached flattened
layouts.  Both produce bit-identical results *and* bit-identical
simulated launch/op counts — the only thing that changes is host
wall-clock.

This benchmark replays the same synthetic mixed-task request trace
through the serving layer once per kernel mode and once with
micro-batch fusion disabled.  Each replay makes one untimed warmup
pass (standard steady-state serving methodology: the session's
layout/weight caches are part of the serving design, and a long-lived
service is warm for all but its first requests) followed by one timed
pass, asserting that

* results and simulated kernel launches are identical across modes,
* vector mode beats scalar wall-clock on the cross-dataset aggregate
  (individual datasets are reported but not gated — tiny grammars can
  sit near the numpy fixed-overhead floor), and
* fused micro-batches launch strictly fewer kernels per query than
  the plain coalesced batching of the same trace.

Measurements are written to ``BENCH_serving.json`` at the repository
root (one entry per dataset plus the aggregate) so successive anchors
can track the serving perf curve.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.api.outcome import RunOutcome
from repro.bench.tables import format_table, save_report
from repro.compression.compressor import compress_corpus
from repro.core.session import GTadocConfig
from repro.data.generators import generate_dataset
from repro.serve import AnalyticsService, ServiceConfig, TraceConfig, synthesize_trace

#: All five Table II dataset analogues.
DATASETS = ("A", "B", "C", "D", "E")
NUM_REQUESTS = 48
#: Repo root — ``BENCH_serving.json`` lives next to README.md.
REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_serving.json"


def _replay(
    compressed, trace, *, kernel_mode: str, fuse_batches: bool = True
) -> Tuple[List[RunOutcome], "ServiceStats", float]:
    """Drive the trace through one fresh service; return outcomes/stats/seconds.

    The result cache is disabled so every request executes
    deterministically and the measured seconds reflect kernel
    execution, not cache hits.  The
    trace is replayed twice — one untimed warmup pass, one timed pass —
    so the seconds measure the warm steady state of a long-lived
    service rather than first-request initialization.
    """
    service = AnalyticsService(
        compressed,
        engine_config=GTadocConfig(kernel_mode=kernel_mode),
        service_config=ServiceConfig(cache_results=False, fuse_batches=fuse_batches),
    )
    service.run_batch(trace)  # warmup: populate session layout/weight caches
    started = time.perf_counter()
    outcomes = service.run_batch(trace)
    elapsed = time.perf_counter() - started
    return outcomes, service.stats(), elapsed


def _build_report(scale: float) -> str:
    rows = []
    trajectory: Dict[str, object] = {
        "benchmark": "bench_serving_modes",
        "scale": scale,
        "num_requests": NUM_REQUESTS,
        "warmup_passes": 1,
        "datasets": {},
    }
    total_scalar = 0.0
    total_vector = 0.0
    for dataset in DATASETS:
        compressed = compress_corpus(generate_dataset(dataset, scale=scale))
        trace = synthesize_trace(
            compressed.file_names, TraceConfig(num_requests=NUM_REQUESTS, seed=17)
        )

        scalar_outcomes, scalar_stats, scalar_seconds = _replay(
            compressed, trace, kernel_mode="scalar"
        )
        vector_outcomes, vector_stats, vector_seconds = _replay(
            compressed, trace, kernel_mode="vector"
        )
        _, unfused_stats, _ = _replay(
            compressed, trace, kernel_mode="vector", fuse_batches=False
        )

        results_match = all(
            s.result == v.result for s, v in zip(scalar_outcomes, vector_outcomes)
        )
        assert results_match, f"vector results diverged from scalar on dataset {dataset}"
        assert scalar_stats.kernel_launches == vector_stats.kernel_launches, (
            f"kernel modes must charge identical simulated launches on {dataset}"
        )
        assert vector_stats.kernel_launches < unfused_stats.kernel_launches, (
            f"fused micro-batches must launch strictly fewer kernels on {dataset}"
        )
        speedup = scalar_seconds / vector_seconds if vector_seconds > 0 else float("inf")
        total_scalar += scalar_seconds
        total_vector += vector_seconds

        trajectory["datasets"][dataset] = {
            "scalar": {
                "elapsed_seconds": scalar_seconds,
                "kernel_launches": scalar_stats.kernel_launches,
                "launches_per_query": scalar_stats.launches_per_query,
            },
            "vector": {
                "elapsed_seconds": vector_seconds,
                "kernel_launches": vector_stats.kernel_launches,
                "launches_per_query": vector_stats.launches_per_query,
            },
            "unfused_vector": {
                "kernel_launches": unfused_stats.kernel_launches,
                "launches_per_query": unfused_stats.launches_per_query,
            },
            "wall_clock_speedup_vs_scalar": speedup,
            "fused_launch_reduction": 1.0
            - vector_stats.kernel_launches / unfused_stats.kernel_launches,
            "results_match": results_match,
        }
        rows.append(
            [
                dataset,
                f"{scalar_seconds:7.3f}s",
                f"{vector_seconds:7.3f}s",
                f"{speedup:6.1f}x",
                f"{unfused_stats.launches_per_query:7.2f}",
                f"{vector_stats.launches_per_query:7.2f}",
            ]
        )

    aggregate_speedup = total_scalar / total_vector if total_vector > 0 else float("inf")
    assert aggregate_speedup > 1.0, (
        "vector mode must beat scalar wall-clock on the aggregate "
        f"(scalar {total_scalar:.3f}s vs vector {total_vector:.3f}s)"
    )
    trajectory["aggregate"] = {
        "scalar_seconds": total_scalar,
        "vector_seconds": total_vector,
        "wall_clock_speedup_vs_scalar": aggregate_speedup,
    }
    rows.append(
        [
            "TOTAL",
            f"{total_scalar:7.3f}s",
            f"{total_vector:7.3f}s",
            f"{aggregate_speedup:6.1f}x",
            "",
            "",
        ]
    )

    BENCH_JSON.write_text(json.dumps(trajectory, indent=2) + "\n")
    table = format_table(
        [
            "dataset",
            "scalar wall",
            "vector wall",
            "speedup",
            "coalesced launches/q",
            "fused launches/q",
        ],
        rows,
        title=(
            f"Warm serving trace ({NUM_REQUESTS} mixed requests): scalar vs "
            "vector kernels, coalesced vs fused micro-batches"
        ),
    )
    summary = (
        "Vector mode replays the trace with bit-identical results and "
        "identical simulated launch counts at a fraction of the scalar "
        f"wall-clock; trajectories written to {BENCH_JSON.name}."
    )
    return table + "\n\n" + summary


def test_serving_modes(benchmark, bench_scale) -> None:
    report = benchmark.pedantic(_build_report, args=(bench_scale,), rounds=1, iterations=1)
    save_report("serving_modes", report)
    print("\n" + report)
