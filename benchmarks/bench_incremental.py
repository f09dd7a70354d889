"""Incremental maintenance — warm appends vs. recompress-and-rebuild.

Mutable corpora turn compression into a maintained artifact: a live
ingest appends a few fresh documents (here ≤5% of the corpus's tokens)
and the warm :class:`~repro.core.engine.GTadoc` session delta-updates
its cached device state for the touched grammar rules only, instead of
recompressing the corpus and rebuilding a session from scratch.

This benchmark performs that comparison end to end on each dataset
analogue.  The incremental side is timed from the mutation call
through a full all-task batch on the pre-existing warm engine (the
batch's records include the delta-construction kernels, so the
incremental cost is charged honestly).  The cold side recompresses the
mutated token streams from scratch and runs the same batch on a brand
new engine.  Both sides must be bit-identical per task, and the
incremental side must cost **strictly fewer kernel launches AND less
wall-clock** — the headline claim of the live-corpora design.

The deterministic counts (tokens, sync mode, kernel launches) are
written to ``BENCH_incremental.json`` at the repository root, which is
committed: a run on an unchanged tree leaves it unchanged.  The
wall-clock seconds are only asserted and printed.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, List

from repro.analytics.base import Task, results_equal
from repro.bench.tables import format_table, save_report
from repro.compression.compressor import TadocCompressor
from repro.core.engine import GTadoc
from repro.data.corpus import Corpus
from repro.data.generators import generate_dataset

DATASETS = ("A", "B", "D")
#: Fraction of the corpus's tokens a warm append may add (the live-ingest
#: regime the delta path is designed for).
APPEND_FRACTION = 0.05

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_incremental.json"


def _ingest_documents(seed: int, token_budget: int) -> Dict[str, List[str]]:
    """Fresh-vocabulary live documents totalling at most ``token_budget``.

    Live ingest carries structurally fresh content (new identifiers, new
    timestamps) — the case where extending the online grammar leaves
    every existing rule intact and the session delta path engages.
    Same-vocabulary churn would restructure existing rules and fall back
    to a rebuild, which is the cold path this benchmark compares against.
    """
    rng = random.Random(seed)
    vocabulary = [f"ingest{seed}t{j}" for j in range(12)]
    documents: Dict[str, List[str]] = {}
    remaining = token_budget
    index = 0
    while remaining > 8:
        length = min(remaining, rng.randint(8, 40))
        documents[f"live-{seed}-{index}"] = [rng.choice(vocabulary) for _ in range(length)]
        remaining -= length
        index += 1
    return documents


def _build_report(scale: float) -> str:
    rows = []
    trajectory = {}
    for dataset in DATASETS:
        corpus = generate_dataset(dataset, scale=scale)
        streams: Dict[str, List[str]] = {doc.name: list(doc.tokens) for doc in corpus}
        live = TadocCompressor().compress(corpus)
        engine = GTadoc(live)
        engine.run_batch()  # untimed warmup: a long-lived session is warm

        budget = max(32, int(live.original_tokens * APPEND_FRACTION))
        ingest = _ingest_documents(seed=7, token_budget=budget)
        assert sum(len(tokens) for tokens in ingest.values()) <= budget
        streams.update(ingest)

        started = time.perf_counter()
        live.append_files(ingest)
        mode = engine.session.sync_with_corpus()
        warm_batch = engine.run_batch()
        warm_seconds = time.perf_counter() - started
        warm_launches = warm_batch.total_kernel_launches
        assert mode == "delta", (
            f"fresh-vocabulary append must take the delta path on {dataset}, got {mode!r}"
        )

        started = time.perf_counter()
        scratch = TadocCompressor().compress(Corpus.from_token_streams(streams))
        cold_engine = GTadoc(scratch)
        cold_batch = cold_engine.run_batch()
        cold_seconds = time.perf_counter() - started
        cold_launches = cold_batch.total_kernel_launches

        assert live.fingerprint() == scratch.fingerprint(), dataset
        for task in Task.all():
            assert results_equal(
                task, warm_batch.results[task].result, cold_batch.results[task].result
            ), (dataset, task)
        assert warm_launches < cold_launches, (
            f"warm append must launch strictly fewer kernels than "
            f"recompress+rebuild on {dataset} ({warm_launches} vs {cold_launches})"
        )
        assert warm_seconds < cold_seconds, (
            f"warm append must take less wall-clock than recompress+rebuild "
            f"on {dataset} ({warm_seconds:.4f}s vs {cold_seconds:.4f}s)"
        )

        trajectory[dataset] = {
            "appended_tokens": sum(len(tokens) for tokens in ingest.values()),
            "corpus_tokens": live.original_tokens,
            "sync_mode": mode,
            "warm_kernel_launches": warm_launches,
            "cold_kernel_launches": cold_launches,
            "launch_cut": 1.0 - warm_launches / cold_launches,
        }
        rows.append(
            [
                dataset,
                f"{trajectory[dataset]['appended_tokens']:6d}",
                f"{warm_launches:6d}",
                f"{cold_launches:6d}",
                f"{trajectory[dataset]['launch_cut'] * 100:5.1f}%",
                f"{warm_seconds * 1e3:8.1f}",
                f"{cold_seconds * 1e3:8.1f}",
                f"{cold_seconds / warm_seconds:5.2f}x",
            ]
        )

    BENCH_JSON.write_text(json.dumps(trajectory, indent=2) + "\n")
    table = format_table(
        [
            "dataset",
            "tokens+",
            "warm launches",
            "cold launches",
            "launch cut",
            "warm ms",
            "cold ms",
            "speedup",
        ],
        rows,
        title=(
            f"Incremental maintenance: warm ≤{APPEND_FRACTION:.0%}-token append "
            "(delta session sync) vs recompress + cold rebuild, all-task batch"
        ),
    )
    summary = (
        "Every warm append took the session delta path, stayed bit-identical "
        "to scratch recompression (fingerprint and all task results), and "
        "cost strictly fewer kernel launches and less wall-clock than the "
        f"cold path; counts written to {BENCH_JSON.name}."
    )
    return table + "\n\n" + summary


def test_incremental_maintenance(benchmark, bench_scale) -> None:
    report = benchmark.pedantic(_build_report, args=(bench_scale,), rounds=1, iterations=1)
    save_report("incremental_maintenance", report)
    print("\n" + report)
