"""Lint engine tests: golden bad examples + a clean full-repo run.

Each rule gets a miniature synthetic repo (a tmp ``src`` tree with just
enough files for the rule to resolve) containing exactly one deliberate
violation, and must report exactly one finding at the violating line.
The capstone is the full-repo run: the real source tree must come back
with zero findings — that is the invariant CI enforces.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import registered_rules, run_lint
from repro.cli import main as cli_main


def _mini_repo(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "src"
    for rel_path, content in files.items():
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(content), encoding="utf-8")
    return root


# ----------------------------------------------------------------------------------------
# Golden bad examples: exactly one finding each
# ----------------------------------------------------------------------------------------

class TestGoldenBadExamples:
    def test_lock_order_inversion_nested_with(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/core/session.py": """
                class DeviceSession:
                    def snapshot(self):
                        with self.compressed.lock:
                            with self._lock:
                                return self._layout
            """,
        })
        findings = run_lint(root, rules=["lock-order"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "lock-order"
        assert finding.path == "repro/core/session.py"
        assert finding.line == 5
        assert "'session'" in finding.message and "'corpus'" in finding.message

    def test_lock_order_inversion_through_call(self, tmp_path):
        # The exact shape of the real bug this PR fixed: a leaf stats
        # lock held across a cache-lock-taking call on another object.
        root = _mini_repo(tmp_path, {
            "repro/serve/service.py": """
                class LRUCache:
                    def stats(self):
                        with self._lock:
                            return dict(self._counters)


                class ServingCore:
                    def stats(self):
                        with self._stats_lock:
                            return self._sessions.stats()
            """,
        })
        findings = run_lint(root, rules=["lock-order"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.line == 11
        assert "'serve.cache'" in finding.message
        assert "LRUCache.stats" in finding.message

    def test_kernel_discipline_raw_stats_construction(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/baselines/rogue.py": """
                from repro.perf.counters import KernelStats


                def build_stats():
                    return KernelStats(
                        name="rogueKernel",
                        num_threads=32,
                        num_warps=1,
                        warp_serial_ops=1.0,
                        total_thread_ops=32.0,
                    )
            """,
        })
        findings = run_lint(root, rules=["kernel-discipline"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "repro/baselines/rogue.py"
        assert "ad-hoc KernelStats" in finding.message

    def test_kernel_discipline_missing_vector_counterpart(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/core/traversal.py": """
                def count_words(device, layout):
                    def kernel(tid, ctx):
                        ctx.charge(compute_ops=1.0)
                    device.launch("orphanKernel", kernel, 8)
            """,
            "repro/core/vectorized.py": """
                def count_words_vec(device, layout):
                    device.launch_bulk("someOtherKernel", 8)
            """,
        })
        findings = run_lint(root, rules=["kernel-discipline"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "repro/core/traversal.py"
        assert "'orphanKernel'" in finding.message

    def test_kernel_memo_store_on_a_parameter(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/core/vectorized.py": """
                def reduce_vec(layout, device, tables):
                    geometry = build(layout, tables)
                    layout.reduce_geom = (tables, geometry)
                    device.launch_bulk("reduceKernel", 8)
                    return geometry
            """,
        })
        findings = run_lint(root, rules=["kernel-memo"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "repro/core/vectorized.py"
        assert finding.line == 4
        assert "'layout'" in finding.message

    def test_kernel_memo_allows_stores_on_locals_and_self(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/core/vectorized.py": """
                class Skeleton:
                    def __init__(self, words):
                        self.words = words


                def weights_vec(layout, device):
                    matrix = layout.zeros()
                    matrix[: layout.num_files] = 1
                    result = FileWeights()
                    result.dense = matrix
                    return layout.memo("weights", (), lambda: result)
            """,
        })
        assert run_lint(root, rules=["kernel-memo"]) == []

    def test_kernel_memo_setattr(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/core/vectorized.py": """
                def sequence_vec(layout, buffers):
                    cache = {}
                    setattr(buffers, "skeletons", cache)
                    return cache
            """,
        })
        findings = run_lint(root, rules=["kernel-memo"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.line == 4
        assert "setattr" in finding.message

    def test_kernel_memo_store_on_the_frozen_encoded_result(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/analytics/encoded.py": """
                @dataclass(frozen=True)
                class EncodedResult:
                    def shape(self, terms=None, top_k=None):
                        shaped = self._shape(terms, top_k)
                        object.__setattr__(self, "last_shape", shaped)
                        return shaped
            """,
        })
        findings = run_lint(root, rules=["kernel-memo"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "repro/analytics/encoded.py"
        assert finding.line == 6
        assert "setattr" in finding.message and "across queries" in finding.message

    def test_kernel_memo_caching_decorator(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/analytics/encoded.py": """
                import functools


                @functools.lru_cache(maxsize=64)
                def _file_name_ranks(file_names):
                    return sorted(range(len(file_names)), key=file_names.__getitem__)
            """,
            "repro/core/vectorized.py": """
                from functools import cache


                @cache
                def _table_geometry(expected_keys):
                    return expected_keys, 2 * expected_keys
            """,
        })
        findings = {finding.path: finding for finding in run_lint(root, rules=["kernel-memo"])}
        assert sorted(findings) == ["repro/analytics/encoded.py", "repro/core/vectorized.py"]
        assert findings["repro/analytics/encoded.py"].line == 5
        assert "@lru_cache" in findings["repro/analytics/encoded.py"].message
        assert findings["repro/core/vectorized.py"].line == 5
        assert "@cache" in findings["repro/core/vectorized.py"].message

    def test_kernel_memo_allows_stores_on_shaper_locals(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/analytics/encoded.py": """
                def _name_array(file_names):
                    names = np.empty(len(file_names), dtype=object)
                    names[:] = file_names
                    return names
            """,
        })
        assert run_lint(root, rules=["kernel-memo"]) == []

    def test_plan_coverage_unregistered_task(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/analytics/base.py": """
                import enum


                class Task(str, enum.Enum):
                    WORD_COUNT = "word_count"
                    SORT = "sort"
            """,
            "repro/core/plans.py": """
                from repro.analytics.base import Task

                TASK_FAMILIES = {
                    Task.WORD_COUNT: "corpus",
                }
            """,
        })
        findings = run_lint(root, rules=["plan-coverage"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "repro/core/plans.py"
        assert "Task.SORT" in finding.message

    def test_plan_coverage_backend_missing_protocol_member(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/api/registry.py": """
                class HalfBackend:
                    name = "half"

                    def run(self, query):
                        return None

                    def run_batch(self, queries):
                        return []


                register_backend(HalfBackend.name, HalfBackend)
            """,
        })
        findings = run_lint(root, rules=["plan-coverage"])
        assert len(findings) == 1
        (finding,) = findings
        assert "HalfBackend" in finding.message
        assert "capabilities" in finding.message

    def test_determinism_unseeded_rng(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/core/noise.py": """
                import random


                def jitter(value):
                    return value + random.random()
            """,
        })
        findings = run_lint(root, rules=["determinism"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "repro/core/noise.py"
        assert finding.line == 6
        assert "random.random()" in finding.message

    def test_determinism_wall_clock_read(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/gpusim/stamp.py": """
                import time


                def stamp_launch(record):
                    record.stamp = time.perf_counter()
            """,
        })
        findings = run_lint(root, rules=["determinism"])
        assert len(findings) == 1
        assert "time.perf_counter()" in findings[0].message

    def test_epoch_guard_raw_put_on_serving_cache(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/serve/rogue.py": """
                from repro.serve.caches import LRUCache


                class RogueCore:
                    def __init__(self):
                        self._results = LRUCache(capacity=8)

                    def _finish(self, key, outcome):
                        self._results.put(key, outcome)
            """,
        })
        findings = run_lint(root, rules=["epoch-guard"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "epoch-guard"
        assert finding.path == "repro/serve/rogue.py"
        assert finding.line == 10
        assert "self._results" in finding.message
        assert "put_if" in finding.message

    def test_epoch_guard_guardless_put_if(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/serve/rogue.py": """
                from repro.serve import caches


                class RogueCore:
                    def __init__(self):
                        self._results = caches.LRUCache(capacity=8)

                    def _finish(self, key, outcome, weight):
                        self._results.put_if(key, outcome, weight=weight)
            """,
        })
        findings = run_lint(root, rules=["epoch-guard"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.line == 10
        assert "guard" in finding.message

    def test_epoch_guard_accepts_guarded_writes_and_plain_dicts(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/serve/fine.py": """
                from repro.serve.caches import LRUCache


                class GuardedCore:
                    def __init__(self):
                        self._results = LRUCache(capacity=8)
                        self._shipped = {}

                    def _finish(self, key, outcome, epoch):
                        self._results.put_if(
                            key, outcome, guard=lambda: self._epoch() == epoch
                        )
                        # A plain dict is not a serving cache.
                        self._shipped.update({key: outcome})
            """,
        })
        assert run_lint(root, rules=["epoch-guard"]) == []


    def test_checked_decode_pickle_loads_in_serve(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/serve/rogue.py": """
                import pickle


                def result_of(reply):
                    return pickle.loads(reply)
            """,
        })
        findings = run_lint(root, rules=["checked-decode"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.rule == "checked-decode"
        assert finding.path == "repro/serve/rogue.py"
        assert finding.line == 6
        assert "pickle.loads" in finding.message and "decode_frame" in finding.message

    def test_checked_decode_aliases_and_unpickler_outside_the_decoder(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/serve/wire.py": """
                import io
                import pickle as codec
                from pickle import load as read_one


                class _Unpickler(codec.Unpickler):
                    pass


                class _Lenient(codec.Unpickler):
                    pass


                def sideways(body):
                    return read_one(io.BytesIO(body))
            """,
        })
        findings = run_lint(root, rules=["checked-decode"])
        assert [finding.line for finding in findings] == [11, 16]
        assert "codec.Unpickler" in findings[0].message
        assert "read_one" in findings[1].message

    def test_checked_decode_lazy_snapshot_outside_the_hit_path(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/serve/service.py": """
                from repro.api.outcome import RunOutcome


                class ServingCore:
                    def _relay(self, query, reply_bytes):
                        return RunOutcome.from_snapshot(reply_bytes, query=query)
            """,
        })
        findings = run_lint(root, rules=["checked-decode"])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.line == 7
        assert "from_snapshot without result=" in finding.message

    def test_checked_decode_accepts_the_decoder_the_hit_path_and_encoding(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/serve/wire.py": """
                import pickle

                from repro.api.outcome import RunOutcome


                class _Unpickler(pickle.Unpickler):
                    pass


                def _outcome_from_wire(snapshot, **fields):
                    result = _Unpickler(snapshot).load()
                    return RunOutcome.from_snapshot(snapshot, result=result, **fields)


                def encode(value):
                    return pickle.dumps(value, protocol=5)
            """,
            "repro/serve/service.py": """
                from repro.api.outcome import RunOutcome


                class ServingCore:
                    def _hit_outcome(self, query, cached):
                        return RunOutcome.from_snapshot(cached.snapshot, query=query)
            """,
            # Outside the serving layer the rule does not look.
            "repro/bench/cache.py": """
                import pickle


                def load(path):
                    with open(path, "rb") as handle:
                        return pickle.load(handle)
            """,
        })
        assert run_lint(root, rules=["checked-decode"]) == []


# ----------------------------------------------------------------------------------------
# The real repo is clean
# ----------------------------------------------------------------------------------------

class TestFullRepo:
    def test_full_repo_zero_findings(self):
        assert run_lint() == []

    def test_all_rules_registered(self):
        names = [name for name, _ in registered_rules()]
        assert names == sorted(
            [
                "checked-decode",
                "determinism",
                "epoch-guard",
                "kernel-discipline",
                "kernel-memo",
                "lock-order",
                "plan-coverage",
            ]
        )


# ----------------------------------------------------------------------------------------
# CLI front end
# ----------------------------------------------------------------------------------------

class TestCli:
    def test_lint_clean_repo_exits_zero(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().err

    def test_lint_bad_repo_exits_nonzero_with_locations(self, tmp_path, capsys):
        root = _mini_repo(tmp_path, {
            "repro/core/noise.py": """
                import random


                def jitter(value):
                    return value + random.random()
            """,
        })
        assert cli_main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "repro/core/noise.py:6: [determinism]" in out

    def test_lint_rule_selection(self, tmp_path):
        root = _mini_repo(tmp_path, {
            "repro/core/noise.py": """
                import random


                def jitter(value):
                    return value + random.random()
            """,
        })
        # The violation is invisible to a different rule.
        assert cli_main(["lint", "--root", str(root), "--rule", "lock-order"]) == 0

    def test_lint_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            cli_main(["lint", "--rule", "no-such-rule"])

    def test_lint_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "lock-order:" in out and "determinism:" in out
