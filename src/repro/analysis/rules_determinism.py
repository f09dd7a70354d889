"""Determinism rule: no hidden entropy in kernel/compute paths.

Simulated launches must replay bit-identically: the serving layer's
result cache keys on corpus fingerprint + config, the replay harness
re-executes recorded traces, and the kernel oracle test compares exact
counter values.  Any unseeded RNG or wall-clock read inside a compute
module breaks all three silently.  This rule flags, in
the compute packages only (``core``, ``gpusim``, ``compression``,
``analytics``, ``relational``, ``baselines``, ``perf``, ``cluster``):

* module-level ``random.*`` draws (``random.Random(seed)`` instances
  are fine — the seed is explicit);
* wall-clock reads (``time.time``/``monotonic``/``perf_counter`` and
  friends, ``datetime.now``/``utcnow``/``today``);
* unseeded numpy entropy (``np.random.<draw>``, or ``default_rng()``
  with no seed argument).

The benchmarking (``bench``) and serving (``serve``) layers time things
on purpose and are out of scope.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.lint import Finding, Project, rule

RULE = "determinism"

_COMPUTE_DIRS = (
    "repro/core",
    "repro/gpusim",
    "repro/compression",
    "repro/analytics",
    "repro/relational",
    "repro/baselines",
    "repro/perf",
    "repro/cluster",
)

_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "getrandbits", "randbytes",
})
_TIME_READS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})
_DATETIME_READS = frozenset({"now", "utcnow", "today"})
_NP_RANDOM_DRAWS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "bytes", "uniform", "normal",
})


def _receiver(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _classify(call: ast.Call) -> Optional[str]:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _receiver(func.value)
    if receiver == "random":
        if func.attr in _RANDOM_DRAWS:
            return (f"unseeded module-level random.{func.attr}() in a compute path; "
                    f"use an explicitly seeded random.Random(seed) instance")
        if func.attr == "default_rng" and not call.args and not call.keywords:
            return ("np.random.default_rng() without a seed in a compute path; "
                    "pass an explicit seed")
        if func.attr in _NP_RANDOM_DRAWS and receiver == "random":
            # numpy's legacy global RNG (np.random.rand etc.) shares the
            # attribute namespace check above; reached via np.random.<draw>.
            return (f"unseeded numpy global RNG draw random.{func.attr}() in a "
                    f"compute path; use a seeded Generator")
    if receiver == "time" and func.attr in _TIME_READS:
        return (f"wall-clock read time.{func.attr}() in a compute path; simulated "
                f"kernels must derive all values from their inputs")
    if receiver in ("datetime", "date") and func.attr in _DATETIME_READS:
        return (f"wall-clock read {receiver}.{func.attr}() in a compute path; "
                f"compute results must not depend on the calendar")
    return None


@rule(RULE, "no unseeded RNG or wall-clock reads inside compute modules")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for source in project:
        if not any(source.rel_path.startswith(prefix + "/") for prefix in _COMPUTE_DIRS):
            continue
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                message = _classify(node)
                if message is not None:
                    findings.append(source.finding(RULE, node, message))
    return findings
