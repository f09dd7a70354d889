"""Correctness tooling: project-specific lint rules + runtime lock witness.

Two halves, one hierarchy:

* :mod:`repro.analysis.lint` — an AST-based, repo-aware lint engine
  (``python -m repro.cli lint``) whose rules check the invariants this
  codebase's correctness rests on: lock-order
  (:mod:`~repro.analysis.rules_lock_order`), kernel discipline
  (:mod:`~repro.analysis.rules_kernels`), the bulk kernels' memo and
  the stateless shaper (:mod:`~repro.analysis.rules_kernel_memo`),
  plan/backend coverage (:mod:`~repro.analysis.rules_plans`) and
  compute-path determinism (:mod:`~repro.analysis.rules_determinism`).
* :mod:`repro.analysis.lockcheck` — an opt-in runtime lock-order
  witness (``REPRO_LOCK_WITNESS=1``) that turns the existing
  concurrency test suites into a deadlock sanitizer pass.

Both consume :mod:`repro.analysis.lockspec`, the canonical lock
hierarchy declared as data.
"""

from __future__ import annotations

from repro.analysis.lint import Finding, run_lint
from repro.analysis.lockcheck import make_lock

__all__ = ["Finding", "run_lint", "make_lock"]
