"""Kernel-discipline rule: all simulated kernels go through the device.

Two invariants keep the performance model trustworthy:

* **No ad-hoc stats.**  :class:`~repro.perf.counters.KernelStats` may
  only be constructed inside its defining module and inside
  ``gpusim/device.py`` (the ``launch``/``launch_bulk``/``launch_modelled``
  entry points).  Anywhere else, constructing one bypasses the device —
  the launch never lands in ``launch_history``, never charges occupancy,
  and silently drifts from the per-kernel accounting that the kernel
  oracle pins down.
* **Reference/bulk parity.**  Every kernel name launched by the
  per-thread reference kernels in ``core/traversal.py`` must also be
  launched by a bulk port in ``core/vectorized.py`` (parity by
  launch-name set).  The runtime runs only the bulk ports, so a
  reference without a port is dead code, and the oracle test
  (``tests/test_kernel_oracle.py``), which compares every port with its
  reference, cannot cover it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.lint import Finding, Project, SourceFile, rule

RULE = "kernel-discipline"

#: Modules allowed to construct ``KernelStats`` directly: the defining
#: module (plus its ``scaled()`` copies) and the device's launch paths.
_ALLOWED_STATS_MODULES = frozenset({
    "repro/perf/counters.py",
    "repro/gpusim/device.py",
})

_SCALAR_MODULE = "repro/core/traversal.py"
_VECTOR_MODULE = "repro/core/vectorized.py"


def _launch_names(source: SourceFile, methods: Set[str]) -> Dict[str, int]:
    """Kernel-name literal -> first launch line, for the given entry points."""
    names: Dict[str, int] = {}
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in methods or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            names.setdefault(first.value, first.lineno)
    return names


@rule(RULE, "kernels launch only via GPUDevice, with reference/bulk name parity")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []

    for source in project:
        if source.rel_path in _ALLOWED_STATS_MODULES:
            continue
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "KernelStats"
            ):
                findings.append(source.finding(
                    RULE, node,
                    "ad-hoc KernelStats construction bypasses the simulated device; "
                    "route the launch through GPUDevice.launch/launch_bulk/"
                    "launch_modelled so it is recorded and charged",
                ))

    scalar = project.file(_SCALAR_MODULE)
    vector = project.file(_VECTOR_MODULE)
    if scalar is not None and vector is not None:
        scalar_names = _launch_names(scalar, {"launch"})
        vector_names = _launch_names(vector, {"launch_bulk", "launch"})
        for name in sorted(set(scalar_names) - set(vector_names)):
            findings.append(scalar.finding(
                RULE, scalar_names[name],
                f"reference kernel {name!r} has no bulk port launch in "
                f"{_VECTOR_MODULE}; the runtime and the kernel oracle need "
                f"name-set parity",
            ))

    return findings
