"""Plan-coverage rule: every task planned, every backend a real backend.

The engine reads each task's result family from
:data:`repro.core.plans.TASK_FAMILIES`, so a
:class:`~repro.analytics.base.Task` member without a family is a latent
``KeyError`` on a path no example test may cover.  Likewise the registry
in ``api/registry.py`` hands out whatever ``register_backend`` was given
— this rule statically verifies each registered class (or the class a
factory returns) actually provides the :class:`AnalyticsBackend`
protocol surface (``name``/``run``/``run_batch``/``capabilities``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.lint import Finding, Project, SourceFile, rule

RULE = "plan-coverage"

_TASK_MODULE = "repro/analytics/base.py"
_PLANS_MODULE = "repro/core/plans.py"
_REGISTRY_MODULE = "repro/api/registry.py"

_PROTOCOL_MEMBERS = ("name", "run", "run_batch", "capabilities")


def _task_members(source: SourceFile) -> List[str]:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef) and node.name == "Task":
            members = []
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and target.id.isupper():
                            members.append(target.id)
            return members
    return []


def _plan_keys(source: SourceFile) -> Tuple[Set[str], int]:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        if "TASK_FAMILIES" not in targets or not isinstance(node.value, ast.Dict):
            continue
        keys = {
            key.attr
            for key in node.value.keys
            if isinstance(key, ast.Attribute)
            and isinstance(key.value, ast.Name)
            and key.value.id == "Task"
        }
        return keys, node.lineno
    return set(), 1


def _registered_backends(source: SourceFile) -> List[Tuple[str, int]]:
    """``(class name, registration line)`` per ``register_backend`` call."""
    factories: Dict[str, str] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(node):
                if (
                    isinstance(stmt, ast.Return)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Name)
                ):
                    factories.setdefault(node.name, stmt.value.func.id)

    backends: List[Tuple[str, int]] = []
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register_backend"
            and len(node.args) >= 2
        ):
            continue
        target = node.args[1]
        if not isinstance(target, ast.Name):
            continue
        backends.append((factories.get(target.id, target.id), node.lineno))
    return backends


class _ClassIndex:
    def __init__(self, project: Project) -> None:
        self.defs: Dict[str, ast.ClassDef] = {}
        for source in project:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    self.defs.setdefault(node.name, node)

    def provides(self, class_name: str, member: str) -> Optional[bool]:
        """Whether the class (or a base) defines ``member``; None = unknown."""
        seen: Set[str] = set()
        queue = [class_name]
        found_any = False
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            node = self.defs.get(current)
            if node is None:
                continue
            found_any = True
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if stmt.name == member:
                        return True
                elif isinstance(stmt, ast.Assign):
                    if any(isinstance(t, ast.Name) and t.id == member for t in stmt.targets):
                        return True
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name) and stmt.target.id == member:
                        return True
            for base in node.bases:
                if isinstance(base, ast.Name):
                    queue.append(base.id)
                elif isinstance(base, ast.Attribute):
                    queue.append(base.attr)
        if not found_any:
            return None  # class defined outside the project; cannot verify
        return False


@rule(RULE, "every Task has a family; every registered backend satisfies the protocol")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []

    tasks_src = project.file(_TASK_MODULE)
    plans_src = project.file(_PLANS_MODULE)
    if tasks_src is not None and plans_src is not None:
        members = _task_members(tasks_src)
        keys, line = _plan_keys(plans_src)
        for member in members:
            if member not in keys:
                findings.append(plans_src.finding(
                    RULE, line,
                    f"Task.{member} has no entry in TASK_FAMILIES; every task "
                    f"member needs a result family",
                ))

    registry_src = project.file(_REGISTRY_MODULE)
    if registry_src is not None:
        index = _ClassIndex(project)
        for class_name, line in _registered_backends(registry_src):
            missing = []
            for member in _PROTOCOL_MEMBERS:
                provided = index.provides(class_name, member)
                if provided is False:
                    missing.append(member)
            if missing:
                findings.append(registry_src.finding(
                    RULE, line,
                    f"registered backend {class_name!r} does not satisfy "
                    f"AnalyticsBackend: missing {', '.join(missing)}",
                ))

    return findings
