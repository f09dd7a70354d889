"""Kernel-memo rule: bulk kernels keep no state on the objects they are given.

The bulk kernels of ``core/vectorized.py`` are functions of a layout, a
scheduler, a device and session state.  Whatever they derive for reuse
across queries lives in one place, the layout's memo
(:meth:`~repro.core.layout.DeviceRuleLayout.memo`), whose entries are
used only while their inputs are the very objects the caller passes; a
later corpus delta can then carry kernel caches forward in one place.

This rule flags, in ``repro/core/vectorized.py``, every store to an
attribute of a function parameter (``layout.cache = ...``,
``buffers.rows[key] = ...``) and every ``setattr`` call.  A method's
stores on its own ``self`` build that object, and stores on locals
(``result.dense = matrix``) build the kernel's return value; neither is
flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.lint import Finding, Project, SourceFile, rule

RULE = "kernel-memo"

_KERNEL_MODULE = "repro/core/vectorized.py"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(function: ast.AST, is_method: bool) -> Set[str]:
    args = function.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    if is_method and positional:
        positional = positional[1:]
    names = set(positional) | {arg.arg for arg in args.kwonlyargs}
    names |= {arg.arg for arg in (args.vararg, args.kwarg) if arg is not None}
    return names


def _stored_attribute_root(target: ast.AST) -> Optional[str]:
    """The name a store target's attribute chain starts from, if it has an attribute."""
    seen_attribute = False
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        seen_attribute = seen_attribute or isinstance(node, ast.Attribute)
        node = node.value
    if seen_attribute and isinstance(node, ast.Name):
        return node.id
    return None


def _store_targets(node: ast.AST) -> List[ast.AST]:
    """The store targets of a statement, with tuple and list targets unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
        pending = [node.target]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        pending = [item.optional_vars for item in node.items if item.optional_vars is not None]
    else:
        return []
    targets: List[ast.AST] = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        else:
            targets.append(target)
    return targets


def _check(source: SourceFile) -> List[Finding]:
    findings: List[Finding] = []

    def visit(node: ast.AST, parameters: Set[str], in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                own = _parameters(child, in_class and not isinstance(child, ast.Lambda))
                visit(child, parameters | own, False)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, parameters, True)
                continue
            for target in _store_targets(child):
                name = _stored_attribute_root(target)
                if name is not None and name in parameters:
                    findings.append(source.finding(
                        RULE, child,
                        f"store on parameter {name!r} keeps state on an object the "
                        f"kernel was given; memoize it with layout.memo(...) or keep "
                        f"it in session state",
                    ))
            if (
                isinstance(child, ast.Call)
                and (
                    (isinstance(child.func, ast.Name) and child.func.id == "setattr")
                    or (isinstance(child.func, ast.Attribute) and child.func.attr == "__setattr__")
                )
            ):
                findings.append(source.finding(
                    RULE, child,
                    "setattr in a bulk kernel module; memoize derived state with "
                    "layout.memo(...) or keep it in session state",
                ))
            visit(child, parameters, False)

    visit(source.tree, set(), False)
    return findings


@rule(RULE, "bulk kernels store nothing on the objects they are given; reuse goes through layout.memo")
def check(project: Project) -> List[Finding]:
    source = project.file(_KERNEL_MODULE)
    return _check(source) if source is not None else []
