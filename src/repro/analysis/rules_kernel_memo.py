"""Kernel-memo rule: kernels and the shaper keep no state on what they are given.

The bulk kernels of ``core/vectorized.py`` are functions of a layout, a
scheduler, a device and session state.  Whatever they derive for reuse
across queries lives in one place, the layout's memo
(:meth:`~repro.core.layout.DeviceRuleLayout.memo`), whose entries are
used only while their inputs are the very objects the caller passes; a
later corpus delta can then carry kernel caches forward in one place.
The id-space shaper of ``analytics/encoded.py`` keeps nothing across
queries at all: every request shapes its result in full, so a shaping
gain comes from less work per request, never from a hidden result cache.

This rule flags, in both modules, every store to an attribute of a
function parameter (``layout.cache = ...``, ``buffers.rows[key] =
...``), every ``setattr`` and ``__setattr__`` call (the way into a
frozen dataclass such as ``EncodedResult``) and every ``functools``
caching decorator (``cache``, ``lru_cache``, ``cached_property``).  A
method's stores on its own ``self`` build that object, and stores on
locals (``result.dense = matrix``) build the function's return value;
neither is flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.lint import Finding, Project, SourceFile, rule

RULE = "kernel-memo"

#: Each checked module, with where its derived state belongs instead.
_MODULES = {
    "repro/core/vectorized.py": "memoize it with layout.memo(...) or keep it in session state",
    "repro/analytics/encoded.py": "shaping keeps nothing across queries; derive it per call",
}

#: ``functools`` decorators that keep results across calls.
_CACHING_DECORATORS = frozenset({"cache", "lru_cache", "cached_property"})

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


def _decorator_name(decorator: ast.AST) -> Optional[str]:
    """``lru_cache`` for ``@lru_cache``, ``@functools.lru_cache(maxsize=8)`` and the like."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr
    if isinstance(decorator, ast.Name):
        return decorator.id
    return None


def _check(source: SourceFile, advice: str) -> List[Finding]:
    findings: List[Finding] = []

    def visit(node: ast.AST, parameters: Set[str], in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            for decorator in getattr(child, "decorator_list", ()):
                name = _decorator_name(decorator)
                if name in _CACHING_DECORATORS:
                    findings.append(source.finding(
                        RULE, decorator,
                        f"@{name} keeps results across calls; {advice}",
                    ))
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
                        f"function was given; {advice}",
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
                    f"setattr keeps state on an existing object; {advice}",
                ))
            visit(child, parameters, False)

    visit(source.tree, set(), False)
    return findings


@rule(
    RULE,
    "bulk kernels and the id-space shaper store nothing on the objects they are given "
    "and cache nothing; kernel reuse goes through layout.memo",
)
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for path, advice in _MODULES.items():
        source = project.file(path)
        if source is not None:
            findings += _check(source, advice)
    return findings
