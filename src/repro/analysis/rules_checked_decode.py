"""Checked-decode rule: bytes reach objects in ``serve/`` only through checks.

A process shard's reply carries each result as pickle bytes, and the
router decodes them inside :func:`repro.serve.wire.decode_frame`, which
steps over every opcode and resolves globals from an allowlist before
the unpickler runs.  A plain ``pickle.loads`` elsewhere in the serving
layer would decode the same bytes with neither check.  This rule
flags, anywhere under ``repro/serve/``:

* ``pickle.loads``/``pickle.load`` calls, under any import alias or
  through ``from pickle import ...``;
* any use of ``pickle.Unpickler``, called or subclassed;
* ``RunOutcome.from_snapshot(...)`` without ``result=``: such an
  outcome decodes its snapshot with ``pickle.loads`` on first access.

Two sites are exempt: the wire's checked decoder (its ``_Unpickler``)
and the result cache's hit path (``ServingCore._hit_outcome``), which
hands back bytes the cache pickled itself.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.lint import Finding, Project, SourceFile, rule

RULE = "checked-decode"

_PICKLE_MODULES = frozenset({"pickle", "_pickle"})
_DECODERS = frozenset({"loads", "load", "Unpickler"})

#: rel path -> qualified names of the scopes allowed to decode.
_EXEMPT: Dict[str, FrozenSet[str]] = {
    "repro/serve/wire.py": frozenset({"_Unpickler"}),
    "repro/serve/service.py": frozenset({"ServingCore._hit_outcome"}),
}


def _pickle_names(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Local names bound to the pickle module, and to its decoders."""
    modules: Set[str] = set()
    decoders: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _PICKLE_MODULES:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module in _PICKLE_MODULES:
            for alias in node.names:
                if alias.name in _DECODERS:
                    decoders.add(alias.asname or alias.name)
    return modules, decoders


class _Finder(ast.NodeVisitor):
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.modules, self.decoders = _pickle_names(source.tree)
        self.exempt = _EXEMPT.get(source.rel_path, frozenset())
        self.scope: List[str] = []
        self.findings: List[Finding] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _report(self, node: ast.AST, message: str) -> None:
        if ".".join(self.scope) not in self.exempt:
            self.findings.append(self.source.finding(RULE, node, message))

    def _decoder(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in self.decoders:
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _DECODERS
            and isinstance(node.value, ast.Name)
            and node.value.id in self.modules
        ):
            return f"{node.value.id}.{node.attr}"
        return None

    def visit_Name(self, node: ast.Name) -> None:
        self._check_decoder(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self._check_decoder(node):
            self.generic_visit(node)

    def _check_decoder(self, node: ast.AST) -> bool:
        name = self._decoder(node)
        if name is None:
            return False
        self._report(
            node,
            f"{name} in the serving layer decodes pickle bytes unchecked; "
            f"decode worker bytes through wire.decode_frame, which checks "
            f"opcodes and the global allowlist first",
        )
        return True

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "from_snapshot"
            and isinstance(func.value, ast.Name)
            and func.value.id == "RunOutcome"
            and not any(keyword.arg == "result" for keyword in node.keywords)
        ):
            self._report(
                node,
                "RunOutcome.from_snapshot without result= decodes its snapshot "
                "with pickle.loads on first access; only the result cache's hit "
                "path (ServingCore._hit_outcome) may hand back bytes unchecked, "
                "because it pickled them itself",
            )
        self.generic_visit(node)


@rule(RULE, "serve/ decodes pickle bytes only in the wire's checked decoder or the result cache's hit path")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for source in project.under("repro/serve"):
        finder = _Finder(source)
        finder.visit(source.tree)
        findings.extend(finder.findings)
    return findings
