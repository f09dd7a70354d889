"""Repo-aware lint engine for project-specific invariants.

Generic linters check Python; this engine checks *this codebase*.  The
invariants the repo's correctness rests on — locks acquired in the
canonical hierarchy order, every simulated kernel routed through the
device, reference/bulk kernel parity, every task with a plan, no
nondeterminism in compute paths — are structural facts about the whole
source tree, not single files, so each rule receives a :class:`Project`
(every parsed module, addressable by repo-relative path) and returns
:class:`Finding` objects.

Rules register themselves with the :func:`rule` decorator; the CLI front
end (``python -m repro.cli lint``) runs them all and exits nonzero when
any finding survives.  Rules must locate files by *relative* path (e.g.
``repro/core/traversal.py``), never absolute, so tests can point the
engine at miniature synthetic repos containing one deliberate violation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "SourceFile",
    "Project",
    "rule",
    "registered_rules",
    "load_project",
    "run_lint",
]


@dataclass(frozen=True)
class Finding:
    """One violation: rule, location, and what is wrong."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """A parsed module of the project."""

    #: Path relative to the project root, POSIX-style (``repro/cli.py``).
    rel_path: str
    path: Path
    text: str
    tree: ast.Module

    @property
    def module(self) -> str:
        """Dotted module name (``repro.core.traversal``)."""
        return self.rel_path[: -len(".py")].replace("/", ".")

    def finding(self, rule_name: str, node_or_line, message: str) -> Finding:
        line = node_or_line if isinstance(node_or_line, int) else getattr(node_or_line, "lineno", 1)
        return Finding(rule=rule_name, path=self.rel_path, line=line, message=message)


class Project:
    """Every parsed source file under one root, addressable by rel path."""

    def __init__(self, root: Path, files: Sequence[SourceFile]) -> None:
        self.root = root
        self.files: Tuple[SourceFile, ...] = tuple(files)
        self._by_rel: Dict[str, SourceFile] = {entry.rel_path: entry for entry in files}

    def file(self, rel_path: str) -> Optional[SourceFile]:
        """The file at ``rel_path``, or ``None`` if the project lacks it."""
        return self._by_rel.get(rel_path)

    def __iter__(self):
        return iter(self.files)

    def under(self, prefix: str) -> List[SourceFile]:
        """Files whose relative path starts with ``prefix`` (a directory)."""
        if not prefix.endswith("/"):
            prefix += "/"
        return [entry for entry in self.files if entry.rel_path.startswith(prefix)]


RuleFn = Callable[[Project], List[Finding]]


@dataclass(frozen=True)
class _Rule:
    name: str
    description: str
    fn: RuleFn


_REGISTRY: Dict[str, _Rule] = {}


def rule(name: str, description: str) -> Callable[[RuleFn], RuleFn]:
    """Register a rule: ``@rule("lock-order", "...")`` above its function."""

    def register(fn: RuleFn) -> RuleFn:
        if name in _REGISTRY:
            raise ValueError(f"duplicate lint rule {name!r}")
        _REGISTRY[name] = _Rule(name=name, description=description, fn=fn)
        return fn

    return register


def registered_rules() -> List[Tuple[str, str]]:
    """``(name, description)`` for every registered rule, sorted by name."""
    _ensure_rules_loaded()
    return sorted((entry.name, entry.description) for entry in _REGISTRY.values())


def _ensure_rules_loaded() -> None:
    # Rule modules register on import; import them lazily so `lint` stays
    # importable even if a rule module is mid-edit.
    from repro.analysis import (  # noqa: F401  (imported for registration side effect)
        rules_checked_decode,
        rules_determinism,
        rules_epoch_guard,
        rules_kernel_memo,
        rules_kernels,
        rules_lock_order,
        rules_plans,
    )


def load_project(root: Path) -> Project:
    """Parse every ``*.py`` under ``root`` (tests/build trees excluded).

    ``root`` is the directory *containing* the top-level package — for
    this repo, ``src/`` — so relative paths read ``repro/...``.
    """
    root = Path(root).resolve()
    files: List[SourceFile] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if "__pycache__" in rel:
            continue
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise SyntaxError(f"{rel}: {exc}") from exc
        files.append(SourceFile(rel_path=rel, path=path, text=text, tree=tree))
    return Project(root=root, files=files)


def default_root() -> Path:
    """The ``src/`` directory this installed ``repro`` package lives in."""
    return Path(__file__).resolve().parents[2]


def run_lint(
    root: Optional[Path] = None,
    *,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the (selected) rules over the project; findings sorted by site."""
    _ensure_rules_loaded()
    project = load_project(root if root is not None else default_root())
    selected = list(rules) if rules is not None else sorted(_REGISTRY)
    unknown = [name for name in selected if name not in _REGISTRY]
    if unknown:
        raise KeyError(f"unknown lint rule(s): {', '.join(unknown)}")
    findings: List[Finding] = []
    for name in selected:
        findings.extend(_REGISTRY[name].fn(project))
    findings.sort(key=lambda item: (item.path, item.line, item.rule, item.message))
    return findings
