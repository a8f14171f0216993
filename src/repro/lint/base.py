"""Rule framework: file context, rule base class, and the rule registry.

Every rule is a small class with a unique uppercase id (``DET001``, …), a
one-line contract, and a ``check`` method that walks one file's AST and
yields :class:`~repro.lint.findings.Finding` objects.  Rules register
themselves with the :func:`register` decorator; the engine instantiates the
registry fresh per run so rules may keep per-file state.

Rules never read the filesystem — the engine hands them a
:class:`FileContext` carrying the parsed tree, the source lines, and the
*effective dotted module name*, which is how path-scoped rules (e.g. the
``repro.obs`` wall-clock quarantine) decide applicability.  Fixture files
outside the package tree can opt into a scope with a pragma comment::

    # repro: module=repro.net.fake

placed in the first few lines.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Type

from repro.lint.findings import Finding

_MODULE_PRAGMA = re.compile(r"#\s*repro:\s*module=([A-Za-z_][\w.]*)")


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str
    """Path as reported in findings (relative to the lint root)."""

    tree: ast.Module
    lines: Sequence[str]
    """Physical source lines, 0-indexed (``lines[lineno - 1]``)."""

    module: str = ""
    """Effective dotted module name (e.g. ``repro.net.tcp``); empty when the
    file is outside a recognizable package and carries no pragma."""

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def in_package(self, *prefixes: str) -> bool:
        """True when the effective module sits under any dotted prefix."""
        for prefix in prefixes:
            if self.module == prefix or self.module.startswith(prefix + "."):
                return True
        return False


def derive_module(path: str, pragma_lines: Sequence[str]) -> str:
    """Compute the effective dotted module for *path*.

    A ``# repro: module=...`` pragma in the first ten lines wins; otherwise
    the dotted path from the last ``src`` (or first ``repro``) component.
    """
    for raw in list(pragma_lines)[:10]:
        match = _MODULE_PRAGMA.search(raw)
        if match:
            return match.group(1)
    parts = list(re.split(r"[\\/]+", path.strip()))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        return ""
    return ".".join(p for p in parts if p)


class Rule:
    """Base class for lint rules.  Subclasses set ``id``/``summary`` and
    implement :meth:`check`."""

    id: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
    ) -> Finding:
        lineno = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0))
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=lineno,
            col=col,
            message=message,
            source_line=ctx.source_line(lineno),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding *rule_cls* to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (idempotent, lazy to avoid import
    cycles): each module registers its rules on import."""
    from repro.lint import (  # noqa: F401
        rules_api,
        rules_det,
        rules_obs,
        rules_sim,
    )


def registered_rules() -> Dict[str, Type[Rule]]:
    """Snapshot of the registry (id -> rule class), sorted by id."""
    _load_builtin_rules()
    return dict(sorted(_REGISTRY.items()))


def make_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate registered rules, optionally restricted to ``select``."""
    _load_builtin_rules()
    rules: List[Rule] = []
    for rule_id, rule_cls in sorted(_REGISTRY.items()):
        if select is not None and rule_id not in select:
            continue
        rules.append(rule_cls())
    if select is not None:
        unknown = sorted(set(select) - set(_REGISTRY))
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return rules


# -- shared AST helpers ------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains as a dotted string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ImportMap:
    """Aliases under which interesting modules/names are visible in a file."""

    modules: Dict[str, str] = field(default_factory=dict)
    """local alias -> real dotted module (``np`` -> ``numpy``)."""

    names: Dict[str, str] = field(default_factory=dict)
    """local name -> real dotted origin (``default_rng`` ->
    ``numpy.random.default_rng``)."""


def collect_imports(tree: ast.Module) -> ImportMap:
    imports = ImportMap()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    imports.modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports.names[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return imports


def resolve_call_target(
    node: ast.Call, imports: ImportMap
) -> Optional[str]:
    """Best-effort fully-qualified dotted target of a call.

    ``np.random.default_rng()`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; ``default_rng()`` after
    ``from numpy.random import default_rng`` resolves the same.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head in imports.names and not rest:
        return imports.names[head]
    if head in imports.names and rest:
        return f"{imports.names[head]}.{rest}"
    if head in imports.modules:
        real = imports.modules[head]
        return f"{real}.{rest}" if rest else real
    return dotted


def walk_condition_expressions(tree: ast.Module) -> Iterator[ast.expr]:
    """Yield every expression used as a control-flow condition."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            yield node.test
        elif isinstance(node, ast.Assert):
            yield node.test
        elif isinstance(node, ast.comprehension):
            for cond in node.ifs:
                yield cond
