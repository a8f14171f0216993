"""Rule framework: file context, rule base class, and the rule registry.

Every rule is a small class with a unique uppercase id (``DET001``, …), a
one-line contract, and a ``check`` method that walks one file's AST and
yields :class:`~repro.lint.findings.Finding` objects.  Rules register
themselves with the :func:`register` decorator; the engine instantiates the
registry fresh per run so rules may keep per-file state.

Rules never read the filesystem — the engine reads each module once into
a :class:`ParsedModule` (the tree, its node list, its import map, the
source lines and the *effective dotted module name*) and hands that same
object to every per-file rule, as :class:`FileContext`, and to the
whole-program phase.  The module name is how path-scoped rules (e.g. the
``repro.obs`` wall-clock quarantine) decide applicability.  Fixture files
outside the package tree can opt into a scope with a pragma comment::

    # repro: module=repro.net.fake

placed in the first few lines.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Type,
    TypeVar,
)

from repro.lint.findings import Finding
from repro.lint.suppressions import Suppression

if TYPE_CHECKING:
    from repro.lint.purity import ProgramContext

_MODULE_PRAGMA = re.compile(r"#\s*repro:\s*module=([A-Za-z_][\w.]*)")


@dataclass
class ImportMap:
    """Aliases under which interesting modules/names are visible in a file."""

    modules: Dict[str, str] = field(default_factory=dict)
    """local alias -> real dotted module (``np`` -> ``numpy``)."""

    names: Dict[str, str] = field(default_factory=dict)
    """local name -> real dotted origin (``default_rng`` ->
    ``numpy.random.default_rng``)."""


@dataclass
class ParsedModule:
    """One module, read once: everything either lint phase inspects.

    Built by :func:`repro.lint.engine.parse_module` — one parse, one
    ``ast.walk`` (kept as :attr:`nodes`), one import map and one reading of
    the inline suppressions per file.  The per-file rules iterate
    :attr:`nodes`; the call graph and every whole-program rule read
    :attr:`imports`; both phases apply :attr:`suppressions`.
    """

    path: str
    """Path as reported in findings (relative to the lint root)."""

    module: str
    """Effective dotted module name (e.g. ``repro.net.tcp``); empty when the
    file is outside a recognizable package and carries no pragma."""

    tree: ast.Module
    lines: Sequence[str]
    """Physical source lines, 0-indexed (``lines[lineno - 1]``)."""

    nodes: Sequence[ast.AST]
    """Every node of :attr:`tree`, in ``ast.walk`` order."""

    imports: ImportMap
    suppressions: Dict[int, List[Suppression]]
    malformed: List[Finding]
    """``LINT000`` findings: suppressions missing their reason."""

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


#: What a per-file rule's ``check`` receives: the module's one reading.
FileContext = ParsedModule


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
        self, ctx: FileContext, node: ast.AST, message: str
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


class ProgramRule:
    """Base class for whole-program rules (PURE, SEED, CKPT, DUR): they
    read the run's one :class:`~repro.lint.purity.ProgramContext`, not a
    file, and build every finding with its ``finding``."""

    id: str = ""
    summary: str = ""

    def check_program(self, program: "ProgramContext") -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}
_PROGRAM_REGISTRY: Dict[str, Type[ProgramRule]] = {}

#: The whole-program families, in the order ``repro lint --rules`` lists
#: them (after the per-file rules).
_FAMILIES = ("PURE", "SEED", "CKPT", "DUR")

_RuleClass = TypeVar("_RuleClass", Type[Rule], Type[ProgramRule])


def register(rule_cls: _RuleClass) -> _RuleClass:
    """Class decorator adding *rule_cls* to the registry: a per-file
    :class:`Rule` or a whole-program :class:`ProgramRule`."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY or rule_cls.id in _PROGRAM_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    if issubclass(rule_cls, ProgramRule):
        _PROGRAM_REGISTRY[rule_cls.id] = rule_cls
    else:
        _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (idempotent, lazy to avoid import
    cycles): each module registers its rules on import."""
    from repro.lint import (  # noqa: F401
        rules_api,
        rules_ckpt,
        rules_det,
        rules_durability,
        rules_obs,
        rules_purity,
        rules_seed,
        rules_sim,
    )


def registered_rules() -> Dict[str, Type[Rule]]:
    """Snapshot of the per-file registry (id -> rule class), sorted by id."""
    _load_builtin_rules()
    return dict(sorted(_REGISTRY.items()))


def program_rules() -> List[ProgramRule]:
    """Fresh instances of every whole-program rule, family by family."""
    _load_builtin_rules()
    return [
        _PROGRAM_REGISTRY[rule_id]()
        for rule_id in sorted(
            _PROGRAM_REGISTRY, key=lambda i: (_FAMILIES.index(i[:-3]), i)
        )
    ]


def make_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the per-file rules, optionally restricted to ``select``
    (whole-program ids are not selectable)."""
    _load_builtin_rules()
    unknown = sorted(set(select or ()) - set(_REGISTRY))
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return [
        rule_cls()
        for rule_id, rule_cls in sorted(_REGISTRY.items())
        if select is None or rule_id in select
    ]


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


def collect_imports(nodes: Iterable[ast.AST]) -> ImportMap:
    """The import map of a module, from its nodes (``ast.walk`` order)."""
    imports = ImportMap()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports.names[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return imports


def in_package(module: str, prefixes: Iterable[str]) -> bool:
    """True when dotted *module* sits under any dotted prefix."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def resolve_dotted(
    dotted: str, imports: ImportMap, module: str = ""
) -> str:
    """Fully qualify a dotted reference through the file's import map.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; ``default_rng`` after
    ``from numpy.random import default_rng`` resolves the same.  A name
    the file does not import qualifies against *module* when one is given
    (``helper`` in ``pkg.mod`` is ``pkg.mod.helper``).
    """
    head, _, rest = dotted.partition(".")
    if head in imports.names:
        origin = imports.names[head]
    elif head in imports.modules:
        origin = imports.modules[head]
    else:
        return f"{module}.{dotted}" if module else dotted
    return f"{origin}.{rest}" if rest else origin


def resolve_call_target(
    node: ast.Call, imports: ImportMap
) -> Optional[str]:
    """Best-effort fully-qualified dotted target of a call."""
    dotted = dotted_name(node.func)
    return None if dotted is None else resolve_dotted(dotted, imports)


def walk_condition_expressions(nodes: Iterable[ast.AST]) -> Iterator[ast.expr]:
    """Yield every expression used as a control-flow condition."""
    for node in nodes:
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            yield node.test
        elif isinstance(node, ast.Assert):
            yield node.test
        elif isinstance(node, ast.comprehension):
            for cond in node.ifs:
                yield cond
