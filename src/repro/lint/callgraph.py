"""Module-level call graph for the whole-program lint phase.

The per-file rules of :mod:`repro.lint` are deliberately local: each looks
at one AST and nothing else.  The purity rules (``PURE001``–``PURE003``)
need the opposite view — *which functions can execute while a pure
entrypoint runs* — so this module builds a conservative static call graph
over every linted file and computes the transitive closure from a set of
declared roots (see :mod:`repro.lint.purity`).

Resolution is best-effort and intentionally **over-approximates**:

* direct calls to module-level functions (local, ``from x import f``, and
  ``module.f`` forms) resolve exactly via the per-file import map;
* ``SomeClass(...)`` resolves to ``SomeClass.__init__`` and, for
  dataclasses, ``__post_init__`` (including inherited initializers);
* ``self.method()`` resolves within the defining class, its bases, *and*
  every subclass override (static virtual dispatch);
* ``obj.method()`` on a receiver of unknown type resolves *by name* to
  every method of that name anywhere in the graph — except names that
  collide with builtin container/string methods (``append``, ``items``,
  ``format``…), which would otherwise drag the whole tree into every
  region.

Over-approximation is sound for purity checking (a function is only ever
checked *more* often than strictly necessary); the name blocklist is the
one deliberate precision trade-off and is documented in EXPERIMENTS.md.
Properties and attribute reads are not traversed.

The build derives each fact once: every function body is walked once,
when it is collected (:attr:`FunctionInfo.nodes`,
:attr:`FunctionInfo.calls`, which every whole-program reader iterates,
and the scope facts :attr:`FunctionInfo.scopes` and
:attr:`FunctionInfo.local_names`),
each module's top-level names once (:attr:`CallGraph.names`), and each
class's direct subclasses once, so :meth:`CallGraph.subclasses` is a
lookup.

Everything here is pure stdlib ``ast`` and deterministic: modules are
processed in sorted path order and edge lists are sorted, so reachability
(and therefore the whole-program findings) is byte-stable across runs.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple, Union,
)

from repro.lint.base import (
    ImportMap, ParsedModule, dotted_name, in_package, resolve_call_target,
    resolve_dotted,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
#: (path, line, col) — the unit of attribution for events and findings.
Site = Tuple[str, int, int]
FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Method names never resolved by bare-name matching: they collide with
#: builtin list/dict/set/str/file methods, so a name match would connect
#: ``session.streams.append(...)`` to any user-defined ``append`` and melt
#: the pure region into the whole tree.  Calls through these names on a
#: *resolved* receiver (``self.update(...)``) still link exactly.
NAME_MATCH_BLOCKLIST = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "sort", "reverse", "add", "discard", "update", "get", "setdefault",
        "keys", "values", "items", "copy", "count", "index",
        "join", "split", "strip", "lstrip", "rstrip", "replace", "format",
        "startswith", "endswith", "encode", "decode", "lower", "upper",
        "read", "write", "close", "flush", "seek", "tell", "open",
        "appendleft", "popleft",
        "mean", "sum", "min", "max", "astype", "tolist", "item", "fill",
        "dump", "dumps", "load", "loads", "exists",
    }
)

#: Mutating container methods (used by the PURE001 rule when the receiver
#: is a module-level binding).
MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "sort", "reverse", "add", "discard", "update", "setdefault",
        "__setitem__", "__delitem__", "appendleft", "popleft",
    }
)


class ScopeFacts(NamedTuple):
    """A def whose own body declares ``global`` or ``nonlocal``.

    Its own body leaves out nested defs and classes but holds their
    decorators and defaults, which run in this scope."""

    node: ast.AST
    declarations: List[Union[ast.Global, ast.Nonlocal]]
    stores: List[ast.Name]
    """The ``Name`` stores of its own body: each may write a declared name."""

    def declared(self, kind: type) -> Set[str]:
        """The names its ``kind`` (``ast.Global``/``ast.Nonlocal``)
        statements declare."""
        return {
            name
            for node in self.declarations
            if isinstance(node, kind)
            for name in node.names
        }


#: The scope around a walked function: its decorators and defaults.
_OUTSIDE = ast.Module(body=[], type_ignores=[])


def _walk_scopes(
    root: FunctionNode,
) -> Tuple[List[ast.AST], List[ScopeFacts], FrozenSet[str]]:
    """``ast.walk(root)`` as a list, the :class:`ScopeFacts` of its defs
    that declare ``global`` or ``nonlocal`` (in that order), and the names
    *root* binds locally: its parameters and every ``Name`` it stores or
    deletes, less the names a ``global`` anywhere in it declares.

    The queue is ``ast.walk``'s, carrying each node's scope — the nearest
    enclosing def or class whose body holds it, the one a
    ``global``/``nonlocal`` statement binds in — so one walk yields all
    three.
    """
    nodes: List[ast.AST] = []
    stores: List[Tuple[ast.Name, ast.AST]] = []
    facts: Dict[ast.AST, ScopeFacts] = {}
    queue: Deque[Tuple[ast.AST, ast.AST]] = deque([(root, _OUTSIDE)])
    while queue:
        node, scope = queue.popleft()
        nodes.append(node)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            stores.append((node, scope))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            facts.setdefault(scope, ScopeFacts(scope, [], []))
            facts[scope].declarations.append(node)
        elif isinstance(node, SCOPE_TYPES):
            queue.extend(
                (child, node if isinstance(child, ast.stmt) else scope)
                for child in ast.iter_child_nodes(node)
            )
            continue
        queue.extend((child, scope) for child in ast.iter_child_nodes(node))
    args = root.args
    local = {name.id for name, _ in stores}
    local.update(
        arg.arg
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg]
        if arg is not None
    )
    for name, scope in stores:
        if scope in facts and isinstance(name.ctx, ast.Store):
            facts[scope].stores.append(name)
    for scope_facts in facts.values():
        local -= scope_facts.declared(ast.Global)
    declaring = [
        facts[node]
        for node in (nodes if facts else ())
        if node in facts and isinstance(node, FUNCTION_TYPES)
    ]
    return nodes, declaring, frozenset(local)


@dataclass
class FunctionInfo:
    """One module-level function or class method."""

    qualname: str
    """``repro.pkg.mod.func`` or ``repro.pkg.mod.Class.method``."""

    module: str
    path: str
    node: FunctionNode
    imports: ImportMap
    """The import map of the module the function is defined in."""

    class_name: Optional[str] = None

    nodes: List[ast.AST] = field(init=False, repr=False)
    """Every node of the body (nested defs included), in ``ast.walk``
    order: the function's one walk, which every whole-program reader
    iterates."""

    calls: Dict[ast.Call, Optional[str]] = field(init=False, repr=False)
    """Each call in :attr:`nodes` (same order) with its
    :func:`~repro.lint.base.resolve_call_target` value, which
    :meth:`CallGraph.build` follows through package re-exports
    (:meth:`CallGraph.origin`)."""

    scopes: List[ScopeFacts] = field(init=False, repr=False)
    """The defs in :attr:`nodes` (same order, this one included) whose own
    body declares ``global`` or ``nonlocal``, with what they declare and
    store: PURE001's and CKPT002's scope facts."""

    local_names: FrozenSet[str] = field(init=False, repr=False)
    """The names this function binds locally (see :func:`_walk_scopes`)."""

    def __post_init__(self) -> None:
        self.nodes, self.scopes, self.local_names = _walk_scopes(self.node)
        self.calls = {
            node: resolve_call_target(node, self.imports)
            for node in self.nodes
            if isinstance(node, ast.Call)
        }

    @property
    def name(self) -> str:
        return self.node.name

    def site(self, node: ast.AST) -> Site:
        """Where *node*, a node of this function, sits."""
        return (
            self.path,
            int(getattr(node, "lineno", self.node.lineno)),
            int(getattr(node, "col_offset", 0)),
        )


@dataclass
class ClassInfo:
    """One module-level class."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()
    """Resolved dotted base names (best effort)."""

    methods: Dict[str, str] = field(default_factory=dict)
    """method name -> function qualname."""

    is_dataclass: bool = False


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        name = dotted_name(deco.func if isinstance(deco, ast.Call) else deco)
        if name in {"dataclass", "dataclasses.dataclass"}:
            return True
    return False


class ModuleNames(NamedTuple):
    """One module's top-level names, built once per module per graph."""

    bindings: FrozenSet[str]
    """Names assigned at top level: the mutable module state."""

    classes: FrozenSet[str]

    int_consts: FrozenSet[str]
    """Names bound to an int literal: seed stream constants."""


class CallGraph:
    """Static call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.modules: Dict[str, ParsedModule] = {}
        self.edges: Dict[str, Tuple[str, ...]] = {}
        self.names: Dict[str, ModuleNames] = {}
        self._methods_by_name: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, List[str]] = {}
        """class -> the known classes naming it as a direct base."""

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, modules: Iterable[ParsedModule]) -> "CallGraph":
        graph = cls()
        ordered = sorted(modules, key=lambda m: m.path)
        for parsed in ordered:
            if not parsed.module:
                continue
            graph.modules[parsed.module] = parsed
            graph._collect_definitions(parsed)
        for module, parsed in graph.modules.items():
            graph.names[module] = _module_names(parsed.tree)
        for info in graph.classes.values():
            info.bases = tuple(graph.origin(base) for base in info.bases)
        for fn in graph.functions.values():
            fn.calls = {
                node: target if target is None else graph.origin(target)
                for node, target in fn.calls.items()
            }
        graph._index_methods()
        for qualname, info in graph.classes.items():
            for base in info.bases:
                if base in graph.classes:
                    graph._subclasses.setdefault(base, []).append(qualname)
        for qualname in sorted(graph.functions):
            graph.edges[qualname] = graph._resolve_edges(qualname)
        return graph

    def origin(self, qualname: str) -> str:
        """``qualname`` with each package re-export followed to the module
        it names: ``repro.fleet.run_fleet`` is ``repro.fleet.runner.run_fleet``
        when the linted ``repro.fleet`` imports ``run_fleet`` from there.
        Names the graph defines, and names no linted module imports, are
        returned as they are; an import cycle stops the chase."""
        seen: Set[str] = set()
        while (
            qualname not in self.functions
            and qualname not in self.classes
            and qualname not in seen
        ):
            seen.add(qualname)
            reexported = self._reexport(qualname)
            if reexported is None:
                break
            qualname = reexported
        return qualname

    def _reexport(self, qualname: str) -> Optional[str]:
        """Where the innermost linted module that ``qualname`` names
        imports the next name from, or ``None``."""
        parts = qualname.split(".")
        for i in range(len(parts) - 1, 0, -1):
            parsed = self.modules.get(".".join(parts[:i]))
            if parsed is not None:
                imported = parsed.imports.names.get(parts[i])
                if imported is None:
                    return None
                return ".".join([imported, *parts[i + 1 :]])
        return None

    def _collect_definitions(self, parsed: ParsedModule) -> None:
        for node in parsed.tree.body:
            if isinstance(node, FUNCTION_TYPES):
                qualname = f"{parsed.module}.{node.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=parsed.module,
                    path=parsed.path,
                    node=node,
                    imports=parsed.imports,
                )
            elif isinstance(node, ast.ClassDef):
                self._collect_class(parsed, node)

    def _collect_class(self, parsed: ParsedModule, node: ast.ClassDef) -> None:
        qualname = f"{parsed.module}.{node.name}"
        bases: List[str] = []
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is None:
                continue
            bases.append(
                resolve_dotted(dotted, parsed.imports, parsed.module)
            )
        info = ClassInfo(
            qualname=qualname,
            module=parsed.module,
            path=parsed.path,
            node=node,
            bases=tuple(bases),
            is_dataclass=_is_dataclass(node),
        )
        for item in node.body:
            if isinstance(item, FUNCTION_TYPES):
                method_qual = f"{qualname}.{item.name}"
                self.functions[method_qual] = FunctionInfo(
                    qualname=method_qual,
                    module=parsed.module,
                    path=parsed.path,
                    node=item,
                    imports=parsed.imports,
                    class_name=node.name,
                )
                info.methods[item.name] = method_qual
        self.classes[qualname] = info

    def _index_methods(self) -> None:
        for qualname, fn in self.functions.items():
            if fn.class_name is None:
                continue
            name = fn.name
            if name in NAME_MATCH_BLOCKLIST or name.startswith("__"):
                continue
            self._methods_by_name.setdefault(name, []).append(qualname)
        for matches in self._methods_by_name.values():
            matches.sort()

    # -- class hierarchy ----------------------------------------------------
    def ancestors(self, class_qualname: str) -> List[str]:
        """Known ancestor classes, nearest first (cycle-safe)."""
        out: List[str] = []
        seen: Set[str] = set()
        queue = list(self.classes[class_qualname].bases)
        while queue:
            base = queue.pop(0)
            if base in seen or base not in self.classes:
                continue
            seen.add(base)
            out.append(base)
            queue.extend(self.classes[base].bases)
        return out

    def subclasses(self, class_qualname: str) -> List[str]:
        """Every known class with *class_qualname* among its ancestors
        (cycle-safe: a class on a base cycle is its own subclass)."""
        out: Set[str] = set()
        queue = list(self._subclasses.get(class_qualname, ()))
        while queue:
            sub = queue.pop()
            if sub not in out:
                out.add(sub)
                queue.extend(self._subclasses.get(sub, ()))
        return sorted(out)

    def lookup_method(self, class_qualname: str, name: str) -> Optional[str]:
        """Resolve *name* on a class through its MRO (graph-known part)."""
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in self.ancestors(class_qualname):
            base_info = self.classes[base]
            if name in base_info.methods:
                return base_info.methods[name]
        return None

    def constructor_targets(self, class_qualname: str) -> List[str]:
        """Functions executed when ``Class(...)`` is evaluated."""
        targets: List[str] = []
        for method in ("__init__", "__post_init__", "__new__"):
            resolved = self.lookup_method(class_qualname, method)
            if resolved is not None:
                targets.append(resolved)
        return targets

    # -- edge resolution ----------------------------------------------------
    def _resolve_edges(self, qualname: str) -> Tuple[str, ...]:
        fn = self.functions[qualname]
        targets: Set[str] = set()
        class_qual = (
            f"{fn.module}.{fn.class_name}" if fn.class_name else None
        )
        for node in fn.calls:
            targets.update(
                self._resolve_call(node, fn.module, fn.imports, class_qual)
            )
        targets.discard(qualname)
        return tuple(sorted(targets))

    def _resolve_call(
        self,
        node: ast.Call,
        module: str,
        imports: ImportMap,
        class_qual: Optional[str],
    ) -> Set[str]:
        out: Set[str] = set()
        func = node.func
        # self.method(...) — exact + virtual dispatch over subclasses.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in {"self", "cls"}
            and class_qual is not None
        ):
            exact = self.lookup_method(class_qual, func.attr)
            if exact is not None:
                out.add(exact)
            for sub in self.subclasses(class_qual):
                override = self.classes[sub].methods.get(func.attr)
                if override is not None:
                    out.add(override)
            return out

        dotted = dotted_name(func)
        if dotted is not None:
            resolved = self.origin(resolve_dotted(dotted, imports, module))
            if resolved in self.functions:
                out.add(resolved)
                return out
            if resolved in self.classes:
                out.update(self.constructor_targets(resolved))
                return out

        # obj.method(...) on an unresolvable receiver: name match.
        if isinstance(func, ast.Attribute):
            name = func.attr
            if name not in NAME_MATCH_BLOCKLIST and not name.startswith("__"):
                out.update(self._methods_by_name.get(name, ()))
        return out

    # -- reachability -------------------------------------------------------
    def reachable(self, roots: Sequence[str], name: str) -> "Region":
        """The region *name*: the transitive closure of *roots* over the
        call edges, with the parent map that explains each member."""
        parent: Dict[str, Optional[str]] = {}
        queue: Deque[str] = deque()
        for root in sorted(set(roots)):
            if root in self.functions:
                parent[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            for target in self.edges.get(current, ()):
                if target not in parent:
                    parent[target] = current
                    queue.append(target)
        return Region(name, parent)


class Region(FrozenSet[str]):
    """The qualnames reachable from a set of roots, held as a value.

    Each region carries its own breadth-first parent map, so the witness
    chain of a member is read from the region it belongs to, and no
    region's reachability can disturb another's.
    """

    name: str
    """Names the region in a witness chain (``pure via root -> fn``)."""

    parent: Mapping[str, Optional[str]]
    """member -> the caller it was first reached from (``None``: a root)."""

    def __new__(
        cls, name: str, parent: Mapping[str, Optional[str]]
    ) -> "Region":
        region = super().__new__(cls, parent)
        region.name = name
        region.parent = parent
        return region

    def witness_path(self, qualname: str, limit: int = 6) -> List[str]:
        """Shortest known chain root → … → *qualname* (root first)."""
        chain: List[str] = []
        cursor: Optional[str] = qualname
        while cursor is not None and len(chain) < limit:
            chain.append(cursor)
            cursor = self.parent.get(cursor)
        chain.reverse()
        return chain

    def via(self, qualname: str) -> str:
        """`` (pure via root -> fn)``: why *qualname* is in the region, as
        a message suffix; empty for a root or a function outside it."""
        chain = self.witness_path(qualname)
        if len(chain) < 2:
            return ""
        short = [part.rsplit(".", 2)[-1] for part in chain[:4]]
        if len(chain) > 4:
            short.append("…")
        return f" ({self.name} via " + " -> ".join(short) + ")"


def _module_names(tree: ast.Module) -> ModuleNames:
    """A module's top-level names, from one pass over its body."""
    bindings: Set[str] = set()
    classes: Set[str] = set()
    int_consts: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.ClassDef):
            classes.add(node.name)
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    bindings.add(sub.id)
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
            and not isinstance(node.value.value, bool)
        ):
            int_consts.add(targets[0].id)
    return ModuleNames(
        frozenset(bindings), frozenset(classes), frozenset(int_consts)
    )


def build_graph(
    files: Mapping[str, ParsedModule],
    exclude_prefixes: Sequence[str] = (),
) -> CallGraph:
    """Build the graph, dropping modules under any excluded dotted prefix.

    Exclusion implements the *quarantine* concept: calls into a quarantined
    package (``repro.obs`` — the designed wall-clock surface) terminate at
    the graph boundary instead of dragging its internals into the pure
    region.
    """
    return CallGraph.build(
        parsed
        for parsed in files.values()
        if parsed.module and not in_package(parsed.module, exclude_prefixes)
    )
