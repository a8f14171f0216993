"""Whole-program purity rules: PURE001, PURE002, PURE003.

These run in the engine's *whole-program phase* (``repro lint
--whole-program``), not per file: each inspects only functions inside the
**pure region** — the transitive closure of the declared purity roots over
the :mod:`repro.lint.callgraph` call graph.

=========  ===============================================================
PURE001    a pure-region function writes module-level state: rebinding a
           ``global``, mutating a module-level container (subscript /
           ``.append()``-style), writing a class-level attribute, or
           writing an enclosing-scope cell via ``nonlocal``
PURE002    a pure-region function calls a known-impure stdlib surface:
           wall clock (``time.time``/``perf_counter``/…), the stdlib or
           numpy module-global RNG, ``os.environ`` writes /
           ``os.putenv``, ``os.urandom``, ``uuid.uuid1/uuid4``,
           ``secrets.*``
PURE003    a pure-region function *accepts* an RNG parameter but also
           constructs one (the ``rng if rng is not None else
           default_rng(seed)`` fallback idiom is recognized and exempt)
=========  ===============================================================

Findings are attributed to the offending call/statement in the file where
it lives, and the message carries the shortest known call chain from a
purity root so the report explains *why* that function is in the region.
Waivers use the ordinary inline suppression syntax
(``# repro: allow-PURE001(reason)``).  The tree needs none: the per-process
scheme-instance cache lives on the fork-inherited
``repro.experiment.parallel.SessionPayload``, not in a module global.

Unlike the per-file rules these are **not** in the :func:`repro.lint.base
.register` registry (they cannot run on a single file in isolation); the
engine invokes them through :func:`make_purity_rules`.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, Iterator, List, Optional, Set

from repro.lint.base import ImportMap
from repro.lint.callgraph import MUTATING_METHODS, FunctionInfo, FunctionNode
from repro.lint.findings import Finding
from repro.lint.purity import ProgramContext
from repro.lint.rules_det import _STDLIB_RANDOM_GLOBALS, _WALL_CLOCK_TARGETS

#: RNG constructors for PURE003.
_RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: Known-impure call targets beyond the wall clock (PURE002).
_EXTRA_IMPURE_TARGETS = frozenset(
    {
        "os.putenv",
        "os.unsetenv",
        "os.urandom",
        "os.getenv",  # reads ambient process state the harness never set
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)


class PurityRule:
    """Base class for whole-program rules (parallel to per-file ``Rule``)."""

    id: str = ""
    summary: str = ""
    region: str = "pure"
    """Names the region in the witness chain (``pure via root -> fn``)."""

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, fn: FunctionInfo, node: ast.AST, message: str,
        program: ProgramContext,
    ) -> Finding:
        return self.finding_at(
            fn,
            int(getattr(node, "lineno", fn.node.lineno)),
            int(getattr(node, "col_offset", 0)),
            message,
            program,
        )

    def finding_at(
        self, fn: FunctionInfo, lineno: int, col: int, message: str,
        program: ProgramContext,
    ) -> Finding:
        """A finding in *fn* carrying its witness chain from a root."""
        chain = program.graph.witness_path(fn.qualname)
        if len(chain) > 1:
            short = [part.rsplit(".", 2)[-1] for part in chain[:4]]
            if len(chain) > 4:
                short.append("…")
            via = f" ({self.region} via " + " -> ".join(short) + ")"
        else:
            via = ""
        return Finding(
            rule=self.id,
            path=fn.path,
            line=lineno,
            col=col,
            message=message + via,
            source_line=program.graph.modules[fn.module].source_line(lineno),
        )

    # -- shared helpers ----------------------------------------------------
    @staticmethod
    def _iter_pure_functions(
        program: ProgramContext,
    ) -> Iterator[FunctionInfo]:
        for qualname in program.pure_functions():
            yield program.graph.functions[qualname]


def _local_names(fn: FunctionInfo) -> Set[str]:
    """Names bound locally inside a function (params + stores + targets)."""
    out: Set[str] = set()
    declared_global: Set[str] = set()
    args = fn.node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        out.add(arg.arg)
    for sub in fn.nodes:
        if isinstance(sub, ast.Name) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            out.add(sub.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            for target in ast.walk(sub.target):
                if isinstance(target, ast.Name):
                    out.add(target.id)
        elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
            for target in ast.walk(sub.optional_vars):
                if isinstance(target, ast.Name):
                    out.add(target.id)
        elif isinstance(sub, ast.Global):
            declared_global.update(sub.names)
    # A `global` declaration un-localizes the name again.
    return out - declared_global


def _scope_nodes(scope: FunctionNode) -> Iterator[ast.AST]:
    """Nodes belonging to *scope*'s own body, pruning nested defs/classes.

    ``global``/``nonlocal`` declarations are scope-local, so rules that
    care about them must not mix statements across nesting levels.
    """
    stack: List[ast.AST] = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class PureGlobalWriteRule(PurityRule):
    """PURE001 — no writes to module globals from inside the pure region."""

    id = "PURE001"
    summary = (
        "pure-region function writes shared module state (global rebind, "
        "module-level container mutation, class attribute, nonlocal cell)"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for fn in self._iter_pure_functions(program):
            yield from self._check_function(program, fn)

    def _check_function(
        self, program: ProgramContext, fn: FunctionInfo
    ) -> Iterator[Finding]:
        names = program.graph.names[fn.module]
        # Class names visible via `from x import Cls` count too.
        imported_classes = {
            alias
            for alias, origin in fn.imports.names.items()
            if origin.rsplit(".", 1)[-1][:1].isupper()
        }
        local = _local_names(fn)

        def module_binding(name: str) -> bool:
            return (
                name in names.bindings
                and name not in local
                and name not in {"self", "cls"}
            )

        # (a) rebinding a declared global / nonlocal.  ``global``/``nonlocal``
        # declarations only affect the scope they appear in, so each def in
        # the subtree is analysed as its own scope — an outer function that
        # merely *binds* a name some nested closure later declares nonlocal
        # is not itself writing a cell.
        for scope in fn.declaring_defs:
            declared_global: Set[str] = set()
            declared_nonlocal: Set[str] = set()
            scope_nodes = list(_scope_nodes(scope))
            for node in scope_nodes:
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
                elif isinstance(node, ast.Nonlocal):
                    declared_nonlocal.update(node.names)
            for node in scope_nodes:
                if not (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store)
                ):
                    continue
                if node.id in declared_global:
                    yield self.finding(
                        fn, node,
                        f"writes module global {node.id!r} from the pure "
                        "region — session results must not depend on or "
                        "mutate cross-session process state",
                        program,
                    )
                elif node.id in declared_nonlocal:
                    yield self.finding(
                        fn, node,
                        f"writes enclosing-scope cell {node.id!r} from the "
                        "pure region — closures over mutable cells leak "
                        "state between sessions",
                        program,
                    )

        for node in fn.nodes:
            # (b) mutating a module-level container: X[k] = v / X.attr = v.
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    list(node.targets)
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    yield from self._check_store_target(
                        fn, target, module_binding, names.classes,
                        imported_classes, program,
                    )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    yield from self._check_store_target(
                        fn, target, module_binding, names.classes,
                        imported_classes, program,
                    )
            # (c) mutating method call on a module-level binding.
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in MUTATING_METHODS
                    and module_binding(func.value.id)
                ):
                    yield self.finding(
                        fn, node,
                        f"mutates module-level {func.value.id!r} via "
                        f".{func.attr}() from the pure region — "
                        "per-session state must live on the session, not "
                        "the module",
                        program,
                    )

    def _check_store_target(
        self,
        fn: FunctionInfo,
        target: ast.expr,
        module_binding: "Callable[[str], bool]",
        class_names: FrozenSet[str],
        imported_classes: Set[str],
        program: ProgramContext,
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            if module_binding(target.value.id):
                yield self.finding(
                    fn, target,
                    f"assigns into module-level {target.value.id!r} from "
                    "the pure region — a cross-session cache breaks "
                    "session independence",
                    program,
                )
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            base = target.value.id
            if base in class_names or base in imported_classes:
                yield self.finding(
                    fn, target,
                    f"writes class-level attribute {base}.{target.attr} "
                    "from the pure region — class attributes are shared "
                    "across every session in the process",
                    program,
                )
            elif module_binding(base):
                yield self.finding(
                    fn, target,
                    f"writes attribute .{target.attr} of module-level "
                    f"{base!r} from the pure region — shared singleton "
                    "state leaks between sessions",
                    program,
                )


class PureImpureCallRule(PurityRule):
    """PURE002 — no known-impure stdlib calls inside the pure region."""

    id = "PURE002"
    summary = (
        "pure-region function calls an impure stdlib surface (wall clock, "
        "module-global RNG, os.environ writes, entropy sources)"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for fn in self._iter_pure_functions(program):
            for node in fn.nodes:
                if isinstance(node, ast.Call):
                    message = self._diagnose_call(node, fn.calls[node])
                    if message is not None:
                        yield self.finding(fn, node, message, program)
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        list(node.targets)
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if self._is_environ_store(target, fn.imports):
                            yield self.finding(
                                fn, node,
                                "writes os.environ from the pure region — "
                                "environment mutations are process-global "
                                "and survive the session",
                                program,
                            )

    def _diagnose_call(
        self, node: ast.Call, target: Optional[str]
    ) -> Optional[str]:
        if target is None:
            return None
        if target in _WALL_CLOCK_TARGETS:
            return (
                f"{target}() reads the wall clock inside the pure region — "
                "nothing reachable from a purity root may observe real time"
            )
        if target in _EXTRA_IMPURE_TARGETS:
            return (
                f"{target}() is impure (ambient process state or OS "
                "entropy) — forbidden inside the pure region"
            )
        if target.startswith("random."):
            attr = target[len("random."):]
            if "." not in attr and attr in _STDLIB_RANDOM_GLOBALS:
                return (
                    f"random.{attr}() draws from the stdlib's hidden global "
                    "RNG inside the pure region — every draw must flow from "
                    "an explicitly passed generator"
                )
        if target.startswith("numpy.random."):
            attr = target[len("numpy.random."):]
            if "." not in attr and attr[:1].islower() and attr not in {
                "default_rng",
            }:
                return (
                    f"numpy.random.{attr}() draws from numpy's module-"
                    "global RNG inside the pure region — use a seeded "
                    "Generator passed in from the session"
                )
            if attr == "default_rng" and not node.args and not node.keywords:
                return (
                    "numpy.random.default_rng() without a seed pulls OS "
                    "entropy inside the pure region"
                )
        if target.startswith("os.environ."):
            method = target[len("os.environ."):]
            if method in {"update", "setdefault", "pop", "clear",
                          "__setitem__", "__delitem__"}:
                return (
                    f"os.environ.{method}() mutates the process "
                    "environment inside the pure region"
                )
        return None

    @staticmethod
    def _is_environ_store(target: ast.expr, imports: ImportMap) -> bool:
        """``os.environ[...] = v`` (through any import alias of ``os``)."""
        if not isinstance(target, ast.Subscript):
            return False
        value = target.value
        if not (
            isinstance(value, ast.Attribute) and value.attr == "environ"
        ):
            return False
        base = value.value
        if not isinstance(base, ast.Name):
            return False
        resolved = imports.modules.get(base.id, base.id)
        return resolved == "os"


class PureRngDualityRule(PurityRule):
    """PURE003 — a function given an RNG must not construct another one."""

    id = "PURE003"
    summary = (
        "pure-region function accepts an RNG parameter but also constructs "
        "one (two generators in one scope defeats seed-flow auditing)"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for fn in self._iter_pure_functions(program):
            rng_params = _rng_parameters(fn.node)
            if not rng_params:
                continue
            exempt = _none_fallback_nodes(fn.nodes, rng_params)
            for node, target in fn.calls.items():
                if id(node) in exempt:
                    continue
                if target in _RNG_CONSTRUCTORS:
                    yield self.finding(
                        fn, node,
                        f"constructs {target}(...) although the function "
                        f"already receives {sorted(rng_params)[0]!r} — "
                        "derive sub-streams from the passed generator (or "
                        "an explicit seed parameter) instead of creating "
                        "an independent one",
                        program,
                    )


def _rng_parameters(node: FunctionNode) -> Set[str]:
    names: Set[str] = set()
    args = node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
    ):
        if arg.arg == "rng" or arg.arg.endswith("_rng"):
            names.add(arg.arg)
    return names


def _none_fallback_nodes(
    nodes: List[ast.AST], rng_params: Set[str]
) -> Set[int]:
    """Node ids exempt from PURE003: the ``rng if rng is not None else
    default_rng(seed)`` fallback idiom (conditional expression or ``if``
    statement testing the RNG parameter against ``None``)."""

    def mentions_param_and_none(test: ast.expr) -> bool:
        has_param = any(
            isinstance(sub, ast.Name) and sub.id in rng_params
            for sub in ast.walk(test)
        )
        has_none = any(
            isinstance(sub, ast.Constant) and sub.value is None
            for sub in ast.walk(test)
        )
        return has_param and has_none

    exempt: Set[int] = set()
    for node in nodes:
        if isinstance(node, ast.IfExp) and mentions_param_and_none(node.test):
            for branch in (node.body, node.orelse):
                exempt.update(id(sub) for sub in ast.walk(branch))
        elif isinstance(node, ast.If) and mentions_param_and_none(node.test):
            for stmt in list(node.body) + list(node.orelse):
                exempt.update(id(sub) for sub in ast.walk(stmt))
        elif isinstance(node, ast.BoolOp):
            # `rng = rng or default_rng(seed)` — weaker but same intent.
            if any(
                isinstance(v, ast.Name) and v.id in rng_params
                for v in node.values
            ):
                exempt.update(id(sub) for sub in ast.walk(node))
    return exempt


def make_purity_rules() -> List[PurityRule]:
    """Fresh instances of every whole-program rule, in id order."""
    return [PureGlobalWriteRule(), PureImpureCallRule(), PureRngDualityRule()]
