"""Interprocedural, flow-sensitive seed-lineage dataflow analysis.

Every reproducibility guarantee in this repo rests on *disciplined seed
derivation*: independent random streams must be separated by folding a
domain constant into a tuple seed (``(trial_seed, 0x7E1E, session_id,
stream_no)``), never by arithmetic on a shared integer (``seed * p + i``),
which lets streams collide under permutation of their free indices and
correlates experiment arms.  This module tracks how seed values propagate
from their roots (``seed``-named parameters, ``*.seed`` attribute reads,
``seed``-named unpacking targets) through arithmetic, tuple folds, and
call arguments into RNG-consuming sinks, and records a stream of
:class:`SeedEvent` objects that the ``SEED001``–``SEED004`` rules
(:mod:`repro.lint.rules_seed`) interpret.

The analysis layers on :class:`repro.lint.callgraph.CallGraph`:

* **roots** — parameters named ``seed``/``*_seed``, attribute reads of the
  form ``X.seed``/``X.*_seed``, and ``seed``-named assignment targets whose
  right-hand side is untracked (unpacking a payload tuple re-roots the
  name: packing a value into a payload and unpacking it in a worker is the
  hand-off idiom, not a derivation);
* **derivations** — any arithmetic ``BinOp`` over a tracked value marks the
  lineage *derived* and records the free (non-constant, non-tracked)
  variable names involved;
* **domain separation** — folding the value into a tuple containing a
  constant element (an int literal or a module-level name bound to one),
  or routing it through ``numpy.random.SeedSequence``/``.spawn``, marks
  the lineage separated and clears any pending fold violation;
* **sinks** — RNG constructors (``numpy.random.default_rng`` / ``Generator``
  / ``RandomState``, ``random.Random``); calls to *resolved* module-level
  functions are followed interprocedurally (bounded inlining with the
  caller's lineages bound to the callee's parameters); calls to resolved
  classes that construct an RNG anywhere in their methods, and
  ``seed=``-keyword calls to unresolved callees, count as *handoffs* —
  independent consumers of the seed value;
* **boundaries** — a generator-tainted value (the result of an RNG
  constructor, or an ``rng``-named parameter) passed to
  ``repro.experiment.parallel.fork_map`` or a pool-style method crosses a
  process boundary, which a ``Generator`` must never do (the worker cannot
  reproduce the stream from a pickled generator's identity; seeds must
  cross as tuples).

Nested function definitions are not traversed (they are not in the call
graph); the checkpoint rules cover the driver-closure patterns separately.
Everything here is pure stdlib ``ast`` and deterministic: functions are
visited in sorted qualname order and events are deduplicated by value, so
the downstream findings are byte-stable across runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.base import dotted_name, resolve_call_target, resolve_dotted
from repro.lint.callgraph import CallGraph, FunctionInfo, Site

#: RNG constructors: materializing one of these from a seed is a *sink*;
#: PURE003 flags building one beside an RNG parameter.
RNG_SINKS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: Explicit domain-separation constructors (the numpy-blessed spawn API).
_SPAWN_TARGETS = frozenset({"numpy.random.SeedSequence"})

#: Process-boundary callables a Generator must never cross (SEED004).
BOUNDARY_FUNCTIONS = frozenset({"repro.experiment.parallel.fork_map"})

#: Pool-style method names treated as process boundaries on any receiver.
#: ``map`` itself is too generic (builtin, Executor, Series, ...), so the
#: fork-pool entrypoint above carries that case for this tree.
POOL_METHODS = frozenset(
    {
        "imap",
        "imap_unordered",
        "map_async",
        "starmap",
        "starmap_async",
        "apply_async",
        "submit",
    }
)

#: Bare-name builtins through which a seed value passes unchanged.
_PASSTHROUGH_BUILTINS = frozenset({"int", "abs", "min", "max", "tuple"})

#: Callables that *store* a seed rather than consume it: the stored field
#: re-roots on its next attribute read, so the handoff is not a sink.
_BENIGN_SEED_TARGETS = frozenset({"dataclasses.replace"})

#: Bound on interprocedural inlining (per call chain).
_MAX_INLINE_DEPTH = 6


def _seedish(name: str) -> bool:
    return name == "seed" or name.endswith("_seed")


def rngish(name: str) -> bool:
    return name == "rng" or name.endswith("_rng")


def _named_root(owner: str, name: str) -> Optional[Set[Lineage]]:
    """The lineage a seed- or RNG-named variable of *owner* starts with
    when nothing tracked reached it, else ``None``."""
    if _seedish(name):
        return {Lineage(root=f"{owner}.{name}")}
    if rngish(name):
        return {Lineage(root=f"{owner}.{name}", is_generator=True)}
    return None


@dataclass(frozen=True)
class Lineage:
    """One tracked value: where it came from and what happened to it."""

    root: str
    """Human-readable origin (``repro.x.f.seed`` or ``config.seed``)."""

    derived: bool = False
    """At least one arithmetic step was applied."""

    free_vars: Tuple[str, ...] = ()
    """Non-constant, non-tracked names folded in arithmetically."""

    domain_separated: bool = False
    """Folded into a tuple with a constant element (or SeedSequence)."""

    is_generator: bool = False
    """The value is (or contains) a constructed ``Generator``."""

    derive_site: Optional[Site] = None
    """First arithmetic derivation site (attribution for SEED001/002)."""

    fold_site: Optional[Site] = None
    """Tuple fold *without* a constant element (attribution for SEED003)."""


@dataclass(frozen=True)
class SeedEvent:
    """One consumption of a tracked value."""

    kind: str
    """``"sink"`` (RNG constructor), ``"handoff"`` (independent consumer),
    or ``"boundary"`` (generator crossing a process boundary)."""

    lineage: Lineage
    site: Site
    """Where the consumption happens."""

    fn: str
    """Qualname of the function containing the consumption site."""

    target: str
    """Description of the consumer (dotted callable name)."""


@dataclass
class SeedFlow:
    """The analysis result the SEED rules interpret."""

    events: List[SeedEvent] = field(default_factory=list)


def analyze_seed_flow(graph: CallGraph) -> SeedFlow:
    """Run the lineage analysis over every function in *graph*."""
    return _Analyzer(graph).run()


# ---------------------------------------------------------------------------
# The analyzer.
# ---------------------------------------------------------------------------


class _Analyzer:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._events: List[SeedEvent] = []
        self._event_keys: Set[SeedEvent] = set()
        self._rng_consuming: Dict[str, bool] = {}
        self._muted = 0

    def run(self) -> SeedFlow:
        for qualname in sorted(self.graph.functions):
            fn = self.graph.functions[qualname]
            env = self._root_env(fn)
            _FunctionScan(self, fn, env, chain=(qualname,)).run()
        return SeedFlow(events=list(self._events))

    # -- shared context ------------------------------------------------------
    def emit(self, event: SeedEvent) -> None:
        if self._muted:
            return
        if event not in self._event_keys:
            self._event_keys.add(event)
            self._events.append(event)

    def rng_consuming(self, class_qual: str) -> bool:
        """Does any method of the class construct an RNG?  A class that
        does is an independent seed consumer; a plain config dataclass
        merely stores the value."""
        cached = self._rng_consuming.get(class_qual)
        if cached is not None:
            return cached
        result = False
        info = self.graph.classes.get(class_qual)
        if info is not None:
            result = any(
                target in RNG_SINKS
                for method_qual in info.methods.values()
                for target in self.graph.functions[method_qual].calls.values()
            )
            if not result:
                for base in self.graph.ancestors(class_qual):
                    if self.rng_consuming(base):
                        result = True
                        break
        self._rng_consuming[class_qual] = result
        return result

    def _root_env(self, fn: FunctionInfo) -> Dict[str, Set[Lineage]]:
        env: Dict[str, Set[Lineage]] = {}
        args = fn.node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            root = _named_root(fn.qualname, arg.arg)
            if root is not None:
                env[arg.arg] = root
        return env


class _FunctionScan:
    """Flow-sensitive walk over one function body."""

    def __init__(
        self,
        analyzer: _Analyzer,
        fn: FunctionInfo,
        env: Dict[str, Set[Lineage]],
        chain: Tuple[str, ...],
    ) -> None:
        self.analyzer = analyzer
        self.graph = analyzer.graph
        self.fn = fn
        self.env = env
        self.chain = chain
        self.imports = fn.imports
        self.consts = analyzer.graph.names[fn.module].int_consts
        self.returns: Set[Lineage] = set()

    def run(self) -> Set[Lineage]:
        self._stmts(self.fn.node.body)
        return self.returns

    # -- statements ----------------------------------------------------------
    def _stmts(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            values = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, stmt.value, values)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                values = self._eval(stmt.value)
                self._assign(stmt.target, stmt.value, values)
        elif isinstance(stmt, ast.AugAssign):
            synthetic = ast.BinOp(
                left=stmt.target, op=stmt.op, right=stmt.value
            )
            ast.copy_location(synthetic, stmt)
            values = self._eval_binop(synthetic)
            if isinstance(stmt.target, ast.Name):
                if values:
                    self.env[stmt.target.id] = values
                else:
                    self.env.pop(stmt.target.id, None)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self._eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter)
            self._bind_fresh(stmt.target)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_fresh(item.optional_vars)
            self._stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        # Nested defs/classes, imports, pass, etc.: not traversed.

    def _assign(
        self,
        target: ast.expr,
        value_node: ast.expr,
        values: Set[Lineage],
    ) -> None:
        if isinstance(target, ast.Name):
            if values:
                self.env[target.id] = set(values)
            elif _seedish(target.id):
                # Untracked RHS into a seed-named binding: a fresh root
                # (the payload-unpack / config-read idiom).
                self.env[target.id] = {
                    Lineage(root=f"{self.fn.qualname}.{target.id}")
                }
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value_node, ast.Tuple) and len(
                value_node.elts
            ) == len(target.elts):
                for sub_target, sub_value in zip(
                    target.elts, value_node.elts
                ):
                    self._assign(
                        sub_target, sub_value, self._eval_cached(sub_value)
                    )
            else:
                # Unpacking an opaque value (a payload tuple, a call
                # result): every element re-roots by name.
                for sub_target in target.elts:
                    self._bind_fresh(sub_target)
        # Attribute/Subscript stores: the value parks in an object; the
        # next attribute read re-roots it.

    def _bind_fresh(self, target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                root = _named_root(self.fn.qualname, node.id)
                if root is not None:
                    self.env[node.id] = root
                else:
                    self.env.pop(node.id, None)

    # -- expressions ---------------------------------------------------------
    def _eval_cached(self, node: ast.expr) -> Set[Lineage]:
        """Re-evaluate without re-emitting events (values only)."""
        self.analyzer._muted += 1
        try:
            return self._eval(node)
        finally:
            self.analyzer._muted -= 1

    def _eval(self, node: ast.expr) -> Set[Lineage]:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            if _seedish(node.attr):
                root = dotted_name(node) or f"<expr>.{node.attr}"
                return {Lineage(root=root)}
            if rngish(node.attr):
                root = dotted_name(node) or f"<expr>.{node.attr}"
                return {Lineage(root=root, is_generator=True)}
            if not isinstance(node.value, ast.Name):
                self._eval(node.value)
            return set()
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: Set[Lineage] = set()
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comparator in node.comparators:
                self._eval(comparator)
            return set()
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            return self._eval_fold(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            self._eval(node.value)
            self._eval(node.slice)
            return set()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for comp in node.generators:
                self._eval(comp.iter)
                self._bind_fresh(comp.target)
                for cond in comp.ifs:
                    self._eval(cond)
            self._eval(node.elt)
            return set()
        if isinstance(node, ast.DictComp):
            for comp in node.generators:
                self._eval(comp.iter)
                self._bind_fresh(comp.target)
                for cond in comp.ifs:
                    self._eval(cond)
            self._eval(node.key)
            self._eval(node.value)
            return set()
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key)
            for value in node.values:
                self._eval(value)
            return set()
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value)
            return set()
        if isinstance(node, ast.Lambda):
            return set()
        return set()

    def _eval_binop(self, node: ast.BinOp) -> Set[Lineage]:
        combined = self._eval(node.left) | self._eval(node.right)
        tracked = {lin for lin in combined if not lin.is_generator}
        if not tracked:
            return set()
        free = self._free_vars(node)
        out: Set[Lineage] = set()
        for lin in tracked:
            site = lin.derive_site or self.fn.site(node)
            out.add(
                replace(
                    lin,
                    derived=True,
                    free_vars=tuple(sorted(set(lin.free_vars) | free)),
                    domain_separated=False,
                    derive_site=site,
                )
            )
        return out

    def _free_vars(self, node: ast.BinOp) -> Set[str]:
        """Standalone ``Name`` loads in an arithmetic subtree that are
        neither tracked values nor module-level constants."""
        skip: Set[int] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                skip.add(id(sub.value))
            elif isinstance(sub, ast.Call):
                skip.add(id(sub.func))
        free: Set[str] = set()
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and id(sub) not in skip
                and not self.env.get(sub.id)
                and sub.id not in self.consts
            ):
                free.add(sub.id)
        return free

    def _eval_fold(self, node: "ast.Tuple | ast.List") -> Set[Lineage]:
        carried: Set[Lineage] = set()
        for elt in node.elts:
            carried |= self._eval(elt)
        if not carried:
            return set()
        has_const = any(self._const_element(elt) for elt in node.elts)
        out: Set[Lineage] = set()
        for lin in carried:
            if lin.is_generator:
                out.add(lin)
            elif has_const:
                out.add(replace(lin, domain_separated=True, fold_site=None))
            else:
                out.add(
                    replace(lin, fold_site=lin.fold_site or self.fn.site(node))
                )
        return out

    def _const_element(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(
            node.value, int
        ) and not isinstance(node.value, bool):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.operand, ast.Constant
        ):
            return isinstance(node.operand.value, int)
        if isinstance(node, ast.Name) and node.id in self.consts:
            return True
        return False

    # -- calls ---------------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Set[Lineage]:
        dotted = dotted_name(node.func)
        target = resolve_call_target(node, self.imports)
        graph_target = (
            self.graph.origin(
                resolve_dotted(dotted, self.imports, self.fn.module)
            )
            if dotted is not None
            else None
        )

        # A chained receiver (``PathSampler(...).next_path()``) hides a
        # call inside ``func.value`` — evaluate it so its events fire.
        if isinstance(node.func, ast.Attribute) and not isinstance(
            node.func.value, ast.Name
        ):
            self._eval(node.func.value)

        positional: List[Set[Lineage]] = [
            self._eval(arg) for arg in node.args
        ]
        keyword: List[Tuple[Optional[str], Set[Lineage]]] = [
            (kw.arg, self._eval(kw.value)) for kw in node.keywords
        ]
        all_lineages: Set[Lineage] = set()
        for group in positional:
            all_lineages |= group
        for _, group in keyword:
            all_lineages |= group
        seeds = {lin for lin in all_lineages if not lin.is_generator}
        generators = {lin for lin in all_lineages if lin.is_generator}

        # 1. RNG constructors: the sinks.
        if target in RNG_SINKS:
            assert target is not None
            for lin in seeds:
                self.analyzer.emit(
                    SeedEvent(
                        kind="sink",
                        lineage=lin,
                        site=self.fn.site(node),
                        fn=self.fn.qualname,
                        target=target,
                    )
                )
            site = self.fn.site(node)
            return {
                Lineage(
                    root=f"{target}@{site[1]}",
                    is_generator=True,
                )
            }

        # 2. Explicit domain separation (SeedSequence / .spawn).
        if target in _SPAWN_TARGETS:
            return {
                replace(lin, domain_separated=True, fold_site=None)
                for lin in seeds
            }
        if isinstance(node.func, ast.Attribute) and node.func.attr == "spawn":
            received = self._eval(node.func.value)
            return {
                replace(lin, domain_separated=True, fold_site=None)
                for lin in received
                if not lin.is_generator
            }

        # 3. Process boundaries (SEED004).
        is_boundary = (
            target in BOUNDARY_FUNCTIONS
            or graph_target in BOUNDARY_FUNCTIONS
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in POOL_METHODS
            )
        )
        if is_boundary:
            for lin in generators:
                self.analyzer.emit(
                    SeedEvent(
                        kind="boundary",
                        lineage=lin,
                        site=self.fn.site(node),
                        fn=self.fn.qualname,
                        target=target
                        or (
                            node.func.attr
                            if isinstance(node.func, ast.Attribute)
                            else "<boundary>"
                        ),
                    )
                )
            return set()

        # 4. Resolved module-level function: follow interprocedurally.
        if graph_target is not None and graph_target in self.graph.functions:
            callee = self.graph.functions[graph_target]
            if callee.class_name is None:
                return self._inline(callee, node, positional, keyword)
            return set()

        # 5. Resolved class: an RNG-consuming class is an independent
        # consumer of any seed argument; a config dataclass just stores it.
        if graph_target is not None and graph_target in self.graph.classes:
            if self.analyzer.rng_consuming(graph_target) and seeds:
                for lin in seeds:
                    self.analyzer.emit(
                        SeedEvent(
                            kind="handoff",
                            lineage=lin,
                            site=self.fn.site(node),
                            fn=self.fn.qualname,
                            target=graph_target,
                        )
                    )
            return set()

        # 6. Known-benign / passthrough callables.
        if target in _BENIGN_SEED_TARGETS:
            return set()
        if target in _PASSTHROUGH_BUILTINS:
            return set(all_lineages)

        # 7. Unresolved callee taking an explicit seed keyword: an
        # independent consumer we cannot see into.
        described = target or dotted or "<call>"
        emitted: Set[Lineage] = set()
        for name, group in keyword:
            if name is not None and _seedish(name):
                for lin in group:
                    if lin.is_generator or lin in emitted:
                        continue
                    emitted.add(lin)
                    self.analyzer.emit(
                        SeedEvent(
                            kind="handoff",
                            lineage=lin,
                            site=self.fn.site(node),
                            fn=self.fn.qualname,
                            target=f"{described}({name}=...)",
                        )
                    )
        return set()

    def _inline(
        self,
        callee: FunctionInfo,
        node: ast.Call,
        positional: List[Set[Lineage]],
        keyword: List[Tuple[Optional[str], Set[Lineage]]],
    ) -> Set[Lineage]:
        if (
            callee.qualname in self.chain
            or len(self.chain) >= _MAX_INLINE_DEPTH
        ):
            return set()
        args = callee.node.args
        params = [arg.arg for arg in list(args.posonlyargs) + list(args.args)]
        kwonly = [arg.arg for arg in args.kwonlyargs]
        env: Dict[str, Set[Lineage]] = {}
        for index, group in enumerate(positional):
            if index < len(params) and group:
                env[params[index]] = set(group)
        for name, group in keyword:
            if name is not None and group and (
                name in params or name in kwonly
            ):
                env[name] = set(group)
        # Parameters that received nothing tracked fall back to roots.
        for name in params + kwonly:
            root = None if name in env else _named_root(callee.qualname, name)
            if root is not None:
                env[name] = root
        scan = _FunctionScan(
            self.analyzer,
            callee,
            env,
            chain=self.chain + (callee.qualname,),
        )
        return scan.run()
