"""OBS001 — metric/trace emission must sit behind the ``obs.ENABLED`` guard.

The observability layer's hot-path contract (PR 2) is: when disabled, an
instrumented call site costs one attribute load and one branch.  That only
holds if every ``obs.counter_inc`` / ``obs.observe`` / ``obs.gauge_set`` /
``obs.emit`` call is lexically inside a branch on ``obs.ENABLED`` — the
helpers themselves bail early, but the *argument construction* (f-strings,
``float(...)`` casts) would still run on every event.

Recognized guard shapes::

    if obs.ENABLED:
        obs.counter_inc(...)          # guarded

    if shortfall > 0 and obs.ENABLED:
        obs.observe(...)              # guarded (ENABLED anywhere in test)

    if not obs.ENABLED:
        return
    obs.emit(...)                     # guarded (early-exit form)

    observing = obs.ENABLED           # hoisted out of a hot loop: a local
    while rounds:                     # bound to nothing but obs.ENABLED
        if observing:                 # in its function counts as the flag
            obs.counter_inc(...)      # guarded

``obs.span`` and ``obs.timed`` are exempt: they are engineered to be
no-op-cheap unguarded.  The ``repro.obs`` package itself is exempt.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Iterator, List, Set, Union

from repro.lint.base import FileContext, Rule, register
from repro.lint.findings import Finding

_EMISSION_ATTRS = {"counter_inc", "gauge_set", "observe", "emit"}


_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_enabled_flag(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "ENABLED") or (
        isinstance(node, ast.Name) and node.id == "ENABLED"
    )


def _hoisted_flags(func: _Function) -> Set[str]:
    """Locals of ``func`` whose every binding is ``name = obs.ENABLED``."""
    bindings: Counter[str] = Counter()
    hoists: Counter[str] = Counter()
    for sub in ast.walk(func):
        if isinstance(sub, ast.arg):
            bindings[sub.arg] += 1
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            bindings[sub.id] += 1
        elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            if isinstance(target, ast.Name) and _is_enabled_flag(sub.value):
                hoists[target.id] += 1
    return {name for name, count in hoists.items() if bindings[name] == count}


def _mentions_enabled(node: ast.expr, hoisted: Set[str]) -> bool:
    for sub in ast.walk(node):
        if _is_enabled_flag(sub):
            return True
        if isinstance(sub, ast.Name) and sub.id in hoisted:
            return True
    return False


def _is_negated_enabled(node: ast.expr, hoisted: Set[str]) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.Not)
        and _mentions_enabled(node.operand, hoisted)
    )


def _exits(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.Return, ast.Raise, ast.Continue, ast.Break))


class _GuardVisitor(ast.NodeVisitor):
    """Collect ids of all nodes lexically inside an ENABLED-guarded region."""

    def __init__(self) -> None:
        self.guarded: Set[int] = set()
        self._hoisted: Set[str] = set()

    def _mark(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            self.guarded.add(id(sub))

    def visit_If(self, node: ast.If) -> None:
        negated = _is_negated_enabled(node.test, self._hoisted)
        if _mentions_enabled(node.test, self._hoisted) and not negated:
            for stmt in node.body:
                self._mark(stmt)
        if negated:
            for stmt in node.orelse:
                self._mark(stmt)
        self.generic_visit(node)

    def _visit_body(self, body: List[ast.stmt]) -> None:
        # Early-exit form: everything after `if not obs.ENABLED: return`.
        for index, stmt in enumerate(body):
            if (
                isinstance(stmt, ast.If)
                and _is_negated_enabled(stmt.test, self._hoisted)
                and stmt.body
                and _exits(stmt.body[-1])
                and not stmt.orelse
            ):
                for later in body[index + 1:]:
                    self._mark(later)
                break

    def _visit_function(self, node: _Function) -> None:
        outer = self._hoisted
        self._hoisted = _hoisted_flags(node)
        self._visit_body(node.body)
        self.generic_visit(node)
        self._hoisted = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


@register
class UnguardedEmissionRule(Rule):
    """OBS001 — emission helpers outside an ``obs.ENABLED`` branch."""

    id = "OBS001"
    summary = (
        "obs.counter_inc/observe/gauge_set/emit outside `if obs.ENABLED:` — "
        "argument construction would run even with observability off"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_package("repro.obs"):
            return
        guards = _GuardVisitor()
        guards.visit(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _EMISSION_ATTRS
                and isinstance(func.value, ast.Name)
                and func.value.id == "obs"
            ):
                continue
            if id(node) in guards.guarded:
                continue
            yield self.finding(
                ctx,
                node,
                f"obs.{func.attr}(...) is not behind `if obs.ENABLED:` — "
                "guard it so disabled runs pay one branch, not argument "
                "construction",
            )
