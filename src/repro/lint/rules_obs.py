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

A local copy of the flag (``observing = obs.ENABLED``) is no guard: the
flag is read where the emission is.

``obs.span`` and ``obs.timed`` are exempt: they are engineered to be
no-op-cheap unguarded.  The ``repro.obs`` package itself is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Union

from repro.lint.base import (
    FileContext, Rule, dotted_name, in_package, register,
)
from repro.lint.findings import Finding

_EMISSION_ATTRS = {"counter_inc", "gauge_set", "observe", "emit"}


_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_enabled_flag(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "ENABLED") or (
        isinstance(node, ast.Name) and node.id == "ENABLED"
    )


def _mentions_enabled(node: ast.expr) -> bool:
    return any(_is_enabled_flag(sub) for sub in ast.walk(node))


def _is_negated_enabled(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.Not)
        and _mentions_enabled(node.operand)
    )


def _is_emission(func: ast.expr) -> bool:
    """Is *func* ``obs.counter_inc`` / ``obs.observe`` / …?"""
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _EMISSION_ATTRS
        and isinstance(func.value, ast.Name)
        and func.value.id == "obs"
    )


def _exits(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.Return, ast.Raise, ast.Continue, ast.Break))


class _GuardVisitor(ast.NodeVisitor):
    """Collect ids of all nodes lexically inside an ENABLED-guarded region."""

    def __init__(self) -> None:
        self.guarded: Set[int] = set()

    def _mark(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            self.guarded.add(id(sub))

    def visit_If(self, node: ast.If) -> None:
        negated = _is_negated_enabled(node.test)
        if _mentions_enabled(node.test) and not negated:
            for stmt in node.body:
                self._mark(stmt)
        if negated:
            for stmt in node.orelse:
                self._mark(stmt)
        self.generic_visit(node)

    def _visit_function(self, node: _Function) -> None:
        # Early-exit form: everything after `if not obs.ENABLED: return`.
        body = node.body
        for index, stmt in enumerate(body):
            if (
                isinstance(stmt, ast.If)
                and _is_negated_enabled(stmt.test)
                and stmt.body
                and _exits(stmt.body[-1])
                and not stmt.orelse
            ):
                for later in body[index + 1:]:
                    self._mark(later)
                break
        self.generic_visit(node)

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function


@register
class UnguardedEmissionRule(Rule):
    """OBS001 — emission helpers outside an ``obs.ENABLED`` branch."""

    id = "OBS001"
    summary = (
        "obs.counter_inc/observe/gauge_set/emit outside `if obs.ENABLED:` — "
        "argument construction would run even with observability off"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if in_package(ctx.module, ("repro.obs",)):
            return
        emissions = [
            node
            for node in ctx.nodes
            if isinstance(node, ast.Call) and _is_emission(node.func)
        ]
        if not emissions:
            return
        guards = _GuardVisitor()
        guards.visit(ctx.tree)
        for node in emissions:
            if id(node) in guards.guarded:
                continue
            yield self.finding(
                ctx,
                node,
                f"{dotted_name(node.func)}(...) is not behind `if "
                "obs.ENABLED:` — guard it so disabled runs pay one branch, "
                "not argument construction",
            )
