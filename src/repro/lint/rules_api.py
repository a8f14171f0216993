"""API001 — mutable default arguments.

A ``def f(x, history=[])`` default is evaluated once at function definition
time and shared across calls; in a system whose sessions must be
independent and replayable this is a state-leak hazard, not a style nit.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.lint.base import FileContext, Rule, register
from repro.lint.findings import Finding

_MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


@register
class MutableDefaultRule(Rule):
    """API001 — default argument values must be immutable."""

    id = "API001"
    summary = (
        "mutable default argument: the object is shared across every call — "
        "default to None and construct inside the function"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if _is_mutable_literal(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default in {name}(...) is evaluated once "
                        "and shared across calls — use None and build the "
                        "container in the body",
                    )
