"""SIM001 — float equality in simulation control flow.

Simulated clocks, buffer levels, and rate estimates are floats accumulated
over thousands of events; branching on exact equality (``t == limit``)
makes behaviour depend on the least-significant bit of an accumulation
order.  In the packages that implement the simulator's dynamics —
``repro.net``, ``repro.streaming``, ``repro.core`` — any ``==``/``!=``
whose operands look float-typed inside a control-flow condition is flagged.

The rule has no type inference; it uses a conservative syntactic notion of
"float-typed": float literals, ``float(...)`` casts, true division, and
arithmetic expressions containing a float literal.  Integer comparisons
(``steps == 0``) and string/enum comparisons never match.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.base import (
    FileContext,
    Rule,
    in_package,
    register,
    walk_condition_expressions,
)
from repro.lint.findings import Finding

_SIM001_SCOPE: Tuple[str, ...] = (
    "repro.net",
    "repro.streaming",
    "repro.core",
)


def _looks_float(node: ast.expr) -> bool:
    """Conservative: only expressions that are float-typed by construction."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _looks_float(node.operand)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _looks_float(node.left) or _looks_float(node.right)
    return False


@register
class FloatEqualityRule(Rule):
    """SIM001 — no exact float equality in simulator control flow."""

    id = "SIM001"
    summary = (
        "float ==/!= in a control-flow condition inside net/, streaming/, "
        "core/: compare with a tolerance (math.isclose) or restructure"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_package(ctx.module, _SIM001_SCOPE):
            return
        for condition in walk_condition_expressions(ctx.nodes):
            for node in ast.walk(condition):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left] + list(node.comparators)
                for op, left, right in zip(
                    node.ops, operands[:-1], operands[1:]
                ):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    if _looks_float(left) or _looks_float(right):
                        kind = "==" if isinstance(op, ast.Eq) else "!="
                        yield self.finding(
                            ctx,
                            node,
                            f"exact float {kind} in a simulation branch — "
                            "accumulated floats differ in the last ulp; use "
                            "a tolerance (math.isclose / abs diff < eps) or "
                            "compare integers",
                        )
                        break
