"""Determinism rules: DET001 (unseeded RNG), DET002 (wall clock), DET003
(unordered iteration).

These enforce the experiment's determinism contract: every random draw flows
from ``TrialConfig.seed``, no wall-clock value leaks into simulated time,
and nothing that feeds RNG draws, session ordering, or serialized output
iterates in hash order.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.lint.base import (
    FileContext,
    Rule,
    in_package,
    register,
    resolve_call_target,
)
from repro.lint.findings import Finding

# The numpy.random attributes that are legitimate *constructors* of seeded
# state (flagged only when called without arguments — an unseeded draw from
# OS entropy).  Everything else on numpy.random is the legacy module-global
# RNG and is flagged unconditionally.
_NP_SEEDABLE_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "RandomState",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

# stdlib ``random`` module functions whose module-level form uses the hidden
# global Mersenne Twister.  ``random.Random(seed)`` is fine.
_STDLIB_RANDOM_GLOBALS = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "seed", "getrandbits", "normalvariate", "gauss",
    "expovariate", "betavariate", "gammavariate", "lognormvariate",
    "paretovariate", "weibullvariate", "triangular", "vonmisesvariate",
    "binomialvariate", "setstate", "getstate",
}


@register
class UnseededRngRule(Rule):
    """DET001 — every RNG must be constructed from an explicit seed."""

    id = "DET001"
    summary = (
        "unseeded or module-global RNG: seed default_rng()/Random(), and "
        "never draw from numpy's or random's hidden global state"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, ctx.imports)
            if target is None:
                continue
            message = self._diagnose(node, target)
            if message is not None:
                yield self.finding(ctx, node, message)

    def _diagnose(self, node: ast.Call, target: str) -> Optional[str]:
        if target.startswith("numpy.random."):
            attr = target[len("numpy.random."):]
            if attr in _NP_SEEDABLE_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    return (
                        f"numpy.random.{attr}() called without a seed — "
                        "derive the generator from TrialConfig.seed (or an "
                        "explicit seed parameter)"
                    )
                return None
            if "." not in attr and attr[:1].islower():
                return (
                    f"numpy.random.{attr}() draws from numpy's module-global "
                    "RNG — use a seeded numpy.random.Generator instead"
                )
            return None
        if target == "random.Random":
            if not node.args and not node.keywords:
                return (
                    "random.Random() without a seed is nondeterministic — "
                    "pass an explicit seed"
                )
            return None
        if target.startswith("random."):
            attr = target[len("random."):]
            if "." not in attr and attr in _STDLIB_RANDOM_GLOBALS:
                return (
                    f"random.{attr}() uses the stdlib's hidden global RNG — "
                    "use a seeded random.Random or numpy Generator"
                )
        return None


# Wall-clock call targets (after import resolution).
_WALL_CLOCK_TARGETS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

# Modules whose wall-clock use is quarantined by design: profiling output is
# tagged nondeterministic and excluded from bit-identical dumps.
_DET002_QUARANTINE: Tuple[str, ...] = ("repro.obs",)


@register
class WallClockRule(Rule):
    """DET002 — wall-clock reads are confined to quarantined profiling."""

    id = "DET002"
    summary = (
        "wall-clock read in a simulation path: simulated time must come "
        "from the event loop, not time.time()/perf_counter()/datetime.now()"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if in_package(ctx.module, _DET002_QUARANTINE):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, ctx.imports)
            if target in _WALL_CLOCK_TARGETS:
                yield self.finding(
                    ctx,
                    node,
                    f"{target}() reads the wall clock — simulation state "
                    "must only depend on simulated time (quarantine "
                    "profiling uses in repro.obs or suppress with a reason)",
                )


def _unwrap_order_preserving(node: ast.expr) -> ast.expr:
    """Strip wrappers that preserve (lack of) ordering: list(), tuple(),
    enumerate(), reversed(), iter()."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "tuple", "enumerate", "reversed", "iter"}
        and node.args
    ):
        node = node.args[0]
    return node


def _is_unordered_iterable(node: ast.expr) -> Optional[str]:
    """Describe *node* if it iterates in hash order, else ``None``."""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return "a set"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {
            "set",
            "frozenset",
        }:
            return f"{node.func.id}(...)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
        ):
            return ".keys()"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: a | b, a & b, a - b, a ^ b — only flag when either
        # operand is itself recognizably a set.
        if _is_unordered_iterable(node.left) or _is_unordered_iterable(
            node.right
        ):
            return "a set expression"
    return None


@register
class UnorderedIterationRule(Rule):
    """DET003 — iteration over sets / dict views must be sorted."""

    id = "DET003"
    summary = (
        "iterating a set or .keys() view without sorted(...): hash order "
        "leaks into RNG draws, session ordering, or serialized output"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        sorted_args: Set[int] = set()
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"sorted", "min", "max", "sum", "len",
                                     "any", "all", "frozenset", "set"}
            ):
                # Arguments of order-insensitive consumers are fine.
                for arg in ast.walk(node):
                    if arg is not node:
                        sorted_args.add(id(arg))
        for node in ctx.nodes:
            iterables = []
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    iterables.append(gen.iter)
            for it in iterables:
                if id(it) in sorted_args:
                    continue
                unwrapped = _unwrap_order_preserving(it)
                desc = _is_unordered_iterable(unwrapped)
                if desc is not None:
                    yield self.finding(
                        ctx,
                        it,
                        f"iterating over {desc} in hash order — wrap the "
                        "iterable in sorted(...) so downstream RNG draws, "
                        "ordering, and serialized output are deterministic",
                    )
