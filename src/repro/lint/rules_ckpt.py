"""Whole-program checkpoint-coverage rules: CKPT000–CKPT002.

A fleet checkpoint is only crash-safe if it is *complete*: every config
knob that changes the science must fold into the SHA-256 config
fingerprint (or be excluded **explicitly**, with a reason, in the
``fingerprint`` section of the checked-in ``contract.json``), and every
piece of mutable driver state written during the run must be
reconstructible from the checkpoint.  Both contracts were previously enforced only by review;
these rules check them from the AST.

=========  ===============================================================
CKPT000    configuration error in the contract's ``fingerprint`` — an
           unknown class or fingerprint function, an excluded field the
           class does not declare, or a stale exclusion for a field the
           fingerprint actually covers.  Config errors fail the run: a
           typo must never silently shrink the checked surface.  Entries
           whose *module* is not part of the linted file set are skipped,
           so partial lints stay quiet; a full-tree run is strict
CKPT001    a declared config dataclass field neither referenced by any of
           its fingerprint functions (attribute read or string key) nor
           named in the exclusion allowlist — adding a knob without
           deciding its checkpoint identity is exactly the bug class
CKPT002    mutable driver state (a ``nonlocal`` cell written by a nested
           closure) in a function that constructs a
           :class:`repro.fleet.checkpoint.FleetCheckpoint`, where the
           cell never flows into the checkpoint — resume would silently
           reset it
=========  ===============================================================

The ``fingerprint`` section (schema in :mod:`repro.lint.contract`) maps
each config dataclass to its fingerprint function(s) and an ``exclude``
map of field -> reason.  ``fingerprint`` lists the function(s) whose body defines coverage: a
field counts as covered when any listed function reads it as an
attribute (``self.field`` / ``trial.field``) or names it in a string
constant (a dict key in a ``to_dict``-style serializer).  CKPT002 needs
no configuration — it keys off ``FleetCheckpoint`` construction sites.
Waivers use the ordinary inline suppression comments
(``allow-CKPT002(reason)`` and friends).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, ClassVar, Dict, Iterator, List, Mapping,
    Optional, Sequence, Set, Tuple,
)

from repro.lint.base import ProgramRule, register
from repro.lint.callgraph import FUNCTION_TYPES, CallGraph, FunctionInfo
from repro.lint.findings import Finding

if TYPE_CHECKING:
    from repro.lint.purity import ProgramContext

#: The checkpoint container CKPT002 keys off.
_CHECKPOINT_CLASS = "repro.fleet.checkpoint.FleetCheckpoint"


@dataclass(frozen=True)
class ClassCoverage:
    """Declared fingerprint coverage for one config dataclass."""

    fingerprint: Tuple[str, ...]
    """Qualnames of the functions whose bodies define coverage."""

    exclude: Mapping[str, str]
    """field name -> reason it deliberately stays out of the fingerprint."""


@dataclass(frozen=True)
class FingerprintExclusions:
    """The contract's ``fingerprint`` section: config-fingerprint coverage."""

    rule_id: ClassVar[str] = "CKPT000"
    """Reports the section's names that do not resolve."""

    classes: Mapping[str, ClassCoverage] = field(default_factory=dict)
    source_path: str = "<inline>"

    def declared(self, graph: CallGraph) -> Iterator[Tuple[str, bool, str]]:
        """Each declared class, fingerprint function and exclusion, whether
        *graph* resolves it, and the message when it does not (see
        :func:`repro.lint.purity.resolve_contract`).  An exclusion resolves
        to a declared field its fingerprint does not cover."""
        for class_qual in sorted(self.classes):
            coverage = self.classes[class_qual]
            info = graph.classes.get(class_qual)
            yield class_qual, info is not None, (
                f"declared config class {class_qual!r} was not found in the "
                "linted tree — fix fingerprint.classes in the contract or "
                "restore the class"
            )
            if info is None:
                continue
            for fn_qual in coverage.fingerprint:
                yield fn_qual, fn_qual in graph.functions, (
                    f"fingerprint function {fn_qual!r} declared for "
                    f"{class_qual!r} was not found in the linted tree"
                )
            covered = _covered(graph, class_qual, coverage)
            if covered is None:
                continue
            fields = {name for name, _ in _dataclass_fields(info.node)}
            for excluded in sorted(coverage.exclude):
                yield class_qual, excluded in fields, (
                    f"excluded field {excluded!r} does not exist on "
                    f"{class_qual!r} — remove the stale exclusion"
                )
                if excluded in fields:
                    yield class_qual, excluded not in covered, (
                        f"excluded field {excluded!r} of {class_qual!r} is "
                        "actually covered by the fingerprint — remove the "
                        "stale exclusion"
                    )


def _dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    """Declared dataclass fields, skipping ``ClassVar`` annotations."""
    return [
        (item.target.id, item)
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.dump(item.annotation)
    ]


def _covered(
    graph: CallGraph, class_qual: str, coverage: ClassCoverage
) -> Optional[Set[str]]:
    """The names *class_qual*'s fingerprint functions cover — every
    attribute read plus every string constant (dict keys in
    ``to_dict``-style serializers) — or ``None`` when the class or one of
    the functions is not in *graph*."""
    if class_qual not in graph.classes or any(
        qualname not in graph.functions for qualname in coverage.fingerprint
    ):
        return None
    covered: Set[str] = set()
    for qualname in coverage.fingerprint:
        for node in graph.functions[qualname].nodes:
            if isinstance(node, ast.Attribute):
                covered.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                covered.add(node.value)
    return covered


@register
class FingerprintCoverageRule(ProgramRule):
    """CKPT001 — every config field fingerprinted or excluded with reason.

    Skipped without the contract's ``fingerprint`` section; the section's
    own errors (CKPT000) are :func:`repro.lint.purity.resolve_contract`'s.
    """

    id = "CKPT001"
    summary = (
        "config dataclass field is neither folded into the checkpoint "
        "fingerprint nor excluded in the contract's fingerprint section — "
        "decide its identity before it ships"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        exclusions = program.contract.fingerprint
        if exclusions is None:
            return
        graph = program.graph
        for class_qual in sorted(exclusions.classes):
            coverage = exclusions.classes[class_qual]
            covered = _covered(graph, class_qual, coverage)
            if covered is None:
                continue
            info = graph.classes[class_qual]
            for name, node in _dataclass_fields(info.node):
                if name in covered or name in coverage.exclude:
                    continue
                yield program.finding(
                    self.id,
                    (info.path, int(node.lineno), int(node.col_offset)),
                    f"field {name!r} of {class_qual} is neither folded "
                    "into the checkpoint fingerprint nor excluded in "
                    f"{exclusions.source_path} — an undeclared knob lets "
                    "a resumed run silently mix configurations",
                )


@register
class CheckpointStateRule(ProgramRule):
    """CKPT002 — nonlocal driver state missing from the checkpoint."""

    id = "CKPT002"
    summary = (
        "mutable driver state (nonlocal cell) written during the run but "
        "absent from the FleetCheckpoint — resume would silently reset it"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        graph = program.graph
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if fn.class_name is not None:
                continue
            checkpoint_calls = [
                node
                for node, target in fn.calls.items()
                if target == _CHECKPOINT_CLASS
            ]
            if not checkpoint_calls:
                continue
            covered = self._covered_names(program, fn, checkpoint_calls)
            for scope in fn.scopes:
                if scope.node is fn.node:
                    continue
                for node in scope.declarations:
                    if not isinstance(node, ast.Nonlocal):
                        continue
                    for name in node.names:
                        if name in covered:
                            continue
                        yield program.finding(
                            self.id,
                            fn.site(node),
                            f"driver state {name!r} is written via "
                            f"nonlocal in {fn.qualname} but never flows "
                            "into the FleetCheckpoint constructed there — "
                            "a resumed run would silently reset it; "
                            "thread it into the checkpoint (extra={...}) "
                            "or waive it with a reasoned allow comment",
                        )

    def _covered_names(
        self,
        program: ProgramContext,
        fn: FunctionInfo,
        calls: List[ast.Call],
    ) -> Set[str]:
        helpers: Dict[str, Sequence[ast.AST]] = {
            node.name: list(ast.walk(node))
            for node in fn.nodes[1:]
            if isinstance(node, FUNCTION_TYPES)
        }
        for other in program.graph.functions.values():
            if other.module == fn.module and other.class_name is None:
                helpers.setdefault(other.name, other.nodes)

        covered: Set[str] = set()
        arg_nodes: List[ast.expr] = []
        for call in calls:
            arg_nodes.extend(call.args)
            arg_nodes.extend(kw.value for kw in call.keywords)
        for arg in arg_nodes:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    covered.add(sub.id)
                elif isinstance(sub, ast.Call) and isinstance(
                    sub.func, ast.Name
                ):
                    for inner in helpers.get(sub.func.id, ()):
                        if isinstance(inner, ast.Name):
                            covered.add(inner.id)
        return covered
