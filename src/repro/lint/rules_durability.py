"""Whole-program durability rules: DUR000–DUR004.

The crash-consistency counterpart of the purity analysis: where the
purity rules guard what the *pure region* may read, these guard how the
**durable region** — every function reachable from the declared durable
roots (checkpoint save, registry commit, archive flush/truncate, fleet
dump) — may touch the filesystem.  Each mutation is classified by the
write-effect pass (:mod:`repro.lint.effects`) and findings carry the
call chain from a durable root, so the report explains *why* a function
is held to the durable contract.

=========  ===============================================================
DUR000     configuration error in the contract's ``durability`` — a
           declared root, atomic helper or commit-order member not found in the
           linted tree.  Config errors fail the run: a typo must never
           silently shrink the checked region.  Entries whose module is
           outside the linted file set are skipped (partial lints stay
           quiet)
DUR001     raw write (``open(..., "w"/"a"/"x")``, ``Path.write_text``/
           ``write_bytes``) in the durable region not routed through the
           blessed atomic helper — a crash mid-write leaves a torn file
DUR002     tmp+rename without an ``os.fsync`` of the written file before
           the rename, or without a directory fsync after it — the
           rename can publish an empty/torn file, or itself vanish on
           power loss
DUR003     multi-file commit-order violation: a pointer/manifest write
           precedes the data write it references (the ordered pairs —
           registry generation before manifest, archive flush before
           checkpoint save — are declared in the contract)
DUR004     in-place read-modify-write of a durable file outside a commit
           section: an update-mode open, or reading and raw-rewriting
           the same path in one function — a crash between truncate and
           rewrite loses both versions
=========  ===============================================================

The ``durability`` section of the checked-in ``contract.json`` (schema
in :mod:`repro.lint.contract`) declares the roots, the blessed atomic
helpers, the exempt modules and the ``commit_order`` pairs.  ``exempt``
lists the module(s) implementing the blessed protocol itself:
their raw opens/renames/fsyncs ARE the helper, so the rules skip them.
DUR001/002/004 run over the durable region; DUR003 scans every linted
function (the callers that sequence two durable commits usually sit
*above* the roots, not below them).  Waivers use the ordinary inline
``# repro: allow-DURxxx(reason)`` comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, ClassVar, Iterable, Iterator, List, Tuple,
)

from repro.lint.base import ProgramRule, in_package, register
from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.effects import (
    FSYNC_FILE,
    FSYNC_OTHER,
    OPEN_READ,
    OPEN_UPDATE,
    OPEN_WRITE,
    PATH_READ,
    PATH_WRITE,
    RENAME,
    CallSite,
    WriteEffect,
    function_calls,
    function_effects,
)
from repro.lint.findings import Finding

if TYPE_CHECKING:
    from repro.lint.purity import ProgramContext


@dataclass(frozen=True)
class CommitOrderPair:
    """Declared write-order invariant: *first* (the data) must be issued
    before *then* (the pointer/manifest that references it) within any
    one function that calls both."""

    first: str
    then: str
    reason: str


@dataclass(frozen=True)
class DurabilityConfig:
    """The contract's ``durability`` section: durable roots and helpers."""

    rule_id: ClassVar[str] = "DUR000"
    """Reports the section's names that do not resolve."""

    roots: Tuple[str, ...] = ()
    atomic_helpers: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()
    commit_order: Tuple[CommitOrderPair, ...] = ()
    source_path: str = "<inline>"

    def declared(self, graph: CallGraph) -> Iterator[Tuple[str, bool, str]]:
        """Each declared root, atomic helper and commit-order member,
        whether *graph* resolves it, and the message when it does not (see
        :func:`repro.lint.purity.resolve_contract`)."""
        for root in self.roots:
            yield root, root in graph.functions, (
                f"declared durable root {root!r} was not found in the "
                "linted tree — fix durability.roots in the contract or "
                "restore the function"
            )
        for helper in self.atomic_helpers:
            yield helper, helper in graph.functions, (
                f"declared atomic helper {helper!r} was not found in "
                "the linted tree"
            )
        for pair in self.commit_order:
            for member in (pair.first, pair.then):
                yield member, member in graph.functions, (
                    f"commit-order member {member!r} was not found in "
                    "the linted tree"
                )


def durable_effects(
    graph: CallGraph, config: DurabilityConfig, region: Iterable[str]
) -> List[Tuple[FunctionInfo, List[WriteEffect]]]:
    """Durable-region functions (exempt modules and the helpers
    themselves skipped), each with its write effects: computed once per
    run and read by DUR001, DUR002 and DUR004."""
    helpers = frozenset(config.atomic_helpers)
    return [
        (fn, function_effects(fn, helpers))
        for fn in (graph.functions[qualname] for qualname in sorted(region))
        if fn.qualname not in helpers
        and not in_package(fn.module, config.exempt)
    ]


#: What DUR001/002/004 report in one function: the effect and why.
_Violations = Iterator[Tuple[WriteEffect, str]]


def _durable_findings(
    rule: ProgramRule,
    program: ProgramContext,
    check: Callable[[List[WriteEffect]], _Violations],
) -> Iterator[Finding]:
    """*check* run over the durable region's write effects: each
    violation it reports is a finding carrying the witness chain."""
    for fn, effects in program.durable_effects:
        for effect, message in check(effects):
            yield program.finding(
                rule.id, (fn.path, effect.line, effect.col), message,
                program.durable, fn.qualname,
            )


@register
class RawDurableWriteRule(ProgramRule):
    """DUR001 — raw writes on durable paths bypass the atomic helper."""

    id = "DUR001"
    summary = (
        "raw write in the durable region not routed through the blessed "
        "atomic-write helper — a crash mid-write leaves a torn file"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        return _durable_findings(self, program, self._violations)

    @staticmethod
    def _violations(effects: List[WriteEffect]) -> _Violations:
        if any(e.kind == RENAME for e in effects):
            # The function implements a publish protocol inline
            # (write-tmp-then-rename); DUR002 judges that protocol,
            # so the tmp write is not a raw in-place write.
            return
        for effect in effects:
            if effect.kind == OPEN_WRITE:
                yield effect, (
                    f"raw open(..., {effect.detail!r}) of "
                    f"{effect.target or 'a durable path'} in the "
                    "durable region — route the write through "
                    "repro.atomio.atomic_write_bytes/atomic_write_text"
                )
            elif effect.kind == PATH_WRITE:
                yield effect, (
                    f"raw {effect.target}.{effect.detail}(...) in the "
                    "durable region — route the write through "
                    "repro.atomio.atomic_write_bytes/atomic_write_text"
                )


@register
class RenameFsyncRule(ProgramRule):
    """DUR002 — tmp+rename published without the fsync bracket."""

    id = "DUR002"
    summary = (
        "rename-publish without fsync of the written file before the "
        "rename or of the directory after it — power loss can publish a "
        "torn file or undo the publish"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        return _durable_findings(self, program, self._violations)

    @staticmethod
    def _violations(effects: List[WriteEffect]) -> _Violations:
        file_syncs = [e for e in effects if e.kind == FSYNC_FILE]
        dir_syncs = [e for e in effects if e.kind == FSYNC_OTHER]
        for rename in (e for e in effects if e.kind == RENAME):
            if not any(s.line <= rename.line for s in file_syncs):
                yield rename, (
                    f"{rename.detail} publishes "
                    f"{rename.target or 'a durable file'} without an "
                    "os.fsync of the written file first — a crash "
                    "just after the rename can publish an empty or "
                    "torn file"
                )
            elif not any(s.line >= rename.line for s in dir_syncs):
                yield rename, (
                    f"{rename.detail} publishes "
                    f"{rename.target or 'a durable file'} without a "
                    "directory fsync after it — the rename itself "
                    "may not survive power loss"
                )


@register
class CommitOrderRule(ProgramRule):
    """DUR003 — pointer durably written before the data it references.

    Scans every linted function (not just the durable region: the
    function that sequences two durable commits is normally a *caller*
    of the roots).  A call site matches a declared pair member by
    resolved qualname or, failing resolution, by bare method name — an
    over-approximation; false pairings carry a reasoned
    ``allow-DUR003`` comment.
    """

    id = "DUR003"
    summary = (
        "commit-order violation: the pointer/manifest write precedes "
        "the data write it references"
    )

    @staticmethod
    def _matches(site: CallSite, member: str) -> bool:
        if site.resolved == member:
            return True
        return site.name == member.rsplit(".", 1)[-1]

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        config = program.contract.durability
        if config is None or not config.commit_order:
            return
        graph = program.graph
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if in_package(fn.module, config.exempt):
                continue
            sites = function_calls(fn)
            for pair in config.commit_order:
                first_lines = [
                    s.line for s in sites if self._matches(s, pair.first)
                ]
                then_sites = [
                    s for s in sites if self._matches(s, pair.then)
                ]
                if not first_lines or not then_sites:
                    continue
                offender = min(
                    then_sites, key=lambda s: (s.line, s.col)
                )
                if offender.line < min(first_lines):
                    reason = f" ({pair.reason})" if pair.reason else ""
                    yield program.finding(
                        self.id,
                        (fn.path, offender.line, offender.col),
                        f"{pair.then} is issued before {pair.first} in "
                        f"{fn.qualname} — the pointer would durably "
                        "reference data that a crash can still lose"
                        + reason,
                        program.durable,
                        qualname,
                    )


@register
class ReadModifyWriteRule(ProgramRule):
    """DUR004 — in-place read-modify-write of a durable file."""

    id = "DUR004"
    summary = (
        "in-place read-modify-write of a durable file outside a commit "
        "section — a crash mid-rewrite loses both versions"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        return _durable_findings(self, program, self._violations)

    @staticmethod
    def _violations(effects: List[WriteEffect]) -> _Violations:
        for effect in effects:
            if effect.kind == OPEN_UPDATE:
                yield effect, (
                    f"opens {effect.target or 'a durable file'} in "
                    f"update mode {effect.detail!r} — in-place "
                    "mutation of a durable file; rewrite it through "
                    "the atomic helper instead"
                )
        read_targets = {
            e.target
            for e in effects
            if e.kind in (OPEN_READ, PATH_READ) and e.target
        }
        for effect in effects:
            if (
                effect.kind in (OPEN_WRITE, PATH_WRITE)
                and effect.target in read_targets
            ):
                yield effect, (
                    f"reads and raw-rewrites {effect.target} in "
                    "place — a crash between truncate and rewrite "
                    "loses both the old and the new version; "
                    "publish the new version through the atomic "
                    "helper"
                )
