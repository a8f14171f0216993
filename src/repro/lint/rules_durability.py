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
from typing import Iterable, Iterator, List, Tuple

from repro.lint.callgraph import CallGraph, FunctionInfo
from repro.lint.effects import (
    FSYNC_FILE,
    FSYNC_OTHER,
    HELPER,
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
from repro.lint.purity import ProgramContext
from repro.lint.rules_ckpt import _in_lint_scope
from repro.lint.rules_purity import PurityRule

#: Rule id for durability-config problems (parallel to ``PURE000``).
DUR_CONFIG_RULE_ID = "DUR000"


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

    roots: Tuple[str, ...] = ()
    atomic_helpers: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()
    commit_order: Tuple[CommitOrderPair, ...] = ()
    source_path: str = "<inline>"


def expand_durable_roots(
    graph: CallGraph, config: DurabilityConfig
) -> Tuple[List[str], List[Finding]]:
    """Resolve declared roots against the graph; missing ones are DUR000.

    Also validates the atomic helpers and commit-order members, so one
    pass over the ``durability`` section checks it completely.
    """
    roots: List[str] = []
    problems: List[Finding] = []

    def config_error(message: str) -> Finding:
        return Finding(
            rule=DUR_CONFIG_RULE_ID,
            path=config.source_path,
            line=1,
            col=0,
            message=message,
            source_line="",
        )

    for root in config.roots:
        if root in graph.functions:
            roots.append(root)
        elif _in_lint_scope(graph, root):
            problems.append(
                config_error(
                    f"declared durable root {root!r} was not found in the "
                    "linted tree — fix durability.roots in the contract or "
                    "restore the function"
                )
            )
    for helper in config.atomic_helpers:
        if helper not in graph.functions and _in_lint_scope(graph, helper):
            problems.append(
                config_error(
                    f"declared atomic helper {helper!r} was not found in "
                    "the linted tree"
                )
            )
    for pair in config.commit_order:
        for member in (pair.first, pair.then):
            if member not in graph.functions and _in_lint_scope(
                graph, member
            ):
                problems.append(
                    config_error(
                        f"commit-order member {member!r} was not found in "
                        "the linted tree"
                    )
                )
    return sorted(set(roots)), problems


class DurabilityRule(PurityRule):
    """Base for durability rules: runs only with a durability config."""

    region = "durable"


def _exempt(config: DurabilityConfig, fn: FunctionInfo) -> bool:
    return any(
        fn.module == prefix or fn.module.startswith(prefix + ".")
        for prefix in config.exempt
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
        if fn.qualname not in helpers and not _exempt(config, fn)
    ]


class RawDurableWriteRule(DurabilityRule):
    """DUR001 — raw writes on durable paths bypass the atomic helper."""

    id = "DUR001"
    summary = (
        "raw write in the durable region not routed through the blessed "
        "atomic-write helper — a crash mid-write leaves a torn file"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for fn, effects in program.durable:
            if any(e.kind == RENAME for e in effects):
                # The function implements a publish protocol inline
                # (write-tmp-then-rename); DUR002 judges that protocol,
                # so the tmp write is not a raw in-place write.
                continue
            for effect in effects:
                if effect.kind == OPEN_WRITE:
                    yield self.finding_at(
                        fn,
                        effect.line,
                        effect.col,
                        f"raw open(..., {effect.detail!r}) of "
                        f"{effect.target or 'a durable path'} in the "
                        "durable region — route the write through "
                        "repro.atomio.atomic_write_bytes/atomic_write_text",
                        program,
                    )
                elif effect.kind == PATH_WRITE:
                    yield self.finding_at(
                        fn,
                        effect.line,
                        effect.col,
                        f"raw {effect.target}.{effect.detail}(...) in the "
                        "durable region — route the write through "
                        "repro.atomio.atomic_write_bytes/atomic_write_text",
                        program,
                    )


class RenameFsyncRule(DurabilityRule):
    """DUR002 — tmp+rename published without the fsync bracket."""

    id = "DUR002"
    summary = (
        "rename-publish without fsync of the written file before the "
        "rename or of the directory after it — power loss can publish a "
        "torn file or undo the publish"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for fn, effects in program.durable:
            renames = [e for e in effects if e.kind == RENAME]
            if not renames:
                continue
            file_syncs = [e for e in effects if e.kind == FSYNC_FILE]
            dir_syncs = [e for e in effects if e.kind == FSYNC_OTHER]
            for rename in renames:
                if not any(s.line <= rename.line for s in file_syncs):
                    yield self.finding_at(
                        fn,
                        rename.line,
                        rename.col,
                        f"{rename.detail} publishes "
                        f"{rename.target or 'a durable file'} without an "
                        "os.fsync of the written file first — a crash "
                        "just after the rename can publish an empty or "
                        "torn file",
                        program,
                    )
                elif not any(s.line >= rename.line for s in dir_syncs):
                    yield self.finding_at(
                        fn,
                        rename.line,
                        rename.col,
                        f"{rename.detail} publishes "
                        f"{rename.target or 'a durable file'} without a "
                        "directory fsync after it — the rename itself "
                        "may not survive power loss",
                        program,
                    )


class CommitOrderRule(DurabilityRule):
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
        config = program.durability
        if config is None or not config.commit_order:
            return
        graph = program.graph
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if _exempt(config, fn):
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
                    yield self.finding_at(
                        fn,
                        offender.line,
                        offender.col,
                        f"{pair.then} is issued before {pair.first} in "
                        f"{fn.qualname} — the pointer would durably "
                        "reference data that a crash can still lose"
                        + reason,
                        program,
                    )


class ReadModifyWriteRule(DurabilityRule):
    """DUR004 — in-place read-modify-write of a durable file."""

    id = "DUR004"
    summary = (
        "in-place read-modify-write of a durable file outside a commit "
        "section — a crash mid-rewrite loses both versions"
    )

    def check_program(self, program: ProgramContext) -> Iterator[Finding]:
        for fn, effects in program.durable:
            for effect in effects:
                if effect.kind == OPEN_UPDATE:
                    yield self.finding_at(
                        fn,
                        effect.line,
                        effect.col,
                        f"opens {effect.target or 'a durable file'} in "
                        f"update mode {effect.detail!r} — in-place "
                        "mutation of a durable file; rewrite it through "
                        "the atomic helper instead",
                        program,
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
                    yield self.finding_at(
                        fn,
                        effect.line,
                        effect.col,
                        f"reads and raw-rewrites {effect.target} in "
                        "place — a crash between truncate and rewrite "
                        "loses both the old and the new version; "
                        "publish the new version through the atomic "
                        "helper",
                        program,
                    )


def make_durability_rules() -> List[DurabilityRule]:
    """Fresh instances of every durability rule, in id order."""
    return [
        RawDurableWriteRule(),
        RenameFsyncRule(),
        CommitOrderRule(),
        ReadModifyWriteRule(),
    ]
