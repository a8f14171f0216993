"""Purity configuration and the whole-program analysis driver.

The *purity roots* are the functions the experiment's statistics assume to
be pure: :func:`repro.experiment.harness.run_session` (the unit of work the
paper's confidence intervals are built on), the chunk functions that
``repro.experiment.parallel.fork_map`` runs over it
(`repro.experiment.parallel.run_sessions`,
`repro.fleet.runner._simulate_chunk`), the shared-cell engine
(`repro.edge.engine.run_cell`), and every ``AbrAlgorithm.choose``
implementation.  They are declared in the ``purity`` section of the
checked-in ``contract.json`` (loaded by :mod:`repro.lint.contract`) so the
contract is reviewable and versioned.

``roots`` are exact function qualnames.  ``method_roots`` name a base-class
method; every override in the class hierarchy becomes a root.
``quarantine`` lists packages whose internals the graph never enters (the
designed nondeterminism surface).  The runtime sanitizer digests the
roots' host modules around every guarded session; that list lives in code
(:data:`repro.sanitizer.SNAPSHOT_MODULES`), because the session path may
not read files at import.

Every whole-program rule family runs through the same three pieces here:
:class:`ProgramContext` (the graph, the contract and the regions, each
computed once), :meth:`ProgramContext.finding` (the one finding
constructor) and :func:`resolve_contract` (the one check that every name
a contract section declares exists).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, ClassVar, Iterator, List, Mapping, Optional, Sequence,
    Tuple, Union,
)

from repro.lint.base import program_rules
from repro.lint.callgraph import (
    CallGraph, FunctionInfo, ParsedModule, Region, Site, build_graph,
)
from repro.lint.dataflow import SeedFlow, analyze_seed_flow
from repro.lint.effects import WriteEffect
from repro.lint.findings import Finding
from repro.lint.rules_ckpt import FingerprintExclusions
from repro.lint.rules_durability import DurabilityConfig, durable_effects

if TYPE_CHECKING:  # the contract module imports this one
    from repro.lint.contract import Contract


@dataclass(frozen=True)
class PurityConfig:
    """The ``purity`` section of the contract: the pure entrypoints."""

    rule_id: ClassVar[str] = "PURE000"
    """Reports the section's names that do not resolve."""

    roots: Tuple[str, ...] = ()
    method_roots: Tuple[str, ...] = ()
    quarantine: Tuple[str, ...] = ()
    source_path: str = "<inline>"

    def declared(self, graph: CallGraph) -> Iterator[Tuple[str, bool, str]]:
        """Each declared name, whether *graph* resolves it, and the
        message when it does not (see :func:`resolve_contract`)."""
        for root in self.roots:
            yield root, root in graph.functions, (
                f"declared purity root {root!r} was not found in the "
                "linted tree — fix purity.roots in the contract or "
                "restore the function"
            )
        for method_root in self.method_roots:
            yield method_root, bool(_implementations(graph, method_root)), (
                f"method root {method_root!r} has no implementation "
                "anywhere in the hierarchy"
                if method_root.rpartition(".")[0] in graph.classes
                else f"declared method root {method_root!r} names an "
                "unknown class"
            )


#: A contract section whose names :func:`resolve_contract` checks.
Section = Union[PurityConfig, FingerprintExclusions, DurabilityConfig]


def _implementations(graph: CallGraph, method_root: str) -> List[str]:
    """The base method (when implemented) plus every subclass override."""
    class_qual, _, method = method_root.rpartition(".")
    if class_qual not in graph.classes:
        return []
    hierarchy = [class_qual, *graph.subclasses(class_qual)]
    return [
        graph.classes[qualname].methods[method]
        for qualname in hierarchy
        if method in graph.classes[qualname].methods
    ]


def expand_roots(graph: CallGraph, config: PurityConfig) -> List[str]:
    """The pure region's roots: every declared root the graph defines,
    and every method root expanded over the class hierarchy.  A name that
    resolves to nothing is :func:`resolve_contract`'s to report."""
    roots = [root for root in config.roots if root in graph.functions]
    for method_root in config.method_roots:
        roots.extend(_implementations(graph, method_root))
    return sorted(set(roots))


@dataclass
class ProgramContext:
    """Everything a whole-program rule may inspect, computed once per run.

    The pure and durable regions are values (:class:`Region`), each with
    its own witness chains, so the rule families may run in any order.
    """

    graph: CallGraph
    contract: "Contract"
    files: Mapping[str, ParsedModule]
    """Every linted module by path: where a finding's source line is."""

    pure: Region = field(init=False)
    """Every function reachable from the purity roots."""

    durable: Region = field(init=False)
    """Every function reachable from the durable roots (empty without a
    ``durability`` section)."""

    durable_effects: List[Tuple[FunctionInfo, List[WriteEffect]]] = field(
        init=False
    )
    """Every checked function of the durable region with its write
    effects, read by DUR001, DUR002 and DUR004."""

    seed_flow: SeedFlow = field(init=False)
    """Seed-lineage events (:mod:`repro.lint.dataflow`), interpreted by
    the SEED rules."""

    def __post_init__(self) -> None:
        graph = self.graph
        # No durability section: no roots, so an empty region.
        durability = self.contract.durability or DurabilityConfig()
        self.pure = graph.reachable(
            expand_roots(graph, self.contract.purity), "pure"
        )
        self.durable = graph.reachable(durability.roots, "durable")
        self.durable_effects = durable_effects(graph, durability, self.durable)
        self.seed_flow = analyze_seed_flow(graph)

    def finding(
        self,
        rule: str,
        site: Site,
        message: str,
        region: Optional[Region] = None,
        qualname: str = "",
    ) -> Finding:
        """The one whole-program finding constructor: *message* at *site*,
        with the witness chain that puts *qualname* in *region* when a
        region is given, and the source line read from the module at the
        site's path (none for the contract file)."""
        path, line, col = site
        if region is not None:
            message += region.via(qualname)
        parsed = self.files.get(path)
        return Finding(
            rule=rule,
            path=path,
            line=line,
            col=col,
            message=message,
            source_line="" if parsed is None else parsed.source_line(line),
        )


def _in_lint_scope(graph: CallGraph, qualname: str) -> bool:
    """Is the module owning *qualname* linted?  A linted package does not
    own a name under one of its submodules on disk (that submodule does);
    a name whose module exists nowhere (a typo) is in scope."""
    parts = qualname.split(".")
    for i in range(len(parts) - 1, 0, -1):
        parsed = graph.modules.get(".".join(parts[:i]))
        if parsed is not None:
            path = Path(parsed.path)
            if path.name != "__init__.py":
                return True
            sub = path.parent / parts[i]
            return not (sub.is_dir() or sub.with_suffix(".py").is_file())
    return False


def resolve_contract(program: ProgramContext) -> List[Finding]:
    """Resolve every name the contract's sections declare against the
    graph: each one missing is a finding against the contract file under
    its section's id (``PURE000``, ``CKPT000``, ``DUR000``), which fails
    the run — a typo must never silently shrink a checked region.

    A name whose module was not linted is skipped: a partial lint (one
    file, one package) must not demand the whole tree, so only a name its
    linted module lacks is an error.
    """
    contract = program.contract
    sections: Sequence[Optional[Section]] = (
        contract.purity, contract.fingerprint, contract.durability,
    )
    return [
        program.finding(section.rule_id, (section.source_path, 1, 0), text)
        for section in sections
        if section is not None
        for qualname, found, text in section.declared(program.graph)
        if not found and _in_lint_scope(program.graph, qualname)
    ]


def analyze_program(
    files: Mapping[str, ParsedModule], contract: "Contract"
) -> List[Finding]:
    """Run every whole-program rule over one call graph; returns raw
    findings, sorted.  CKPT001 runs only when the contract has a
    ``fingerprint`` section, the DUR rules only when it has a
    ``durability`` section.  Suppressions are the caller's to apply (the
    engine reads the same ``# repro: allow-RULE(reason)`` comments the
    per-file phase does, so one waiver syntax covers both phases)."""
    graph = build_graph(files, exclude_prefixes=contract.purity.quarantine)
    program = ProgramContext(graph, contract, files)
    findings = resolve_contract(program)
    for rule in program_rules():
        findings.extend(rule.check_program(program))
    findings.sort(key=Finding.sort_key)
    return findings
