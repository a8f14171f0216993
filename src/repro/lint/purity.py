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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from repro.lint.callgraph import CallGraph, ParsedModule, build_graph
from repro.lint.findings import Finding

if TYPE_CHECKING:  # imported lazily at runtime to avoid cycles
    from repro.lint.contract import Contract
    from repro.lint.dataflow import SeedFlow
    from repro.lint.rules_ckpt import FingerprintExclusions
    from repro.lint.rules_durability import DurabilityConfig

#: Rule id for configuration-level problems (a declared root that does not
#: exist must fail the run loudly, not silently shrink the pure region).
CONFIG_RULE_ID = "PURE000"


@dataclass(frozen=True)
class PurityConfig:
    """The ``purity`` section of the contract: the pure entrypoints."""

    roots: Tuple[str, ...] = ()
    method_roots: Tuple[str, ...] = ()
    quarantine: Tuple[str, ...] = ()
    source_path: str = "<inline>"


@dataclass
class ProgramContext:
    """Everything a whole-program rule may inspect."""

    graph: CallGraph
    config: PurityConfig
    pure: "frozenset[str]"
    """Qualnames of every function in the pure region."""

    seed_flow: Optional["SeedFlow"] = None
    """Seed-lineage events (:mod:`repro.lint.dataflow`), computed once per
    run and interpreted by the SEED rules."""

    exclusions: Optional["FingerprintExclusions"] = None
    """The contract's ``fingerprint`` section; ``None`` disables CKPT001
    (CKPT002 needs no configuration)."""

    durability: Optional["DurabilityConfig"] = None
    """The contract's ``durability`` section; ``None`` disables the DUR
    rule family."""

    durable: "frozenset[str]" = frozenset()
    """Qualnames of every function in the durable region (reachable from
    the declared durable roots)."""

    def pure_functions(self) -> List[str]:
        return sorted(self.pure)


def expand_roots(
    graph: CallGraph, config: PurityConfig
) -> Tuple[List[str], List[Finding]]:
    """Resolve the configured roots against the graph.

    Exact roots must exist.  Method roots expand to the base method (when
    implemented) plus every subclass override; the base *class* must exist.
    Missing declarations surface as ``PURE000`` findings against the
    contract file, which fail the run — a typo must never silently shrink the
    checked region.
    """
    roots: List[str] = []
    problems: List[Finding] = []

    def config_error(message: str) -> Finding:
        return Finding(
            rule=CONFIG_RULE_ID,
            path=config.source_path,
            line=1,
            col=0,
            message=message,
            source_line="",
        )

    for root in config.roots:
        if root in graph.functions:
            roots.append(root)
        else:
            problems.append(
                config_error(
                    f"declared purity root {root!r} was not found in the "
                    "linted tree — fix purity.roots in the contract or "
                    "restore the function"
                )
            )
    for method_root in config.method_roots:
        class_qual, _, method = method_root.rpartition(".")
        if not class_qual or class_qual not in graph.classes:
            problems.append(
                config_error(
                    f"declared method root {method_root!r} names an unknown "
                    "class"
                )
            )
            continue
        expanded: List[str] = []
        base_impl = graph.classes[class_qual].methods.get(method)
        if base_impl is not None:
            expanded.append(base_impl)
        for sub in graph.subclasses(class_qual):
            override = graph.classes[sub].methods.get(method)
            if override is not None:
                expanded.append(override)
        if not expanded:
            problems.append(
                config_error(
                    f"method root {method_root!r} has no implementation "
                    "anywhere in the hierarchy"
                )
            )
        roots.extend(expanded)
    return sorted(set(roots)), problems


def analyze_program(
    files: Mapping[str, ParsedModule], contract: "Contract"
) -> List[Finding]:
    """Run every whole-program rule family; returns raw findings.

    Four rule families share the one call graph built here: the purity
    rules (over the pure region), the seed-lineage rules (over every
    function — seed discipline is a tree-wide contract), the
    checkpoint-coverage rules (CKPT001 only when the contract has a
    ``fingerprint`` section), and the durability rules (only when it has
    a ``durability`` section).
    Suppression handling is the caller's job (the engine applies the same
    per-file ``# repro: allow-RULE(reason)`` machinery the per-file phase
    uses, so one waiver syntax covers both phases).
    """
    # Imported lazily to avoid a cycle (the rule modules import this
    # module's ProgramContext).
    from repro.lint.dataflow import analyze_seed_flow
    from repro.lint.rules_ckpt import make_ckpt_rules
    from repro.lint.rules_purity import make_purity_rules
    from repro.lint.rules_seed import make_seed_rules

    config = contract.purity
    durability = contract.durability
    graph = build_graph(files, exclude_prefixes=config.quarantine)
    roots, findings = expand_roots(graph, config)
    pure = graph.reachable(roots)
    program = ProgramContext(
        graph=graph,
        config=config,
        pure=frozenset(pure),
        seed_flow=analyze_seed_flow(graph),
        exclusions=contract.fingerprint,
    )
    for rule in make_purity_rules():
        findings.extend(rule.check_program(program))
    for seed_rule in make_seed_rules():
        findings.extend(seed_rule.check_program(program))
    for ckpt_rule in make_ckpt_rules():
        findings.extend(ckpt_rule.check_program(program))
    if durability is not None:
        # The durability family runs LAST: graph.reachable() re-roots
        # the shared witness-path parent map, so the durable region is
        # computed only after every purity-rooted rule has produced its
        # witnesses.
        from repro.lint.rules_durability import (
            expand_durable_roots,
            make_durability_rules,
        )

        durable_roots, durable_problems = expand_durable_roots(
            graph, durability
        )
        findings.extend(durable_problems)
        program.durability = durability
        program.durable = frozenset(graph.reachable(durable_roots))
        for dur_rule in make_durability_rules():
            findings.extend(dur_rule.check_program(program))
    findings.sort(key=Finding.sort_key)
    return findings
