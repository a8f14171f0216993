"""Purity-roots configuration and the whole-program analysis driver.

The *purity roots* are the functions the experiment's statistics assume to
be pure: :func:`repro.experiment.harness.run_session` (the unit of work the
paper's confidence intervals are built on), the chunk functions that
``repro.experiment.parallel.fork_map`` runs over it
(`repro.experiment.parallel._run_chunk`,
`repro.fleet.runner._simulate_chunk`), and every
``AbrAlgorithm.choose`` implementation.  They are declared in a checked-in
``purity-roots.json`` so the contract is reviewable, versioned, and shared
between the static pass (this module) and the runtime sanitizer
(:mod:`repro.sanitizer`).

Config schema (version 1)::

    {
      "version": 1,
      "roots": ["repro.experiment.harness.run_session", ...],
      "method_roots": ["repro.abr.base.AbrAlgorithm.choose"],
      "quarantine": ["repro.obs"],
      "snapshot_modules": ["repro.experiment.harness", ...]
    }

``roots`` are exact function qualnames.  ``method_roots`` name a base-class
method; every override in the class hierarchy becomes a root.
``quarantine`` lists packages whose internals the graph never enters (the
designed nondeterminism surface).  ``snapshot_modules`` is consumed by the
runtime sanitizer: the module namespaces digested before/after every
guarded session.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple, Union

from repro.lint.callgraph import CallGraph, ParsedModule, build_graph
from repro.lint.findings import Finding

if TYPE_CHECKING:  # imported lazily at runtime to avoid cycles
    from repro.lint.dataflow import SeedFlow
    from repro.lint.rules_ckpt import FingerprintExclusions
    from repro.lint.rules_durability import DurabilityConfig

PURITY_CONFIG_VERSION = 1
DEFAULT_PURITY_CONFIG_NAME = "purity-roots.json"

#: Rule id for configuration-level problems (a declared root that does not
#: exist must fail the run loudly, not silently shrink the pure region).
CONFIG_RULE_ID = "PURE000"


@dataclass(frozen=True)
class PurityConfig:
    """Checked-in declaration of the pure entrypoints."""

    roots: Tuple[str, ...] = ()
    method_roots: Tuple[str, ...] = ()
    quarantine: Tuple[str, ...] = ()
    snapshot_modules: Tuple[str, ...] = ()
    source_path: str = "<inline>"

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PurityConfig":
        data = json.loads(Path(path).read_text())
        if data.get("version") != PURITY_CONFIG_VERSION:
            raise ValueError(
                f"unsupported purity-roots version {data.get('version')!r} "
                f"in {path}"
            )
        return cls(
            roots=tuple(str(r) for r in data.get("roots", [])),
            method_roots=tuple(str(r) for r in data.get("method_roots", [])),
            quarantine=tuple(str(q) for q in data.get("quarantine", [])),
            snapshot_modules=tuple(
                str(m) for m in data.get("snapshot_modules", [])
            ),
            source_path=Path(path).as_posix(),
        )


def default_config_path(start: Union[str, Path] = ".") -> Path:
    """``purity-roots.json`` in *start* (the conventional repo root)."""
    return Path(start) / DEFAULT_PURITY_CONFIG_NAME


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
    """Checked-in fingerprint-coverage declaration; ``None`` disables
    CKPT001 (CKPT002 needs no configuration)."""

    durability: Optional["DurabilityConfig"] = None
    """Checked-in durable-roots declaration; ``None`` disables the DUR
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
    Missing declarations surface as ``PURE000`` findings against the config
    file, which fail the run — a typo must never silently shrink the
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
                    "linted tree — fix purity-roots.json or restore the "
                    "function"
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
    files: Mapping[str, ParsedModule],
    config: PurityConfig,
    exclusions: Optional["FingerprintExclusions"] = None,
    durability: Optional["DurabilityConfig"] = None,
) -> List[Finding]:
    """Run every whole-program rule family; returns raw findings.

    Four rule families share the one call graph built here: the purity
    rules (over the pure region), the seed-lineage rules (over every
    function — seed discipline is a tree-wide contract), the
    checkpoint-coverage rules (CKPT001 only when *exclusions* is given),
    and the durability rules (only when *durability* is given).
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

    graph = build_graph(files, exclude_prefixes=config.quarantine)
    roots, findings = expand_roots(graph, config)
    pure = graph.reachable(roots)
    program = ProgramContext(
        graph=graph,
        config=config,
        pure=frozenset(pure),
        seed_flow=analyze_seed_flow(graph),
        exclusions=exclusions,
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
