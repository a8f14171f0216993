"""Lint engine: file discovery, one read per module, both phases, reporting.

The engine is pure stdlib (``ast`` + ``re``) and deterministic: files are
visited in sorted order and findings are sorted by ``(path, line, col,
rule)``, so two runs over the same tree produce byte-identical reports.

Each file is read once by :func:`parse_module`: one parse, one
``ast.walk``, one import map and one reading of its suppressions, kept on
a :class:`~repro.lint.base.ParsedModule` that both phases read.

* **per-file** — every registered rule (DET/SIM/OBS/API) runs over each
  module's node list in isolation.
* **whole-program** (a ``contract`` given / ``repro lint
  --whole-program``) — the interprocedural pass: a call graph over the
  same parsed modules and every rule family the contract's sections turn
  on (:mod:`repro.lint.contract`, :mod:`repro.lint.purity`).

Both phases are suppressed by the same inline ``# repro:
allow-RULE(reason)`` comments.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.lint.base import (
    ParsedModule,
    Rule,
    collect_imports,
    derive_module,
    make_rules,
    program_rules,
)
from repro.lint.contract import Contract
from repro.lint.findings import Finding
from repro.lint.purity import analyze_program
from repro.lint.suppressions import apply_suppressions, parse_suppressions


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    """Unsuppressed findings — these fail the run."""

    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    whole_program: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def format_human(self) -> str:
        lines: List[str] = []
        for finding in self.findings:
            lines.append(finding.format_human())
        for error in self.parse_errors:
            lines.append(error)
        summary = (
            f"{self.files_checked} file(s) checked: "
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed"
        )
        if self.whole_program:
            summary += " [whole-program]"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "schema_version": 2,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "parse_errors": list(self.parse_errors),
            "whole_program": self.whole_program,
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def discover_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            found.extend(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            found.append(path)
    unique = sorted(set(found), key=lambda p: p.as_posix())
    return unique


def parse_module(source: str, path: str) -> ParsedModule:
    """Read one file the only time it is read: parse, walk, map imports."""
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    nodes = list(ast.walk(tree))
    suppressions, malformed = parse_suppressions(lines, path)
    return ParsedModule(
        path=path,
        module=derive_module(path, lines),
        tree=tree,
        lines=lines,
        nodes=nodes,
        imports=collect_imports(nodes),
        suppressions=suppressions,
        malformed=malformed,
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint a source string; returns raw findings (suppressions applied,
    suppressed ones included with ``suppressed=True``)."""
    parsed = parse_module(source, path)
    return _run_file_rules(parsed, rules if rules is not None else make_rules())


def _run_file_rules(
    parsed: ParsedModule, rules: Sequence[Rule]
) -> List[Finding]:
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(parsed))
    processed = apply_suppressions(raw, parsed.suppressions)
    processed.extend(parsed.malformed)
    processed.sort(key=Finding.sort_key)
    return processed


def lint_whole_program(
    files: Iterable[ParsedModule], contract: Contract
) -> List[Finding]:
    """Run only the whole-program phase over parsed modules.

    Findings pass through each file's inline suppressions, read when the
    file was parsed.  Malformed suppressions are *not* re-reported here —
    the per-file phase reports them once.  Used directly by the
    purity/seed fixture tests; production runs go through
    :func:`lint_paths` with a ``contract``.
    """
    parsed_map = {parsed.path: parsed for parsed in files}
    out: List[Finding] = []
    # analyze_program sorts by path first: one group per file.
    for path, group in groupby(
        analyze_program(parsed_map, contract), key=attrgetter("path")
    ):
        findings = list(group)
        parsed = parsed_map.get(path)
        if parsed is not None:
            findings = apply_suppressions(findings, parsed.suppressions)
        out.extend(findings)
    return out


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
    contract: Optional[Contract] = None,
) -> LintReport:
    """Lint files/directories, returning a :class:`LintReport`; with a
    *contract*, also run the whole-program phase over the full file set
    (:func:`repro.lint.purity.analyze_program`)."""
    report = LintReport(whole_program=contract is not None)
    rules = make_rules(select)
    all_findings: List[Finding] = []
    parsed_files: List[ParsedModule] = []
    for path in discover_files(paths):
        report.files_checked += 1
        path_key = path.as_posix()
        try:
            parsed = parse_module(path.read_text(encoding="utf-8"), path_key)
        except OSError as exc:
            report.parse_errors.append(f"{path_key}:0:0: PARSE {exc}")
            continue
        except SyntaxError as exc:
            report.parse_errors.append(
                f"{path_key}:{exc.lineno or 0}:0: PARSE {exc.msg}"
            )
            continue
        parsed_files.append(parsed)
        all_findings.extend(_run_file_rules(parsed, rules))

    if contract is not None:
        all_findings.extend(lint_whole_program(parsed_files, contract))

    for finding in sorted(all_findings, key=Finding.sort_key):
        if finding.suppressed:
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def iter_rule_docs() -> Iterable[str]:
    """Human-readable one-liners for ``repro lint --rules``."""
    for rule in make_rules():
        yield f"{rule.id}: {rule.summary}"
    for program_rule in program_rules():
        yield f"{program_rule.id} (whole-program): {program_rule.summary}"
