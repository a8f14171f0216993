"""Lint engine: file discovery, per-file rule execution, reporting.

The engine is pure stdlib (``ast`` + ``re``) and deterministic: files are
visited in sorted order and findings are sorted by ``(path, line, col,
rule)``, so two runs over the same tree produce byte-identical reports.

Two phases:

* **per-file** — every registered rule (DET/SIM/OBS/API) runs over each
  file in isolation.  Results are cached by content hash
  (:mod:`repro.lint.cache`) because they depend only on the rule set and
  the file bytes.
* **whole-program** (a ``contract`` given / ``repro lint
  --whole-program``) — the interprocedural pass: a call graph over the
  whole tree and every rule family the contract's sections turn on
  (:mod:`repro.lint.contract`, :mod:`repro.lint.purity`).  Never cached;
  suppressed by the same inline ``# repro: allow-RULE(reason)`` comments
  as the per-file phase.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.lint.base import FileContext, Rule, derive_module, make_rules
from repro.lint.cache import FindingsCache, cache_enabled
from repro.lint.callgraph import ParsedModule
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
    cache_hits: int = 0
    cache_misses: int = 0
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
    """Parse one file into the shape both phases consume."""
    lines = source.splitlines()
    return ParsedModule(
        path=path,
        module=derive_module(path, lines),
        tree=ast.parse(source, filename=path),
        lines=lines,
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
    ctx = FileContext(
        path=parsed.path,
        tree=parsed.tree,
        lines=parsed.lines,
        module=parsed.module,
    )
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.check(ctx))
    effective, malformed = parse_suppressions(parsed.lines, parsed.path)
    processed = apply_suppressions(raw, effective)
    processed.extend(malformed)
    processed.sort(key=Finding.sort_key)
    return processed


def _apply_program_suppressions(
    findings: Sequence[Finding], sources: Dict[str, str]
) -> List[Finding]:
    """Run whole-program findings through each file's inline suppressions.

    Malformed-suppression findings are *not* re-emitted here — the
    per-file phase already reports them once.
    """
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    out: List[Finding] = []
    for path in sorted(by_path):
        source = sources.get(path)
        if source is None:
            out.extend(by_path[path])
            continue
        effective, _ = parse_suppressions(source.splitlines(), path)
        out.extend(apply_suppressions(by_path[path], effective))
    out.sort(key=Finding.sort_key)
    return out


def lint_whole_program(
    files: Iterable[ParsedModule],
    contract: Contract,
    sources: Optional[Dict[str, str]] = None,
) -> List[Finding]:
    """Run only the whole-program phase over pre-parsed modules.

    Used directly by the purity/seed fixture tests; production runs go
    through :func:`lint_paths` with a ``contract``.
    """
    parsed_map = {parsed.path: parsed for parsed in files}
    findings = analyze_program(parsed_map, contract)
    if sources is None:
        sources = {
            path: "\n".join(parsed.lines)
            for path, parsed in parsed_map.items()
        }
    return _apply_program_suppressions(findings, sources)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
    contract: Optional[Contract] = None,
    use_cache: Optional[bool] = None,
) -> LintReport:
    """Lint files/directories, returning a :class:`LintReport`.

    Parameters
    ----------
    contract:
        Also run the interprocedural phase over the full file set — purity
        (PURE001–PURE003), seed lineage (SEED001–SEED004) and CKPT002
        always, CKPT001 when the contract has a ``fingerprint`` section,
        the crash-consistency rules (DUR000–DUR004) when it has a
        ``durability`` section.
    use_cache:
        Force the per-file findings cache on/off; default follows
        :func:`repro.lint.cache.cache_enabled` (on, except in CI or under
        ``REPRO_LINT_CACHE=0``).
    """
    whole_program = contract is not None
    report = LintReport(whole_program=whole_program)
    rules = make_rules(select)
    cache: Optional[FindingsCache] = None
    if use_cache if use_cache is not None else cache_enabled():
        cache = FindingsCache(select=select)

    all_findings: List[Finding] = []
    parsed_files: Dict[str, ParsedModule] = {}
    sources: Dict[str, str] = {}
    for path in discover_files(paths):
        report.files_checked += 1
        path_key = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.parse_errors.append(f"{path_key}:0:0: PARSE {exc}")
            continue
        cached = cache.get(path_key, source) if cache is not None else None
        needs_parse = whole_program or cached is None
        parsed: Optional[ParsedModule] = None
        if needs_parse:
            try:
                parsed = parse_module(source, path_key)
            except SyntaxError as exc:
                report.parse_errors.append(
                    f"{path_key}:{exc.lineno or 0}:0: PARSE {exc.msg}"
                )
                continue
        if cached is not None:
            findings = cached
        else:
            assert parsed is not None
            findings = _run_file_rules(parsed, rules)
            if cache is not None:
                cache.put(path_key, source, findings)
        if parsed is not None:
            parsed_files[path_key] = parsed
            sources[path_key] = source
        all_findings.extend(findings)

    if contract is not None:
        program_findings = analyze_program(parsed_files, contract)
        all_findings.extend(
            _apply_program_suppressions(program_findings, sources)
        )

    for finding in sorted(all_findings, key=Finding.sort_key):
        if finding.suppressed:
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
    return report


def iter_rule_docs() -> Iterable[str]:
    """Human-readable one-liners for ``repro lint --rules``."""
    for rule in make_rules():
        yield f"{rule.id}: {rule.summary}"
    from repro.lint.rules_ckpt import make_ckpt_rules
    from repro.lint.rules_purity import make_purity_rules
    from repro.lint.rules_seed import make_seed_rules

    for purity_rule in make_purity_rules():
        yield f"{purity_rule.id} (whole-program): {purity_rule.summary}"
    for seed_rule in make_seed_rules():
        yield f"{seed_rule.id} (whole-program): {seed_rule.summary}"
    for ckpt_rule in make_ckpt_rules():
        yield f"{ckpt_rule.id} (whole-program): {ckpt_rule.summary}"
    from repro.lint.rules_durability import make_durability_rules

    for dur_rule in make_durability_rules():
        yield f"{dur_rule.id} (whole-program): {dur_rule.summary}"
